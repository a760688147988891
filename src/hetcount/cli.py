"""Command-line interface.

Subcommands: simulate (ad-hoc Monte-Carlo run), figure (published-figure
presets), zeta (threshold table), analyze (closed-form tables),
calibrate-ell, validate (accuracy contract check).  A flat key=value config
file can preload any flag via --config.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, harness
from .core import ELL_TABLE
from .harness import (
    ConfigError,
    ExperimentSpec,
    calibrate_ell,
    check_cell,
    default_n_all as _n_all,
    figure_preset,
    format_csv,
    run_experiment,
    validate_accuracy,
)


# simulate takes no rough estimates, so it cannot sweep one.
SIMULATE_SWEEP_VARS = tuple(v for v in harness.SWEEP_VARS if v != "rough1")


def _parse_n(text):
    """Parse "1=500,2=1000" or "500,1000" into a tuple in type order; keyed
    counts must name the types 1..k once each."""
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise argparse.ArgumentTypeError("need at least one count")
    if "=" not in parts[0]:
        return tuple(int(p) for p in parts)
    items = sorted(tuple(int(x) for x in p.split("=")) for p in parts)
    if [k for k, _v in items] != list(range(1, len(items) + 1)):
        raise argparse.ArgumentTypeError(
            f"keys must be the types 1..{len(items)}, once each: {text!r}")
    return tuple(v for _k, v in items)


# Flags a subcommand may take; each subcommand adds those it reads.
FLAGS = {
    "T": dict(type=int,
              help="number of types (default: the length of --n, else 3)"),
    "eps": dict(type=float, default=0.03),
    "delta": dict(type=float, default=0.2),
    "D": dict(type=int),
    "q": dict(type=float),
    "n": dict(type=_parse_n),
    "replicates": dict(type=int),
    "seed": dict(type=int, default=0),
    "out": {},
    "include-overhead": dict(action="store_true"),
    "ell": dict(type=int, help="default: the table entry for --eps"),
    "m-prime": dict(type=int, help="default: the table entry for --delta"),
}


def _add_flags(sub, *names):
    for name in names:
        sub.add_argument(f"--{name}", **FLAGS[name])
    sub.add_argument("--config", help="key=value file preloading any flag")


def build_parser():
    # No prefix matching: calibrate-ell --n is not --n-grid.
    parser = argparse.ArgumentParser(
        prog="hetcount", allow_abbrev=False,
        description="Per-type active-node cardinality estimation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    sim = add_parser("simulate", help="ad-hoc Monte-Carlo run")
    _add_flags(sim, *FLAGS)
    sim.add_argument("--schemes", default="hsrc1,hsrc2,txsrcs")
    sim.add_argument("--sweep-var", default="none",
                     choices=SIMULATE_SWEEP_VARS)
    sim.add_argument("--sweep-values",
                     help="values of --sweep-var (default: 0)")
    sim.set_defaults(replicates=100)

    fig = add_parser("figure", help="published-figure preset")
    fig.add_argument("name", choices=list(harness.PRESETS))
    _add_flags(fig, "replicates", "seed", "out", "include-overhead")

    zet = add_parser("zeta", help="threshold table")
    zet.add_argument("--t-min", type=int, default=2)
    zet.add_argument("--t-max", type=int, default=8)
    zet.add_argument("--ell", type=int, default=3009)

    ana = add_parser("analyze", help="closed-form tables")
    _add_flags(ana, "T", "eps", "delta", "n", "ell", "m-prime")
    ana.add_argument("--rough", type=_parse_n)

    cal = add_parser("calibrate-ell", help="calibrate the trial length")
    _add_flags(cal, "eps", "delta", "replicates", "seed")
    cal.add_argument("--n-grid", type=_parse_n, default=(1000, 10000, 50000))
    cal.set_defaults(replicates=300)

    val = add_parser("validate", help="accuracy-contract check")
    _add_flags(val, "T", "eps", "delta", "D", "n", "replicates", "seed",
               "ell", "m-prime")
    val.add_argument("--scheme", default="hsrc1",
                     choices=[s for s in harness.SCHEMES
                              if s not in harness.PHASE2_ONLY])
    val.set_defaults(replicates=300)
    return parser


def _load_config(parser, argv):
    """Pre-scan for --config and splice its key=value pairs right after the
    subcommand as --key=value, so explicit flags (parsed later) still win
    and a key the subcommand does not take is an unrecognized argument."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        parser.error("argument --config: expected one argument")
    path = argv[i + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"--config {path}: {exc.strerror}")
    extra = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.append(f"--{key.strip()}={value.strip()}")
    return argv[:2] + extra + argv[2:]


def main(argv=None):
    argv = list(sys.argv if argv is None else ["hetcount"] + list(argv))
    parser = build_parser()
    argv = _load_config(parser, argv)
    args = parser.parse_args(argv[1:])
    try:
        return _run(parser, args)
    except ConfigError as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        parser.error(f"out of memory: {exc}".rstrip(": "))


def _run(parser, args):
    """Run the subcommand of ``args``: 0, or a one-line error for a flag
    the API does not take; the API raises ConfigError for the rest."""
    if args.command in ("simulate", "analyze", "validate"):
        T = args.T if args.T is not None else len(args.n) if args.n else 3
    if args.command == "simulate":
        fixed = {"T": T, "epsilon": args.eps, "delta": args.delta,
                 "ell": args.ell, "m_prime": args.m_prime}
        if args.D is not None:
            fixed["D"] = args.D
        if args.q is not None:
            fixed["q"] = args.q
        if args.sweep_var == "none" and args.sweep_values is not None:
            parser.error("--sweep-values gives values of --sweep-var; it "
                         "has no effect without it")
        # Floats: the API takes a whole one as its int where it must.
        try:
            values = [float(v) for v in ("0" if args.sweep_values is None
                                         else args.sweep_values).split(",")]
        except ValueError as exc:
            parser.error(f"--sweep-values: {exc}")
        if args.n is not None:
            if "q" in fixed or args.sweep_var == "q":
                parser.error("--q samples the active nodes from --D; it "
                             "has no effect with --n")
            fixed["n"] = args.n
            if args.sweep_var not in ("D", "n_all"):
                swept = values if args.sweep_var == "n2_value" else ()
                fixed["n_all"] = _n_all(args.D, (*args.n, *swept))
        spec = ExperimentSpec(
            schemes=args.schemes.split(","), sweep_var=args.sweep_var,
            sweep_values=values, fixed=fixed, replicates=args.replicates,
            seed=args.seed, out=args.out,
            include_overhead=args.include_overhead)
        sys.stdout.write(format_csv(run_experiment(spec)))
    elif args.command == "figure":
        rows = figure_preset(args.name, replicates=args.replicates,
                             seed=args.seed, out=args.out,
                             include_overhead=args.include_overhead)
        sys.stdout.write(format_csv(rows))
    elif args.command == "zeta":
        if args.t_min < 2:
            parser.error(f"--t-min must be at least 2, got {args.t_min}")
        if args.t_max < args.t_min:
            parser.error(f"--t-max {args.t_max} is below --t-min "
                         f"{args.t_min}")
        if args.ell < 1:
            parser.error(f"--ell must be at least 1, got {args.ell}")
        lines = ["T,zeta1,zeta2,n1_star_over_ell\n"]
        for T in range(args.t_min, args.t_max + 1):
            try:
                rows = harness.threshold_rows([T], args.ell)
            except analysis.NoBracket:
                parser.error(f"no n1* crossover at T = {T}, ell = {args.ell}")
            values = ",".join(f"{r.mean_slots:.4f}" for r in rows)
            lines.append(f"{T},{values}\n")
        sys.stdout.write("".join(lines))
    elif args.command == "analyze":
        n = args.n or (1000,) * T
        rough = args.rough or n
        cell = {"T": T, "n": n, "rough": args.rough, "epsilon": args.eps,
                "delta": args.delta, "ell": args.ell,
                "m_prime": args.m_prime}
        check_cell((), cell)
        config = harness.build_config(cell, tuple(max(x, 2) for x in n))
        ek, er = analysis.expected_K_R(n, rough, config.ell, T)
        lam = analysis.lambda_II(n, rough, config.ell, T, config.s_w)
        method, zone = analysis.select_phase2(rough, config.ell, T,
                                              config.s_w)
        sys.stdout.write(f"ell={config.ell} EK={ek:.4f} ER={er:.4f} "
                         f"lambda_II={lam:.4f} TRep={T * config.ell} "
                         f"phase2={method} zone={zone}\n")
        for b, comp in analysis.expected_energy_3ss(
                n, config, "bb", rough=rough).items():
            sys.stdout.write(
                f"type {b}: tx={comp['tx_slots']:.4f} "
                f"rx={comp['rx_slots']:.4f} idle={comp['idle_slots']:.4f} "
                f"energy={comp['energy']:.4f}\n")
    elif args.command == "calibrate-ell":
        ell = calibrate_ell(args.eps, args.delta, args.n_grid,
                            replicates=args.replicates, seed=args.seed)
        table = ELL_TABLE.get(round(args.eps, 6))
        ref = f" (table: {table})" if table else ""
        sys.stdout.write(f"calibrated ell={ell}{ref}\n")
    elif args.command == "validate":
        n = args.n or (1000,) * T
        params = {"T": T, "epsilon": args.eps, "delta": args.delta,
                  "ell": args.ell, "m_prime": args.m_prime,
                  "n_all": _n_all(args.D, n)}
        rates = validate_accuracy(args.scheme, [n], params,
                                  replicates=args.replicates, seed=args.seed)
        for b, (rate, (lo, hi)) in sorted(rates.items()):
            sys.stdout.write(
                f"type {b}: rate={rate:.4f} wilson95=({lo:.4f},{hi:.4f})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
