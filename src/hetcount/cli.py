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
from .core import ELL_TABLE, MAX_NODES, UnknownAccuracyKey
from .harness import (
    ConfigError,
    ExperimentSpec,
    TABLE_SCHEMES,
    apply_sweep,
    calibrate_ell,
    check_out,
    default_n_all as _n_all,
    figure_preset,
    format_csv,
    run_experiment,
    validate_accuracy,
)
from .two_stage import MAX_TABLE_T


# Sweep variables that take whole numbers.  Their values are parsed as int,
# so "4" and "4.0" name the same cell and the same replicate seeds.
INT_SWEEP_VARS = ("T", "D", "n_all", "ell", "m_prime", "s_w", "n2_value")
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


def _sweep_values(parser, var, text):
    values = []
    for item in text.split(","):
        try:
            value = float(item)
        except ValueError:
            parser.error(f"--sweep-values: {item!r} is not a number")
        if var in INT_SWEEP_VARS:
            if not value.is_integer():
                parser.error(f"--sweep-values: {var} takes whole numbers, "
                             f"got {item!r}")
            value = int(value)
        values.append(value)
    return values


def _check_types(parser, T, n):
    if T < 2:
        parser.error(f"T must be at least 2, got {T}")
    if n is not None and len(n) != T:
        parser.error(f"--n gives {len(n)} types but T is {T}")


def _check_config(parser, params, n_all=(2,)):
    """The protocol config of ``params`` at ``n_all``, or a one-line error
    for a setting that derive_config rejects."""
    try:
        return harness.build_config(params, n_all)
    except UnknownAccuracyKey as exc:
        parser.error(exc.args[0])
    except ValueError as exc:
        parser.error(str(exc))


def _check_population(parser, params, drawn=True):
    """Fail on a q outside [0, 1], a negative node count or rough estimate,
    more active nodes per type than n_all (else D) allows or, where nodes
    are ``drawn``, than MAX_NODES."""
    q = params.get("q")
    if q is not None and not 0 <= q <= 1:
        parser.error(f"q must be in [0, 1], got {q}")
    counts = (*(params.get("n") or ()), params.get("D", 0))
    if min(counts) < 0:
        parser.error("node counts (--n, D) must be >= 0")
    if drawn and max(counts) > MAX_NODES:
        parser.error(f"node counts (--n, D) must be at most {MAX_NODES}")
    if min(params.get("rough") or (0,)) < 0:
        parser.error("rough estimates (--rough) must be >= 0")
    total = params.get("n_all", params.get("D"))
    most = max(params["n"]) if params.get("n") is not None else params.get("D")
    if total is not None and most is not None and most > total:
        parser.error(f"up to {most} active nodes per type, but n_all "
                     f"(else D) is {total}")


def _check_tables(parser, T, schemes):
    """Fail on a scheme that decodes through a 2SS table past its bound."""
    using = [s for s in schemes if s in TABLE_SCHEMES]
    if T > MAX_TABLE_T and using:
        parser.error(f"{', '.join(using)}: 2SS decoder tables are built for "
                     f"T <= {MAX_TABLE_T}, got T = {T}")


def main(argv=None):
    argv = list(sys.argv if argv is None else ["hetcount"] + list(argv))
    parser = build_parser()
    argv = _load_config(parser, argv)
    args = parser.parse_args(argv[1:])
    try:
        return _run(parser, args)
    except MemoryError as exc:
        parser.error(f"out of memory: {exc}".rstrip(": "))


def _run(parser, args):
    """Check ``args`` and run its subcommand: 0, or a one-line error."""
    if getattr(args, "replicates", None) is not None and args.replicates < 1:
        parser.error(f"--replicates must be at least 1, got {args.replicates}")
    if getattr(args, "out", None) is not None:
        try:
            check_out(args.out)
        except ConfigError as exc:
            parser.error(f"--out {exc}")
    if args.command in ("simulate", "analyze", "validate"):
        T = args.T if args.T is not None else len(args.n) if args.n else 3
    if args.command == "analyze":
        _check_types(parser, T, args.n)
        if args.rough is not None and len(args.rough) != T:
            parser.error(f"--rough gives {len(args.rough)} types but T is {T}")
        _check_population(parser, {"n": args.n, "rough": args.rough},
                          drawn=False)
    if args.command == "validate":
        _check_types(parser, T, args.n)
        n = args.n or (1000,) * T
        params = {"epsilon": args.eps, "delta": args.delta, "ell": args.ell,
                  "m_prime": args.m_prime, "n_all": _n_all(args.D, n)}
        _check_population(parser, dict(params, n=n))
        _check_config(parser, params)
        _check_tables(parser, T, [args.scheme])

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
        values = _sweep_values(parser, args.sweep_var,
                               "0" if args.sweep_values is None
                               else args.sweep_values)
        if args.n is not None:
            if "q" in fixed or args.sweep_var == "q":
                parser.error("--q samples the active nodes from --D; it "
                             "has no effect with --n")
            fixed["n"] = args.n
            if args.sweep_var not in ("D", "n_all"):
                swept = values if args.sweep_var == "n2_value" else ()
                fixed["n_all"] = _n_all(args.D, (*args.n, *swept))
        missing = [f"--{k}" for k in ("D", "q")
                   if k not in fixed and args.sweep_var != k]
        if args.n is None and missing:
            parser.error("simulate needs --n, or --D and --q "
                         f"(missing {' and '.join(missing)})")
        if args.n is None and args.sweep_var == "n2_value":
            parser.error("--sweep-var n2_value needs --n")
        try:
            spec = ExperimentSpec(
                schemes=args.schemes.split(","), sweep_var=args.sweep_var,
                sweep_values=values, fixed=fixed,
                replicates=args.replicates, seed=args.seed,
                out=args.out, include_overhead=args.include_overhead)
        except ConfigError as exc:
            parser.error(str(exc))
        # A swept T, epsilon, delta, n_all, ... replaces the fixed value.
        for value in values:
            cell = apply_sweep(dict(fixed), args.sweep_var, value)
            _check_types(parser, cell["T"], args.n)
            _check_population(parser, cell)
            _check_config(parser, cell)
            _check_tables(parser, cell["T"], spec.schemes)
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
        config = _check_config(parser, {"epsilon": args.eps,
                                        "delta": args.delta, "ell": args.ell,
                                        "m_prime": args.m_prime},
                               tuple(max(x, 2) for x in n))
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
        if min(args.n_grid) < 0:
            parser.error("node counts (--n-grid) must be >= 0")
        # Zero nodes are estimated exactly at every ell.
        if max(args.n_grid) < 1:
            parser.error("--n-grid needs a node count >= 1")
        # ell is what is calibrated, so epsilon need not be tabulated.
        _check_config(parser, {"epsilon": args.eps, "delta": args.delta,
                               "ell": 1})
        try:
            ell = calibrate_ell(args.eps, args.delta, args.n_grid,
                                replicates=args.replicates, seed=args.seed)
        except ConfigError as exc:
            parser.error(str(exc))
        table = ELL_TABLE.get(round(args.eps, 6))
        ref = f" (table: {table})" if table else ""
        sys.stdout.write(f"calibrated ell={ell}{ref}\n")
    elif args.command == "validate":
        rates = validate_accuracy(
            args.scheme, [n], params,
            replicates=args.replicates, seed=args.seed)
        for b, (rate, (lo, hi)) in sorted(rates.items()):
            sys.stdout.write(
                f"type {b}: rate={rate:.4f} wilson95=({lo:.4f},{hi:.4f})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
