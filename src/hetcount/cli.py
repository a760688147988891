"""Command-line interface.

Subcommands: simulate (ad-hoc Monte-Carlo run), figure (published-figure
presets), zeta (threshold table), analyze (closed-form tables),
calibrate-ell, validate (accuracy contract check).  A flat key=value config
file can preload any flag via --config.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, harness
from .core import ELL_TABLE, UnknownAccuracyKey, derive_config
from .harness import (
    ConfigError,
    ExperimentSpec,
    TABLE_SCHEMES,
    apply_sweep,
    calibrate_ell,
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
    """Parse "1=500,2=1000" or "500,1000" into a tuple in type order."""
    parts = [p for p in text.split(",") if p]
    if "=" in parts[0]:
        items = {}
        for p in parts:
            k, v = p.split("=")
            items[int(k)] = int(v)
        return tuple(items[b] for b in sorted(items))
    return tuple(int(p) for p in parts)


def _add_common(sub):
    sub.add_argument("--T", type=int,
                     help="number of types (default: the length of --n, else 3)")
    sub.add_argument("--eps", type=float, default=0.03)
    sub.add_argument("--delta", type=float, default=0.2)
    sub.add_argument("--D", type=int)
    sub.add_argument("--q", type=float)
    sub.add_argument("--n", type=_parse_n)
    sub.add_argument("--replicates", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    sub.add_argument("--include-overhead", action="store_true")
    sub.add_argument("--config", help="key=value file preloading any flag")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hetcount",
        description="Per-type active-node cardinality estimation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="ad-hoc Monte-Carlo run")
    _add_common(sim)
    sim.add_argument("--schemes", default="hsrc1,hsrc2,txsrcs")
    sim.add_argument("--sweep-var", default="none",
                     choices=SIMULATE_SWEEP_VARS)
    sim.add_argument("--sweep-values", default="0")
    sim.set_defaults(replicates=100)

    fig = subs.add_parser("figure", help="published-figure preset")
    fig.add_argument("name", choices=["fig7a", "fig7b", "fig8a", "fig8b",
                                      "fig9a", "fig9b", "fig10", "fig11a",
                                      "fig11b"])
    _add_common(fig)

    zet = subs.add_parser("zeta", help="threshold table")
    zet.add_argument("--t-min", type=int, default=2)
    zet.add_argument("--t-max", type=int, default=8)
    zet.add_argument("--ell", type=int, default=3009)

    ana = subs.add_parser("analyze", help="closed-form tables")
    _add_common(ana)
    ana.add_argument("--rough", type=_parse_n)

    cal = subs.add_parser("calibrate-ell", help="calibrate the trial length")
    _add_common(cal)
    cal.add_argument("--n-grid", type=_parse_n, default=(1000, 10000, 50000))
    cal.set_defaults(replicates=300)

    val = subs.add_parser("validate", help="accuracy-contract check")
    _add_common(val)
    val.add_argument("--scheme", default="hsrc1",
                     choices=[s for s in harness.SCHEMES
                              if s not in harness.PHASE2_ONLY])
    val.set_defaults(replicates=300)
    for sub in (sim, val):      # default: the tables' entries
        sub.add_argument("--ell", type=int)
        sub.add_argument("--m-prime", type=int)
    return parser


def _load_config(argv):
    """Pre-scan for --config and splice its key=value pairs right after the
    subcommand, so explicit flags (parsed later) still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    path = argv[i + 1]
    extra = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            extra.extend([f"--{key.strip()}", value.strip()])
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


def _check_config(parser, params):
    """Fail on an epsilon or delta with no tabulated ell or m', or on a
    setting the protocol config rejects (ell, m', s_w < 1, a cost < 0)."""
    keys = ("ell", "m_prime", "s_w", "gamma_tau", "gamma_rho", "gamma_iota")
    try:
        derive_config(params["epsilon"], params["delta"], (2,),
                      **{k: params[k] for k in keys if k in params})
    except UnknownAccuracyKey as exc:
        parser.error(exc.args[0])
    except ValueError as exc:
        parser.error(str(exc))


def _check_population(parser, params):
    """Fail on a q outside [0, 1], a negative node count or rough estimate,
    or more active nodes per type than n_all (else D) allows."""
    q = params.get("q")
    if q is not None and not 0 <= q <= 1:
        parser.error(f"q must be in [0, 1], got {q}")
    if min(params.get("n") or (0,)) < 0 or params.get("D", 0) < 0:
        parser.error("node counts (--n, D) must be >= 0")
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
    argv = _load_config(argv)
    parser = build_parser()
    args = parser.parse_args(argv[1:])
    if getattr(args, "replicates", None) is not None and args.replicates < 1:
        parser.error(f"--replicates must be at least 1, got {args.replicates}")
    if args.command in ("simulate", "analyze", "validate"):
        T = args.T if args.T is not None else len(args.n) if args.n else 3
    if args.command == "analyze":
        _check_types(parser, T, args.n)
        _check_population(parser, {"n": args.n, "rough": args.rough})
        _check_config(parser, {"epsilon": args.eps, "delta": args.delta})
    if args.command == "validate":
        _check_types(parser, T, args.n)
        n = args.n or (1000,) * T
        params = {"T": T, "epsilon": args.eps, "delta": args.delta,
                  "n_all": _n_all(args.D, n), "ell": args.ell,
                  "m_prime": args.m_prime}
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
        values = _sweep_values(parser, args.sweep_var, args.sweep_values)
        if args.n is not None:
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
        sys.stdout.write("T,zeta1,zeta2,n1_star_over_ell\n")
        for T in range(args.t_min, args.t_max + 1):
            z1 = analysis.zeta(T, 1)
            z2 = analysis.zeta(T, 2)
            star = analysis.n1_star(T, args.ell) / args.ell
            sys.stdout.write(f"{T},{z1:.4f},{z2:.4f},{star:.4f}\n")
    elif args.command == "analyze":
        n = args.n or (1000,) * T
        rough = args.rough or n
        config = derive_config(args.eps, args.delta,
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
        ell = calibrate_ell(args.eps, args.delta, args.n_grid,
                            replicates=args.replicates, seed=args.seed)
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
