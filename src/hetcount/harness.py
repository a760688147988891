"""Monte-Carlo driver: experiment presets, accuracy validation, trial-length
calibration, and CSV emission.

Plotted slot totals exclude the bookkeeping broadcasts this artifact had to
invent (phase-boundary rough-estimate broadcast, two-stage plan
announcement) so the numbers are comparable to the published totals; pass
include_overhead=True to count everything.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import n1_star, zeta
from .core import (
    EstimateReport,
    PopulationSpec,
    RngBank,
    derive_config,
)
from .homogeneous import run_srcs
from .hsrc import _finalize, run_baseline, run_hsrc, run_phase2
from .three_stage import run_3ss_bb
from .two_stage import run_2ss_bb

CSV_COLUMNS = ["sweep_var", "sweep_value", "scheme", "replicates",
               "mean_slots", "se_slots", "stage1", "stage2", "stage3", "bp",
               "acc_rate_min", "energy_mean_per_type"]


# Sweep variables run_experiment reads: "none", the per-type sweeps of
# apply_sweep, and the scalar parameters of _build_population and
# _build_config.
SWEEP_VARS = ("none", "rough1", "n2_value", "T", "D", "q", "n_all",
              "epsilon", "delta", "s_w", "ell", "m_prime", "gamma_tau",
              "gamma_rho", "gamma_iota")


class ConfigError(ValueError):
    pass


# Manufactured nodes per type of the figure presets (and the CLI default);
# fixes the phase-1 trial depth at 20 blocks, which the published slot
# totals (e.g. T x SRC_S = T*(10*20 + ell)) correspond to.
PRESET_N_ALL = 1 << 20

# Schemes that run phase 2 alone, on rough estimates the experiment gives.
PHASE2_ONLY = ("p2-3ssbb", "p2-2ssbb", "p2-trepbb")
# Schemes that decode through the 2SS tables (two_stage.resolver_lut).
TABLE_SCHEMES = ("hsrc2", "hsrc2-trepbb", "hsrc2-ssbb", "2ss-rep", "p2-2ssbb")


@dataclass
class ExperimentSpec:
    schemes: list
    sweep_var: str
    sweep_values: list
    fixed: dict
    replicates: int = 500
    seed: int = 0
    out: str | None = None
    include_overhead: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.sweep_values:
            raise ConfigError("sweep range is empty")
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError(f"unknown sweep variable {self.sweep_var!r}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
            if (s in PHASE2_ONLY and "rough" not in self.fixed
                    and self.sweep_var != "n2_value"):
                raise ConfigError(f"{s} runs phase 2 alone: it needs rough "
                                  "estimates, from a fixed 'rough' or an "
                                  "n2_value sweep")


@dataclass
class ResultRow:
    sweep_var: str
    sweep_value: object
    scheme: str
    replicates: int
    mean_slots: float
    se_slots: float
    stage1: float
    stage2: float
    stage3: float
    bp: float
    acc_rate_min: float
    energy_mean_per_type: list = field(default_factory=list)


def _rep_seed(seed, sweep_var, value, rep) -> int:
    # 3 and 3.0 name one cell, so they get one seed.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    digest = hashlib.sha256(repr((seed, sweep_var, value, rep)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _phase2_only(kind, population, rough, config, bank) -> EstimateReport:
    z, ledger, energy, overhead = run_phase2(
        "TRepBB" if kind == "trepbb" else "SSBB",
        run_2ss_bb if kind == "2ssbb" else run_3ss_bb,
        population, rough, config, bank)
    final, flags = _finalize(z, rough, config)
    return EstimateReport(rough=dict(rough), final=final,
                          phase2_method=kind.upper(), ledger=ledger,
                          energy=energy, flags=flags, phase2_ledger=ledger,
                          overhead_slots=overhead)


SCHEMES = {
    "hsrc1": lambda pop, cfg, bank, prm: run_hsrc("HSRC1", pop, cfg, bank),
    "hsrc2": lambda pop, cfg, bank, prm: run_hsrc("HSRC2", pop, cfg, bank),
    "hsrc1-trepbb": lambda pop, cfg, bank, prm: run_hsrc(
        "HSRC1", pop, cfg, bank, phase2_override="TRepBB"),
    "hsrc1-ssbb": lambda pop, cfg, bank, prm: run_hsrc(
        "HSRC1", pop, cfg, bank, phase2_override="SSBB"),
    "hsrc2-trepbb": lambda pop, cfg, bank, prm: run_hsrc(
        "HSRC2", pop, cfg, bank, phase2_override="TRepBB"),
    "hsrc2-ssbb": lambda pop, cfg, bank, prm: run_hsrc(
        "HSRC2", pop, cfg, bank, phase2_override="SSBB"),
    "txsrcs": lambda pop, cfg, bank, prm: run_baseline("TxSRCS", pop, cfg, bank),
    "3ss-rep": lambda pop, cfg, bank, prm: run_baseline(
        "3SS-repeated", pop, cfg, bank),
    "2ss-rep": lambda pop, cfg, bank, prm: run_baseline(
        "2SS-repeated", pop, cfg, bank),
    "p2-3ssbb": lambda pop, cfg, bank, prm: _phase2_only(
        "3ssbb", pop, prm["rough"], cfg, bank),
    "p2-2ssbb": lambda pop, cfg, bank, prm: _phase2_only(
        "2ssbb", pop, prm["rough"], cfg, bank),
    "p2-trepbb": lambda pop, cfg, bank, prm: _phase2_only(
        "trepbb", pop, prm["rough"], cfg, bank),
}


def default_n_all(D, n):
    """Manufactured nodes per type, which set the phase-1 depth: D, else
    PRESET_N_ALL or the most active nodes of a type (n_all = n would bias
    the first-absent estimates low)."""
    return D if D is not None else max(PRESET_N_ALL, *n)


def _build_population(params, bank):
    if params.get("n") is not None:
        n = tuple(int(x) for x in params["n"])
        n_all = params.get("n_all")
        if n_all is None:
            n_all = default_n_all(params.get("D"), n)
        return PopulationSpec(n=n, n_all=(int(n_all),) * len(n))
    T = params["T"]
    pop = PopulationSpec.sample_activity(T, params["D"], params["q"],
                                         bank.stream("pop"))
    if params.get("n_all") is not None:
        pop = PopulationSpec(n=pop.n, n_all=(int(params["n_all"]),) * T,
                             D=pop.D, q=pop.q)
    return pop


def _build_config(params, population):
    return derive_config(
        params["epsilon"], params.get("delta", 0.2), population.n_all,
        s_w=params.get("s_w", 6), ell=params.get("ell"),
        m_prime=params.get("m_prime"),
        gamma_tau=params.get("gamma_tau", 1.0),
        gamma_rho=params.get("gamma_rho", 1.0),
        gamma_iota=params.get("gamma_iota", 1.0))


def _with_rough(params):
    """``params`` with the rough estimates keyed by type (1-based), and n
    taken from them where it is not given; edited in place."""
    if "rough" in params:
        if params.get("n") is None:
            params["n"] = tuple(int(round(x)) for x in params["rough"])
        if not isinstance(params["rough"], dict):
            params["rough"] = dict(enumerate(params["rough"], 1))
    return params


def _replicate(prm, seed, share=False):
    """Bank, population and config of one replicate."""
    bank = RngBank(seed, share)
    population = _build_population(prm, bank)
    return bank, population, _build_config(prm, population)


def run_experiment(spec: ExperimentSpec):
    rows = []
    share = {"3ss-rep", "2ss-rep"} <= set(spec.schemes)
    for value in spec.sweep_values:
        prm = _with_rough(apply_sweep(dict(spec.fixed), spec.sweep_var,
                                      value))
        # Every scheme runs the same replicates, so one bank per replicate
        # derives each stream once for all of them.  Cells still run one
        # after another, each over its replicates in order.  The repeated
        # baselines read the same trials; when the spec runs both, the
        # first of them to run reports for the other as well.
        contexts = [_replicate(prm, _rep_seed(spec.seed, spec.sweep_var,
                                              value, rep), share)
                    for rep in range(spec.replicates)]
        for scheme in spec.schemes:
            rows.append(_run_cell(spec, prm, contexts, scheme, value))
    if spec.out:
        write_csv(spec.out, rows)
    return rows


def apply_sweep(params, sweep_var, value):
    """``params`` with the sweep variable set to ``value``, edited in place:
    a swept n2_value also becomes the rough estimates."""
    if sweep_var == "rough1":
        rough = list(params["rough"])
        rough[0] = value
        params["rough"] = tuple(rough)
        params["n"] = tuple(int(round(x)) for x in rough)
    elif sweep_var == "n2_value":
        n = list(params["n"])
        n[1] = value
        params["n"] = tuple(n)
        params["rough"] = tuple(n)
    elif sweep_var != "none":
        params[sweep_var] = value
    return params


def _run_cell(spec, prm, contexts, scheme, value) -> ResultRow:
    run = SCHEMES[scheme]
    totals = []
    stages = np.zeros(4)
    acc_ok = None
    energy_sums = None
    for bank, population, config in contexts:
        report = run(population, config, bank, prm)
        total = report.ledger.total if spec.include_overhead \
            else report.comparable_total
        totals.append(total)
        led = report.ledger
        stages += (led.stage1, led.stage2, led.stage3, led.bp)
        T = population.T
        if acc_ok is None:
            acc_ok = np.zeros(T)
            energy_sums = np.zeros(T)
        for b in range(1, T + 1):
            nb = population.n[b - 1]
            if abs(report.final[b] - nb) <= config.epsilon * nb:
                acc_ok[b - 1] += 1
            if report.energy is not None:
                energy_sums[b - 1] += report.energy.mean_energy(b, config)
    totals = np.asarray(totals, dtype=float)
    reps = spec.replicates
    se = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    has_energy = bool(np.any(energy_sums)) if energy_sums is not None else False
    return ResultRow(
        sweep_var=spec.sweep_var, sweep_value=value, scheme=scheme,
        replicates=reps, mean_slots=float(totals.mean()), se_slots=se,
        stage1=float(stages[0] / reps), stage2=float(stages[1] / reps),
        stage3=float(stages[2] / reps), bp=float(stages[3] / reps),
        acc_rate_min=float(acc_ok.min() / reps),
        energy_mean_per_type=[float(x / reps) for x in energy_sums]
        if has_energy else [])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def format_csv(rows) -> str:
    """The CSV text of ``rows``, header included, as write_csv writes it."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        energy = ";".join(_fmt(e) for e in r.energy_mean_per_type)
        lines.append(",".join([
            r.sweep_var, _fmt(r.sweep_value), r.scheme, str(r.replicates),
            _fmt(r.mean_slots), _fmt(r.se_slots), _fmt(r.stage1),
            _fmt(r.stage2), _fmt(r.stage3), _fmt(r.bp), _fmt(r.acc_rate_min),
            energy]))
    return "\n".join(lines) + "\n"


def write_csv(path, rows):
    data = format_csv(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    return data


def threshold_rows(t_values, ell=3009, s_w=6):
    """Analytical threshold table: zeta1, zeta2, and the expected-slot
    crossover ratio per T."""
    rows = []
    for T in t_values:
        for name, val in (("zeta1", zeta(T, 1)), ("zeta2", zeta(T, 2)),
                          ("n1_star_over_ell", n1_star(T, ell, s_w) / ell)):
            rows.append(ResultRow(sweep_var="T", sweep_value=T, scheme=name,
                                  replicates=0, mean_slots=val, se_slots=0.0,
                                  stage1=0.0, stage2=0.0, stage3=0.0, bp=0.0,
                                  acc_rate_min=0.0))
    return rows


def crossover_rows(ell_values, T=3, s_w=6):
    rows = []
    for ell in ell_values:
        rows.append(ResultRow(sweep_var="ell", sweep_value=ell,
                              scheme="n1_star_over_ell", replicates=0,
                              mean_slots=n1_star(T, ell, s_w) / ell,
                              se_slots=0.0, stage1=0.0, stage2=0.0,
                              stage3=0.0, bp=0.0, acc_rate_min=0.0))
    return rows


def figure_preset(name, replicates=None, seed=0, out=None,
                  include_overhead=False):
    """Experiment specification (or precomputed rows, for the analytical
    figures) reproducing one published comparison at desk scale."""
    composite = ["hsrc1-trepbb", "hsrc1-ssbb", "hsrc2-trepbb", "hsrc2-ssbb"]
    all_schemes = ["3ss-rep", "2ss-rep", "txsrcs", "hsrc1", "hsrc2"]
    phase2 = ["p2-3ssbb", "p2-2ssbb", "p2-trepbb"]
    n_all = PRESET_N_ALL
    reps = replicates
    if name == "fig7a":
        spec = ExperimentSpec(composite, "q",
                              [round(0.1 * k, 1) for k in range(1, 10)],
                              {"T": 4, "epsilon": 0.03, "delta": 0.2,
                               "D": 1000, "n_all": n_all}, reps or 500, seed,
                              out, include_overhead)
    elif name == "fig7b":
        spec = ExperimentSpec(composite, "D",
                              [100 * k for k in range(1, 11)],
                              {"T": 4, "epsilon": 0.03, "delta": 0.2,
                               "q": 0.8, "n_all": n_all}, reps or 500, seed,
                              out, include_overhead)
    elif name in ("fig8a", "fig8b"):
        T = 4 if name == "fig8a" else 5
        spec = ExperimentSpec(phase2, "n2_value",
                              [500 * k for k in range(1, 7)],
                              {"T": T, "epsilon": 0.03, "delta": 0.2,
                               "n": (500,) * T}, reps or 500, seed,
                              out, include_overhead)
    elif name in ("fig9a", "fig9b"):
        rows = (threshold_rows(range(2, 9)) if name == "fig9a"
                else crossover_rows([6638, 3009, 1674, 1075]))
        if out:
            write_csv(out, rows)
        return rows
    elif name == "fig10":
        ell = 3009
        spec = ExperimentSpec(["p2-3ssbb"], "rough1", [1500, 4000],
                              {"T": 3, "epsilon": 0.03, "delta": 0.2,
                               "rough": (1500, 2 * ell, 2 * ell)},
                              reps or 300, seed, out, include_overhead)
    elif name == "fig11a":
        spec = ExperimentSpec(all_schemes, "T", list(range(3, 9)),
                              {"epsilon": 0.03, "delta": 0.2, "D": 100,
                               "q": 0.15, "n_all": n_all}, reps or 500, seed,
                              out, include_overhead)
    elif name == "fig11b":
        spec = ExperimentSpec(all_schemes, "epsilon",
                              [0.02, 0.03, 0.04, 0.05],
                              {"T": 4, "delta": 0.2, "D": 100, "q": 0.15,
                               "n_all": n_all},
                              reps or 500, seed, out, include_overhead)
    else:
        raise ConfigError(f"unknown figure preset {name!r}")
    return run_experiment(spec)


def validate_accuracy(scheme, populations, params, replicates, seed=0):
    """Empirical per-type accuracy rates with Wilson 95% intervals, taken
    over a grid of populations."""
    hits, tries = {}, {}
    for pop_n in populations:
        prm = _with_rough(dict(params, n=tuple(pop_n)))
        for rep in range(replicates):
            bank, population, config = _replicate(
                prm, _rep_seed(seed, "validate", tuple(pop_n), rep))
            report = SCHEMES[scheme](population, config, bank, prm)
            for b in range(1, population.T + 1):
                nb = population.n[b - 1]
                ok = abs(report.final[b] - nb) <= config.epsilon * nb
                hits[b] = hits.get(b, 0) + int(ok)
                tries[b] = tries.get(b, 0) + 1
    return {b: (hits[b] / tries[b], _wilson(hits[b], tries[b]))
            for b in hits}


def _wilson(k, n, zcrit=1.959963984540054):
    if n == 0:
        return (0.0, 1.0)
    phat = k / n
    z2 = zcrit * zcrit
    denom = 1 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = zcrit * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _srcs_coverage(epsilon, delta, ell, n_grid, replicates, seed):
    """Worst-case (over the n grid) empirical accuracy of the two-phase
    homogeneous protocol at trial length ell."""
    worst = 1.0
    for n in n_grid:
        config = derive_config(epsilon, delta, (max(n, 2),), ell=ell)
        ok = 0
        for rep in range(replicates):
            bank = RngBank(_rep_seed(seed, "cal", (ell, n), rep))
            _rough, final, _led, _flag, _mask = run_srcs(n, config, bank)
            ok += abs(final - n) <= epsilon * n
        worst = min(worst, ok / replicates)
    return worst


def calibrate_ell(epsilon, delta, n_grid, replicates=300, seed=0,
                  lo=50, hi=16384) -> int:
    """Smallest trial length whose worst-case empirical accuracy over the n
    grid reaches 1 - delta, by binary search."""
    target = 1.0 - delta
    if _srcs_coverage(epsilon, delta, hi, n_grid, replicates, seed) < target:
        raise ConfigError("upper bound of the search range is insufficient")
    while lo < hi:
        mid = (lo + hi) // 2
        if _srcs_coverage(epsilon, delta, mid, n_grid, replicates, seed) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
