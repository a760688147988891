"""Monte-Carlo driver: experiment presets, accuracy validation, trial-length
calibration, and CSV emission.

Plotted slot totals exclude the bookkeeping broadcasts this artifact had to
invent (phase-boundary rough-estimate broadcast, two-stage plan
announcement) so the numbers are comparable to the published totals; pass
include_overhead=True to count everything.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import n1_star, zeta
from .core import (
    PopulationSpec,
    RngBank,
    derive_config,
)
from .homogeneous import run_srcs
from .hsrc import run_baseline, run_hsrc, run_phase2
from .three_stage import run_3ss_bb
from .two_stage import run_2ss_bb


# Parameters build_config passes on to derive_config besides epsilon and
# delta.
CONFIG_KEYS = ("s_w", "ell", "m_prime", "gamma_tau", "gamma_rho",
               "gamma_iota")
# Sweep variables run_experiment reads: "none", the per-type sweeps of
# apply_sweep, and the scalar parameters of _build_population and
# build_config.
SWEEP_VARS = ("none", "rough1", "n2_value", "T", "D", "q", "n_all",
              "epsilon", "delta", *CONFIG_KEYS)


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
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError("a scheme is listed twice")
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
    """One CSV row; the fields, in order, are the columns."""
    sweep_var: str
    sweep_value: object
    scheme: str
    replicates: int
    mean_slots: float
    se_slots: float = 0.0
    stage1: float = 0.0
    stage2: float = 0.0
    stage3: float = 0.0
    bp: float = 0.0
    acc_rate_min: float = 0.0
    energy_mean_per_type: list = field(default_factory=list)


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def _rep_seed(seed, sweep_var, value, rep) -> int:
    # Imported on first use: importing hetcount does not need it.
    import hashlib

    # 3, 3.0 and np.int64(3) name one cell, so they get one seed.
    if isinstance(value, numbers.Real):
        value = int(value) if float(value).is_integer() else float(value)
    digest = hashlib.sha256(repr((seed, sweep_var, value, rep)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


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
    "p2-3ssbb": lambda pop, cfg, bank, prm: run_phase2(
        "SSBB", run_3ss_bb, pop, prm["rough"], cfg, bank),
    "p2-2ssbb": lambda pop, cfg, bank, prm: run_phase2(
        "SSBB", run_2ss_bb, pop, prm["rough"], cfg, bank),
    "p2-trepbb": lambda pop, cfg, bank, prm: run_phase2(
        "TRepBB", None, pop, prm["rough"], cfg, bank),
}


def default_n_all(D, n):
    """Manufactured nodes per type, which set the phase-1 depth: D, else
    PRESET_N_ALL or the most active nodes of a type (n_all = n would bias
    the first-absent estimates low)."""
    return D if D is not None else max(PRESET_N_ALL, *n)


def _cell_n_all(params):
    """Manufactured nodes per type, the same for every replicate of a cell:
    the n_all parameter, else default_n_all for given n, else D."""
    n, n_all = params.get("n"), params.get("n_all")
    if n is not None:
        n = [int(x) for x in n]
        if n_all is None:
            n_all = default_n_all(params.get("D"), n)
    elif n_all is None:
        n_all = params["D"]
    return (int(n_all),) * (params["T"] if n is None else len(n))


def _build_population(params, bank):
    n_all = _cell_n_all(params)
    if params.get("n") is not None:
        return PopulationSpec(n=tuple(int(x) for x in params["n"]),
                              n_all=n_all)
    pop = PopulationSpec.sample_activity(params["T"], params["D"],
                                         params["q"], bank.stream("pop"))
    if pop.n_all != n_all:
        pop = PopulationSpec(n=pop.n, n_all=n_all, D=pop.D, q=pop.q)
    return pop


def build_config(params, n_all):
    """The ProtocolConfig of ``params`` at manufactured totals ``n_all``; a
    parameter absent or None takes derive_config's default."""
    return derive_config(params["epsilon"], params.get("delta", 0.2), n_all,
                         **{k: params[k] for k in CONFIG_KEYS
                            if params.get(k) is not None})


def _with_rough(params):
    """``params`` with the rough estimates keyed by type (1-based), and n
    taken from them where it is not given; edited in place."""
    if "rough" in params:
        if params.get("n") is None:
            params["n"] = tuple(int(round(x)) for x in params["rough"])
        if not isinstance(params["rough"], dict):
            params["rough"] = dict(enumerate(params["rough"], 1))
    return params


def check_out(path):
    """Raise ConfigError for an output path whose directory is missing, or
    that is a directory: checked before anything runs."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"{path}: no such directory {folder}")
    if os.path.isdir(path):
        raise ConfigError(f"{path}: is a directory")


# Replicates per block.  A cell's replicates run a block at a time, every
# scheme over the block's replicates in turn, and what a block's banks hold
# for their scheme runs (RngBank.shared) dies with the block.  A cell of at
# most BLOCK replicates runs scheme after scheme, each over all of them, as
# bench/worker.py's checker takes the runs of a cell to be consecutive; no
# benchmark pass runs more than 40 replicates per cell.
BLOCK = 64


def _stream_keys(schemes, T, m_prime, sampled):
    """Every stream key that ``schemes`` open in one replicate of T types:
    ("pop",) for a drawn population, phase 1's ("p1", m, b), phase 2's
    ("p2", b) and the repeated trials' ("rep", b)."""
    types = range(1, T + 1)
    keys = [("pop",)] if sampled else []
    if any(s not in PHASE2_ONLY and not s.endswith("-rep") for s in schemes):
        keys += [("p1", m, b) for b in types for m in range(m_prime)]
    if any(not s.endswith("-rep") for s in schemes):
        keys += [("p2", b) for b in types]
    if any(s.endswith("-rep") for s in schemes):
        keys += [("rep", b) for b in types]
    return keys


def _blocks(seeds, keys):
    """The banks of ``seeds``, BLOCK at a time, each block opened together
    with ``keys`` derived for all of it in one pass."""
    for start in range(0, len(seeds), BLOCK):
        yield RngBank.cell(seeds[start:start + BLOCK], keys)


def _replicates(prm, seeds, schemes):
    """Bank, population and config of each replicate of one cell, one per
    seed, a block at a time (_blocks), with every key ``schemes`` open
    derived in the block's one pass; the config, which reads only the
    cell's n_all, is derived once."""
    n_all = _cell_n_all(prm)
    config = build_config(prm, n_all)
    drawn = prm.get("n") is None
    keys = _stream_keys(schemes, len(n_all), config.m_prime, drawn)
    # A given n is one population, shared by every replicate.
    population = None if drawn else _build_population(prm, None)
    for banks in _blocks(seeds, keys):
        yield [(bank, _build_population(prm, bank) if drawn else population,
                config) for bank in banks]


def run_experiment(spec: ExperimentSpec):
    if spec.out:
        check_out(spec.out)
    rows = []
    for value in spec.sweep_values:
        prm = _with_rough(apply_sweep(dict(spec.fixed), spec.sweep_var,
                                      value))
        # Every scheme runs the same replicates, so one bank per replicate
        # derives each stream once, and makes a result several schemes read
        # once, for all of them.  Cells run one after another, each a block
        # of replicates at a time, and each scheme's sums are kept in
        # replicate order.
        tallies = {scheme: _Tally() for scheme in spec.schemes}
        for contexts in _replicates(prm, [
                _rep_seed(spec.seed, spec.sweep_var, value, rep)
                for rep in range(spec.replicates)], spec.schemes):
            for scheme, tally in tallies.items():
                run = SCHEMES[scheme]
                for bank, population, config in contexts:
                    tally.add(run(population, config, bank, prm), population,
                              config, spec.include_overhead)
        rows += [tally.row(spec.sweep_var, value, scheme)
                 for scheme, tally in tallies.items()]
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
    elif sweep_var == "n2_value":
        n = list(params["n"])
        n[1] = value
        params["n"] = tuple(n)
        params["rough"] = tuple(n)
    elif sweep_var != "none":
        params[sweep_var] = value
    return params


class _Tally:
    """One scheme's sums over the replicates of a cell, added in replicate
    order."""

    def __init__(self):
        self.totals, self.stages = [], [0] * 4
        # Per type, made at the first report.
        self.acc_ok = self.energy = None

    def add(self, report, population, config, include_overhead):
        if not self.totals:
            self.acc_ok = [0] * population.T
            # Only the repeated baselines report no energy.
            self.energy = (None if report.energy is None
                           else [0.0] * population.T)
        led = report.ledger
        self.totals.append(led.total if include_overhead
                           else report.comparable_total)
        for i, slots in enumerate((led.stage1, led.stage2, led.stage3,
                                   led.bp)):
            self.stages[i] += slots
        for b in range(1, population.T + 1):
            nb = population.n[b - 1]
            if abs(report.final[b] - nb) <= config.epsilon * nb:
                self.acc_ok[b - 1] += 1
            if self.energy is not None:
                self.energy[b - 1] += report.energy.mean_energy(b, config)

    def row(self, sweep_var, value, scheme) -> ResultRow:
        totals = np.asarray(self.totals, dtype=float)
        reps = len(totals)
        se = (float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1
              else 0.0)
        # The stage columns follow the ledger's stage order.  Slot counts
        # and hits are whole numbers, summed exactly, so each mean is one
        # division.
        return ResultRow(sweep_var, value, scheme, reps, float(totals.mean()),
                         se, *(x / reps for x in self.stages),
                         min(self.acc_ok) / reps,
                         [x / reps for x in self.energy or ()])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    if isinstance(x, list):
        return ";".join(_fmt(e) for e in x)
    return str(x)


def format_csv(rows) -> str:
    """The CSV text of ``rows``, header included, as write_csv writes it."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) for r in rows]
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
            rows.append(ResultRow("T", T, name, 0, val))
    return rows


def crossover_rows(ell_values, T=3, s_w=6):
    return [ResultRow("ell", ell, "n1_star_over_ell", 0,
                      n1_star(T, ell, s_w) / ell) for ell in ell_values]


_COMPOSITE = ("hsrc1-trepbb", "hsrc1-ssbb", "hsrc2-trepbb", "hsrc2-ssbb")
_FULL = ("3ss-rep", "2ss-rep", "txsrcs", "hsrc1", "hsrc2")
_TARGETS = {"epsilon": 0.03, "delta": 0.2}

# Each published comparison at desk scale: (schemes, sweep variable, sweep
# values, fixed parameters, default replicates), or the builder of the rows
# of an analytical figure.
PRESETS = {
    "fig7a": (_COMPOSITE, "q", [round(0.1 * k, 1) for k in range(1, 10)],
              dict(_TARGETS, T=4, D=1000, n_all=PRESET_N_ALL), 500),
    "fig7b": (_COMPOSITE, "D", [100 * k for k in range(1, 11)],
              dict(_TARGETS, T=4, q=0.8, n_all=PRESET_N_ALL), 500),
    "fig8a": (PHASE2_ONLY, "n2_value", [500 * k for k in range(1, 7)],
              dict(_TARGETS, T=4, n=(500,) * 4), 500),
    "fig8b": (PHASE2_ONLY, "n2_value", [500 * k for k in range(1, 7)],
              dict(_TARGETS, T=5, n=(500,) * 5), 500),
    "fig9a": lambda: threshold_rows(range(2, 9)),
    "fig9b": lambda: crossover_rows([6638, 3009, 1674, 1075]),
    # Types 2 and 3 are rough-estimated at 2 ell, ell = 3009.
    "fig10": (("p2-3ssbb",), "rough1", [1500, 4000],
              dict(_TARGETS, T=3, rough=(1500, 2 * 3009, 2 * 3009)), 300),
    "fig11a": (_FULL, "T", list(range(3, 9)),
               dict(_TARGETS, D=100, q=0.15, n_all=PRESET_N_ALL), 500),
    "fig11b": (_FULL, "epsilon", [0.02, 0.03, 0.04, 0.05],
               dict(T=4, delta=0.2, D=100, q=0.15, n_all=PRESET_N_ALL), 500),
}


def figure_preset(name, replicates=None, seed=0, out=None,
                  include_overhead=False):
    """The rows of one PRESETS entry; ``replicates`` defaults to the
    preset's own count, and analytical figures ignore it."""
    if name not in PRESETS:
        raise ConfigError(f"unknown figure preset {name!r}")
    if callable(PRESETS[name]):
        if out:
            check_out(out)
        rows = PRESETS[name]()
        if out:
            write_csv(out, rows)
        return rows
    *experiment, default_reps = PRESETS[name]
    return run_experiment(ExperimentSpec(
        *experiment, default_reps if replicates is None else replicates,
        seed, out, include_overhead))


def validate_accuracy(scheme, populations, params, replicates, seed=0):
    """Empirical per-type accuracy rates with Wilson 95% intervals, taken
    over a grid of populations."""
    hits, tries = {}, {}
    for pop_n in populations:
        prm = _with_rough(dict(params, n=tuple(pop_n)))
        for contexts in _replicates(prm, [
                _rep_seed(seed, "validate", tuple(pop_n), rep)
                for rep in range(replicates)], [scheme]):
            for bank, population, config in contexts:
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
        # run_srcs opens TxSRCS's streams, for its one type.
        keys = _stream_keys(["txsrcs"], 1, config.m_prime, False)
        ok = 0
        for banks in _blocks([_rep_seed(seed, "cal", (ell, n), rep)
                              for rep in range(replicates)], keys):
            for bank in banks:
                _rough, final, _led, _flag = run_srcs(n, config, bank)
                ok += abs(final - n) <= epsilon * n
        worst = min(worst, ok / replicates)
    return worst


def calibrate_ell(epsilon, delta, n_grid, replicates=300, seed=0,
                  lo=50, hi=16384) -> int:
    """Smallest trial length whose worst-case empirical accuracy over the n
    grid reaches 1 - delta, by binary search."""
    target = 1.0 - delta
    if _srcs_coverage(epsilon, delta, hi, n_grid, replicates, seed) < target:
        raise ConfigError(f"upper bound of the search range (ell = {hi}) "
                          "is insufficient")
    while lo < hi:
        mid = (lo + hi) // 2
        if _srcs_coverage(epsilon, delta, mid, n_grid, replicates, seed) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
