"""Benchmark workloads: each is a fixed experiment driven through the same
public harness entry points the CLI uses (``figure_preset`` and
``run_experiment`` with an ``ExperimentSpec``).

``run(seed, replicates)`` returns the harness result rows; one scheme-run is
one replicate of one (sweep value, scheme) cell, so a call performs
``sum(row.replicates for row in rows)`` scheme-runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Fixed seed of the golden pass: its CSV digest is compared with the
# committed one, and the two simulated statistics are taken from it, so they
# repeat exactly on every run of a commit.  Negative, so it never coincides
# with a seed derived from a (non-negative) workload seed.
GOLDEN_SEED = -1

# Manufactured population per type, as in the figure presets: it sets the
# phase-1 depth t_T = 20.  Left at its default (n_all = n), t_T =
# ceil(log2 n) truncates the first-absent index and the repeated baselines
# estimate about 0.77 n at n = 2e4.
N_ALL = 1 << 20
LARGE_N = 200_000
# The repeated baselines draw an (m_lof x n) geometric array per type; at
# 2e5 per type that peaks near 7 GB, so they run at a tenth of the size.
LARGE_N_REPEATED = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int             # (sweep value, scheme) cells per call of run
    tables: tuple          # T values whose 2SS decoder tables set-up fills
    setup_samples: int     # fresh set-up processes per run (median reported)
    golden_reps: int       # replicates per cell in the golden pass
    check_reps: int        # replicates per cell in the seeded check pass
    round_reps: int        # replicates per cell in one timed round
    trace_rounds: int      # rounds in the traced pass (fixed work)
    equality: bool         # hsrc1 == hsrc2 == txsrcs estimates are checked
    run: Callable          # (seed, replicates) -> list of ResultRow


# hetcount is imported inside the runners so that the parent process, which
# only reads this table, never imports the package it measures.

def _fig11a(seed, replicates):
    from hetcount.harness import figure_preset
    return figure_preset("fig11a", replicates=replicates, seed=seed)


def _phase2_bb(seed, replicates):
    from hetcount.harness import figure_preset
    return (figure_preset("fig10", replicates=replicates, seed=seed)
            + figure_preset("fig8b", replicates=replicates, seed=seed))


def _large_pop(seed, replicates):
    from hetcount.harness import ExperimentSpec, run_experiment
    fixed = {"epsilon": 0.03, "delta": 0.2, "n_all": N_ALL}
    big = ExperimentSpec(["hsrc1", "hsrc2", "txsrcs"], "none", [LARGE_N],
                         dict(fixed, n=(LARGE_N,) * 4), replicates, seed)
    small = ExperimentSpec(["3ss-rep", "2ss-rep"], "none", [LARGE_N_REPEATED],
                           dict(fixed, n=(LARGE_N_REPEATED,) * 4),
                           replicates, seed)
    return run_experiment(big) + run_experiment(small)


WORKLOADS = {
    w.name: w for w in (
        # Tiny frames (~15 nodes per type), T=3..8: set-up is the 2SS table
        # build, warm time is per-frame Python overhead.
        Workload("fig11a-sweep", cells=30, tables=(4, 5, 6, 7, 8),
                 setup_samples=2, golden_reps=20, check_reps=5, round_reps=1,
                 trace_rounds=10, equality=True, run=_fig11a),
        # Phase 2 only at ell=3009: uniform draws, the 3SS follow-up loop
        # over flagged blocks, warm 2SS lookups over ell blocks.
        Workload("phase2-bb", cells=20, tables=(5,), setup_samples=15,
                 golden_reps=40, check_reps=10, round_reps=5, trace_rounds=20,
                 equality=False, run=_phase2_bb),
        # O(n) per-node draws, bincount and energy arrays; memory grows
        # with n.  Tables are negligible (81 codes).
        Workload("large-pop", cells=5, tables=(4,), setup_samples=15,
                 golden_reps=1, check_reps=1, round_reps=1, trace_rounds=1,
                 equality=True, run=_large_pop),
    )
}


def round_seed(seed, k):
    """Harness seed of timed round k (k >= 0) for workload seed ``seed``."""
    return seed * 100_000 + k + 1


def check_seed(seed):
    """Harness seed of the untimed check pass for workload seed ``seed``."""
    return seed * 100_000
