"""Homogeneous (single-type) estimation building blocks.

Two protocols live here: the first-empty-slot ("lof") protocol, whose trials
give rough order-of-magnitude estimates, and the two-phase protocol ("srcs")
that refines a rough estimate with one balls-and-bins trial.  Running the
two-phase protocol once per type is the naive baseline the heterogeneous
schemes are measured against; its phase 1 reads ``trial_counts``, one
draw per replicate that HSRC phase 1 reads too, and its phase 2 is a
core.bb_blocks trial, the balls-and-bins draw of every scheme.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    LOAD_FACTOR,
    LOF_FACTOR,
    AllSlotsBusy,
    EmptyInput,
    EnergyLedger,
    EstimateReport,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    _count_chunk,
    bb_blocks,
    draw_trials,
    for_type,
)


def participation_probability(ell, n_rough) -> float:
    """p = min(1, 1.6*ell/n_rough)."""
    if n_rough <= 0:
        return 1.0
    return min(1.0, LOAD_FACTOR * ell / n_rough)


def participations(rough, ell, T):
    """p_b of every type (0-based list) from the rough estimates (a 1-based
    dict or a sequence)."""
    return [participation_probability(ell, for_type(rough, b))
            for b in range(1, T + 1)]


def first_empty(counts):
    """1-based index of the first empty slot along the last axis of per-slot
    counts, the last slot counting as empty: j of a first-empty-slot trial,
    and the first-absent block of a type in a block-coded frame."""
    empty = counts == 0
    empty[..., -1] = True
    return empty.argmax(axis=-1) + 1


def lof_estimate(j_list) -> float:
    """Estimate 1.2897 * 2^(mean of (j-1)) from first-empty-slot indices."""
    js = np.asarray(j_list, dtype=np.int64)
    if not js.size:
        raise EmptyInput("need at least one trial result")
    return LOF_FACTOR * 2.0 ** (int(js.sum() - js.size) / js.size)


def srcs_phase1(n, config: ProtocolConfig, bank: RngBank, type_index=1):
    """Phase 1: m_prime first-empty-slot trials on stream ("p1", m, b).

    Returns (rough estimate, slot cost).  The stream naming is part of the
    cross-scheme randomness contract: the composite estimators draw their
    phase-1 block choices from the same streams.
    """
    M, t = config.m_prime, config.t_T
    rngs = bank.streams([("p1", m, type_index) for m in range(M)])
    counts = draw_trials([rngs], (n,), t, np.empty((1, M, t), dtype=np.int32),
                         _count_chunk)
    return lof_estimate(first_empty(counts[0])), M * t


def trial_counts(population: PopulationSpec, config: ProtocolConfig,
                 bank: RngBank, trials=None):
    """Types-first (T, M, t_T) block counts, read-only, of the
    first-empty-slot trials numbered ``trials`` over t_T blocks, each
    type's drawn by core.draw_trials from streams ("p1", trial, type), all
    opened in one ``streams`` call.  Without ``trials`` they are the m'
    phase-1 trials, drawn once per bank for all its "p1" readers."""
    if trials is None:
        return bank.shared(("p1", population.n, config.t_T, config.m_prime),
                           lambda: trial_counts(population, config, bank,
                                                range(config.m_prime)))
    T, M = population.T, len(trials)
    rngs = bank.streams([("p1", m, b) for b in range(1, T + 1)
                         for m in trials])
    counts = draw_trials([rngs[b * M:(b + 1) * M] for b in range(T)],
                         population.n, config.t_T,
                         np.empty((T, M, config.t_T), dtype=np.int32),
                         _count_chunk)
    counts.flags.writeable = False
    return counts


def lof_estimates(counts):
    """Each type's first-empty-slot estimate from its trials' types-first
    (T, M, t) block counts."""
    return {b: lof_estimate(jb) for b, jb in enumerate(first_empty(counts), 1)}


def srcs_final_estimate(z, ell, p) -> float:
    """n_hat = ln(z/ell) / ln(1 - p/ell)."""
    if not (0 < p <= 1):
        raise ValueError("need 0 < p <= 1")
    if z == 0:
        raise AllSlotsBusy("no empty slot; estimator undefined")
    if not (0 < z <= ell):
        raise ValueError("need 0 < z <= ell")
    if z == ell:
        return 0.0
    return math.log(z / ell) / math.log(1.0 - p / ell)


def srcs_estimate(z, ell, p):
    """(n_hat, busy) from z empty slots of ell at participation p.  When
    every slot was busy (z = 0) the log-ratio is undefined: n_hat then
    pretends half a slot was empty so the log stays finite; at p = ell = 1
    every node hits the one slot and n_hat is 1, the fewest that fill it."""
    if z == 0:
        if p == ell:
            return 1.0, True
        return math.log(1.0 / (2.0 * ell)) / math.log(1.0 - p / ell), True
    return srcs_final_estimate(z, ell, p), False


def run_srcs(n, config: ProtocolConfig, bank: RngBank, type_index=1):
    """Full two-phase run for one type.

    Returns (rough, final, ledger, flagged, phase-2 participation mask),
    flagged marking the all-slots-busy fallback; phase 2 reads ("p2", b).
    """
    rough, phase1_slots = srcs_phase1(n, config, bank, type_index)
    ell = config.ell
    p = participation_probability(ell, rough)
    counts, blocks = bb_blocks(bank.stream("p2", type_index), n, ell, p)
    final, flagged = srcs_estimate(ell - np.count_nonzero(counts), ell, p)
    ledger = SlotLedger(stage1=phase1_slots, stage2=ell, bp=1)
    return rough, final, ledger, flagged, blocks > 0


def t_repetitions_srcs(population: PopulationSpec, config: ProtocolConfig,
                       bank: RngBank) -> EstimateReport:
    """Baseline: run the two-phase protocol separately for every type, on
    the shared trial_counts and with phase 2's streams opened at once.

    The single phase-boundary broadcast slot per execution (carrying the
    rough estimate so nodes can compute p) is tracked under bp and counted
    as overhead relative to the published totals.
    """
    T, M, ell = population.T, config.m_prime, config.ell
    rough = lof_estimates(trial_counts(population, config, bank))
    rngs = bank.streams([("p2", b) for b in range(1, T + 1)])
    final, flags = {}, {}
    lb = SlotLedger(stage1=M * config.t_T, stage2=ell, bp=1)
    ledger = SlotLedger()
    energy = EnergyLedger.zeros(population)
    for b, rng in enumerate(rngs, 1):
        nb = population.n[b - 1]
        p = participation_probability(ell, rough[b])
        counts, blocks = bb_blocks(rng, nb, ell, p)
        part = blocks > 0
        final[b], flag = srcs_estimate(ell - np.count_nonzero(counts), ell, p)
        if flag:
            flags[b] = "all_slots_busy"
        ledger += lb
        # Energy for this type's own execution: one tx per phase-1 trial,
        # one phase-2 tx if participating, one rx for the boundary
        # broadcast; nodes of other types sleep through it.
        energy.charge(b, (M * nb, nb, lb.total * nb), M, 1.0, lb.total)
        energy.charge(b, (np.count_nonzero(part), 0, 0), part)
    return EstimateReport(rough=rough, final=final, phase2_method=None,
                          ledger=ledger, energy=energy, flags=flags,
                          overhead_slots=population.T)
