"""Homogeneous (single-type) estimation building blocks.

Two protocols live here: the first-empty-slot ("lof") protocol, whose trials
give rough order-of-magnitude estimates, and the two-phase protocol ("srcs")
that refines a rough estimate with one balls-and-bins trial: phase 1 is
``trial_counts`` and their ``rough_estimates``, which HSRC phase 1 reads
too, phase 2 ``bb_trials``, every scheme's phase-2 draw, which estimates
by ``final_estimates``.
Run once per type it is the naive baseline (TxSRCS), and its phase 2 alone
is HSRC's per-type branch (TRepBB).  Per-node slots are drawn again when
read, in pieces of a bounded number of nodes.
"""

from __future__ import annotations

import math
from functools import partial

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
    bb_node_pieces,
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


def trial_counts(n, config: ProtocolConfig, bank: RngBank, trials=None):
    """Types-first (T, M, t_T) block counts, read-only, of the
    first-empty-slot trials numbered ``trials`` over t_T blocks, of n[b - 1]
    nodes of type b, drawn by core.draw_trials from streams ("p1", trial, b)
    opened in one call.  Without ``trials`` they are the m' phase-1 trials,
    drawn once per bank (RngBank.shared) for every scheme run that reads
    them."""
    if trials is None:
        return bank.shared(("p1", n, config.t_T, config.m_prime),
                           lambda: trial_counts(n, config, bank,
                                                range(config.m_prime)))
    T, M = len(n), len(trials)
    rngs = bank.streams([("p1", m, b) for b in range(1, T + 1)
                         for m in trials])
    counts = draw_trials([rngs[b * M:(b + 1) * M] for b in range(T)], n,
                         config.t_T, np.empty((T, M, config.t_T), np.int32),
                         _count_chunk)
    counts.flags.writeable = False
    return counts


def rough_estimates(n, config: ProtocolConfig, bank: RngBank):
    """Each type's rough estimate, lof_estimates of the m' phase-1
    trial_counts, worked out once per bank and held beside them; each read
    gets its own dict."""
    return dict(bank.shared(("rough", n, config.t_T, config.m_prime),
                            lambda: lof_estimates(trial_counts(n, config,
                                                               bank))))


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


def bb_trials(n, rough, config: ProtocolConfig, bank: RngBank):
    """Phase 2: a core.bb_blocks trial over ell slots of the n[b - 1] nodes
    of each type b, at the participation of its rough estimate, on stream
    ("p2", b): the (T, ell) per-slot counts, the final estimates and flags
    final_estimates takes from them, and ``slots(b, joined=False)``, which
    draws type b's 1-based slot per node (0 = idle), or with ``joined``
    only its participation mask, again for a per-node read, in
    core.bb_node_pieces.

    The counts and estimates are worked out once per bank (RngBank.shared)
    for every scheme run that reads them: they depend only on n, p and
    ell, all in the memo's key, so HSRC-1, HSRC-2 and TxSRCS, whose p come
    from one set of rough estimates, read one draw, as do the
    phase-2-only schemes of one replicate.  Each read gets its own final
    and flags dicts.  The counts are held read-only in the smallest
    unsigned dtype that fits them, so readers upcast before any
    arithmetic."""
    ell = config.ell
    p = tuple(participations(rough, ell, len(n)))
    keys = [("p2", b) for b in range(1, len(n) + 1)]

    def draw():
        counts = np.array([bb_blocks(rng, nb, ell, pb, fresh=True)[0]
                           for rng, nb, pb in zip(bank.streams(keys), n, p)])
        counts = counts.astype(np.min_scalar_type(counts.max()))
        counts.flags.writeable = False
        return (counts, *final_estimates(counts, p, ell))

    def slots(b, joined=False):
        return bb_node_pieces(bank.stream(*keys[b - 1]), n[b - 1], ell,
                              p[b - 1], joined)
    counts, final, flags = bank.shared(("p2", tuple(n), p, ell), draw)
    return counts, dict(final), dict(flags), slots


def final_estimates(counts, p, ell):
    """(final, flags): each type's estimate from its bb_trials counts at
    its participation p[b - 1], flagged "all_slots_busy" where every slot
    was busy."""
    final, flags = {}, {}
    for b, (row, pb) in enumerate(zip(counts, p), 1):
        final[b], busy = srcs_estimate(ell - np.count_nonzero(row), ell, pb)
        if busy:
            flags[b] = "all_slots_busy"
    return final, flags


def run_srcs(n, config: ProtocolConfig, bank: RngBank):
    """The two-phase protocol for one type of n nodes, on streams
    ("p1", m, 1) and ("p2", 1): (rough, final, ledger, flagged), flagged
    marking the all-slots-busy fallback."""
    rough = rough_estimates((n,), config, bank)
    _counts, final, flags, _slots = bb_trials((n,), rough, config, bank)
    ledger = SlotLedger(stage1=config.m_prime * config.t_T,
                        stage2=config.ell, bp=1)
    return rough[1], final[1], ledger, 1 in flags


def t_repetitions_bb(population: PopulationSpec, rough,
                     config: ProtocolConfig, bank: RngBank):
    """TRepBB: the bb_trials run one type after another, a node awake only
    in its own type's trial: (final, flags, energy)."""
    counts, final, flags, slots = bb_trials(population.n, rough, config,
                                            bank)
    energy = EnergyLedger.zeros(population)
    for b, (nb, joined) in enumerate(
            zip(population.n, counts.sum(axis=1).tolist()), 1):
        energy.charge(b, (joined, 0, config.ell * nb),
                      partial(_own_trial, slots, b, config.ell))
    return final, flags, energy


def _own_trial(slots, b, ell, tx, rx, accounted):
    """Per-node energy of type b's own trial (see t_repetitions_bb): a node
    sends once if it joined, which its participation uniform alone says."""
    for _frame, piece, joined in slots(b, joined=True):
        tx[piece] += joined
    accounted += ell


def t_repetitions_srcs(population: PopulationSpec, config: ProtocolConfig,
                       bank: RngBank) -> EstimateReport:
    """Baseline TxSRCS: the two-phase protocol once per type, phase 1 on
    the shared rough_estimates and phase 2 TRepBB's.  Each execution's one
    phase-boundary broadcast slot (carrying the rough estimate so nodes can
    compute p) is tracked under bp and counted as overhead."""
    T, M, t = population.T, config.m_prime, config.t_T
    rough = rough_estimates(population.n, config, bank)
    final, flags, energy = t_repetitions_bb(population, rough, config, bank)
    # A node's own execution also holds one tx per phase-1 trial and one rx
    # for the boundary broadcast; it sleeps through the other types'.
    energy.charge_all(tx=M, rx=1, accounted=M * t + 1)
    ledger = SlotLedger(stage1=T * M * t, stage2=T * config.ell, bp=T)
    return EstimateReport(rough=rough, final=final, phase2_method=None,
                          ledger=ledger, energy=energy, flags=flags,
                          overhead_slots=T)
