"""Homogeneous (single-type) estimation building blocks.

Two protocols live here: the first-empty-slot ("lof") protocol, whose trials
give rough order-of-magnitude estimates, and the two-phase protocol ("srcs")
that refines a rough estimate with one balls-and-bins trial.  Running the
two-phase protocol once per type is the naive baseline the heterogeneous
schemes are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    for_type,
    geometric_block_choices,
    uniform_block_choices,
)


@dataclass(frozen=True)
class BBTrialPlan:
    ell: int
    p: float


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


def lof_slot_index(rng, t) -> int:
    """Slot chosen by one node: slot i with probability 2^-i, tail on slot t."""
    if t < 1:
        raise ValueError("need t >= 1")
    return int(min(rng.geometric(0.5), t))


def lof_trial(n, t, rng) -> int:
    """Index of the first empty slot after n nodes each pick a slot; t if
    every slot is occupied."""
    choices = geometric_block_choices(rng, n, t)
    counts = np.bincount(choices, minlength=t + 1)[1:]
    empties = np.flatnonzero(counts == 0)
    return int(empties[0]) + 1 if empties.size else t


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
    t = config.t_T
    js = [lof_trial(n, t, bank.stream("p1", m, type_index))
          for m in range(config.m_prime)]
    return lof_estimate(js), config.m_prime * t


def bb_trial(n, plan: BBTrialPlan, rng):
    """One balls-and-bins trial: each node joins with probability plan.p and
    picks one of plan.ell slots uniformly.  Returns (empty-slot count,
    per-node participation mask)."""
    mask, slots = uniform_block_choices(rng, n, plan.ell, plan.p)
    occupancy = np.bincount(slots[mask], minlength=plan.ell + 1)[1:]
    return int(np.count_nonzero(occupancy == 0)), mask


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


def busy_fallback_estimate(ell, p) -> float:
    """Pseudo-count reported when every slot was occupied: pretend half a
    slot was empty so the log stays finite."""
    return math.log(1.0 / (2.0 * ell)) / math.log(1.0 - p / ell)


def run_srcs(n, config: ProtocolConfig, bank: RngBank, type_index=1):
    """Full two-phase run for one type.

    Returns (rough, final, ledger, flagged) where flagged marks the
    all-slots-busy fallback.  Phase-2 draws come from stream ("p2", b).
    """
    rough, phase1_slots = srcs_phase1(n, config, bank, type_index)
    p = participation_probability(config.ell, rough)
    z, mask = bb_trial(n, BBTrialPlan(ell=config.ell, p=p),
                       bank.stream("p2", type_index))
    flagged = z == 0
    if flagged:
        final = busy_fallback_estimate(config.ell, p)
    else:
        final = srcs_final_estimate(z, config.ell, p)
    ledger = SlotLedger(stage1=phase1_slots, stage2=config.ell, bp=1)
    return rough, final, ledger, flagged, mask


def t_repetitions_srcs(population: PopulationSpec, config: ProtocolConfig,
                       bank: RngBank) -> EstimateReport:
    """Baseline: run the two-phase protocol separately for every type.

    The single phase-boundary broadcast slot per execution (carrying the
    rough estimate so nodes can compute p) is tracked under bp and counted
    as overhead relative to the published totals.
    """
    rough, final, flags = {}, {}, {}
    ledger = SlotLedger()
    energy = EnergyLedger.zeros(population)
    for b in range(1, population.T + 1):
        nb = population.n[b - 1]
        rb, fb, lb, flag, part = run_srcs(nb, config, bank, type_index=b)
        rough[b], final[b] = rb, fb
        if flag:
            flags[b] = "all_slots_busy"
        ledger += lb
        # Energy for this type's own execution: one tx per phase-1 trial,
        # one phase-2 tx if participating, one rx for the boundary
        # broadcast; nodes of other types sleep through it.
        energy.tx[b] = energy.tx[b] + config.m_prime + part.astype(float)
        energy.rx[b] = energy.rx[b] + 1.0
        energy.accounted[b] = energy.accounted[b] + lb.total
    return EstimateReport(rough=rough, final=final, phase2_method=None,
                          ledger=ledger, energy=energy, flags=flags,
                          overhead_slots=population.T)
