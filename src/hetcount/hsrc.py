"""Composite per-type estimators and the repeated-scheme baselines.

The composite scheme runs m_prime trial-mode executions of the three-stage
scheme (variant 1) or two-stage scheme (variant 2), turns the per-trial
first-absent-block indices into rough estimates, broadcasts them, selects a
phase-2 method (per-type balls-and-bins repetitions, or one multiplexed
balls-and-bins execution of the block code), and produces final estimates
from the per-type empty-slot counts.

Baselines: the same block-coded schemes repeated to standalone accuracy,
and the two-phase homogeneous protocol run once per type.
"""

from __future__ import annotations

import numpy as np

from .analysis import select_phase2
from .core import (
    EnergyLedger,
    EstimateReport,
    LOF_FACTOR,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    _geometric_blocks,
    bitmap_bp_slots,
)
from .homogeneous import (
    BBTrialPlan,
    bb_trial,
    busy_fallback_estimate,
    lof_estimate,
    participation_probability,
    srcs_final_estimate,
    t_repetitions_srcs,
)
from .three_stage import run_3ss_bb, run_3ss_trial
from .two_stage import (plan_slots, resolve_2ss, run_2ss_bb, run_2ss_trial,
                        sigma_slots)


def _run_trepbb_phase2(population, rough, config, bank):
    """One balls-and-bins trial per type, on the same per-type streams the
    multiplexed phase-2 would use, so the empty-slot counts agree exactly."""
    T = population.T
    ell = config.ell
    z = {}
    ledger = SlotLedger(stage1=T * ell)
    energy = EnergyLedger(T)
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        plan = BBTrialPlan(ell=ell, p=participation_probability(ell, rough[b]))
        z[b], mask = bb_trial(nb, plan, bank.stream("p2", b))
        # A node is awake only during its own type's trial.
        energy.tx[b] = mask.astype(float)
        energy.rx[b] = np.zeros(nb)
        energy.accounted[b] = np.full(nb, float(ell))
    return z, ledger, energy


def run_phase2(method, bb_runner, population, rough, config, bank):
    """Phase 2 as (z, ledger, energy, plan-broadcast slots): "TRepBB" runs
    one balls-and-bins trial per type, "SSBB" one bb_runner execution."""
    if method == "TRepBB":
        return (*_run_trepbb_phase2(population, rough, config, bank), 0)
    if method == "SSBB":
        res = bb_runner(population, rough, config, bank)
        return res.z, res.ledger, res.energy, res.overhead
    raise ValueError(f"unknown phase-2 method {method!r}")


def _finalize(z, rough, config):
    final, flags = {}, {}
    for b, zb in z.items():
        p = participation_probability(config.ell, rough[b])
        if zb == 0:
            final[b] = busy_fallback_estimate(config.ell, p)
            flags[b] = "all_slots_busy"
        else:
            final[b] = srcs_final_estimate(zb, config.ell, p)
    return final, flags


def run_hsrc(variant, population: PopulationSpec, config: ProtocolConfig,
             bank: RngBank, phase2_override=None) -> EstimateReport:
    """Run the composite scheme.  variant is "HSRC1" or "HSRC2";
    phase2_override forces "SSBB" or "TRepBB" regardless of the selection
    condition (needed to plot both branches)."""
    if variant not in ("HSRC1", "HSRC2"):
        raise ValueError(f"unknown variant {variant!r}")
    T = population.T
    trial_runner = run_3ss_trial if variant == "HSRC1" else run_2ss_trial
    bb_runner = run_3ss_bb if variant == "HSRC1" else run_2ss_bb

    phase1_ledger = SlotLedger()
    energy = EnergyLedger.zeros(population)
    j_lists = {b: [] for b in range(1, T + 1)}
    plan_overhead = 0
    for m in range(config.m_prime):
        res = trial_runner(population, config, bank, trial_index=m)
        phase1_ledger += res.ledger
        energy.add(res.energy)
        for b in range(1, T + 1):
            j_lists[b].append(res.j[b])
        plan_overhead += res.overhead
    rough = {b: lof_estimate(j_lists[b]) for b in range(1, T + 1)}

    # Phase-boundary broadcast of the rough estimates, received by everyone.
    boundary = bitmap_bp_slots(T * config.t_T, config.s_w)
    energy.charge_all(rx=boundary, accounted=boundary)

    if phase2_override is not None:
        method, zone = phase2_override, "override"
    else:
        method, zone = select_phase2(rough, config.ell, T, config.s_w)

    z, phase2_ledger, p2_energy, p2_plan = run_phase2(
        method, bb_runner, population, rough, config, bank)
    energy.add(p2_energy)

    final, flags = _finalize(z, rough, config)
    ledger = phase1_ledger + phase2_ledger + SlotLedger(bp=boundary)
    return EstimateReport(rough=rough, final=final, phase2_method=method,
                          phase2_zone=zone, ledger=ledger, energy=energy,
                          flags=flags, phase1_ledger=phase1_ledger,
                          phase2_ledger=phase2_ledger,
                          overhead_slots=boundary + plan_overhead + p2_plan)


# Uniforms drawn at once per type by the repeated baselines: trials are
# drawn in chunks of max(1, _REP_CHUNK // n_b) rows, so memory stays flat in
# m_lof x n_b.
_REP_CHUNK = 1 << 20


def _repeated_block_counts(population, t, M, bank):
    """(M, t, T) per-trial per-block transmitter counts for the repeated
    baselines, drawn in row chunks from one stream per type.  Successive
    draws from one generator continue its sequence, so the counts equal
    those of a single (M, n_b) draw."""
    T = population.T
    counts = np.zeros((M, t, T), dtype=np.int32)
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        if nb == 0:
            continue
        rng = bank.stream("rep", b)
        rows = min(M, max(1, _REP_CHUNK // nb))
        chunk = np.empty((rows, nb))
        for s in range(0, M, rows):
            k = min(rows, M - s)
            idx = _geometric_blocks(rng.random(out=chunk[:k]), t)
            idx += np.arange(-1, k * t - 1, t)[:, None]
            counts[s:s + k, :, b - 1] = np.bincount(
                idx.ravel(), minlength=k * t).reshape(k, t)
    return counts


def _j_from_presence(presence, t):
    """First block index with no presence, per trial; t if every block hit."""
    absent = ~presence
    any_absent = absent.any(axis=1)
    idx = absent.argmax(axis=1) + 1
    return np.where(any_absent, idx, t)


_REPEATED = ("3SS-repeated", "2SS-repeated")


def run_baseline(scheme, population: PopulationSpec, config: ProtocolConfig,
                 bank: RngBank) -> EstimateReport:
    """Standalone-accuracy baselines: "3SS-repeated", "2SS-repeated" (m_lof
    trials of the block-coded scheme), or "TxSRCS" (the two-phase
    homogeneous protocol once per type)."""
    if scheme == "TxSRCS":
        return t_repetitions_srcs(population, config, bank)
    if scheme not in _REPEATED:
        raise ValueError(f"unknown baseline {scheme!r}")
    # Both repeated baselines read the same trials.  On a sharing bank the
    # first to run reports for the other as well and leaves it that report,
    # so the trials are drawn once per replicate.
    report = bank.take((scheme, population.n, config))
    if report is None:
        counts = _repeated_block_counts(population, config.t_T,
                                        config.m_lof, bank)
        report = _repeated_report(scheme, population, config, counts)
        if bank.share:
            other, = (s for s in _REPEATED if s != scheme)
            bank.keep((other, population.n, config),
                      _repeated_report(other, population, config, counts))
    return report


def _repeated_report(scheme, population, config, counts):
    """Report of a repeated baseline on its trials' (M, t, T) block counts."""
    T = population.T
    t = config.t_T
    M = config.m_lof
    s_w = config.s_w
    c1 = counts[:, :, 0]
    cb = counts[:, :, 1:]

    if scheme == "3SS-repeated" or T <= 3:
        flagged = ((c1[:, :, None] + cb) >= 2).all(axis=2)
        K = flagged.sum(axis=1)
        R = (flagged & (c1 >= 2)).sum(axis=1)
        stage1 = (T - 1) * t * M
        stage2 = int(K.sum())
        stage3 = (T - 1) * int(R.sum())
        bp = M * bitmap_bp_slots(t, s_w) + int(
            np.ceil(K / s_w).astype(np.int64).sum())
        overhead = 0
        # The three-stage follow-up provably recovers exact presence
        # (decoder soundness tests), so the fast path reads it directly.
        presence = counts > 0
    else:
        _codes, presence, extra = resolve_2ss(counts)
        stage1 = sigma_slots(T) * t * M
        stage2 = int(extra.sum())
        stage3 = 0
        plan = plan_slots(T, t, s_w)
        bp = M * (bitmap_bp_slots(t, s_w) + plan)
        overhead = M * plan
    final = {}
    for b in range(1, T + 1):
        j = _j_from_presence(presence[:, :, b - 1], t)
        final[b] = LOF_FACTOR * 2.0 ** (float(j.sum() - M) / M)
    ledger = SlotLedger(stage1=stage1, stage2=stage2, stage3=stage3, bp=bp)
    return EstimateReport(rough=dict(final), final=final, phase2_method=None,
                          ledger=ledger, energy=None,
                          overhead_slots=overhead)
