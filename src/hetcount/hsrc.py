"""Composite per-type estimators and the repeated-scheme baselines.

The composite scheme runs m_prime trial-mode executions of the three-stage
scheme (variant 1) or two-stage scheme (variant 2), turns their
first-absent-block indices into rough estimates, broadcasts them, selects
a phase-2 method (per-type balls-and-bins repetitions, or one multiplexed
balls-and-bins execution of the block code), and produces final estimates
from the per-type empty-slot counts.  The baselines are the block-coded
schemes repeated to standalone accuracy, and the two-phase homogeneous
protocol run once per type.  Phase 1 and the repeated baselines resolve
their trials in one engine, ``run_trials``, over a types-first (T, M, t)
count tensor; the single-frame runners are its reference.
"""

from __future__ import annotations

import numpy as np

from .analysis import select_phase2
from .core import (
    EnergyLedger,
    EstimateReport,
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
from .three_stage import block_energy_3ss, draw_blocks, run_3ss_bb
from .two_stage import (_node_tx, plan_slots, resolve_2ss, run_2ss_bb,
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
    bb_runner = run_3ss_bb if variant == "HSRC1" else run_2ss_bb

    phase1_ledger, j, plan_overhead, energy = _phase1(
        variant == "HSRC2", population, config, bank)
    rough = {b: lof_estimate(jb) for b, jb in enumerate(j, 1)}

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


def _phase1(two_stage, population, config, bank):
    """Phase 1's m' trials, drawn as the single-frame runners draw them, in
    one run_trials call: (ledger, j, plan-broadcast slots, energy).  Each
    node's 0-based blocks are kept in one byte per trial."""
    T, M, t = population.T, config.m_prime, config.t_T
    counts = np.empty((T, M, t), dtype=np.int64)
    blocks = [np.empty((M, nb), dtype=np.min_scalar_type(t))
              for nb in population.n]
    for m in range(M):
        rngs = [bank.stream("p1", m, b) for b in range(1, T + 1)]
        trial, chosen = draw_blocks(population, t, "geometric", None, rngs)
        counts[:, m] = trial.T
        for b, row in chosen.items():
            blocks[b - 1][m] = row - 1
    ledger, j, overhead, (tx, rx) = run_trials(counts, config.s_w, two_stage,
                                               energy=True)
    energy = EnergyLedger(T)
    for b, nb in enumerate(population.n, 1):
        energy.tx[b] = _node_sums(tx[b - 1], blocks[b - 1])
        energy.rx[b] = _node_sums(rx[b - 1], blocks[b - 1])
        energy.accounted[b] = np.full(nb, float(ledger.total))
    return ledger, j, overhead, energy


def _node_sums(rows, blocks):
    """Per node i, the sum over trials m of rows[m, blocks[m, i]]."""
    out = np.zeros(blocks.shape[1])
    for row, at in zip(rows, blocks):
        out += row.take(at)
    return out


def run_trials(counts, s_w, two_stage, energy=False):
    """M trial-mode frames of the 3SS or 2SS code from their types-first
    (T, M, t) block counts: summed ledger, (T, M) first-absent blocks j,
    plan-broadcast slots, and if ``energy`` a node's (tx, rx) per type,
    trial and block.  Both decoders recover presence exactly (the 2SS
    tables are checked code by code against it), so presence is counts > 0."""
    T, M, t = counts.shape
    absent = counts == 0
    absent[:, :, -1] = True     # j = t whether or not the last block is hit
    j = absent.argmax(axis=2) + 1
    bp1 = bitmap_bp_slots(t, s_w)
    rows = None
    if not two_stage or T <= 3:
        c1 = counts[0]
        flagged = c1 + counts[1:].min(axis=0) >= 2
        stage3 = flagged & (c1 >= 2)
        K = flagged.sum(axis=1)
        ledger = SlotLedger(stage1=(T - 1) * t * M, stage2=int(K.sum()),
                            stage3=(T - 1) * int(stage3.sum()),
                            bp=M * bp1 + int((-(-K // s_w)).sum()))
        overhead = 0
        if energy:
            rows = block_energy_3ss(flagged, stage3, T, bp1)
    else:
        codes, lut = resolve_2ss(counts, axis=0)
        plan = plan_slots(T, t, s_w)
        ledger = SlotLedger(stage1=sigma_slots(T) * t * M,
                            stage2=int(lut.extra[codes].sum()),
                            bp=M * (bp1 + plan))
        overhead = M * plan
        if energy:
            tx = _node_tx(T)[:, codes]
            rows = tx, np.full(tx.shape, float(bp1 + plan))
    return ledger, j, overhead, rows


# Uniforms drawn at once per type by the repeated baselines: trials are
# drawn in chunks of max(1, _REP_CHUNK // n_b) rows, so memory stays flat in
# m_lof x n_b.
_REP_CHUNK = 1 << 20


def _repeated_block_counts(population, t, M, bank):
    """(M, t, T) per-trial per-block transmitter counts for the repeated
    baselines, a view of types-first storage, drawn in row chunks from one
    stream per type.  Successive draws from one generator continue its
    sequence, so the counts equal those of a single (M, n_b) draw."""
    T = population.T
    counts = np.zeros((T, M, t), dtype=np.int32)
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
            counts[b - 1, s:s + k] = np.bincount(
                idx.ravel(), minlength=k * t).reshape(k, t)
    return counts.transpose(1, 2, 0)


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
                                        config.m_lof, bank).transpose(2, 0, 1)
        report = _repeated_report(scheme, counts, config.s_w)
        if bank.share:
            other, = (s for s in _REPEATED if s != scheme)
            bank.keep((other, population.n, config),
                      _repeated_report(other, counts, config.s_w))
    return report


def _repeated_report(scheme, counts, s_w):
    """Report of a repeated baseline on its trials' (T, M, t) counts."""
    ledger, j, overhead, _ = run_trials(counts, s_w, scheme == _REPEATED[1])
    final = {b: lof_estimate(jb) for b, jb in enumerate(j, 1)}
    return EstimateReport(rough=dict(final), final=final, phase2_method=None,
                          ledger=ledger, energy=None,
                          overhead_slots=overhead)
