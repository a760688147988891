"""Composite per-type estimators and the repeated-scheme baselines.

The composite scheme runs m_prime trial-mode executions of the three-stage
scheme (variant 1) or two-stage scheme (variant 2), turns their
first-absent-block indices into rough estimates, broadcasts them, selects
a phase-2 method (per-type balls-and-bins repetitions, or one multiplexed
balls-and-bins execution of the block code), and produces final estimates
from the per-type empty-slot counts.  The baselines are the block-coded
schemes repeated to standalone accuracy, and the two-phase homogeneous
protocol run once per type.  Phase 1 resolves, in one
``three_stage.run_frames`` call, the replicate's one draw of the m' trials
as block counts, shared with TxSRCS, and reads the rough estimates worked
out once beside them (homogeneous.rough_estimates), so the rough estimates
agree by construction; node blocks are drawn again only for a per-node
read.  Each
repeated baseline resolves its trials' (T, m_lof, t) count classes (0, 1,
2+), counted exactly only where a block can hold fewer than two nodes.
Both trial draws are core.draw_trials calls.  Both phase-2 branches, and
TxSRCS, read homogeneous.bb_trials, one draw per replicate at the shared
rough estimates, and the final estimates it returns beside the counts; no
report keeps a per-node array.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analysis import select_phase2
from .core import (
    EstimateReport,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    _class_chunk,
    bitmap_bp_slots,
    draw_trials,
)
from .homogeneous import (
    lof_estimates,
    rough_estimates,
    t_repetitions_bb,
    t_repetitions_srcs,
)
from .three_stage import resolve_3ss, run_3ss_bb, trial_frames
from .two_stage import MAX_TABLE_T, resolve_2ss, run_2ss_bb


def run_phase2(method, bb_runner, population, rough, config,
               bank) -> EstimateReport:
    """Phase 2 on the rough estimates: "TRepBB" runs one balls-and-bins
    trial per type, "SSBB" one bb_runner execution; both draw bb_trials.
    Its report's ledger is phase 2's and its overhead the plan broadcast."""
    if method == "TRepBB":
        final, flags, energy = t_repetitions_bb(population, rough, config,
                                                bank)
        ledger, plan = SlotLedger(stage1=population.T * config.ell), 0
    elif method == "SSBB":
        res = bb_runner(population, rough, config, bank)
        final, flags, ledger, energy, plan = (res.final, res.flags,
                                              res.ledger, res.energy,
                                              res.overhead)
    else:
        raise ValueError(f"unknown phase-2 method {method!r}")
    return EstimateReport(rough=dict(rough), final=final, phase2_method=method,
                          ledger=ledger, energy=energy, flags=flags,
                          phase2_ledger=ledger, overhead_slots=plan)


def run_hsrc(variant, population: PopulationSpec, config: ProtocolConfig,
             bank: RngBank, phase2_override=None) -> EstimateReport:
    """Run the composite scheme.  variant is "HSRC1" or "HSRC2";
    phase2_override forces "SSBB" or "TRepBB" regardless of the selection
    condition (needed to plot both branches)."""
    if variant not in ("HSRC1", "HSRC2"):
        raise ValueError(f"unknown variant {variant!r}")
    T = population.T
    resolve, bb_runner = ((resolve_3ss, run_3ss_bb) if variant == "HSRC1"
                          else (resolve_2ss, run_2ss_bb))

    _counts, phase1_ledger, plan_overhead, energy = trial_frames(
        resolve, population, config, bank)
    rough = rough_estimates(population.n, config, bank)

    # Phase-boundary broadcast of the rough estimates, received by everyone.
    boundary = bitmap_bp_slots(T * config.t_T, config.s_w)
    energy.charge_all(rx=boundary, accounted=boundary)

    if phase2_override is not None:
        method, zone = phase2_override, "override"
    else:
        method, zone = select_phase2(rough, config.ell, T, config.s_w)

    phase2 = run_phase2(method, bb_runner, population, rough, config, bank)
    energy.add(phase2.energy)

    ledger = phase1_ledger + phase2.ledger + SlotLedger(bp=boundary)
    return replace(phase2, rough=rough, phase2_zone=zone, ledger=ledger,
                   energy=energy, phase1_ledger=phase1_ledger,
                   overhead_slots=boundary + plan_overhead
                   + phase2.overhead_slots)


def _repeated_block_classes(population, t, M, bank):
    """(T, M, t) int32 per-type per-trial per-block transmitter count
    classes for the repeated baselines, which read no more: min(count, 2)
    (exact counts where core._class_chunk keeps them) of one (M, n_b) draw
    per type from stream ("rep", b), by core.draw_trials."""
    n = population.n
    opened = iter(bank.streams([("rep", b) for b, nb in enumerate(n, 1)
                                if nb]))
    return draw_trials([next(opened) if nb else None for nb in n], n, t,
                       np.empty((population.T, M, t), dtype=np.int32),
                       _class_chunk)


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
    # Both repeated baselines read the same trials: the first to run on a
    # bank reports for the other as well, where 2SS has a decoder table for
    # T types.
    schemes = _REPEATED if population.T <= MAX_TABLE_T else (scheme,)

    def reports():
        classes = _repeated_block_classes(population, config.t_T,
                                          config.m_lof, bank)
        final = lof_estimates(classes)
        return {s: _repeated_report(s, classes, config.s_w, final)
                for s in schemes}
    return bank.shared(("rep", population.n, config, schemes),
                       reports)[scheme]


def _repeated_report(scheme, counts, s_w, final):
    """Report of a repeated baseline on its trials' (T, M, t) counts."""
    resolve = resolve_2ss if scheme == _REPEATED[1] else resolve_3ss
    ledger, overhead, _ = resolve(counts, s_w)
    return EstimateReport(rough=dict(final), final=dict(final),
                          phase2_method=None, ledger=ledger, energy=None,
                          overhead_slots=overhead)
