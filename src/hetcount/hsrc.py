"""Composite per-type estimators and the repeated-scheme baselines.

The composite scheme runs m_prime trial-mode executions of the three-stage
scheme (variant 1) or two-stage scheme (variant 2), turns their
first-absent-block indices into rough estimates, broadcasts them, selects
a phase-2 method (per-type balls-and-bins repetitions, or one multiplexed
balls-and-bins execution of the block code), and produces final estimates
from the per-type empty-slot counts.  The baselines are the block-coded
schemes repeated to standalone accuracy, and the two-phase homogeneous
protocol run once per type.  Phase 1 reads the replicate's one draw of the
m' trials as block counts, shared with TxSRCS, resolved once per
replicate: the block pass (resolve_block) resolves the phase-1 frames of
every replicate of a block in one three_stage.resolve call per block code
(two_stage.block_code), and the SSBB phase-2 frames likewise, before any
scheme runs on the block, and a bank used alone resolves its own
(three_stage.held_frames).  It reads the rough estimates worked out once
beside the counts (homogeneous.rough_estimates), so the rough estimates
agree by construction; node blocks are drawn again only for a per-node
read.  The repeated baselines draw their trials once per replicate as one
(T, m_lof, t) uint8 array of count classes (0, 1, 2+), held blocks first,
and one pass over it (_repeated_pass) works out the first-absent estimates
and the ledger of each code they list.  Both trial draws are
core.draw_trials calls.  Both phase-2 branches, and TxSRCS, read
homogeneous.bb_trials, one draw per replicate at the shared rough
estimates, and the joined nodes and final estimates it holds beside the
counts; no report keeps a per-node array.
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
    bb_key,
    bb_trials,
    lof_estimate,
    rough_estimates,
    t_repetitions_bb,
    t_repetitions_srcs,
    trial_counts,
    trial_key,
)
from .three_stage import hold_frames, run_3ss_bb, trial_frames
from .two_stage import block_code, run_2ss_bb


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
    name, bb_runner = (("3SS", run_3ss_bb) if variant == "HSRC1"
                       else ("2SS", run_2ss_bb))

    _counts, phase1_ledger, plan_overhead, energy = trial_frames(
        block_code(name, T), population, config, bank)
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
    """(T, M, t) uint8 per-type per-trial per-block transmitter count
    classes min(count, 2) for the repeated baselines, which read no more,
    of one (M, n_b) draw per type from stream ("rep", b), by
    core.draw_trials.  They are held blocks first, (T, t, M) in memory, so
    the report pass reads a block's classes over the trials in one row."""
    n = population.n
    opened = iter(bank.streams([("rep", b) for b, nb in enumerate(n, 1)
                                if nb]))
    classes = np.empty((population.T, t, M), dtype=np.uint8)
    return draw_trials([next(opened) if nb else None for nb in n], n, t,
                       classes.transpose(0, 2, 1), _class_chunk)


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
    return repeated_reports(population, config, bank, (scheme,))[scheme]


def repeated_reports(population, config, bank, schemes):
    """The reports of the repeated baselines ``schemes``, held in the bank's
    memo (RngBank.shared) with any it holds already: those it lacks are
    resolved from one draw of the trials.  The block pass (resolve_block)
    makes the reports of every repeated baseline its spec lists, from one
    draw; a bank used alone makes its scheme's report alone."""
    held = bank.shared(("rep", population.n, config), dict)
    missing = [s for s in schemes if s not in held]
    if missing:
        held.update(_repeated_pass(_repeated_block_classes(
            population, config.t_T, config.m_lof, bank), config.s_w, missing))
    return held


def _repeated_pass(classes, s_w, schemes):
    """The reports of the repeated baselines ``schemes`` from their trials'
    (T, M, t) count classes, in a few whole-array passes.  Each type's
    first-absent estimate (homogeneous.lof_estimate): a trial's j - 1 is
    the number of blocks before its first empty one, the last counting as
    empty (homogeneous.first_empty), counted a block at a time until every
    trial has met one, which argmax over each trial's short row took three
    times as long to find.  Each code's ledger: its trials' slots, worked
    out by BlockCode.chunk over the trials as frames in one call, summed;
    at T <= 3, where the codes coincide (two_stage.block_code), one serves
    both."""
    T, M, t = classes.shape
    lead = np.zeros((T, M), dtype=np.uint8)
    alive = classes[:, :, 0] > 0
    for k in range(1, t):
        if not alive.any():
            break
        lead += alive
        np.logical_and(alive, classes[:, :, k], out=alive)
    final = {b: lof_estimate(j) for b, j in enumerate(lead + 1, 1)}
    ledgers, reports = {}, {}
    for scheme in schemes:
        code = block_code(scheme[:3], T)    # "3SS" or "2SS"
        if code.name not in ledgers:
            slots = code.chunk(s_w, False, classes).sum(axis=0)
            ledgers[code.name] = (SlotLedger(*slots.tolist()),
                                  M * code.plan(T, t, s_w))
        ledger, overhead = ledgers[code.name]
        reports[scheme] = EstimateReport(
            rough=dict(final), final=dict(final), phase2_method=None,
            ledger=ledger, energy=None, overhead_slots=overhead)
    return reports


def resolve_block(contexts, frames, rough=None, repeated=()):
    """The block pass: before any scheme runs on a block's replicates,
    ``contexts`` (bank, population, config), resolve the frames they will
    read, in one resolve call for each (code, phase) of ``frames`` (one
    for both codes at T <= 3, two_stage.block_code), code "3SS" or "2SS"
    and phase "p1" (the m' phase-1 trials), "p2" (the SSBB phase-2 frame
    at the replicate's own rough estimates) or "given" (at the rough
    estimates ``rough``), each replicate's share held in its
    bank's memo (three_stage.hold_frames) for its scheme runs; and the
    reports of the repeated baselines ``repeated``, replicate by replicate.
    The draws are each replicate's own, as its scheme runs would make
    them.  A bank used alone, without this pass, is a block of one.  The
    repeated trials come first, each replicate's drawn and freed before
    the frames' draws are held, as a harness run of the repeated baselines
    first would."""
    if repeated:
        for bank, population, config in contexts:
            repeated_reports(population, config, bank, repeated)
    T = contexts[0][1].T
    for code, phase in dict.fromkeys((block_code(c, T), p)
                                     for c, p in frames):
        entries = []
        for bank, population, config in contexts:
            n = population.n
            if phase == "p1":
                key, counts = (trial_key(n, config),
                               trial_counts(n, config, bank))
            else:
                at = rough if phase == "given" else rough_estimates(
                    n, config, bank)
                key = bb_key(n, at, config)
                counts = bb_trials(key, bank)[0][:, None]
            entries.append((bank, key, counts))
        hold_frames(code, entries, contexts[0][2].s_w)
