"""The three-stage block-coded scheme and its balls-and-bins variant.

Stage 1 splits the frame into blocks of T-1 slots; each participating node
picks one block and transmits its type's symbol pattern there (type 1: alpha
in every slot, type b >= 2: beta in slot b-1 only).  The base station decodes
each block; blocks colliding in every slot are flagged and re-examined in a
one-slot stage 2 (only type-1 nodes transmit) and, if that slot also
collides, a (T-1)-slot stage 3 with one dedicated slot per remaining type.

Two stage-1 modes exist: "trial" mode (t_T blocks, geometric block choice,
everyone participates) which yields first-absent-block indices j_b, and
"bb" mode (ell blocks, uniform choice, participation p_b) which yields
empty-block counts z_b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EnergyLedger,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    SlotOutcome,
    bitmap_bp_slots,
    geometric_block_choices,
    slot_outcomes,
    uniform_block_choices,
)
from .homogeneous import first_empty, participations

_SA = SlotOutcome.SINGLE_ALPHA.value
_SB = SlotOutcome.SINGLE_BETA.value
_COLL = SlotOutcome.COLLISION.value


def sym3_matrix(T):
    """Per-type symbol pattern over the T-1 block slots; None = silent."""
    rows = [tuple("alpha" for _ in range(T - 1))]
    for b in range(2, T + 1):
        rows.append(tuple("beta" if s == b - 2 else None for s in range(T - 1)))
    return tuple(rows)


@dataclass
class Stage1Result3SS:
    counts: np.ndarray      # (N, T) ground-truth transmitters per block
    outcomes: np.ndarray    # (N, T-1) SlotOutcome codes as seen by the BS
    chosen: dict            # type -> 1-based block index per node (0 = idle)
    flagged: list           # ascending 1-based all-collision block indices


def outcomes_3ss(counts) -> np.ndarray:
    """Slot outcomes of every block from the per-type transmitter counts."""
    return slot_outcomes(counts[:, :1], counts[:, 1:])


def draw_blocks(population: PopulationSpec, n_blocks, distribution,
                participation, rngs):
    """(counts, chosen): (n_blocks, T) transmitters per block, and each
    type's 1-based block per node (0 = idle).  distribution is "geometric"
    (trial mode, everyone participates) or "uniform" (bb mode, type b with
    probability participation[b - 1]); rngs holds one generator per type."""
    T = population.T
    counts = np.zeros((n_blocks, T), dtype=np.int64)
    chosen = {}
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        if distribution == "geometric":
            blocks = geometric_block_choices(rngs[b - 1], nb, n_blocks)
        elif distribution == "uniform":
            mask, blocks = uniform_block_choices(
                rngs[b - 1], nb, n_blocks, participation[b - 1])
            blocks = np.where(mask, blocks, 0)
        else:
            raise ValueError(f"unknown block distribution {distribution!r}")
        chosen[b] = blocks
        # Bin 0 counts idle nodes and is dropped.
        counts[:, b - 1] = np.bincount(blocks, minlength=n_blocks + 1)[1:]
    return counts, chosen


def run_3ss_stage1(population: PopulationSpec, n_blocks, distribution,
                   participation, rngs) -> Stage1Result3SS:
    """Stage 1 only, drawn as in draw_blocks."""
    counts, chosen = draw_blocks(population, n_blocks, distribution,
                                 participation, rngs)
    outcomes = outcomes_3ss(counts)
    flagged = (np.flatnonzero((outcomes == _COLL).all(axis=1)) + 1).tolist()
    return Stage1Result3SS(counts=counts, outcomes=outcomes, chosen=chosen,
                           flagged=flagged)


def resolve_flagged(counts):
    """Stages 2 and 3 of all-collision blocks, from their (k, T) per-type
    counts: (presence, stage3).  Stage 2 is one slot where only type-1
    nodes transmit.  With at most one type-1 node, every other type must
    fill its own colliding slot (an empty stage-2 slot even proves two or
    more of each); with two or more (stage3), stage 3 gives every other type
    a dedicated slot."""
    c1 = counts[:, :1]
    presence = counts > 0
    presence[:, 1:] |= c1 <= 1
    return presence, c1[:, 0] >= 2


@dataclass
class Frame3SS:
    presence: np.ndarray    # (N, T) bool, exact per-type presence per block
    flagged: list           # stage-2 block indices, ascending, 1-based
    r_list: list            # stage-3 block indices, ascending, 1-based
    ledger: SlotLedger
    stage1: Stage1Result3SS

    def first_absent(self, b):
        return int(first_empty(self.presence[:, b - 1]))


def run_3ss_followup(stage1: Stage1Result3SS, s_w) -> Frame3SS:
    """Stages 2 and 3 plus broadcast accounting.  Presence of every type
    in every block is resolved: non-flagged blocks decode directly from their
    slot outcomes, flagged blocks through resolve_flagged."""
    counts = stage1.counts
    out = stage1.outcomes
    n_blocks, T = counts.shape
    presence = np.zeros((n_blocks, T), dtype=bool)

    # Non-flagged blocks decode slot-wise: a single-alpha anywhere pins
    # type 1; slot b-2 pins type b directly (single-beta => present, empty
    # or single-alpha => absent, collision => present because the block has
    # at least one non-collision slot fixing the type-1 count at <= 1).
    presence[:, 0] = (out == _SA).any(axis=1)
    presence[:, 1:] = (out == _SB) | (out == _COLL)

    flagged = stage1.flagged
    rows = np.asarray(flagged, dtype=np.intp) - 1
    presence[rows], stage3 = resolve_flagged(counts[rows])
    r_list = (rows[stage3] + 1).tolist()
    ledger = SlotLedger(
        stage1=(T - 1) * n_blocks,
        stage2=len(flagged),
        stage3=(T - 1) * len(r_list),
        bp=bitmap_bp_slots(n_blocks, s_w) + bitmap_bp_slots(len(flagged), s_w))
    return Frame3SS(presence=presence, flagged=flagged, r_list=r_list,
                    ledger=ledger, stage1=stage1)


def block_energy_3ss(flagged, stage3, T, bp1):
    """(tx, rx) of a node of each type per block, (T, *flagged.shape), from
    0/1 flagged and stage-3 masks: type 1 sends in every stage-1 slot and in
    stage 2, type b >= 2 in its own slot and in stage 3 and listens to
    stage 2; all hear the bp1-slot stage-1 bitmap."""
    tx = np.stack([(T - 1) + flagged] + [1.0 + stage3] * (T - 1))
    rx = np.stack([np.full(np.shape(flagged), float(bp1))]
                  + [bp1 + flagged] * (T - 1))
    return tx, rx


def _energy_3ss(frame: Frame3SS, population, config, frame_total):
    """Per-node radio accounting for one frame, honoring participation."""
    n_blocks, T = frame.presence.shape
    flagged, stage3 = np.zeros((2, n_blocks + 1))    # index 0: idle nodes
    flagged[frame.flagged] = 1.0
    stage3[frame.r_list] = 1.0
    tx, rx = block_energy_3ss(flagged, stage3, T,
                              bitmap_bp_slots(n_blocks, config.s_w))
    tx[:, 0] = 0.0
    return EnergyLedger.per_block(frame.stage1.chosen, tx, rx, frame_total)


@dataclass
class Run3SSResult:
    j: dict | None
    z: dict | None
    frame: Frame3SS
    ledger: SlotLedger
    energy: EnergyLedger
    overhead: int = 0       # plan-broadcast slots (two_stage.plan_slots)


def run_3ss_trial(population: PopulationSpec, config: ProtocolConfig,
                  bank: RngBank, trial_index=0) -> Run3SSResult:
    """One trial-mode execution: t_T blocks, geometric block choice."""
    T = population.T
    rngs = [bank.stream("p1", trial_index, b) for b in range(1, T + 1)]
    stage1 = run_3ss_stage1(population, config.t_T, "geometric",
                            [1.0] * T, rngs)
    frame = run_3ss_followup(stage1, config.s_w)
    j = {b: frame.first_absent(b) for b in range(1, T + 1)}
    energy = _energy_3ss(frame, population, config, frame.ledger.total)
    return Run3SSResult(j=j, z=None, frame=frame, ledger=frame.ledger,
                        energy=energy)


def run_3ss_bb(population: PopulationSpec, rough, config: ProtocolConfig,
               bank: RngBank) -> Run3SSResult:
    """Balls-and-bins mode: ell blocks, uniform choice, participation p_b
    derived from the rough estimates (1-based dict or sequence)."""
    T = population.T
    p = participations(rough, config.ell, T)
    rngs = [bank.stream("p2", b) for b in range(1, T + 1)]
    stage1 = run_3ss_stage1(population, config.ell, "uniform", p, rngs)
    frame = run_3ss_followup(stage1, config.s_w)
    z = {b: config.ell - int(frame.presence[:, b - 1].sum())
         for b in range(1, T + 1)}
    energy = _energy_3ss(frame, population, config, frame.ledger.total)
    return Run3SSResult(j=None, z=z, frame=frame, ledger=frame.ledger,
                        energy=energy)
