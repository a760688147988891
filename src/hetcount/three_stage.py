"""The three-stage block-coded scheme and its balls-and-bins variant.

Stage 1 splits the frame into blocks of T-1 slots; each participating node
picks one block and transmits its type's symbol pattern there (type 1: alpha
in every slot, type b >= 2: beta in slot b-1 only).  The base station decodes
each block; blocks colliding in every slot are flagged and re-examined in a
one-slot stage 2 (only type-1 nodes transmit) and, if that slot also
collides, a (T-1)-slot stage 3 with one dedicated slot per remaining type.

Two stage-1 modes exist: "trial" mode (t_T blocks, geometric block choice,
everyone participates) which yields first-absent-block indices j_b, and
"bb" mode (ell blocks, uniform choice, participation p_b) whose per-block
counts give the empty-block counts z_b.  The schemes draw both as block
counts, trial mode through homogeneous.trial_counts and bb mode through
homogeneous.bb_trials, and resolve them with run_frames; node blocks are
drawn again only for a per-node energy read, a bounded piece of nodes at a
time.  draw_blocks, which keeps every node's block, is the reference draw of
run_3ss_stage1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    EnergyLedger,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    SlotOutcome,
    bb_blocks,
    bitmap_bp_slots,
    geometric_block_choices,
    geometric_block_pieces,
    slot_outcomes,
)
from .homogeneous import bb_trials, first_empty, trial_counts

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
    """(counts, chosen): types-first (T, n_blocks) transmitters per block,
    and each type's 1-based block per node (0 = idle).  distribution is
    "geometric" (trial mode, everyone participates) or "uniform" (a
    core.bb_blocks trial, type b joining with probability
    participation[b - 1]); rngs holds one generator per type."""
    T = population.T
    counts = np.zeros((T, n_blocks), dtype=np.int64)
    chosen = {}
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        if distribution == "geometric":
            chosen[b] = geometric_block_choices(rngs[b - 1], nb, n_blocks)
            # Bin 0 stays empty and is dropped.
            counts[b - 1] = np.bincount(chosen[b],
                                        minlength=n_blocks + 1)[1:]
        elif distribution == "uniform":
            counts[b - 1], mask, slots = bb_blocks(
                rngs[b - 1], nb, n_blocks, participation[b - 1])
            chosen[b] = slots * mask
        else:
            raise ValueError(f"unknown block distribution {distribution!r}")
    return counts, chosen


def run_3ss_stage1(population: PopulationSpec, n_blocks, distribution,
                   participation, rngs) -> Stage1Result3SS:
    """Stage 1 only, drawn as in draw_blocks."""
    counts, chosen = draw_blocks(population, n_blocks, distribution,
                                 participation, rngs)
    outcomes = outcomes_3ss(counts.T)
    flagged = (np.flatnonzero((outcomes == _COLL).all(axis=1)) + 1).tolist()
    return Stage1Result3SS(counts=counts.T, outcomes=outcomes, chosen=chosen,
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


def resolve_3ss(counts, s_w, n=None):
    """M frames of the three-stage code from their types-first
    (T, M, n_blocks) block counts: (summed ledger, plan-broadcast slots,
    which this code has none of, and for n[b - 1] nodes of type b their
    energy: per-type tx and rx sums and a function of b that builds type
    b's _energy_3ss tables for a per-node read).

    The follow-up recovers every type's presence exactly (run_3ss_followup
    is the reference), so presence is counts > 0 and only the follow-up's
    cost is worked out: a block is flagged when every slot collides, i.e.
    c_1 + c_b >= 2 for every b >= 2, and goes to stage 3 when c_1 >= 2."""
    T, M, n_blocks = counts.shape
    # Phase-2 counts come as narrow unsigned ints, where c_1 + c_b wraps.
    counts = counts.astype(np.promote_types(counts.dtype, np.int32),
                           copy=False)
    c1 = counts[0]
    flagged = c1 + counts[1:].min(axis=0) >= 2
    stage3 = flagged & (c1 >= 2)
    K = flagged.sum(axis=1)
    bp1 = bitmap_bp_slots(n_blocks, s_w)
    ledger = SlotLedger(stage1=(T - 1) * n_blocks * M, stage2=int(K.sum()),
                        stage3=(T - 1) * int(stage3.sum()),
                        bp=M * bp1 + int((-(-K // s_w)).sum()))
    if n is None:
        return ledger, 0, None
    # The sums of the _energy_3ss tables over every node's block.
    flat = counts.reshape(T, -1)
    joined = flat.sum(axis=1)
    on_flagged, on_stage3 = (flat @ mask.ravel() for mask in (flagged, stage3))
    tx = joined + on_stage3
    tx[0] = (T - 1) * joined[0] + on_flagged[0]
    rx = M * bp1 * np.asarray(n) + on_flagged
    rx[0] -= on_flagged[0]
    return ledger, 0, (tx, rx, partial(_energy_3ss, flagged, stage3, T, bp1))


def _energy_3ss(flagged, stage3, T, bp1, b):
    """(tx, rx) of a node of type b by frame and block, (M, n_blocks + 1),
    from (M, n_blocks) flagged and stage-3 masks.  Type 1 sends in every
    stage-1 slot and in stage 2, type b >= 2 in its own slot and in stage 3
    and listens to stage 2; all hear the bp1-slot stage-1 bitmap.  Entry 0
    is an idle node, which only hears the bitmap."""
    M, n_blocks = flagged.shape
    tx = np.zeros((M, n_blocks + 1))
    rx = np.full(tx.shape, float(bp1))
    if b == 1:
        tx[:, 1:] = (T - 1) + flagged
    else:
        tx[:, 1:] = 1.0 + stage3
        rx[:, 1:] += flagged
    return tx, rx


def run_frames(resolve, counts, n, frames, s_w):
    """M frames of one block code resolved by ``resolve`` (resolve_3ss or
    two_stage.resolve_2ss) from their types-first (T, M, n_blocks) counts,
    n[b - 1] nodes of type b: (ledger, plan-broadcast slots, energy), each
    summed over the frames; the energy sums are the resolver's.  A per-node
    read of type b builds its (M, n_blocks + 1) tables, keeps them for that
    read only, and calls ``frames(b)``: type b's 1-based block per node
    (0 = idle), frame after frame, as (frame, slice of the nodes, blocks)
    pieces (core.uniform_pieces)."""
    ledger, overhead, (sums_tx, sums_rx, tables) = resolve(counts, s_w, n)
    total = float(ledger.total)
    energy = EnergyLedger(len(n), n)
    for b, nb in enumerate(n, 1):
        energy.charge(b, (sums_tx[b - 1], sums_rx[b - 1], total * nb),
                      partial(_node_sums, frames, b, tables, total))
    return ledger, overhead, energy


def _node_sums(frames, b, tables, accounted, node_tx, node_rx, node_acc):
    """Add to type b's per-node arrays, per node, the ``tables(b)`` entries
    at its block in each frame, whose blocks are drawn once, piece by piece,
    and ``accounted``."""
    node_acc += accounted
    tx, rx = tables(b)
    for m, piece, blocks in frames(b):
        node_tx[piece] += tx[m].take(blocks)
        node_rx[piece] += rx[m].take(blocks)


@dataclass
class Run3SSResult:
    j: dict | None          # trial mode's first-absent block per type
    counts: np.ndarray      # (T, n_blocks) transmitters per type and block
    ledger: SlotLedger
    energy: EnergyLedger
    overhead: int = 0       # plan-broadcast slots (two_stage.plan_slots)
    final: dict | None = None   # bb mode's final estimates per type
    flags: dict | None = None   # and their flags (homogeneous.bb_trials)


def trial_frames(resolve, population: PopulationSpec, config: ProtocolConfig,
                 bank: RngBank, trials=None):
    """The trial-mode frames numbered ``trials`` (default: the m' phase-1
    frames, one draw per replicate shared by its readers), counted by
    homogeneous.trial_counts and resolved by run_frames: (counts, ledger,
    plan-broadcast slots, energy).  Node blocks are drawn again from the
    frames' streams ("p1", trial, type) only when a per-node energy is read,
    a piece of nodes at a time."""
    counts = trial_counts(population.n, config, bank, trials)
    trials = range(config.m_prime) if trials is None else trials

    def frames(b):
        return geometric_block_pieces(
            bank.streams([("p1", m, b) for m in trials]), population.n[b - 1],
            config.t_T)
    return (counts, *run_frames(resolve, counts, population.n, frames,
                                config.s_w))


def run_trial(resolve, population, config, bank, trial_index):
    """Trial frame ``trial_index`` (of any integer type) of the code
    ``resolve`` decodes."""
    counts, ledger, overhead, energy = trial_frames(
        resolve, population, config, bank, [operator.index(trial_index)])
    j = dict(enumerate(first_empty(counts[:, 0]).tolist(), 1))
    return Run3SSResult(j=j, counts=counts[:, 0], ledger=ledger,
                        energy=energy, overhead=overhead)


def run_bb(resolve, population, rough, config, bank):
    """The balls-and-bins frame of the code ``resolve`` decodes: ell
    blocks, the homogeneous.bb_trials of every type at once, resolved as
    one frame, with the trials' final estimates.  Per-node energy reads
    draw the node slots again."""
    counts, final, flags, slots = bb_trials(population.n, rough, config,
                                            bank)
    ledger, overhead, energy = run_frames(
        resolve, counts[:, None], population.n, slots, config.s_w)
    return Run3SSResult(j=None, counts=counts, ledger=ledger, energy=energy,
                        overhead=overhead, final=final, flags=flags)


def run_3ss_trial(population: PopulationSpec, config: ProtocolConfig,
                  bank: RngBank, trial_index=0) -> Run3SSResult:
    """One trial-mode frame of the three-stage code (see run_trial)."""
    return run_trial(resolve_3ss, population, config, bank, trial_index)


def run_3ss_bb(population: PopulationSpec, rough, config: ProtocolConfig,
               bank: RngBank) -> Run3SSResult:
    """The balls-and-bins frame of the three-stage code (see run_bb)."""
    return run_bb(resolve_3ss, population, rough, config, bank)
