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
homogeneous.bb_trials, and resolve them with resolve_replicates, the
frames of a block of replicates in one resolve call (held_frames,
hold_frames) of their BlockCode, THREE_STAGE here or two_stage.TWO_STAGE;
node blocks are drawn again only for a per-node energy read, a bounded
piece of nodes at a time.  draw_blocks, which keeps every node's block, is
the reference draw of run_3ss_stage1.
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
from .homogeneous import (
    bb_key,
    bb_trials,
    first_empty,
    trial_counts,
    trial_key,
)

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


# Block-type cells resolve works on at once: it takes its frames a chunk
# of at most this many cells (one frame at least) at a time, so what it
# allocates stays bounded whatever the number of frames it is given.
_RESOLVE_CELLS = 1 << 17


def frame_chunks(counts):
    """The frames of ``counts``, a list of types-first (T, M_r, n_blocks)
    block counts, in order, as (T, F, n_blocks) chunks of at most
    _RESOLVE_CELLS cells (one frame at least), each joined from the arrays
    it spans, and a view where it spans one."""
    def joined(pieces):
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, 1)

    T, _, n_blocks = counts[0].shape
    step = max(1, _RESOLVE_CELLS // (T * n_blocks))
    pending, size = [], 0
    for array in counts:
        lo = 0
        while lo < array.shape[1]:
            take = min(step - size, array.shape[1] - lo)
            pending.append(array[:, lo:lo + take])
            size, lo = size + take, lo + take
            if size == step:
                yield joined(pending)
                pending, size = [], 0
    if pending:
        yield joined(pending)


@dataclass
class Resolved:
    """What resolve works out for F frames, frame by frame in order.
    ``sums`` (int64, (F, 4 + 2T)) holds each frame's stage-1, stage-2,
    stage-3 and bp slots, then each type's transmissions, then its
    receptions beyond ``heard``, read one replicate's share at a time in
    one reduction."""
    sums: np.ndarray
    plan: int       # plan-broadcast slots of every frame
    heard: int      # slots every node of every type hears per frame
    tables: object  # (counts, b): one replicate's per-node tables


def _followup(counts):
    """(flagged, stage3), the (F, n_blocks) masks of the frames of (T, F,
    n_blocks) counts, as one (2, F, n_blocks) bool array laid out as the
    counts are: a block is flagged when every slot collides, i.e.
    c_1 + c_b >= 2 for every b >= 2, and goes to stage 3 when c_1 >= 2.
    For narrow unsigned counts, as phase 2 draws them, the sum is never
    formed, so it cannot wrap: c_1 + c with c = min(c_b) is at least 2
    where both are at least 1 or either is at least 2."""
    c1, c = counts[0], counts[1:].min(axis=0)
    masks = np.empty_like(counts[:2], dtype=bool)
    flagged, stage3 = masks
    if counts.itemsize >= 4:    # wide counts: the sum is one step
        np.greater_equal(c1 + c, 2, out=flagged)
    else:
        np.greater(np.minimum(c1, c), 0, out=flagged)
        flagged |= np.maximum(c1, c) > 1
    np.greater(c1, 1, out=stage3)
    stage3 &= flagged
    return masks


def _chunk_3ss(s_w, energy, counts):
    """The three-stage code's Resolved sums of one chunk's (T, F, n_blocks)
    counts, or of any such view, or without ``energy`` only their (F, 4)
    slots.  The follow-up recovers every type's presence exactly
    (run_3ss_followup is the reference), so only its cost is worked out
    (_followup); the sums contract the _energy_3ss tables with the counts,
    whole numbers summed exactly in any order."""
    T, F, n_blocks = counts.shape
    masks = _followup(counts)
    K, R = masks.sum(axis=2)
    sums = np.empty((F, 4 + 2 * T * energy), dtype=np.int64)
    sums[:, 0] = (T - 1) * n_blocks
    sums[:, 1] = K
    sums[:, 2] = (T - 1) * R
    sums[:, 3] = bitmap_bp_slots(n_blocks, s_w) - (-K // s_w)
    if energy:
        joined = _frame_sums(counts)
        on_flagged, on_stage3 = _frame_sums(counts[:, None] * masks).swapaxes(
            0, 1)
        tx, rx = sums[:, 4:4 + T].T, sums[:, 4 + T:].T
        np.add(joined, on_stage3, out=tx)
        tx[0] = (T - 1) * joined[0].astype(np.int64) + on_flagged[0]
        rx[...] = on_flagged
        rx[0] = 0
    return sums


def _frame_sums(counts):
    """Sums over the blocks, the last axis, of (T, ..., F, n_blocks)
    counts.  A type's sum in a frame is at most its nodes, below 2^31, so
    narrow counts are summed in uint32, which is several times faster than
    summing them into int64."""
    return counts.sum(axis=-1, dtype=np.uint32 if counts.itemsize < 4
                      else np.int64)


def _energy_3ss(heard, counts, b):
    """(tx, rx) of a node of type b by frame and block, (M, n_blocks + 1),
    in the M frames of one replicate's (T, M, n_blocks) counts, from their
    flagged and stage-3 masks (_followup).  Type 1 sends in every stage-1
    slot and in stage 2, type b >= 2 in its own slot and in stage 3 and
    listens to stage 2; all hear the ``heard`` slots of the stage-1 bitmap.
    Entry 0 is an idle node, which only hears the bitmap."""
    flagged, stage3 = _followup(counts)
    M, n_blocks = flagged.shape
    tx = np.zeros((M, n_blocks + 1))
    rx = np.full(tx.shape, float(heard))
    if b == 1:
        tx[:, 1:] = (len(counts) - 1) + flagged
    else:
        tx[:, 1:] = 1.0 + stage3
        rx[:, 1:] += flagged
    return tx, rx


@dataclass(frozen=True)
class BlockCode:
    """A block code as the frame runner reads it: its ``name``, which keys
    its resolved frames in a bank's memo; ``chunk(s_w, energy, counts)``,
    the Resolved sums of a chunk's (T, F, n_blocks) counts (or without
    ``energy`` only their (F, 4) slots); ``tables(heard, counts, b)``, type
    b's per-node tables; and ``plan(T, n_blocks, s_w)``, the plan-broadcast
    slots of a frame.  two_stage.block_code picks the code of a run."""
    name: str
    chunk: object
    tables: object
    plan: object


THREE_STAGE = BlockCode("3SS", _chunk_3ss, _energy_3ss, lambda *args: 0)


def resolve(code, counts, s_w):
    """The frames of the block code ``code`` from their block counts, a
    list of types-first (T, M_r, n_blocks) arrays, a chunk at a time
    (frame_chunks): a Resolved of every frame in order, with the slots of
    its plan broadcast and those every node hears (the bp1 bitmap and the
    plan).  A chunk and what its code.chunk call made are dropped before
    the next chunk is joined."""
    T, _, n_blocks = counts[0].shape
    plan = code.plan(T, n_blocks, s_w)
    heard = bitmap_bp_slots(n_blocks, s_w) + plan
    chunk = partial(code.chunk, s_w, True)
    if len(counts) == 1 and counts[0].size <= _RESOLVE_CELLS:
        sums = chunk(counts[0])     # one array, one chunk
    else:
        sums = np.concatenate(list(map(chunk, frame_chunks(counts))))
    return Resolved(sums, plan, heard, partial(code.tables, heard))


def resolve_replicates(code, counts, s_w):
    """The frames of R replicates of the block code ``code`` in one resolve
    call: ``counts`` lists their types-first (T, M_r, n_blocks) block
    counts.  Per replicate, its frames' (ledger, plan-broadcast slots,
    per-type tx sums, per-type rx sums beyond the slots every node hears,
    those heard slots, per-node tables), each summed over its frames, all
    whole numbers; the ledger as its stage1, stage2, stage3 and bp slots,
    so each read makes its own SlotLedger."""
    res = resolve(code, counts, s_w)
    frames, starts = [array.shape[1] for array in counts], [0]
    for M in frames[:-1]:
        starts.append(starts[-1] + M)
    T = len(counts[0])
    return [(row[:4].tolist(), M * res.plan, row[4:4 + T], row[4 + T:],
             M * res.heard, res.tables)
            for row, M in zip(np.add.reduceat(res.sums, starts), frames)]


def held_frames(code, key, counts, s_w, bank):
    """One replicate's resolve_replicates share of its frames, the counts
    ``counts`` the bank holds under ``key``: from the bank's memo
    (RngBank.shared), where hold_frames put it for the block's pass, else
    resolved as a block of one."""
    return bank.shared(_frames_key(code, key, s_w),
                       lambda: resolve_replicates(code, [counts], s_w)[0])


def _frames_key(code, key, s_w):
    """The memo key of the frames of the counts held under ``key``,
    resolved by the block code ``code`` at bitmap width s_w."""
    return ("frames", code.name, key, s_w)


def hold_frames(code, entries, s_w):
    """The block pass of one code and phase: the frames of every replicate
    in ``entries`` (bank, key, counts), as held_frames reads them, in one
    resolve_replicates call, each replicate's share held in its own bank's
    memo."""
    shares = resolve_replicates(code, [e[2] for e in entries], s_w)
    for (bank, key, _counts), share in zip(entries, shares):
        bank.shared(_frames_key(code, key, s_w), lambda share=share: share)


def run_frames(resolved, counts, n, frames):
    """The energy of one replicate's frames, resolved (held_frames) from
    its types-first (T, M, n_blocks) counts, n[b - 1] nodes of type b, in
    one charge: the resolved sums of every type, and per node the frame
    tables.  A per-node read of type b builds its (M, n_blocks + 1) tables
    from ``counts``, keeps them for that read only, and calls
    ``frames(b)``: type b's 1-based block per node (0 = idle), frame after
    frame, as (frame, slice of the nodes, blocks) pieces
    (core.uniform_pieces)."""
    stages, _plan, sums_tx, sums_rx, heard, tables = resolved
    total = float(sum(stages))
    energy, n = EnergyLedger(n), np.asarray(n)
    return energy.charge(
        np.column_stack((sums_tx, sums_rx + heard * n, total * n)),
        partial(_node_sums, frames, partial(tables, counts), total))


def _node_sums(frames, tables, accounted, b, node_tx, node_rx, node_acc):
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


def trial_frames(code, population: PopulationSpec, config: ProtocolConfig,
                 bank: RngBank, trials=None):
    """The trial-mode frames numbered ``trials`` (default: the m' phase-1
    frames, one draw per replicate shared by its readers, and resolved once
    per replicate, held_frames), counted by homogeneous.trial_counts and
    resolved by the block code ``code``: (counts, ledger, plan-broadcast
    slots, and run_frames' energy).  Node blocks are drawn again from the
    frames' streams ("p1", trial, type) only when a per-node energy is
    read, a piece of nodes at a time."""
    n = population.n
    counts = trial_counts(n, config, bank, trials)
    if trials is None:
        trials = range(config.m_prime)
        resolved = held_frames(code, trial_key(n, config), counts,
                               config.s_w, bank)
    else:
        (resolved,) = resolve_replicates(code, [counts], config.s_w)

    def frames(b):
        return geometric_block_pieces(
            bank.streams([("p1", m, b) for m in trials]), n[b - 1],
            config.t_T)
    return (counts, SlotLedger(*resolved[0]), resolved[1],
            run_frames(resolved, counts, n, frames))


def run_trial(code, population, config, bank, trial_index):
    """Trial frame ``trial_index`` (of any integer type) of the block code
    ``code``."""
    counts, ledger, overhead, energy = trial_frames(
        code, population, config, bank, [operator.index(trial_index)])
    j = dict(enumerate(first_empty(counts[:, 0]).tolist(), 1))
    return Run3SSResult(j=j, counts=counts[:, 0], ledger=ledger,
                        energy=energy, overhead=overhead)


def run_bb(code, population, rough, config, bank):
    """The balls-and-bins frame of the block code ``code``: ell
    blocks, the homogeneous.bb_trials of every type at once, resolved as
    one frame (once per replicate, held_frames), with the trials' final
    estimates.  Per-node energy reads draw the node slots again."""
    n = population.n
    key = bb_key(n, rough, config)
    counts, _joined, final, flags, slots = bb_trials(key, bank)
    frame = counts[:, None]
    resolved = held_frames(code, key, frame, config.s_w, bank)
    return Run3SSResult(j=None, counts=counts,
                        ledger=SlotLedger(*resolved[0]),
                        energy=run_frames(resolved, frame, n, slots),
                        overhead=resolved[1], final=final, flags=flags)


def run_3ss_trial(population: PopulationSpec, config: ProtocolConfig,
                  bank: RngBank, trial_index=0) -> Run3SSResult:
    """One trial-mode frame of the three-stage code (see run_trial)."""
    return run_trial(THREE_STAGE, population, config, bank, trial_index)


def run_3ss_bb(population: PopulationSpec, rough, config: ProtocolConfig,
               bank: RngBank) -> Run3SSResult:
    """The balls-and-bins frame of the three-stage code (see run_bb)."""
    return run_bb(THREE_STAGE, population, rough, config, bank)
