"""The two-stage block-coded scheme and its balls-and-bins variant.

Stage 1 uses blocks of only sigma(T) = floor(T/2) slots (T even) or
(T-1)/2 slots (T odd): the first half of the types transmit alpha-prefixes
of increasing length, the rest beta-suffixes of increasing length, and for
odd T the last type transmits beta in the first slot plus alpha in the last.
For T = 2 and T = 3 the scheme coincides with the three-stage scheme, and
resolve_2ss delegates there.

Ambiguity left after stage 1 is resolved in stage 2: blocks colliding in
every slot split the type set in half and re-run a stage-1 sub-block per
half, recursively; blocks with only partial ambiguity get a minimal set of
single-type probe slots chosen greedily to separate all surviving
interpretations.

The runners decode through one process-global table per T, indexed by the
base-3 code of a block's per-type count classes.  Each table is built whole,
all 3^T codes in one numpy pass per stage-1 outcome, on its first use
(``resolver_lut(T).ensure``); it costs O(3^T) time and memory, e.g. 59 049
codes at T = 10, built in well under a second.  ``resolve_block_2ss``
resolves one block the slow, readable way and is kept as the reference the
tables are tested against; tables are tested, and built, for T <= 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .core import (
    InconsistentOutcome,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    SlotOutcome,
    bitmap_bp_slots,
    slot_outcomes,
)
from .three_stage import (
    Run3SSResult,
    resolve_3ss,
    resolve_flagged,
    run_bb,
    run_trial,
    sym3_matrix,
)

_EMPTY = SlotOutcome.EMPTY.value
_SA = SlotOutcome.SINGLE_ALPHA.value
_SB = SlotOutcome.SINGLE_BETA.value
_COLL = SlotOutcome.COLLISION.value

ABSENT, PRESENT, AMBIGUOUS = "Absent", "Present", "Ambiguous"


def eta(T) -> int:
    return T // 2


def sigma_slots(T) -> int:
    """Slots per stage-1 block."""
    if T <= 3:
        return T - 1
    return T // 2


@dataclass(frozen=True)
class Sym2Matrix:
    T: int
    rows: tuple  # rows[b-1][s] in {"alpha", "beta", None}

    @property
    def slots(self) -> int:
        return len(self.rows[0])


@lru_cache(maxsize=None)
def build_sym2_matrix(T) -> Sym2Matrix:
    if T < 2:
        raise ValueError("need T >= 2")
    if T <= 3:
        return Sym2Matrix(T=T, rows=sym3_matrix(T))
    s = sigma_slots(T)
    rows = []
    for k in range(1, eta(T) + 1):
        rows.append(tuple("alpha" if j < k else None for j in range(s)))
    for m in range(1, eta(T) + 1):
        rows.append(tuple("beta" if j >= s - m else None for j in range(s)))
    if T % 2 == 1:
        last = [None] * s
        last[0] = "beta"
        last[-1] = "alpha"
        rows.append(tuple(last))
    assert len(rows) == T and len(set(rows)) == T
    return Sym2Matrix(T=T, rows=tuple(rows))


def _predict_outcome(classes, matrix: Sym2Matrix):
    """Slot outcomes produced by a per-type count-class vector (0/1/>=2).
    Capping counts at 2 never changes an outcome, so classes are enough."""
    out = []
    for s in range(matrix.slots):
        a = sum(c for c, row in zip(classes, matrix.rows) if row[s] == "alpha")
        b = sum(c for c, row in zip(classes, matrix.rows) if row[s] == "beta")
        tot = a + b
        if tot == 0:
            out.append(_EMPTY)
        elif tot == 1:
            out.append(_SA if a == 1 else _SB)
        else:
            out.append(_COLL)
    return tuple(out)


@lru_cache(maxsize=None)
def _consistent_scenarios(outcome, T):
    matrix = build_sym2_matrix(T)
    found = [classes for classes in product((0, 1, 2), repeat=T)
             if _predict_outcome(classes, matrix) == outcome]
    if not found:
        raise InconsistentOutcome(f"no population produces outcome {outcome}")
    return tuple(found)


def decode_block_2ss(outcome, matrix: Sym2Matrix):
    """Per-type verdict by consistency enumeration over count classes."""
    codes = tuple(o.value if isinstance(o, SlotOutcome) else int(o)
                  for o in outcome)
    scenarios = _consistent_scenarios(codes, matrix.T)
    verdicts = []
    for b in range(matrix.T):
        present = {sc[b] > 0 for sc in scenarios}
        verdicts.append(PRESENT if present == {True}
                        else ABSENT if present == {False} else AMBIGUOUS)
    return tuple(verdicts)


def _greedy_probes(scenarios, ambiguous_types):
    """Smallest-by-greedy set of type probes whose observed count classes
    separate every pair of scenarios that disagree on some type's presence.
    Ties break toward the lowest type index."""
    pairs = []
    for i in range(len(scenarios)):
        for j in range(i + 1, len(scenarios)):
            pi = tuple(c > 0 for c in scenarios[i])
            pj = tuple(c > 0 for c in scenarios[j])
            if pi != pj:
                pairs.append((scenarios[i], scenarios[j]))
    probes = []
    while True:
        unsep = [(s1, s2) for s1, s2 in pairs
                 if all(s1[b] == s2[b] for b in probes)]
        if not unsep:
            return probes
        best, best_gain = None, -1
        for b in ambiguous_types:
            if b in probes:
                continue
            gain = sum(1 for s1, s2 in unsep if s1[b] != s2[b])
            if gain > best_gain:
                best, best_gain = b, gain
        if best is None or best_gain == 0:
            raise InconsistentOutcome("probe construction cannot separate "
                                      "presence-differing scenarios")
        probes.append(best)


@dataclass(frozen=True)
class ResolutionStep:
    kind: str          # "probe" | "subblock" | "stage2" | "stage3"
    types: tuple       # 1-based type indices involved
    slots: int


@dataclass(frozen=True)
class BlockResolution:
    presence: tuple    # per-type bool
    extra_slots: int
    tx: tuple          # per-type transmissions during resolution
    steps: tuple       # ResolutionStep trace (the block's ResolutionPlan)


@lru_cache(maxsize=None)
def resolve_block_2ss(classes, T) -> BlockResolution:
    """Full base-station side resolution of one stage-1 block given the
    per-type count classes that produced it.

    The observable inputs are only slot outcomes (of the stage-1 block and
    of every follow-up slot); classes enter solely through the outcomes
    they deterministically generate.  The runners read the same results
    from resolver_lut(T); this function is the reference for those tables.
    """
    matrix = build_sym2_matrix(T)
    outcome = _predict_outcome(classes, matrix)
    scenarios = _consistent_scenarios(outcome, T)
    verdicts = decode_block_2ss(outcome, matrix)
    truth = tuple(c > 0 for c in classes)
    tx = [0] * T

    if AMBIGUOUS not in verdicts:
        presence = tuple(v == PRESENT for v in verdicts)
        if presence != truth:
            raise InconsistentOutcome("decoded presence contradicts ground truth")
        return BlockResolution(presence, 0, tuple(tx), ())

    if all(o == _COLL for o in outcome):
        if T <= 3:
            # Degenerate to the three-stage follow-up: one slot where only
            # type 1 transmits, then dedicated slots if it still collides.
            steps = [ResolutionStep("stage2", (1,), 1)]
            extra = 1
            tx[0] += 1
            c1 = classes[0]
            if c1 == 1:
                presence = tuple([True] * T)
            elif c1 == 0:
                presence = tuple([False] + [True] * (T - 1))
            else:
                steps.append(ResolutionStep("stage3", tuple(range(2, T + 1)),
                                            T - 1))
                extra += T - 1
                for b in range(1, T):
                    tx[b] += 1
                presence = tuple([True] + [c > 0 for c in classes[1:]])
            if presence != truth:
                raise InconsistentOutcome("follow-up contradicts ground truth")
            return BlockResolution(presence, extra, tuple(tx), tuple(steps))
        # Split the type set in half; each half re-runs stage 1 on its own
        # sub-block (recursively), a singleton half gets a bare probe slot.
        half = -(-T // 2)
        groups = [tuple(range(1, half + 1)), tuple(range(half + 1, T + 1))]
        presence = [False] * T
        extra = 0
        steps = []
        for group in groups:
            sub = tuple(classes[g - 1] for g in group)
            if len(group) == 1:
                extra += 1
                tx[group[0] - 1] += 1
                presence[group[0] - 1] = sub[0] > 0
                steps.append(ResolutionStep("probe", group, 1))
            else:
                tg = len(group)
                sub_matrix = build_sym2_matrix(tg)
                stage1 = sigma_slots(tg)
                res = resolve_block_2ss(sub, tg)
                extra += stage1 + res.extra_slots
                steps.append(ResolutionStep("subblock", group,
                                            stage1 + res.extra_slots))
                for idx, g in enumerate(group):
                    row_syms = sum(1 for sym in sub_matrix.rows[idx] if sym)
                    tx[g - 1] += row_syms + res.tx[idx]
                    presence[g - 1] = res.presence[idx]
        presence = tuple(presence)
        if presence != truth:
            raise InconsistentOutcome("recursion contradicts ground truth")
        return BlockResolution(presence, extra, tuple(tx), tuple(steps))

    # Partial ambiguity: dedicated probe slots, greedily chosen so their
    # outcomes separate every pair of interpretations that disagree on
    # somebody's presence.
    ambiguous = [b for b, v in enumerate(verdicts) if v == AMBIGUOUS]
    probes = _greedy_probes(scenarios, ambiguous)
    signature = tuple(classes[b] for b in probes)
    survivors = [sc for sc in scenarios
                 if tuple(sc[b] for b in probes) == signature]
    patterns = {tuple(c > 0 for c in sc) for sc in survivors}
    if len(patterns) != 1 or patterns.pop() != truth:
        raise InconsistentOutcome("probes failed to pin down presence")
    for b in probes:
        tx[b] += 1
    steps = tuple(ResolutionStep("probe", (b + 1,), 1) for b in probes)
    return BlockResolution(truth, len(probes), tuple(tx), steps)


def _row_symbols(T) -> np.ndarray:
    """Stage-1 transmissions per type: the symbols in its matrix row."""
    return np.array([sum(1 for sym in row if sym)
                     for row in build_sym2_matrix(T).rows], dtype=np.int64)


def _outcome_keys(classes, matrix: Sym2Matrix) -> np.ndarray:
    """_predict_outcome of every row, as one base-4 integer per row."""
    def incidence(symbol):
        return np.array([[sym == symbol for sym in row] for row in matrix.rows],
                        dtype=np.int64)
    slots = slot_outcomes(classes @ incidence("alpha"),
                          classes @ incidence("beta"))
    return slots @ 4 ** np.arange(matrix.slots, dtype=np.int64)


def _pairs(keys) -> int:
    """Number of row pairs sharing a key."""
    _, n = np.unique(keys, return_counts=True)
    return int((n * (n - 1)).sum()) // 2


def _probe_search(classes, pattern, candidates):
    """_greedy_probes over one outcome's scenarios without listing pairs.

    Scenario pairs that disagree on presence yet agree on every probe are
    counted as pairs sharing a probe signature minus pairs sharing the
    signature and the presence pattern (``pattern``, one integer per row).
    Returns the probes and the final signature of every row.
    """
    n_patterns = 1 << classes.shape[1]

    def unseparated(signature):
        return _pairs(signature) - _pairs(signature * n_patterns + pattern)

    signature = np.zeros(len(classes), dtype=np.int64)
    left = unseparated(signature)
    probes = []
    while left:
        best = None
        best_left = left
        for b in candidates:
            if b in probes:
                continue
            trial = signature * 3 + classes[:, b]
            n = unseparated(trial)
            if n < best_left:
                best, best_left, best_signature = b, n, trial
        if best is None:
            raise InconsistentOutcome("probe construction cannot separate "
                                      "presence-differing scenarios")
        probes.append(best)
        signature, left = best_signature, best_left
    return probes, signature


def _split_halves(codes, T):
    """All-collision blocks (T > 3): each half of the type set re-runs
    stage 1 on its own sub-block, resolved through the half's table.  Both
    halves have at least two types."""
    half = -(-T // 2)
    extra = 0
    presence, tx = [], []
    for tg, sub in ((half, codes % 3 ** half), (T - half, codes // 3 ** half)):
        sub_extra, sub_presence, sub_tx = _build_table(tg)
        extra = extra + sigma_slots(tg) + sub_extra[sub]
        presence.append(sub_presence[sub])
        tx.append(_row_symbols(tg) + sub_tx[sub])
    return extra, np.hstack(presence), np.hstack(tx).astype(np.int16)


@lru_cache(maxsize=None)
def _build_table(T):
    """resolve_block_2ss for all 3^T class codes at once, as read-only
    (extra, presence, tx) arrays indexed by code.

    Codes are grouped by their stage-1 outcome; an outcome's verdicts are
    the all/any of presence over its group.  The greedy probe search runs
    once per partially ambiguous outcome, all-collision outcomes take the
    three-stage follow-up (T <= 3) or the halves' tables (T > 3), and every
    consistency check of resolve_block_2ss is kept.
    """
    codes = np.arange(3 ** T, dtype=np.int64)
    classes = codes[:, None] // 3 ** np.arange(T, dtype=np.int64) % 3
    truth = classes > 0
    keys, group, count = np.unique(_outcome_keys(classes, build_sym2_matrix(T)),
                                   return_inverse=True, return_counts=True)
    order = np.argsort(group, kind="stable")
    starts = np.concatenate(([0], np.cumsum(count)[:-1]))
    any_present = np.logical_or.reduceat(truth[order], starts)
    all_present = np.logical_and.reduceat(truth[order], starts)
    ambiguous = any_present & ~all_present
    clear = ~ambiguous.any(axis=1)
    all_collision = ~clear & (keys == _COLL * sum(4 ** s for s in
                                                  range(sigma_slots(T))))

    extra = np.zeros(3 ** T, dtype=np.int64)
    presence = np.zeros((3 ** T, T), dtype=bool)
    tx = np.zeros((3 ** T, T), dtype=np.int16)

    rows = clear[group]
    presence[rows] = all_present[group[rows]]
    if (presence[rows] != truth[rows]).any():
        raise InconsistentOutcome("decoded presence contradicts ground truth")

    rows = all_collision[group]
    if rows.any():
        if T <= 3:
            # Three-stage follow-up: type 1 sends in stage 2, the rest in 3.
            flagged_presence, stage3 = resolve_flagged(classes[rows])
            flagged_tx = (np.arange(T) == 0) | stage3[:, None]
            resolved = 1 + (T - 1) * stage3, flagged_presence, flagged_tx
            failure = "follow-up contradicts ground truth"
        else:
            resolved = _split_halves(codes[rows], T)
            failure = "recursion contradicts ground truth"
        extra[rows], presence[rows], tx[rows] = resolved
        if (presence[rows] != truth[rows]).any():
            raise InconsistentOutcome(failure)

    pattern = truth @ (1 << np.arange(T, dtype=np.int64))
    for g in np.flatnonzero(~clear & ~all_collision):
        members = order[starts[g]:starts[g] + count[g]]
        probes, signature = _probe_search(classes[members], pattern[members],
                                          np.flatnonzero(ambiguous[g]))
        # Each signature must pin one presence pattern: the first member's.
        _, first, which = np.unique(signature, return_index=True,
                                    return_inverse=True)
        if (pattern[members][first][which] != pattern[members]).any():
            raise InconsistentOutcome("probes failed to pin down presence")
        extra[members] = len(probes)
        presence[members] = truth[members]
        tx[np.ix_(members, probes)] = 1

    for table in (extra, presence, tx):
        table.setflags(write=False)
    return extra, presence, tx


class _ResolverLUT:
    """resolve_block_2ss keyed by base-3 class codes, built whole (all 3^T
    codes) on the first ensure."""

    def __init__(self, T):
        self.T = T
        self.filled = np.zeros(3 ** T, dtype=bool)
        self.extra = self.presence = self.tx = None

    def ensure(self, codes):
        """Make every code's entry available; ``codes`` is accepted for the
        callers' sake, since the first call builds the whole table."""
        if self.extra is None:
            self.extra, self.presence, self.tx = _build_table(self.T)
            self.filled[:] = True


# Largest T with a decoder table: a table costs O(3^T) time and memory, and
# the tests check every code for soundness up to here.
MAX_TABLE_T = 10


@lru_cache(maxsize=None)
def resolver_lut(T) -> _ResolverLUT:
    if T > MAX_TABLE_T:
        raise ValueError(f"2SS decoder tables are built for T <= "
                         f"{MAX_TABLE_T}, got T = {T}")
    return _ResolverLUT(T)


def class_codes(counts, axis=-1) -> np.ndarray:
    """Base-3 encoding of per-block count-class vectors; the types run along
    ``axis``.  Built in place in the one int64 output, a type at a time from
    the last: no capped copy of ``counts`` and no fresh int64 array per
    type, whose churn through the allocator cost page faults on every call
    (only one type's capped counts, in their own dtype, are held at once)."""
    counts = np.moveaxis(counts, axis, 0)
    codes = np.minimum(counts[-1], 2, dtype=np.int64)
    for c in counts[-2::-1]:
        codes *= 3
        codes += np.minimum(c, 2)
    return codes


def plan_slots(T, n_blocks, s_w) -> int:
    """Slots of the 2SS plan broadcast, two bits per block; none for T <= 3,
    where the scheme is the three-stage one."""
    return 0 if T <= 3 else bitmap_bp_slots(2 * n_blocks, s_w)


def resolve_2ss(counts, s_w, n=None):
    """M frames of the two-stage code from their types-first
    (T, M, n_blocks) block counts, as three_stage.resolve_3ss: (summed
    ledger, plan-broadcast slots, and for n[b - 1] nodes of type b their
    energy: per-type tx and rx sums and a function of b that builds type
    b's _energy_2ss tables).  For T <= 3 the code is the three-stage one.  The
    tables recover every type's presence exactly (they are checked against
    it code by code when built), so only the follow-up cost is looked up."""
    T, M, n_blocks = counts.shape
    if T <= 3:
        return resolve_3ss(counts, s_w, n)
    codes = class_codes(counts, axis=0)
    lut = resolver_lut(T)
    lut.ensure(codes.ravel())
    plan = plan_slots(T, n_blocks, s_w)
    bp = bitmap_bp_slots(n_blocks, s_w) + plan
    ledger = SlotLedger(stage1=sigma_slots(T) * n_blocks * M,
                        stage2=int(lut.extra[codes].sum()), bp=M * bp)
    if n is None:
        return ledger, M * plan, None
    # Each joined node sends its type's _node_tx entry at its block's code;
    # every node hears the bp broadcast slots of each frame.
    tx = (_node_tx(T).take(codes, axis=1) * counts).sum(axis=(1, 2))
    return ledger, M * plan, (tx, M * bp * np.asarray(n),
                              partial(_energy_2ss, codes, T, bp))


@lru_cache(maxsize=None)
def _node_tx(T):
    """(T, 3^T + 1) transmissions of a node by type and block code: row
    symbols plus follow-up slots.  The last column, zero, is for idle nodes."""
    table = np.zeros((T, 3 ** T + 1))
    table[:, :-1] = _row_symbols(T)[:, None] + resolver_lut(T).tx.T
    table.setflags(write=False)
    return table


def _energy_2ss(codes, T, bp, b):
    """(tx, rx) of a node of type b by frame and block, (M, n_blocks + 1),
    from (M, n_blocks) block codes: a node sends its matrix row's symbols
    and its block's follow-up transmissions, and every node hears the bp
    broadcast slots.  Entry 0 is an idle node, which sends nothing."""
    idle = np.full((len(codes), 1), 3 ** T)
    tx = _node_tx(T)[b - 1].take(np.hstack((idle, codes)))
    return tx, np.full(tx.shape, float(bp))


def run_2ss_trial(population: PopulationSpec, config: ProtocolConfig,
                  bank: RngBank, trial_index=0) -> Run3SSResult:
    """One trial-mode frame of the two-stage code (see run_trial)."""
    return run_trial(resolve_2ss, population, config, bank, trial_index)


def run_2ss_bb(population: PopulationSpec, rough, config: ProtocolConfig,
               bank: RngBank) -> Run3SSResult:
    """The balls-and-bins frame of the two-stage code (see run_bb)."""
    return run_bb(resolve_2ss, population, rough, config, bank)
