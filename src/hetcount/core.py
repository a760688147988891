"""Shared domain types, randomness streams, and ledger arithmetic.

Everything downstream (homogeneous baselines, the block-coded heterogeneous
schemes, the composite estimators, the harness) works in terms of the types
defined here: populations, protocol parameters, slot outcomes, and the slot /
energy ledgers that make every simulated frame auditable.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Published lookup tables for the two-phase homogeneous estimator.  The
# ell table maps the relative-error target to the phase-2 trial length; the
# m_prime table maps the failure probability to the phase-1 repetition count.
# Other keys require an explicit calibration run (see harness.calibrate_ell);
# we deliberately do not interpolate.
ELL_TABLE = {0.02: 6638, 0.03: 3009, 0.04: 1674, 0.05: 1075}
M_PRIME_TABLE = {0.2: 10}

LOF_FACTOR = 1.2897
LOF_TRIAL_COEF = 1.1213
LOAD_FACTOR = 1.6

# Most active nodes per type: block counts are int32.
MAX_NODES = 2 ** 31 - 1


class UnknownAccuracyKey(KeyError):
    """epsilon or delta has no table entry and no override was supplied."""


class AllSlotsBusy(RuntimeError):
    """Every slot of a balls-and-bins trial was occupied; the log-ratio
    estimator is undefined and the caller must fall back."""


class InconsistentOutcome(RuntimeError):
    """A decoder saw a block outcome no population could have produced."""


class EmptyInput(ValueError):
    """An estimator was fed an empty sample."""


class SlotOutcome(Enum):
    EMPTY = 0
    SINGLE_ALPHA = 1
    SINGLE_BETA = 2
    COLLISION = 3


def slot_outcomes(alpha, beta) -> np.ndarray:
    """SlotOutcome codes (uint8) of slots with ``alpha`` alpha and ``beta``
    beta transmitters, over broadcastable count arrays."""
    total = alpha + beta
    out = np.full(total.shape, SlotOutcome.COLLISION.value, dtype=np.uint8)
    out[total == 0] = SlotOutcome.EMPTY.value
    single = total == 1
    out[single & (alpha == 1)] = SlotOutcome.SINGLE_ALPHA.value
    out[single & (beta == 1)] = SlotOutcome.SINGLE_BETA.value
    return out


def check_counts(n, n_all):
    """Raise ValueError unless ``n`` gives at least two types, each with
    0 <= n_b <= n_all_b active nodes: a population's rules that hold
    without a draw."""
    if len(n) < 2:
        raise ValueError(f"need at least 2 node types, got {len(n)}")
    if len(n) != len(n_all):
        raise ValueError("n and n_all must have one entry per type")
    for nb, na in zip(n, n_all):
        if not 0 <= nb <= na:
            raise ValueError(f"need 0 <= n_b <= n_all_b, got n_b = {nb}, "
                             f"n_all_b = {na}")


def check_draw(D, q):
    """Raise ValueError unless each of D nodes per type can be drawn
    active with probability q."""
    if not (D >= 0 and 0 <= q <= 1):    # a NaN fails the comparisons
        raise ValueError(f"need D >= 0 and q in [0, 1], got D = {D}, "
                         f"q = {q}")


@dataclass(frozen=True)
class PopulationSpec:
    """Ground truth for one frame: per-type active counts and totals.

    Type indices are 1-based in the API; internally tuples are 0-based.
    """

    n: tuple
    n_all: tuple
    D: int | None = None
    q: float | None = None

    def __post_init__(self):
        check_counts(self.n, self.n_all)
        for nb in self.n:
            if nb > MAX_NODES:
                raise ValueError(f"need n_b <= {MAX_NODES}, got {nb}")

    @property
    def T(self) -> int:
        return len(self.n)

    @staticmethod
    def fixed(n, n_all=None) -> "PopulationSpec":
        """n_all defaults to n; the phase-1 depth t_T follows n_all."""
        n = tuple(int(x) for x in n)
        if n_all is None:
            n_all = tuple(max(x, 1) for x in n)
        return PopulationSpec(n=n, n_all=tuple(int(x) for x in n_all))

    @staticmethod
    def sample_activity(T, D, q, rng) -> "PopulationSpec":
        """Each of D nodes per type is independently active with probability q."""
        check_draw(D, q)
        n = tuple(int(x) for x in rng.binomial(D, q, size=T))
        return PopulationSpec(n=n, n_all=(int(D),) * T, D=int(D), q=float(q))


@dataclass(frozen=True)
class ProtocolConfig:
    epsilon: float
    delta: float
    ell: int
    m_prime: int
    m_lof: int
    t_T: int
    s_w: int = 6
    gamma_tau: float = 1.0
    gamma_rho: float = 1.0
    gamma_iota: float = 1.0

    def __post_init__(self):
        if self.ell < 1 or self.m_prime < 1 or self.s_w < 1 or self.t_T < 1:
            raise ValueError("ell, m_prime, s_w, t_T must all be >= 1")
        if min(self.gammas) < 0:
            raise ValueError("energy costs must be >= 0")
        # NaN passes the check above: every comparison with it is False.
        if not all(map(math.isfinite, self.gammas)):
            raise ValueError("energy costs must be finite and >= 0")

    @property
    def gammas(self):
        return (self.gamma_tau, self.gamma_rho, self.gamma_iota)


def lof_trial_count(epsilon, delta):
    """Repetitions of the first-empty-slot protocol needed for the
    (epsilon, delta) accuracy contract."""
    c = math.sqrt(2.0) * _erfinv(1.0 - delta)
    lo = (-LOF_TRIAL_COEF * c / math.log2(1.0 - epsilon)) ** 2
    hi = (LOF_TRIAL_COEF * c / math.log2(1.0 + epsilon)) ** 2
    return math.ceil(max(lo, hi))


def _erfinv(y):
    # erfinv(y) = Phi^{-1}((y+1)/2) / sqrt(2).  statistics is imported here:
    # it loads fractions and decimal, which importing hetcount does not need.
    from statistics import NormalDist

    return NormalDist().inv_cdf((y + 1.0) / 2.0) / math.sqrt(2.0)


def block_count_for(n_all) -> int:
    return max(1, math.ceil(math.log2(max(max(n_all), 2))))


def derive_config(epsilon, delta, n_all, s_w=6, ell=None, m_prime=None,
                  gamma_tau=1.0, gamma_rho=1.0, gamma_iota=1.0) -> ProtocolConfig:
    """Build a ProtocolConfig from the accuracy targets and the manufactured
    per-type totals, consulting the published lookup tables.

    Explicit ell / m_prime arguments override the tables (e.g. after a
    calibration run); otherwise unknown keys raise UnknownAccuracyKey.
    epsilon and delta outside (0, 1), or None, raise ValueError.
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if value is None or not 0 < value < 1:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    if ell is None:
        try:
            ell = ELL_TABLE[round(float(epsilon), 6)]
        except KeyError:
            raise UnknownAccuracyKey(
                f"no tabulated trial length for epsilon={epsilon}; "
                "pass ell= explicitly or run a calibration") from None
    if m_prime is None:
        try:
            m_prime = M_PRIME_TABLE[round(float(delta), 6)]
        except KeyError:
            raise UnknownAccuracyKey(
                f"no tabulated repetition count for delta={delta}; "
                "pass m_prime= explicitly") from None
    return ProtocolConfig(
        epsilon=float(epsilon), delta=float(delta), ell=int(ell),
        m_prime=int(m_prime), m_lof=lof_trial_count(epsilon, delta),
        t_T=block_count_for(n_all), s_w=int(s_w),
        gamma_tau=gamma_tau, gamma_rho=gamma_rho, gamma_iota=gamma_iota)


@dataclass
class SlotLedger:
    stage1: int = 0
    stage2: int = 0
    stage3: int = 0
    bp: int = 0

    @property
    def total(self) -> int:
        return self.stage1 + self.stage2 + self.stage3 + self.bp

    def __add__(self, other: "SlotLedger") -> "SlotLedger":
        return SlotLedger(self.stage1 + other.stage1, self.stage2 + other.stage2,
                          self.stage3 + other.stage3, self.bp + other.bp)


class _PerNode(Mapping):
    """One of an EnergyLedger's per-node records (0 = tx, 1 = rx,
    2 = accounted), read-only, keyed by the types 1..T.  The ledger does
    not hold it, so it forms no reference cycle with the ledger."""

    def __init__(self, ledger, record):
        self._ledger, self._record = ledger, record

    def __getitem__(self, b):
        return self._ledger._per_node(b)[self._record]

    def __iter__(self):
        return iter(range(1, len(self) + 1))

    def __len__(self):
        return len(self._ledger.n)


class EnergyLedger:
    """Per-node radio-state accounting, one record set per node type.

    Each of the n[b - 1] active nodes of type b (1-based) has transmit
    slots, receive slots, and slots during which it was awake and
    accountable ("accounted"); idle slots are the difference.  For
    full-scheme runs accounted equals the frame total for every node; the
    one exception is the repeated balls-and-bins phase-2 baseline, where a
    node sleeps outside its own type's trial and accounted equals that
    trial's length.

    ``sums`` holds each type's exact (tx, rx, accounted) slot sums over its
    nodes, all that mean_energy reads; a charge adds to every type's.  The
    per-node records ``tx``, ``rx`` and ``accounted`` are read-only mappings
    over the types 1..T.  Reading type b calls each charge's per-node
    function for type b alone, drawing only its frames again, into
    read-only float64 arrays that the ledger keeps until another type is
    read or a charge is added: it holds one type's three arrays at a time,
    idle(b) and energy(b, config) build type b once, and a re-read of b
    after another type builds and draws it again.
    """

    def __init__(self, n):
        self.n = tuple(n)
        self.sums = np.zeros((len(self.n), 3))
        self._charges = []      # the charges' per-node functions, in order
        self._built = None      # (b, (tx, rx, accounted)) of the last read

    @staticmethod
    def zeros(population: PopulationSpec) -> "EnergyLedger":
        return EnergyLedger(population.n)

    tx = property(lambda self: _PerNode(self, 0))
    rx = property(lambda self: _PerNode(self, 1))
    accounted = property(lambda self: _PerNode(self, 2))

    def _per_node(self, b):
        """Type b's (tx, rx, accounted) arrays, built from its charges."""
        if self._built is None or self._built[0] != b:
            if b not in range(1, len(self.n) + 1):
                raise KeyError(b)
            self._built = None      # the last type's arrays go first
            arrays = tuple(np.zeros(self.n[b - 1]) for _ in range(3))
            for nodes in self._charges:
                nodes(b, *arrays)
            for array in arrays:
                array.flags.writeable = False
            self._built = b, arrays
        return self._built[1]

    def charge(self, sums, nodes):
        """Add one charge to every type: ``sums`` is the (T, 3) array of
        each type's (tx, rx, accounted) sums over its nodes, and
        ``nodes(b, tx, rx, accounted)`` adds type b's per-node amounts in
        place to its three arrays when type b is read (whole numbers, in
        any order)."""
        self.sums += sums
        self._charges.append(nodes)
        self._built = None
        return self

    def idle(self, b):
        idle = self.accounted[b] - self.tx[b]
        idle -= self.rx[b]
        return idle

    def energy(self, b, config: ProtocolConfig):
        return (self.tx[b] * config.gamma_tau + self.rx[b] * config.gamma_rho
                + self.idle(b) * config.gamma_iota)

    def mean_energy(self, b, config: ProtocolConfig):
        """The mean of energy(b, config), from type b's sums alone."""
        tx, rx, accounted = self.sums[b - 1].tolist()
        nb = self.n[b - 1]
        return ((tx * config.gamma_tau + rx * config.gamma_rho
                 + (accounted - tx - rx) * config.gamma_iota) / nb
                if nb else 0.0)

    def add(self, other: "EnergyLedger"):
        self.sums += other.sums
        self._charges += other._charges
        self._built = None
        return self

    def charge_all(self, tx=0.0, rx=0.0, accounted=0.0):
        """Add the same per-node amounts to every node of every type."""
        amounts = (tx, rx, accounted)
        return self.charge(np.outer(self.n, amounts),
                           functools.partial(_add_each, amounts))


def _add_each(amounts, _b, *arrays):
    """charge_all's per-node amounts: ``amounts`` added to every node."""
    for array, a in zip(arrays, amounts):
        array += a


@dataclass
class EstimateReport:
    rough: dict
    final: dict
    phase2_method: str | None
    ledger: SlotLedger
    # Selection zone that chose phase2_method (see analysis.select_phase2),
    # "override" when the method was forced, None where nothing was selected.
    phase2_zone: str | None = None
    energy: EnergyLedger | None = None
    flags: dict = field(default_factory=dict)
    phase1_ledger: SlotLedger | None = None
    phase2_ledger: SlotLedger | None = None
    overhead_slots: int = 0

    @property
    def comparable_total(self) -> int:
        """Frame total minus bookkeeping slots that the published totals
        do not include (phase-boundary and plan-announcement broadcasts)."""
        return self.ledger.total - self.overhead_slots


class RngBank:
    """Named, independently seedable random streams.

    Streams are addressed by an arbitrary key tuple; the same (seed, key)
    always yields the same stream, and distinct keys are independent.  So
    schemes replay identical draws for one (type, purpose) role, which the
    estimator-equality tests rely on, and a draw can be made again instead
    of kept: a result several schemes read is made once per bank
    (``shared``), and node blocks are drawn again only when a per-node
    array is read.

    A key's stream is ``default_rng(SeedSequence(seed, spawn_key=words))``,
    the words being the first four little-endian 32-bit words of the
    SHA-256 of ``repr(key)`` (worked out once per process, _key_digest).
    ``streams`` derives the seed words of every key it has not seen before
    in one vectorised pass, one key or many, and replays them after that:
    every call returns fresh Generators at the start of their streams.
    Banks opened together by ``RngBank.cell`` (a block of replicates of one
    experiment cell) share that pass: a bank that meets new keys derives
    them for every bank of its cell (_Cell.derive), so the others replay
    them.  ``cell`` is the _Cell a bank joins; a bank made alone is a cell
    of one.  The bank keeps about 0.25 KB per key.
    """

    def __init__(self, seed, cell=None):
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._cell = _Cell() if cell is None else cell
        self._words = self._cell.join(self.seed)
        self._kept = {}

    @classmethod
    def cell(cls, seeds, keys=()) -> list:
        """One bank per seed, opened together: they derive their keys
        together, ``keys`` (key tuples) up front, in one pass, and none
        refers to another."""
        cell = _Cell()
        banks = [cls(seed, cell) for seed in seeds]
        names = list(dict.fromkeys(map(repr, keys)))
        if names:
            cell.derive(names)
        return banks

    def shared(self, key, make):
        """``make()``, made at the first read of ``key`` and held for every
        later read until the bank is dropped.  ``key`` must hold every
        input of ``make``; then all the scheme runs of a replicate that read
        one result read one draw of it."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def streams(self, keys) -> list:
        """One Generator per key tuple in ``keys``, in order."""
        names = [repr(key) for key in keys]
        new = [name for name in dict.fromkeys(names)
               if name not in self._words]
        if new:
            self._cell.derive(new)
        replay = _replay_type()
        generator, pcg64 = np.random.Generator, np.random.PCG64
        return [generator(pcg64(replay(self._words[name])))
                for name in names]

    def stream(self, *key) -> np.random.Generator:
        return self.streams([key])[0]


class _Cell:
    """The seeds of banks opened together and each one's seed words by key
    name, which its bank reads.  It holds no bank, so the banks of a cell
    form no reference cycle and are freed without the cycle collector."""

    def __init__(self):
        self.seeds, self.words, self._mixed = [], [], []

    def join(self, seed):
        """The seed-word dict of a new bank of seed ``seed``."""
        self.seeds.append(seed)
        self.words.append({})
        return self.words[-1]

    def derive(self, names):
        """Seed words of the keys named ``names`` (distinct) for every bank
        of the cell (again, alike, for one that held some), in one pass per
        seed width (_mixed_seed), whatever the cell's size.  A seed's share
        is worked out on its first derivation."""
        self._mixed += map(_mixed_seed, self.seeds[len(self._mixed):])
        widths = {}
        for words, (pool, width) in zip(self.words, self._mixed):
            pools, dicts = widths.setdefault(width, ([], []))
            pools.append(pool)
            dicts.append(words)
        spawn = np.frombuffer(b"".join(map(_key_digest, names)),
                              dtype="<u4").reshape(-1, 4)
        for width, (pools, dicts) in widths.items():
            derived = _spawned_words(np.array(pools), width, spawn)
            derived.flags.writeable = False
            for words, rows in zip(dicts, derived):
                words.update(zip(names, rows))


@functools.lru_cache(maxsize=1024)
def _key_digest(name):
    """The spawn key of the key named ``name``, as 16 bytes: the first four
    32-bit words of its SHA-256.  It does not depend on the seed, so it is
    worked out once per process, not once per bank.  hashlib is imported
    here, on first use: importing hetcount does not need it."""
    import hashlib

    return hashlib.sha256(name.encode()).digest()[:16]


# The part of numpy's SeedSequence (pool size 4) that it cannot batch, in
# its own terms: hashmix, mix and the constants of their 32-bit hashes.
# Their arithmetic is on uint32 arrays, which wrap modulo 2^32 as the
# hashes do.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of uint32 arrays, with its hash constants
    given."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


def _mixed_seed(seed):
    """What a SeedSequence with entropy ``seed`` has worked out before it
    reads a spawn key: (the uint32 pool of ``SeedSequence(seed)``, and the
    number of hashmix calls the seed took, four per 32-bit word and at
    least four words), the second setting the hash constants of the spawn
    key's hashmix calls."""
    words = max(4, -(-seed.bit_length() // 32))
    return np.random.SeedSequence(seed).pool, 4 * words


@functools.cache
def _hash_pairs(first, mult, start, shape):
    """Read-only uint32 (xor, multiply) constants of the hashmix calls
    start, start + 1, ... of a SeedSequence hash, laid out in ``shape``;
    call k xors with constant k and multiplies by constant k + 1, and
    constant k is first * mult^k mod 2^32."""
    size = math.prod(shape)
    consts = np.array([first * pow(mult, k, 1 << 32) & _M32
                       for k in range(start, start + size + 1)],
                      dtype=np.uint32)
    consts.flags.writeable = False
    return consts[:-1].reshape(shape), consts[1:].reshape(shape)


def _spawned_words(pools, width, spawn):
    """``generate_state(4, uint64)`` of the SeedSequences of R seeds with
    (R, 4) uint32 pools ``pools`` that took ``width`` hashmix calls each
    (_mixed_seed), and the (K, 4) uint32 spawn keys ``spawn``, as (R, K, 4)
    uint64: each spawn word is mixed into every pool word, then the pool is
    hashed out twice over as the eight state words."""
    xor, mult = _hash_pairs(_INIT_A, _MULT_A, width, (4, 4))
    hashed = _hashmix(spawn[:, :, None], xor, mult)
    pool = pools[:, None]
    for word in range(4):
        pool = _mix(pool, hashed[:, word])
    xor, mult = _hash_pairs(_INIT_B, _MULT_B, 0, (8,))
    state = _hashmix(np.concatenate((pool, pool), axis=-1), xor, mult)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                              copy=False)


@functools.cache
def _replay_type():
    """Seed sequence that hands PCG64 the seed words a SeedSequence derived
    earlier, so the Generator equals ``default_rng(that SeedSequence)``.
    Made on first use: importing numpy.random slows ``import hetcount``."""
    from numpy.random.bit_generator import ISeedSequence

    class Replay(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Replay


@functools.lru_cache(maxsize=64)
def _exponent_blocks(t, k=0):
    """Read-only map from the biased float64 exponent of 1 - U to the block
    min(max(1, 1023 - exponent), t), or with k to the block's first bin
    (block - 1) * k among k trials' bins, blocks first (_block_counts)."""
    blocks = np.clip(1023 - np.arange(1024, dtype=np.int64), 1, t)
    if k:
        blocks = (blocks - 1) * k
    blocks.flags.writeable = False
    return blocks


def _geometric_blocks(u, t, out=None, k=0):
    """Blocks min(Geometric(1/2), t) as int64 from uniforms u in [0, 1)
    (any shape, float64, C-contiguous), which it overwrites; written into
    ``out`` (int64, u's shape) when given; with k, as _exponent_blocks(t,
    k) bins.

    numpy's ``Generator.geometric(0.5)`` takes one uniform U per variate and
    returns the least k >= 1 with U <= 1 - 2^-k; its partial sums are exact
    at p = 1/2, and so is 1 - U.  That k is max(1, -floor(log2(1 - U))),
    which the exponent field of 1 - U gives directly.  So
    ``_geometric_blocks(rng.random(n), t)`` equals
    ``np.minimum(rng.geometric(0.5, size=n), t)`` value for value and leaves
    rng in the same state.  1 - U lies in (0, 1], so every exponent is in
    the table and ``mode="clip"`` changes no value; under the default
    ``"raise"`` numpy would fill ``out`` through a temporary.
    """
    exponents = np.subtract(1.0, u, out=u).view(np.int64)
    exponents >>= 52
    return _exponent_blocks(t, k).take(exponents, out=out, mode="clip")


def geometric_block_choices(rng, n, t):
    """Block index per node: block i with probability 2^-i, the tail mass
    folded onto block t."""
    return _geometric_blocks(rng.random(n), t)


# Nodes a per-node replay draws at a time, into one reused buffer.
_NODE_PIECE = 1 << 16


def uniform_pieces(rngs, n):
    """``rng.random(n)`` of each Generator in rngs in turn, in pieces of at
    most _NODE_PIECE nodes, leaving each rng in the same state: (index of
    the rng, slice of the nodes, their uniforms) triples, every piece drawn
    into one buffer, so valid until the next is drawn."""
    buffer = np.empty(min(n, _NODE_PIECE))
    for m, rng in enumerate(rngs):
        for lo in range(0, n, _NODE_PIECE):
            hi = min(lo + _NODE_PIECE, n)
            yield m, slice(lo, hi), rng.random(out=buffer[:hi - lo])


def geometric_block_pieces(rngs, n, t):
    """``geometric_block_choices(rng, n, t)`` of each rng in rngs, piece by
    piece as uniform_pieces, the int64 blocks in the uniforms' buffer."""
    for m, piece, u in uniform_pieces(rngs, n):
        yield m, piece, _geometric_blocks(u, t, out=u.view(np.int64))


def bb_node_pieces(rng, n, ell, p, joined=False):
    """The per-node slots of ``bb_blocks(rng, n, ell, p)`` (1-based, 0 =
    idle), or with ``joined`` only its participation mask, piece by piece as
    uniform_pieces (the index is 0): the participation uniforms from rng,
    the slots from a copy of it advanced past them (a PCG64 uniform takes
    one step)."""
    if joined:
        for m, piece, u in uniform_pieces([rng], n):
            yield m, piece, u < p
        return
    slots = copy.deepcopy(rng)
    slots.bit_generator.advance(n)
    for m, piece, u in uniform_pieces([rng], n):
        drawn = slots.integers(1, ell + 1, size=len(u))
        drawn *= u < p
        yield m, piece, drawn


# Uniforms a trial draw holds at once (16 bytes each with their blocks),
# shared by its threads; a trial above one thread's share is drawn in pieces
# of that share.  2^18 slowed large-pop's rounds in 3 of 4 alternating pairs,
# by up to 32%, and left its peak RSS level: probably because _class_chunk's
# fixed numpy calls per chunk hold the GIL the pool threads share.
_TRIAL_CHUNK = 1 << 19
# CPUs this process may run on; a trial draw deals its types to up to
# min(T, _CPUS) threads.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@functools.cache
def _pool():
    """Process-wide threads for trial draws, made on first use: importing
    hetcount starts no thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_CPUS,
                              thread_name_prefix="hetcount-draw")


def draw_trials(rngs, n, t, out, kernel):
    """Trial-mode draws of every type into ``out`` (T, M, t), returned: in
    each of M trials the n[b] nodes of type b + 1 take blocks
    min(Geometric(1/2), t), whose counts ``kernel`` (_count_chunk, or
    _class_chunk for classes min(count, 2)) writes into out[b].  rngs[b] is
    M Generators, trial m drawn as ``geometric_block_choices(rngs[b][m],
    n[b], t)`` would, or one Generator drawn trial after trial; a type
    without nodes needs none.

    Where some type's trials hold more than _TRIAL_CHUNK nodes, the types
    are dealt round-robin to min(T, _CPUS) pool threads, each with an equal
    share of that budget and drawing its types one after another into their
    slices of out, so out does not depend on the scheduling.  So the draw
    holds at most _TRIAL_CHUNK uniforms and their blocks, whatever M and n.
    Streams and buffers are made on the calling thread: traced functions
    keep one span stack, and arrays freed on pool threads would linger in
    per-thread malloc arenas."""
    T, M = out.shape[:2]
    workers = min(T, _CPUS) if M * max(n, default=0) > _TRIAL_CHUNK else 1
    share = _TRIAL_CHUNK // workers
    groups = []
    for first in range(workers):
        jobs = [(out[b], rngs[b], n[b], min(M, max(1, share // n[b])))
                for b in range(first, T, workers) if n[b]]
        if jobs:
            size = max(min(nb * rows, share) for _out, _rngs, nb, rows in jobs)
            groups.append((jobs, t, kernel, np.empty(size),
                           np.empty(size, dtype=np.int64)))
    out[np.equal(n, 0)] = 0
    if len(groups) > 1:
        for future in [_pool().submit(_draw_types, *group)
                       for group in groups]:
            future.result()
    else:
        for group in groups:
            _draw_types(*group)
    return out


def _draw_types(jobs, t, kernel, u, idx):
    """Each job's (M, t) counts into its ``out``, by ``kernel``, chunk after
    chunk of ``rows`` trials of ``nb`` nodes from its ``rngs``, through the
    float64 buffer u and the int64 buffer idx.  A trial of more nodes than
    u holds is drawn in pieces of len(u) nodes from its own stream, and the
    pieces' counts are added, classes capped at 2 again after each: so out
    does not depend on the budget."""
    for out, rngs, nb, rows in jobs:
        width = min(nb, len(u))
        part = np.empty_like(out[:1]) if width < nb else None
        for s in range(0, len(out), rows):
            k = min(rows, len(out) - s)
            for lo in range(0, nb, width):
                drawn = u[:k * min(width, nb - lo)].reshape(k, -1)
                if isinstance(rngs, np.random.Generator):
                    rngs.random(out=drawn)
                else:
                    for row, rng in zip(drawn, rngs[s:s + k]):
                        rng.random(out=row)
                kernel(drawn, t, idx[:drawn.size].reshape(drawn.shape),
                       part if lo else out[s:s + k])
                if lo:
                    out[s] += part[0]
                    if kernel is _class_chunk:
                        np.minimum(out[s], 2, out=out[s])


def _block_counts(u, t, idx):
    """(t, k) int64 counts, blocks first, of k trials' blocks
    min(Geometric(1/2), t), from their nodes' uniforms u (k, n_b;
    overwritten), by one bincount over the bins (block - 1) * k + trial
    (row 0 needs no offset).  idx (int64, u's shape) holds the bins.  An
    ``out`` held blocks first takes the counts' rows whole."""
    k = len(u)
    bins = _geometric_blocks(u, t, out=idx, k=k)
    bins[1:] += np.arange(1, k)[:, None]
    return np.bincount(bins.ravel(), minlength=k * t).reshape(t, k)


def _count_chunk(u, t, idx, out):
    """Counts into ``out`` (k, t) of k trials' blocks min(Geometric(1/2), t)
    from their nodes' uniforms u (k, n_b; overwritten): _block_counts."""
    out[...] = _block_counts(u, t, idx).T


def _class_chunk(u, t, idx, out):
    """Classes min(count, 2) into ``out`` (k, t) of the counts _count_chunk
    takes from u (k, n_b; may be overwritten), capped before they are
    stored, so uint8 holds them whatever n_b.  Blocks above L are counted
    from the nodes with U > 1 - 2^-L (exact in float64; true iff the block
    is above L).  Blocks 1..L are class 2 where a trial's first W = n_b // 8
    nodes hold two each (else it is counted in full); L = min(t - 1,
    floor(log2(W/16))), so block L expects 16 of them, and below L = 2
    every node is counted.  idx (int64, u's shape) holds the prefix, then
    a mask."""
    k, nb = u.shape
    w = nb // 8
    low = _class_depth(nb, t)
    if low < 2:
        counts = _block_counts(u, t, idx)
        if nb > 255:    # a count could wrap in uint8: cap it first
            np.minimum(counts, 2, out=counts)
        out[...] = counts.T
        # Against an array of twos: a scalar 2 is several times slower.
        np.minimum(out, np.full(t, 2, dtype=out.dtype), out=out)
        return
    words = idx.reshape(-1)
    prefix = words[:k * w].view(np.float64).reshape(k, w)
    np.copyto(prefix, u[:, :w])
    witnesses = _block_counts(prefix, t, words[k * w:2 * k * w].reshape(k, w))
    short = np.flatnonzero((witnesses[:low] < 2).any(axis=0))
    high = np.flatnonzero(np.greater(
        u, 1 - 2.0 ** -low, out=words.view(np.bool_)[:k * nb].reshape(k, nb)))
    bins = _geometric_blocks(u.reshape(-1)[high], t, k=k) + high // nb
    counts = np.bincount(bins, minlength=k * t).reshape(t, k)
    out[...] = np.minimum(counts, 2, out=counts).T
    out[:, :low] = 2
    for r in short:
        out[r] = np.minimum(_block_counts(u[r:r + 1], t, idx[:1])[:, 0], 2)


def _class_depth(nb, t):
    """_class_chunk's L for trials of nb nodes over t blocks."""
    return min(t - 1, (nb // 8 // 16).bit_length() - 1)


def uniform_block_choices(rng, n, ell, p, fresh=False):
    """Participation mask and uniform block index per node.  Both arrays are
    always drawn (the slot draw happens even for non-participants) so that
    the draw sequence is identical across participation probabilities.

    At p >= 1 a ``fresh`` rng (a PCG64 Generator at the start of its
    stream, as RngBank opens them) skips the uniforms with ``advance(n)``:
    a PCG64 uniform takes one step, and advance leaves no 32-bit half
    buffered, as at a stream's start, so the slots and state are the same.
    Its mask, all True, is then not made: it is None."""
    if p >= 1 and fresh:
        rng.bit_generator.advance(n)
        mask = None
    else:
        mask = rng.random(n) < p
    return mask, rng.integers(1, ell + 1, size=n)


def bb_blocks(rng, n, ell, p):
    """One balls-and-bins trial of n nodes over ell slots, each node joining
    with probability p: its (ell,) per-slot transmitter counts, and the
    nodes' participation mask and uniform 1-based slots.  A node's slot in
    the trial is ``slots * mask`` (0 = idle), worked out only by readers of
    per-node slots."""
    mask, blocks = uniform_block_choices(rng, n, ell, p)
    return (np.bincount(blocks[mask] if p < 1 else blocks,
                        minlength=ell + 1)[1:], mask, blocks)


def for_type(values, b):
    """Type b's entry: dicts are keyed 1-based, sequences are 0-based."""
    if isinstance(values, dict):
        return values[b]
    return values[b - 1]


def bitmap_bp_slots(bits, s_w) -> int:
    return -(-int(bits) // int(s_w))
