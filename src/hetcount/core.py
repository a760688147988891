"""Shared domain types, randomness streams, and ledger arithmetic.

Everything downstream (homogeneous baselines, the block-coded heterogeneous
schemes, the composite estimators, the harness) works in terms of the types
defined here: populations, protocol parameters, slot outcomes, and the slot /
energy ledgers that make every simulated frame auditable.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist

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
        if len(self.n) < 2:
            raise ValueError("need at least two node types")
        if len(self.n) != len(self.n_all):
            raise ValueError("n and n_all must have one entry per type")
        for nb, na in zip(self.n, self.n_all):
            if not (0 <= nb <= na):
                raise ValueError("need 0 <= n_b <= n_all_b")

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
        if min(self.gamma_tau, self.gamma_rho, self.gamma_iota) < 0:
            raise ValueError("energy costs must be >= 0")

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
    # erfinv(y) = Phi^{-1}((y+1)/2) / sqrt(2)
    return NormalDist().inv_cdf((y + 1.0) / 2.0) / math.sqrt(2.0)


def block_count_for(n_all) -> int:
    return max(1, math.ceil(math.log2(max(max(n_all), 2))))


def derive_config(epsilon, delta, n_all, s_w=6, ell=None, m_prime=None,
                  gamma_tau=1.0, gamma_rho=1.0, gamma_iota=1.0) -> ProtocolConfig:
    """Build a ProtocolConfig from the accuracy targets and the manufactured
    per-type totals, consulting the published lookup tables.

    Explicit ell / m_prime arguments override the tables (e.g. after a
    calibration run); otherwise unknown keys raise UnknownAccuracyKey.
    epsilon and delta outside (0, 1) raise ValueError.
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not 0 < value < 1:
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


class EnergyLedger:
    """Per-node radio-state accounting, one record set per node type.

    For each type b (1-based) we keep arrays over that type's active nodes:
    transmit-slot counts, receive-slot counts, and the number of slots during
    which the node was awake and accountable ("accounted").  Idle slots are
    the difference.  For full-scheme runs accounted equals the frame total
    for every node; the one exception is the repeated balls-and-bins
    phase-2 baseline, where a node sleeps outside its own type's trial and
    accounted equals that trial's length.
    """

    def __init__(self, T):
        self.tx = {b: np.zeros(0) for b in range(1, T + 1)}
        self.rx = {b: np.zeros(0) for b in range(1, T + 1)}
        self.accounted = {b: np.zeros(0) for b in range(1, T + 1)}

    @staticmethod
    def zeros(population: PopulationSpec) -> "EnergyLedger":
        led = EnergyLedger(population.T)
        for b in range(1, population.T + 1):
            nb = population.n[b - 1]
            led.tx[b] = np.zeros(nb)
            led.rx[b] = np.zeros(nb)
            led.accounted[b] = np.zeros(nb)
        return led

    def idle(self, b):
        return self.accounted[b] - self.tx[b] - self.rx[b]

    def energy(self, b, config: ProtocolConfig):
        return (self.tx[b] * config.gamma_tau + self.rx[b] * config.gamma_rho
                + self.idle(b) * config.gamma_iota)

    def mean_energy(self, b, config: ProtocolConfig):
        e = self.energy(b, config)
        return float(e.mean()) if e.size else 0.0

    def add(self, other: "EnergyLedger"):
        for b in self.tx:
            self.tx[b] = self.tx[b] + other.tx[b]
            self.rx[b] = self.rx[b] + other.rx[b]
            self.accounted[b] = self.accounted[b] + other.accounted[b]
        return self

    def charge_all(self, tx=0.0, rx=0.0, accounted=0.0):
        """Add the same per-node amounts to every node of every type."""
        for b in self.tx:
            self.tx[b] = self.tx[b] + tx
            self.rx[b] = self.rx[b] + rx
            self.accounted[b] = self.accounted[b] + accounted
        return self


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
    always yields the same stream, and distinct keys are independent.  This
    is what lets different schemes replay identical draws for the same
    (type, purpose) role, which the estimator-equality tests rely on.

    A key's seed words are derived once per bank and replayed after that:
    every call still returns a fresh Generator at the start of the stream,
    sharing no state with earlier ones.  The bank keeps about 0.25 KB per key.
    A bank made with ``share=True`` also holds results that one scheme run
    on it works out for another (``keep``) until that one takes them.
    """

    def __init__(self, seed, share=False):
        self.seed = int(seed)
        self.share = share
        self._words = {}
        self._kept = {}

    def keep(self, key, value):
        """Hold ``value`` for one later ``take(key)``."""
        self._kept[key] = value

    def take(self, key):
        """The value kept under ``key``, released; None if there is none."""
        return self._kept.pop(key, None)

    def stream(self, *key) -> np.random.Generator:
        name = repr(key)
        words = self._words.get(name)
        if words is None:
            digest = hashlib.sha256(name.encode()).digest()
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=struct.unpack("<4I", digest[:16]))
            words = self._words[name] = seq.generate_state(4, np.uint64)
            words.flags.writeable = False
        return np.random.Generator(np.random.PCG64(_replay_type()(words)))


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
def _exponent_blocks(t):
    """Read-only map from the biased float64 exponent of 1 - U to the block
    min(max(1, 1023 - exponent), t)."""
    blocks = np.clip(1023 - np.arange(1024, dtype=np.int64), 1, t)
    blocks.flags.writeable = False
    return blocks


def _geometric_blocks(u, t, out=None):
    """Blocks min(Geometric(1/2), t) as int64 from uniforms u in [0, 1)
    (any shape, float64, C-contiguous), which it overwrites; written into
    ``out`` (int64, u's shape) when given.

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
    return _exponent_blocks(t).take(exponents, out=out, mode="clip")


def geometric_block_choices(rng, n, t):
    """Block index per node: block i with probability 2^-i, the tail mass
    folded onto block t."""
    return _geometric_blocks(rng.random(n), t)


def uniform_block_choices(rng, n, ell, p):
    """Participation mask and uniform block index per node.  Both arrays are
    always drawn (the slot draw happens even for non-participants) so that
    the draw sequence is identical across participation probabilities."""
    u = rng.random(n)
    blocks = rng.integers(1, ell + 1, size=n)
    return u < p, blocks


def for_type(values, b):
    """Type b's entry: dicts are keyed 1-based, sequences are 0-based."""
    if isinstance(values, dict):
        return values[b]
    return values[b - 1]


def bitmap_bp_slots(bits, s_w) -> int:
    return -(-int(bits) // int(s_w))
