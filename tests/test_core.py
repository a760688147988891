"""Core domain types, config derivation, and the randomness contract."""

import copy
import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcount
from hetcount import core
from hetcount.core import (
    ELL_TABLE,
    EnergyLedger,
    PopulationSpec,
    RngBank,
    SlotLedger,
    SlotOutcome,
    UnknownAccuracyKey,
    _geometric_blocks,
    _mixed_seed,
    bitmap_bp_slots,
    block_count_for,
    derive_config,
    geometric_block_choices,
    lof_trial_count,
    slot_outcomes,
    uniform_block_choices,
)
from hetcount.homogeneous import trial_counts


def _series_erfinv(y, terms=400):
    """Independent Maclaurin-series inverse error function."""
    c = [1.0]
    for k in range(1, terms):
        c.append(sum(c[m] * c[k - 1 - m] / ((m + 1) * (2 * m + 1))
                     for m in range(k)))
    z = math.sqrt(math.pi) * y / 2.0
    return sum(ck / (2 * k + 1) * z ** (2 * k + 1) for k, ck in enumerate(c))


def _slot(alpha, beta):
    return SlotOutcome(int(slot_outcomes(np.array(alpha), np.array(beta))))


class TestResolveSlot:
    def test_empty(self):
        assert _slot(0, 0) is SlotOutcome.EMPTY

    def test_singles(self):
        assert _slot(1, 0) is SlotOutcome.SINGLE_ALPHA
        assert _slot(0, 1) is SlotOutcome.SINGLE_BETA

    def test_brute_force_all_multisets_up_to_three(self):
        for alpha, beta in product(range(4), repeat=2):
            if alpha + beta == 0:
                expected = SlotOutcome.EMPTY
            elif alpha + beta == 1:
                expected = (SlotOutcome.SINGLE_ALPHA if alpha
                            else SlotOutcome.SINGLE_BETA)
            else:
                expected = SlotOutcome.COLLISION
            assert _slot(alpha, beta) is expected

    def test_commutative(self):
        # Swapping the symbols swaps the two singles and nothing else.
        swap = {SlotOutcome.SINGLE_ALPHA: SlotOutcome.SINGLE_BETA,
                SlotOutcome.SINGLE_BETA: SlotOutcome.SINGLE_ALPHA}
        for alpha, beta in product(range(4), repeat=2):
            out = _slot(alpha, beta)
            assert _slot(beta, alpha) is swap.get(out, out)

    @pytest.mark.parametrize("alpha_shape, beta_shape", [
        ((7, 1), (7, 3)),       # 3SS: type 1 against every beta slot
        ((27, 2), (27, 2)),     # 2SS: alpha and beta senders per slot
    ])
    def test_dtype_and_caller_shapes(self, alpha_shape, beta_shape):
        rng = np.random.default_rng(0)
        alpha = rng.integers(0, 3, alpha_shape)
        beta = rng.integers(0, 3, beta_shape)
        out = slot_outcomes(alpha, beta)
        assert out.dtype == np.uint8
        assert out.shape == np.broadcast_shapes(alpha_shape, beta_shape)
        a, b = np.broadcast_arrays(alpha, beta)
        assert [int(o) for o in out.ravel()] == [
            _slot(x, y).value for x, y in zip(a.ravel(), b.ravel())]


class TestDeriveConfig:
    def test_ell_table(self):
        assert derive_config(0.03, 0.2, (1000,)).ell == 3009
        assert derive_config(0.05, 0.2, (1000,)).ell == 1075
        assert derive_config(0.02, 0.2, (1000,)).ell == 6638
        assert derive_config(0.04, 0.2, (1000,)).ell == 1674

    def test_m_prime_table(self):
        assert derive_config(0.03, 0.2, (1000,)).m_prime == 10

    def test_unknown_keys_raise(self):
        with pytest.raises(UnknownAccuracyKey):
            derive_config(0.025, 0.2, (1000,))
        with pytest.raises(UnknownAccuracyKey):
            derive_config(0.03, 0.1, (1000,))

    @pytest.mark.parametrize("epsilon, delta, bad", [
        (0.0, 0.2, "epsilon"), (-0.1, 0.2, "epsilon"), (1.5, 0.2, "epsilon"),
        (float("nan"), 0.2, "epsilon"), (0.03, 1.0, "delta"),
        (0.03, 0.0, "delta")])
    def test_accuracy_targets_outside_unit_interval(self, epsilon, delta,
                                                    bad):
        # Rejected before the tables are read and before any arithmetic.
        with pytest.raises(ValueError, match=f"{bad} must be in \\(0, 1\\)"):
            derive_config(epsilon, delta, (1000,), ell=100, m_prime=5)

    def test_overrides_accepted(self):
        cfg = derive_config(0.025, 0.1, (1000,), ell=500, m_prime=7)
        assert (cfg.ell, cfg.m_prime) == (500, 7)

    def test_t_blocks(self):
        assert derive_config(0.03, 0.2, (1000, 1000)).t_T == 10
        assert block_count_for((1 << 20,)) == 20
        assert block_count_for((1,)) == 1
        assert block_count_for((100, 5000)) == 13

    def test_repetition_count_against_series_erfinv(self):
        for eps, delta in [(0.03, 0.2), (0.05, 0.2), (0.02, 0.4)]:
            c = math.sqrt(2.0) * _series_erfinv(1.0 - delta)
            lo = (-1.1213 * c / math.log2(1.0 - eps)) ** 2
            hi = (1.1213 * c / math.log2(1.0 + eps)) ** 2
            assert lof_trial_count(eps, delta) == math.ceil(max(lo, hi))

    def test_repetition_count_value(self):
        assert derive_config(0.03, 0.2, (1000,)).m_lof == 1136

    def test_tables_frozen(self):
        assert ELL_TABLE == {0.02: 6638, 0.03: 3009, 0.04: 1674, 0.05: 1075}


class TestProtocolConfig:
    @pytest.mark.parametrize("cost", ["gamma_tau", "gamma_rho", "gamma_iota"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_energy_cost_rejected(self, cost, value):
        cfg = derive_config(0.03, 0.2, (1000,))
        with pytest.raises(ValueError,
                           match="energy costs must be finite and >= 0"):
            dataclasses.replace(cfg, **{cost: value})

    def test_negative_energy_cost_rejected(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        for value in (-1.0, -math.inf):
            with pytest.raises(ValueError, match="energy costs must be"):
                dataclasses.replace(cfg, gamma_rho=value)

    def test_zero_energy_cost_accepted(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        assert dataclasses.replace(cfg, gamma_iota=0.0).gammas == (1.0, 1.0,
                                                                   0.0)


class TestPopulationSpec:
    def test_basic(self):
        pop = PopulationSpec.fixed((3, 5))
        assert pop.T == 2
        assert pop.n_all == (3, 5)

    def test_invariants(self):
        with pytest.raises(ValueError):
            PopulationSpec(n=(3,), n_all=(3,))
        with pytest.raises(ValueError):
            PopulationSpec(n=(3, 5), n_all=(3, 4))
        with pytest.raises(ValueError):
            PopulationSpec(n=(3, 5), n_all=(3,))

    def test_node_counts_fit_int32(self):
        # Block counts are int32, and numpy wraps an int64 past 2^31 - 1
        # silently when it is stored in them.
        big = 2 ** 31 - 1
        assert core.MAX_NODES == big
        assert PopulationSpec.fixed((big, 0)).n == (big, 0)
        with pytest.raises(ValueError, match="n_b <= 2147483647"):
            PopulationSpec.fixed((big + 1, 0))
        with pytest.raises(ValueError, match="n_b <= 2147483647"):
            PopulationSpec(n=(3, 10 ** 30), n_all=(3, 10 ** 30))

    def test_sample_activity_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pop = PopulationSpec.sample_activity(4, 50, 0.3, rng)
            assert all(0 <= nb <= 50 for nb in pop.n)
            assert pop.n_all == (50,) * 4


class TestLedgers:
    def test_slot_ledger_total(self):
        led = SlotLedger(stage1=10, stage2=3, stage3=6, bp=2)
        assert led.total == 21
        combined = led + SlotLedger(stage1=1, bp=1)
        assert combined.total == 23
        led += SlotLedger(stage2=2)
        assert led.total == 23

    def test_energy_ledger_partition(self):
        pop = PopulationSpec.fixed((2, 3))
        led = EnergyLedger.zeros(pop)
        led.charge_all(tx=2.0, rx=1.0, accounted=10.0)
        for b in (1, 2):
            assert np.allclose(led.idle(b), 7.0)
            assert np.allclose(led.energy(b, derive_config(0.03, 0.2, (8, 8))),
                               10.0)

    def test_energy_ledger_add(self):
        pop = PopulationSpec.fixed((2, 2))
        a = EnergyLedger.zeros(pop)
        b = EnergyLedger.zeros(pop)
        a.charge_all(tx=1.0, accounted=4.0)
        b.charge_all(rx=2.0, accounted=4.0)
        a.add(b)
        assert np.allclose(a.idle(1), 5.0)

    def test_callable_charge_takes_no_rx_or_accounted(self):
        # A callable tx adds all three records itself; an rx or accounted
        # beside it would be dropped, so the combination is refused.
        def adds(tx, rx, accounted):
            tx += 1
            accounted += 3

        led = EnergyLedger.zeros(PopulationSpec.fixed((2, 3)))
        for extra in ({"rx": 1.0}, {"accounted": 2.0},
                      {"rx": np.ones(3)}, {"accounted": np.arange(3.0)}):
            with pytest.raises(TypeError, match="callable tx"):
                led.charge(2, (0, 0, 0), adds, **extra)
        assert not led._charges and not led.sums.any()
        led.charge(2, (3, 0, 9), adds)
        assert led.idle(2).tolist() == [2.0] * 3
        assert led.sums[1].tolist() == [3, 0, 9]


def _derived_stream(seed, key):
    """RngBank's derivation, written out: SHA-256 of the key's repr, four
    little-endian words as the spawn key, then default_rng."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little")
                  for i in range(0, 16, 4))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=words))


# Keys shaped like the ones the schemes use.
_STREAM_KEYS = st.one_of(
    st.tuples(st.just("p1"), st.integers(0, 50), st.integers(1, 12)),
    st.tuples(st.just("p2"), st.integers(1, 12)),
    st.tuples(st.just("rep"), st.integers(1, 12)),
    st.just(("pop",)))

# Keys of ints, floats and strings, as names of any stream.
_ANY_KEYS = st.one_of(_STREAM_KEYS, st.tuples(st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8)),
    st.integers(0, 50)))


class TestRngBank:
    def test_deterministic(self):
        draws1 = RngBank(7).stream("p1", 0, 1).random(5)
        draws2 = RngBank(7).stream("p1", 0, 1).random(5)
        assert np.array_equal(draws1, draws2)

    def test_keys_independent(self):
        bank = RngBank(7)
        a = bank.stream("p1", 0, 1).random(5)
        b = bank.stream("p1", 0, 2).random(5)
        c = bank.stream("p2", 1).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_changes_stream(self):
        a = RngBank(7).stream("p1", 0, 1).random(5)
        b = RngBank(8).stream("p1", 0, 1).random(5)
        assert not np.array_equal(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.lists(_STREAM_KEYS, min_size=1,
                                                 max_size=6))
    def test_property_equals_derivation_per_call(self, seed, keys):
        # First calls and repeated calls, interleaved across keys.
        bank = RngBank(seed)
        for key in keys + keys[::-1]:
            rng, ref = bank.stream(*key), _derived_stream(seed, key)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.random(7), ref.random(7))
            assert np.array_equal(rng.integers(1, 3009, size=7),
                                  ref.integers(1, 3009, size=7))
            assert np.array_equal(rng.geometric(0.5, size=5),
                                  ref.geometric(0.5, size=5))

    def test_repeated_calls_share_no_state(self):
        bank = RngBank(7)
        a = bank.stream("p2", 1)
        first = a.random(10)
        b = bank.stream("p2", 1)
        assert b is not a and b.bit_generator is not a.bit_generator
        assert np.array_equal(b.random(10), first)
        assert np.array_equal(a.random(4), b.random(4))
        c = bank.stream("p2", 1)
        assert np.array_equal(c.random(10), first)

    def test_derivation_pass_sizes(self, monkeypatch):
        # The seed's share of the derivation is worked out once per bank, on
        # its first derivation of any size, and not before.
        mixed = []
        monkeypatch.setattr(core, "_mixed_seed",
                            lambda seed: mixed.append(seed)
                            or _mixed_seed(seed))
        seeds = []
        for seed, first in [(7, 1), (8, 2), (9, 5)]:
            bank = RngBank(seed)
            assert mixed == seeds
            bank.streams([("p2", b) for b in range(first)])
            seeds.append(seed)
            assert mixed == seeds
            bank.streams([("p2", b) for b in range(1, 6)])
            bank.stream("p2", 9)
            bank.streams([("p2", b) for b in range(6, 12)])
            assert mixed == seeds

    @pytest.mark.parametrize("seed", [
        0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1, 2 ** 128,
        2 ** 160 + 1])
    @pytest.mark.parametrize("new", [1, 2, 3])
    def test_word_boundary_seeds(self, seed, new):
        # Seeds where the number of 32-bit seed words, and so the hash
        # constants the spawn key takes, changes; one, two and three new keys.
        keys = [("p1", 0, b) for b in range(1, new + 1)]
        bank = RngBank(seed)
        for rng, key in zip(bank.streams(keys), keys):
            assert (rng.bit_generator.state
                    == _derived_stream(seed, key).bit_generator.state)

    def test_derives_each_key_once(self, monkeypatch):
        # The key digests are memoised per process: start from none.
        core._key_digest.cache_clear()
        digests = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data: digests.append(data) or sha256(data))
        bank = RngBank(7)
        for key in [("p1", 0, 1), ("p2", 1), ("p1", 0, 1), ("p2", 1)]:
            bank.stream(*key)
        assert digests == [b"('p1', 0, 1)", b"('p2', 1)"]

    def test_second_bank_hashes_no_key(self, monkeypatch):
        # A key's digest does not depend on the seed: a later bank, of the
        # same seed or another, reuses it and still derives its own streams.
        keys = [("p1", 0, 1), ("p2", 1), ("rep", 2)]
        first = RngBank(7).streams(keys)
        digests = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data: digests.append(data) or sha256(data))
        again = RngBank(7).streams(keys)
        other = RngBank(8).streams(keys)
        assert digests == []
        for rng, same, key, rng8 in zip(first, again, keys, other):
            assert rng.bit_generator.state == same.bit_generator.state
            assert (rng8.bit_generator.state
                    == _derived_stream(8, key).bit_generator.state)

    def test_key_spelling_matters(self):
        # Keys are named by their repr, as the derivation hashes it.
        bank = RngBank(7)
        a = bank.stream("p1", 1, 2).random(5)
        b = bank.stream("p1", 1.0, 2).random(5)
        assert not np.array_equal(a, b)
        assert np.array_equal(b, _derived_stream(7, ("p1", 1.0, 2)).random(5))

    @pytest.mark.parametrize("seed", [-1, -(2 ** 70), 1.5, 2.0, "7", None])
    def test_rejects_bad_seed_at_construction(self, seed):
        with pytest.raises(ValueError, match="non-negative integer"):
            RngBank(seed)

    def test_numpy_integer_seed(self):
        a = RngBank(np.uint64(2 ** 64 - 1)).stream("p2", 1).random(5)
        b = RngBank(2 ** 64 - 1).stream("p2", 1).random(5)
        assert np.array_equal(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 64]),
                     st.integers(0, 2 ** 200)),
           st.lists(_ANY_KEYS, min_size=6, max_size=100, unique_by=repr),
           st.data())
    def test_property_batch_equals_seed_sequence(self, seed, keys, data):
        # Batches deriving 1, 2 and 3 new keys, then all of them, then one
        # with repeated keys and keys it already derived; seeds of more than
        # four 32-bit words included.
        bank = RngBank(seed)
        again = data.draw(st.lists(st.sampled_from(keys), max_size=20))
        for batch in (keys[:1], keys[:3], keys[:6], keys, again + data.draw(
                st.lists(_ANY_KEYS, min_size=1, max_size=20)) + again):
            got = bank.streams(batch)
            assert len(got) == len(batch)
            for rng, key in zip(got, batch):
                assert (rng.bit_generator.state
                        == _derived_stream(seed, key).bit_generator.state)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 2 ** 32, 2 ** 64,
                                               2 ** 160 + 1]),
                              st.integers(0, 2 ** 200)),
                    min_size=1, max_size=6),
           st.lists(_ANY_KEYS, min_size=1, max_size=30, unique_by=repr),
           st.data())
    def test_property_cell_equals_seed_sequence(self, seeds, keys, data):
        # Banks of one cell, their seeds of mixed widths, derive batches of
        # one key or many, some already held: by the asking bank, by all of
        # them, or (a bank joined later) by all but one.
        banks = RngBank.cell(seeds)
        for _ in range(3):
            asking = data.draw(st.sampled_from(banks))
            batch = data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                       max_size=8))
            for rng, key in zip(asking.streams(batch), batch):
                assert (rng.bit_generator.state == _derived_stream(
                    asking.seed, key).bit_generator.state)
            if data.draw(st.booleans()):
                banks.append(RngBank(data.draw(st.integers(0, 2 ** 200)),
                                     cell=banks[0]._cell))
        for bank in banks:
            for rng, key in zip(bank.streams(keys), keys):
                assert (rng.bit_generator.state
                        == _derived_stream(bank.seed, key).bit_generator.state)

    def test_one_pass_per_cell_and_key_set(self, monkeypatch):
        # A key set new to a bank is derived for every bank of its cell, in
        # one pass per seed width; the other banks then derive nothing.
        passes = []
        spawned = core._spawned_words

        def counted(pools, width, spawn):
            passes.append((len(pools), len(spawn)))
            return spawned(pools, width, spawn)
        monkeypatch.setattr(core, "_spawned_words", counted)
        banks = RngBank.cell([7, 2 ** 160 + 1, 8, 9])
        phase1 = [("p1", m, b) for b in range(1, 4) for m in range(10)]
        for keys, first in [([("pop",)], 1), (phase1, 3), (phase1[:4], 0),
                            ([("p2", 1), ("pop",)], 2)]:
            for bank in banks[first:] + banks[:first]:
                bank.streams(keys)
        assert passes == [(3, 1), (1, 1), (3, 30), (1, 30), (3, 1), (1, 1)]
        # A lone bank is a cell of one.
        RngBank(7).streams(phase1)
        assert passes[-1] == (1, 30)

    def test_cell_freed_without_the_cycle_collector(self):
        # No bank refers to another, so a cell's banks, and their seed
        # words, go when the last reference does, with gc disabled.
        gc.collect()
        gc.disable()
        try:
            banks = RngBank.cell([1, 2, 2 ** 160 + 1], {"p2": 2})
            for bank in banks:
                bank.streams([("p2", b) for b in range(1, 4)])
                bank.shared(("p2",), lambda: np.zeros(3))
            refs = [weakref.ref(x) for x in (*banks, banks[0]._cell)]
            words = weakref.ref(next(iter(banks[0]._words.values())).base)
            del banks, bank
            assert [ref() for ref in refs] == [None] * 4
            assert words() is None
        finally:
            gc.enable()

    def test_import_leaves_numpy_random_unloaded(self):
        src = os.path.dirname(os.path.dirname(hetcount.__file__))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        # Nor the repeated baselines' thread pool: no concurrent.futures and
        # no thread but the main one.  Nor statistics (with fractions and
        # decimal) or hashlib, which numpy does not load either: they are
        # imported where the config and the stream seeds are derived.
        code = ("import sys, threading, hetcount, hetcount.harness, "
                "hetcount.cli; print('numpy.random' in sys.modules, "
                "'concurrent.futures' in sys.modules, "
                "threading.active_count(), 'statistics' in sys.modules, "
                "'hashlib' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False", "1", "False",
                                       "False"]


class TestDrawHelpers:
    def test_geometric_block_choices_range(self):
        rng = np.random.default_rng(0)
        blocks = geometric_block_choices(rng, 10000, 5)
        assert blocks.min() >= 1 and blocks.max() <= 5

    def test_geometric_zero_nodes(self):
        rng = np.random.default_rng(0)
        assert geometric_block_choices(rng, 0, 5).size == 0

    def test_uniform_draw_sequence_independent_of_p(self):
        # Slot draws must be identical whatever the participation level.
        _, slots_a = uniform_block_choices(np.random.default_rng(3), 100, 7, 0.2)
        _, slots_b = uniform_block_choices(np.random.default_rng(3), 100, 7, 0.9)
        assert np.array_equal(slots_a, slots_b)

    @pytest.mark.parametrize("n", [0, 1, 15, 3000])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_fresh_full_participation_skips_the_uniforms(self, n, p):
        # The draw a fresh stream skips at p >= 1, written out: uniforms
        # drawn and compared with p, then the slots.
        for fresh in (np.random.default_rng(n), RngBank(n).stream("p2", 1)):
            ref = copy.deepcopy(fresh)
            mask = ref.random(n) < p
            slots = ref.integers(1, 38, size=n)
            counts, got_mask, got_slots = core.bb_blocks(fresh, n, 37, p,
                                                         fresh=True)
            assert np.array_equal(counts,
                                  np.bincount(slots, minlength=38)[1:])
            assert got_mask.dtype == bool and np.array_equal(got_mask, mask)
            assert np.array_equal(got_slots, slots)
            # The state includes the buffered 32-bit half the slots leave.
            assert fresh.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(fresh.integers(1, 38, size=3),
                                  ref.integers(1, 38, size=3))

    def test_bitmap_bp_slots(self):
        assert bitmap_bp_slots(0, 6) == 0
        assert bitmap_bp_slots(1, 6) == 1
        assert bitmap_bp_slots(6, 6) == 1
        assert bitmap_bp_slots(7, 6) == 2
        assert bitmap_bp_slots(3009, 6) == 502


# Block draws transform uniforms instead of calling Generator.geometric(0.5);
# that is exact only because of how numpy's geometric sampler consumes and
# maps its uniforms.  These tests compare the two on the same seeds, and fail
# if a numpy release changes that algorithm.
def _numpy_geometric(seed, n, t):
    rng = np.random.default_rng(seed)
    return np.minimum(rng.geometric(0.5, size=n), t), rng.random()


class TestGeometricBitIdentity:
    @pytest.mark.parametrize("n", [0, 1, 15, 200_000])
    @pytest.mark.parametrize("t", [1, 2, 20, 60])
    def test_equals_numpy_geometric(self, n, t):
        expected, next_u = _numpy_geometric(n + t, n, t)
        rng = np.random.default_rng(n + t)
        blocks = geometric_block_choices(rng, n, t)
        assert blocks.dtype == np.int64
        assert np.array_equal(blocks, expected)
        assert rng.random() == next_u
        rng = np.random.default_rng(n + t)
        assert np.array_equal(_geometric_blocks(rng.random(n), t), expected)
        assert rng.random() == next_u

    def test_boundary_uniforms(self):
        # U = 0, U = 1 - 2^-k (the last U still in block k), the next double
        # above it, and the largest U below 1.
        u = np.array([0.0, 0.5, np.nextafter(0.5, 1.0), 0.75, 1 - 2.0 ** -52,
                      np.nextafter(1.0, 0.0)])
        assert _geometric_blocks(u.copy(), 60).tolist() == [1, 1, 2, 2, 52, 53]
        assert _geometric_blocks(u, 20).tolist() == [1, 1, 2, 2, 20, 20]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 63 - 1), st.integers(0, 3000),
           st.integers(1, 64))
    def test_property_equals_numpy_geometric(self, seed, n, t):
        expected, next_u = _numpy_geometric(seed, n, t)
        rng = np.random.default_rng(seed)
        assert np.array_equal(geometric_block_choices(rng, n, t), expected)
        assert rng.random() == next_u


def _exact_classes(u, t):
    exact = np.empty((len(u), t), dtype=np.int64)
    core._count_chunk(u.copy(), t, np.empty(u.shape, dtype=np.int64), exact)
    return np.minimum(exact, 2)


class TestClassChunk:
    """core._class_chunk writes min(count, 2) of _count_chunk's counts."""

    @staticmethod
    def _classes(u, t):
        out = np.full((len(u), t), -1, dtype=np.int32)
        core._class_chunk(u, t, np.empty(u.shape, dtype=np.int64), out)
        return out

    def test_short_prefix_counted_in_full(self, monkeypatch):
        # n_b = 4096: W = 512 and L = 5.  Trial 1's first W nodes all sit in
        # block 1, so blocks 2..5 lack witnesses there.  Trial 2's one node
        # in block 2 is in its prefix, which holds blocks 3..5 twice each.
        u = np.random.default_rng(21).random((3, 4096))
        u[1, :512] = 0.25
        u[2] = 0.25
        u[2, :7] = [0.75, 0.875, 0.875, 0.9375, 0.9375, 0.96875, 0.96875]
        expected = _exact_classes(u, 12)
        assert expected[2, :6].tolist() == [2, 1, 2, 2, 2, 0]
        rows = []
        count = core._count_chunk

        def counted(u, t, idx, out):
            rows.append(len(u))
            return count(u, t, idx, out)
        monkeypatch.setattr(core, "_count_chunk", counted)
        assert np.array_equal(self._classes(u, 12), expected)
        assert rows == [3, 1, 1]   # the prefixes, then trials 1, 2 in full

    def test_threshold_boundary(self):
        # n_b = 512 at t = 5: W = 64 and L = 2, so U > 0.75 selects block 3
        # and above.  Both trials' prefixes hold blocks 1 and 2 twice each.
        low = 2
        edge = 1 - 2.0 ** -low
        above = np.nextafter(edge, 1.0)
        assert _geometric_blocks(np.array([edge, above]), 5).tolist() == [2, 3]
        u = np.full((2, 512), 0.1)
        u[:, :32] = 0.6
        u[0, 100:102] = edge
        u[1, 100:102] = above
        got = self._classes(u, 5)
        assert got.tolist() == [[2, 2, 0, 0, 0], [2, 2, 2, 0, 0]]
        assert np.array_equal(got, _exact_classes(u, 5))

    @pytest.mark.parametrize("nb, t, exact", [
        (511, 20, True), (512, 20, False), (4096, 2, True), (4096, 3, False),
    ])
    def test_exact_below_the_certified_blocks(self, nb, t, exact):
        u = np.random.default_rng(nb + t).random((4, nb))
        expected = np.empty((4, t), dtype=np.int64)
        core._count_chunk(u.copy(), t, np.empty(u.shape, dtype=np.int64),
                          expected)
        got = self._classes(u, t)
        assert np.array_equal(got, expected if exact
                              else np.minimum(expected, 2))


class TestNodePieces:
    """Per-node replays drawn a piece of nodes at a time equal one whole
    draw of the same stream."""

    @staticmethod
    def _joined(pieces, n):
        """Each index's pieces put together, checking they tile 0..n."""
        whole = {}
        for m, piece, values in pieces:
            assert piece.start == len(whole.setdefault(m, []))
            whole[m].extend(values.tolist())
            assert len(whole[m]) == piece.stop <= n
        return {m: np.array(v) for m, v in whole.items()}

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 3500])
    def test_geometric_blocks(self, n, monkeypatch):
        monkeypatch.setattr(core, "_NODE_PIECE", 1000)
        rngs = [np.random.default_rng(n + k) for k in range(3)]
        got = self._joined(core.geometric_block_pieces(rngs, n, 7), n)
        for m, rng in enumerate(rngs):
            ref = np.random.default_rng(n + m)
            assert np.array_equal(got[m], geometric_block_choices(ref, n, 7))
            # The stream is left where one whole draw leaves it.
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 3500])
    @pytest.mark.parametrize("ell, p", [(1, 1.0), (37, 0.3), (3009, 0.9)])
    def test_bb_slots_and_mask(self, n, ell, p, monkeypatch):
        monkeypatch.setattr(core, "_NODE_PIECE", 1000)
        _counts, mask, slots = core.bb_blocks(np.random.default_rng(n), n,
                                              ell, p)
        got = self._joined(core.bb_node_pieces(np.random.default_rng(n), n,
                                               ell, p), n)
        assert list(got) == [0] and np.array_equal(got[0], slots * mask)
        got = self._joined(core.bb_node_pieces(np.random.default_rng(n), n,
                                               ell, p, joined=True), n)
        assert got[0].dtype == bool and np.array_equal(got[0], mask)

    def test_no_nodes_draw_nothing(self):
        rng = np.random.default_rng(3)
        assert not list(core.geometric_block_pieces([rng], 0, 5))
        assert not list(core.bb_node_pieces(rng, 0, 5, 0.5))
        assert rng.random() == np.random.default_rng(3).random()


def _one_shot_counts(rngs, n, t, M):
    """Reference: each type's (M, n_b) node blocks drawn by numpy's
    geometric, from one stream at once or one stream per trial, and counted
    trial by trial."""
    out = np.zeros((len(n), M, t), dtype=np.int64)
    for b, (nb, rng) in enumerate(zip(n, rngs)):
        if not nb:
            continue
        if isinstance(rng, np.random.Generator):
            blocks = rng.geometric(0.5, size=(M, nb))
        else:
            blocks = np.stack([r.geometric(0.5, size=nb) for r in rng])
        for m, row in enumerate(np.minimum(blocks, t)):
            out[b, m] = np.bincount(row, minlength=t + 1)[1:]
    return out


class TestDrawTrials:
    """core.draw_trials, the one trial loop: every stream layout, kernel,
    CPU count and chunk budget gives the counts of a one-shot draw."""

    CHUNK = 600
    # A type at the budget, one without nodes, one at the budget of each
    # of two workers, a small one; the 600 and 550 node types are kept as
    # classes by _class_chunk at t = 5, the others counted exactly.
    N = (600, 0, 300, 37, 550)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kernel", ["_count_chunk", "_class_chunk"])
    @pytest.mark.parametrize("layout", ["per-trial", "one-stream"])
    def test_equals_one_shot_draw(self, layout, kernel, cpus, monkeypatch):
        monkeypatch.setattr(core, "_TRIAL_CHUNK", self.CHUNK)
        monkeypatch.setattr(core, "_CPUS", cpus)
        M, t, T = 7, 5, len(self.N)

        def streams():
            bank = RngBank(12)
            if layout == "one-stream":   # a type without nodes gets none
                return [bank.stream("rep", b) if nb else None
                        for b, nb in enumerate(self.N, 1)]
            return [bank.streams([("p1", m, b) for m in range(M)])
                    for b in range(1, T + 1)]
        out = np.full((T, M, t), -1, dtype=np.int32)
        got = core.draw_trials(streams(), self.N, t, out,
                               getattr(core, kernel))
        assert got is out
        want = _one_shot_counts(streams(), self.N, t, M)
        if kernel == "_class_chunk":
            assert got[0].max() == 2 < want[0].max()
            got, want = np.minimum(got, 2), np.minimum(want, 2)
        assert np.array_equal(got, want)

    @staticmethod
    def _streams(layout, n, M):
        bank = RngBank(12)
        if layout == "one-stream":
            return [bank.stream("rep", b) if nb else None
                    for b, nb in enumerate(n, 1)]
        return [bank.streams([("p1", m, b) for m in range(M)])
                for b in range(1, len(n) + 1)]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kernel", ["_count_chunk", "_class_chunk"])
    @pytest.mark.parametrize("layout", ["per-trial", "one-stream"])
    def test_trials_above_a_workers_share(self, layout, kernel, cpus,
                                          monkeypatch):
        """A trial of more nodes than a worker's share c is drawn in pieces
        of c nodes from its own stream.  The counts equal a one-shot draw's
        at n = c - 1, c, c + 1 and 2c + 1 (classes for _class_chunk where it
        keeps the whole trial as classes: 512 nodes or more at t = 6), and
        the traced peak is the same at n = 2c + 1 and 8c + 1."""
        chunk, M, t = 2048, 3, 6
        monkeypatch.setattr(core, "_TRIAL_CHUNK", chunk)
        monkeypatch.setattr(core, "_CPUS", cpus)
        c = chunk // cpus          # four types, so min(4, cpus) workers

        def draw(x):
            n = (x, 0, 37, x)
            out = np.full((len(n), M, t), -1, dtype=np.int32)
            rngs = self._streams(layout, n, M)
            return n, rngs, out
        for x in (c - 1, c, c + 1, 2 * c + 1):
            n, rngs, out = draw(x)
            got = core.draw_trials(rngs, n, t, out, getattr(core, kernel))
            want = _one_shot_counts(self._streams(layout, n, M), n, t, M)
            if kernel == "_class_chunk":
                want[[0, 3]] = np.minimum(want[[0, 3]], 2)
            assert np.array_equal(got, want), x
        peaks = []
        for x in (2 * c + 1, 8 * c + 1):
            n, rngs, out = draw(x)
            tracemalloc.start()
            try:
                core.draw_trials(rngs, n, t, out, getattr(core, kernel))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Two buffers of 8 bytes a node within the budget, and the kernels'
        # temporaries of one piece.
        assert peaks[1] <= peaks[0] + 8192 and peaks[0] <= 32 * chunk, peaks

    @pytest.mark.parametrize("chunk, pooled", [(3000, False), (2999, True)])
    def test_trial_counts_across_the_pool_gate(self, chunk, pooled,
                                               monkeypatch):
        pop = PopulationSpec.fixed((300, 0, 120, 45), n_all=(1 << 10,) * 4)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        assert cfg.m_prime * max(pop.n) == 3000
        monkeypatch.setattr(core, "_CPUS", 1)
        alone = trial_counts(pop.n, cfg, RngBank(7))
        monkeypatch.setattr(core, "_CPUS", 2)
        monkeypatch.setattr(core, "_TRIAL_CHUNK", chunk)
        threads = []
        draw = core._draw_types

        def recorded(*args):
            threads.append(threading.get_ident())
            return draw(*args)
        monkeypatch.setattr(core, "_draw_types", recorded)
        got = trial_counts(pop.n, cfg, RngBank(7))
        assert np.array_equal(got, alone)
        assert len(threads) == (2 if pooled else 1)
        assert (threading.get_ident() in threads) != pooled

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_trial_counts_memory(self, cpus, monkeypatch):
        # Phase 1 at 2e5 nodes per type: one type's (m', n_b) uniforms and
        # blocks at once would take 32 MB; the draw holds at most
        # _TRIAL_CHUNK (2^19) of each, 8 MiB.
        monkeypatch.setattr(core, "_CPUS", cpus)
        pop = PopulationSpec.fixed((200_000,) * 4, n_all=(1 << 20,) * 4)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        trial_counts(pop.n, cfg, RngBank(0))
        gc.collect()
        tracemalloc.start()
        try:
            trial_counts(pop.n, cfg, RngBank(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
