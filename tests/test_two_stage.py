"""Two-stage block code: symbol matrix, decoding, recursive resolution,
and parity with the three-stage scheme at small T."""

import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetcount.core import (
    EnergyLedger,
    PopulationSpec,
    RngBank,
    SlotOutcome,
    bitmap_bp_slots,
    derive_config,
)
from hetcount.homogeneous import participations
from hetcount.three_stage import run_3ss_stage1, run_3ss_trial, sym3_matrix
from hetcount.two_stage import (
    ABSENT,
    AMBIGUOUS,
    MAX_TABLE_T,
    PRESENT,
    _row_symbols,
    build_sym2_matrix,
    class_codes,
    decode_block_2ss,
    eta,
    plan_slots,
    resolve_block_2ss,
    resolver_lut,
    run_2ss_bb,
    run_2ss_trial,
    sigma_slots,
)

E = SlotOutcome.EMPTY.value
SA = SlotOutcome.SINGLE_ALPHA.value
SB = SlotOutcome.SINGLE_BETA.value
C = SlotOutcome.COLLISION.value


class TestMatrix:
    def test_t4(self):
        m = build_sym2_matrix(4)
        assert m.rows == (("alpha", None), ("alpha", "alpha"),
                          (None, "beta"), ("beta", "beta"))

    def test_t5(self):
        m = build_sym2_matrix(5)
        assert m.slots == 2
        assert m.rows[4] == ("beta", "alpha")
        assert len(set(m.rows)) == 5

    def test_small_t_degenerates(self):
        assert build_sym2_matrix(2).rows == sym3_matrix(2)
        assert build_sym2_matrix(3).rows == sym3_matrix(3)

    def test_rows_distinct_all_t(self):
        for T in range(2, 17):
            m = build_sym2_matrix(T)
            assert len(set(m.rows)) == T
            assert m.slots == sigma_slots(T)

    def test_slot_counts(self):
        assert [sigma_slots(T) for T in range(2, 9)] == [1, 2, 2, 2, 3, 3, 4]
        assert eta(6) == 3 and eta(7) == 3

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            build_sym2_matrix(1)


class TestDecode:
    def test_all_empty(self):
        m = build_sym2_matrix(4)
        assert decode_block_2ss((E, E), m) == (ABSENT,) * 4

    def test_single_beta_collision(self):
        # Slot 1 has one beta (type 4's first symbol); slot 2 collides, so
        # type 3 must also be there: type 3 present, exactly one type 4.
        m = build_sym2_matrix(4)
        assert decode_block_2ss((SB, C), m) == (ABSENT, ABSENT, PRESENT, PRESENT)

    def test_single_alpha_collision(self):
        # Exactly one of type 1 / type 2 is active but stage 1 cannot say
        # which; type 3 present, type 4 absent.
        m = build_sym2_matrix(4)
        assert decode_block_2ss((SA, C), m) == (AMBIGUOUS, AMBIGUOUS,
                                                PRESENT, ABSENT)


class TestResolution:
    def test_no_ambiguity_no_extra(self):
        res = resolve_block_2ss((1, 0, 2, 0), 4)
        # outcome (SingleAlpha, Collision) is ambiguous, pick a clean one
        res = resolve_block_2ss((0, 0, 1, 0), 4)
        assert res.extra_slots == 0 and res.steps == ()
        assert res.presence == (False, False, True, False)

    def test_partial_ambiguity_single_probe(self):
        # (SingleAlpha, Collision): one probe slot separates type 1 from 2.
        res = resolve_block_2ss((1, 0, 2, 0), 4)
        assert res.extra_slots == 1
        assert len(res.steps) == 1 and res.steps[0].kind == "probe"
        assert res.steps[0].types == (1,)
        assert res.presence == (True, False, True, False)

    def test_all_collision_t5_groups(self):
        res = resolve_block_2ss((2, 2, 2, 2, 2), 5)
        groups = [s.types for s in res.steps if s.kind == "subblock"]
        assert groups == [(1, 2, 3), (4, 5)]
        assert res.presence == (True,) * 5

    def test_all_collision_small_t_follows_three_stage(self):
        res = resolve_block_2ss((2, 2, 0), 3)
        kinds = [s.kind for s in res.steps]
        assert kinds == ["stage2", "stage3"]
        assert res.extra_slots == 3  # 1 stage-2 slot + 2 dedicated slots
        assert res.presence == (True, True, False)
        res = resolve_block_2ss((1, 2, 2), 3)
        assert res.extra_slots == 1
        assert res.presence == (True, True, True)

    def test_exhaustive_soundness_small_t(self):
        for T in range(2, 7):
            for classes in product((0, 1, 2), repeat=T):
                res = resolve_block_2ss(classes, T)
                assert res.presence == tuple(c > 0 for c in classes)
                assert res.extra_slots >= 0

    def test_random_soundness_large_t(self):
        rng = np.random.default_rng(0)
        for T in (7, 8):
            for _ in range(300):
                classes = tuple(int(x) for x in rng.integers(0, 3, T))
                res = resolve_block_2ss(classes, T)
                assert res.presence == tuple(c > 0 for c in classes)

    def test_recursion_terminates_at_larger_t(self):
        res = resolve_block_2ss((2,) * 8, 8)
        assert res.presence == (True,) * 8
        assert res.extra_slots > 0

    def test_lut_matches_resolver(self):
        """The vectorised table equals the per-block reference on every
        code, in extra slots, presence and resolution transmissions."""
        for T in range(2, 8):
            lut = resolver_lut(T)
            lut.ensure(range(3 ** T))
            assert lut.filled.all()
            for code, classes in enumerate(_code_classes(T)):
                res = resolve_block_2ss(classes, T)
                assert lut.extra[code] == res.extra_slots, (T, classes)
                assert tuple(lut.presence[code]) == res.presence, (T, classes)
                assert tuple(lut.tx[code].tolist()) == res.tx, (T, classes)

    def test_lut_matches_resolver_sample_t8(self):
        T = 8
        lut = resolver_lut(T)
        rng = np.random.default_rng(8)
        codes = rng.choice(3 ** T, size=120, replace=False)
        lut.ensure(codes)
        for code in codes:
            classes = tuple(int(code) // 3 ** b % 3 for b in range(T))
            res = resolve_block_2ss(classes, T)
            assert lut.extra[code] == res.extra_slots, classes
            assert tuple(lut.presence[code]) == res.presence, classes
            assert tuple(lut.tx[code].tolist()) == res.tx, classes

    @pytest.mark.parametrize("T", range(2, 11))
    def test_full_table_soundness(self, T):
        lut = resolver_lut(T)
        lut.ensure(range(3 ** T))
        classes = np.array(list(_code_classes(T)))
        assert lut.presence.shape == (3 ** T, T)
        assert (lut.presence == (classes > 0)).all()
        assert (lut.extra >= 0).all()
        assert (lut.tx >= 0).all()
        # Nothing is needed exactly where stage 1 alone decodes the block.
        assert ((lut.extra == 0) == (lut.tx == 0).all(axis=1)).all()

    def test_tables_read_only(self):
        lut = resolver_lut(4)
        lut.ensure([0])
        with pytest.raises(ValueError):
            lut.extra[0] = 1

    def test_tables_bounded_in_t(self):
        """Past MAX_TABLE_T the table is refused before anything is
        allocated or cached."""
        cached = resolver_lut.cache_info().currsize
        tracemalloc.start()
        try:
            for T in (MAX_TABLE_T + 1, 16, 40):
                with pytest.raises(ValueError, match="T <= 10, got T = "):
                    resolver_lut(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert MAX_TABLE_T == 10
        assert peak < 1 << 20
        assert resolver_lut.cache_info().currsize == cached

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 30), st.integers(2, 10)),
                  elements=st.integers(0, 6)))
    def test_random_frames_decode_truth(self, counts):
        """Per-block counts through class_codes and the table give back
        exactly which types were present."""
        codes = class_codes(counts)
        lut = resolver_lut(counts.shape[1])
        lut.ensure(np.unique(codes))
        assert (lut.presence[codes] == (counts > 0)).all()
        assert (lut.extra[codes] >= 0).all()


def _code_classes(T):
    """Count-class vector of every base-3 code, in code order."""
    return (tuple(reversed(c)) for c in product((0, 1, 2), repeat=T))


@st.composite
def _counts_and_axis(draw):
    """Per-type counts of T = 1..10 types, of a count dtype, with the types
    on axis 0, on axis -1, or alone (1-D), and counts up to 300 (up to 255
    for uint8)."""
    T = draw(st.integers(1, 10))
    dtype = draw(st.sampled_from([np.uint8, np.int32, np.int64]))
    layout = draw(st.sampled_from(["first", "last", "1-D"]))
    rest = () if layout == "1-D" else draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple))
    shape = (T, *rest) if layout == "first" else (*rest, T)
    top = min(300, np.iinfo(dtype).max)
    counts = draw(arrays(dtype, shape, elements=st.integers(0, top)))
    return counts, 0 if layout == "first" else -1


class TestClassCodes:
    @settings(max_examples=200, deadline=None)
    @given(_counts_and_axis())
    def test_equals_sum_of_capped_classes(self, counts_axis):
        counts, axis = counts_axis
        by_type = np.moveaxis(counts, axis, 0).astype(np.int64)
        expected = sum(3 ** b * np.minimum(c, 2)
                       for b, c in enumerate(by_type))
        codes = class_codes(counts, axis=axis)
        assert np.asarray(codes).dtype == np.int64
        assert np.shape(codes) == np.shape(expected)
        assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("shape, dtype", [
        ((8, 1136, 20), np.int32),   # the repeated 2SS trials at T = 8
        ((8, 1, 3009), np.uint8),    # an SSBB frame at T = 8
    ])
    def test_transient_memory_bounded_by_its_output(self, shape, dtype):
        # Codes are built in place in the output, one type at a time: no
        # capped copy of the counts and no fresh array per type.
        counts = np.random.default_rng(3).integers(0, 4, shape).astype(dtype)
        codes = class_codes(counts, axis=0)
        tracemalloc.start()
        try:
            codes = class_codes(counts, axis=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * codes.nbytes


class TestRunners:
    def test_delegates_to_three_stage_for_small_t(self):
        pop = PopulationSpec.fixed((40, 30, 20), n_all=(64,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        res2 = run_2ss_trial(pop, cfg, RngBank(5))
        res3 = run_3ss_trial(pop, cfg, RngBank(5))
        assert res2.j == res3.j
        assert res2.ledger == res3.ledger

    def test_trial_soundness_and_ledger(self):
        pop = PopulationSpec.fixed((30, 20, 25, 40, 10), n_all=(64,) * 5)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for seed in range(10):
            res = run_2ss_trial(pop, cfg, RngBank(seed))
            assert res.counts.sum(axis=1).tolist() == list(pop.n)
            codes = class_codes(res.counts, axis=0)
            lut = resolver_lut(5)
            assert (lut.presence[codes] == (res.counts > 0).T).all()
            assert res.ledger.stage1 == sigma_slots(5) * cfg.t_T
            assert res.ledger.stage2 == int(lut.extra[codes].sum())
            for b in range(1, 6):
                assert (res.energy.idle(b) >= 0).all()
                assert np.allclose(res.energy.energy(b, cfg),
                                   res.ledger.total)

    def test_bb_zero_participation(self):
        pop = PopulationSpec.fixed((100,) * 4, n_all=(100,) * 4)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rough = {b: 10 ** 9 for b in range(1, 5)}
        res = run_2ss_bb(pop, rough, cfg, RngBank(0))
        assert (np.count_nonzero(res.counts, axis=1) <= 1).all()
        assert res.ledger.stage1 == sigma_slots(4) * cfg.ell

    def test_bb_total_increases_in_n2(self):
        cfg = derive_config(0.03, 0.2, (3000,) * 4)
        means = []
        for n2 in (500, 1500, 3000):
            n = (500, n2, 500, 500)
            pop = PopulationSpec.fixed(n, n_all=(3000,) * 4)
            totals = [run_2ss_bb(pop, dict(enumerate(n, 1)), cfg,
                                 RngBank(seed)).ledger.total
                      for seed in range(30)]
            means.append(np.mean(totals))
        assert means[0] < means[1] < means[2]


def _energy_2ss_loop(chosen, codes, bp, population, frame_total):
    """Reference energy accounting, type by type: a participating node
    sends its matrix row's symbols plus its block's follow-up
    transmissions, and every node hears every broadcast."""
    T = population.T
    row_symbols = _row_symbols(T)
    lut = resolver_lut(T)
    energy = EnergyLedger.zeros(population)
    for b in range(1, T + 1):
        blocks = chosen[b]
        part = (blocks > 0).astype(float)
        extra_tx = np.zeros(blocks.shape)
        active = blocks > 0
        if active.any():
            extra_tx[active] = lut.tx[codes[blocks[active] - 1], b - 1]
        tx = part * int(row_symbols[b - 1]) + part * extra_tx
        rx = np.full(blocks.shape, float(bp))
        accounted = np.full(blocks.shape, float(frame_total))
        energy.charge(b, (tx.sum(), rx.sum(), accounted.sum()), tx, rx,
                      accounted)
    return energy


class TestEnergy:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 8), st.integers(1, 60),
           st.sampled_from(["trial", "bb"]), st.integers(1, 8), st.data())
    def test_energy_equals_loop(self, seed, T, n_blocks, mode, s_w, data):
        """The runners' per-node energy equals the reference loop run on
        the stage-1 frame drawn from the same generators."""
        n = data.draw(st.lists(st.integers(0, 30), min_size=T, max_size=T))
        rough = data.draw(st.lists(st.integers(0, 200), min_size=T,
                                   max_size=T))
        pop = PopulationSpec.fixed(n, n_all=(64,) * T)
        cfg = dataclasses.replace(
            derive_config(0.03, 0.2, pop.n_all, s_w=s_w, ell=n_blocks),
            t_T=n_blocks)
        bank = RngBank(seed)
        if mode == "trial":
            res = run_2ss_trial(pop, cfg, bank, trial_index=2)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "geometric", None,
                [bank.stream("p1", 2, b) for b in range(1, T + 1)])
        else:
            res = run_2ss_bb(pop, rough, cfg, bank)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "uniform", participations(rough, n_blocks, T),
                [bank.stream("p2", b) for b in range(1, T + 1)])
        codes = class_codes(stage1.counts)
        lut = resolver_lut(T)
        lut.ensure(codes)
        bp = bitmap_bp_slots(n_blocks, s_w) + plan_slots(T, n_blocks, s_w)
        total = (sigma_slots(T) * n_blocks + int(lut.extra[codes].sum())
                 + bp)
        ref = _energy_2ss_loop(stage1.chosen, codes, bp, pop, total)
        for field in ("tx", "rx", "accounted"):
            got, want = getattr(res.energy, field), getattr(ref, field)
            assert sorted(got) == sorted(want) == list(range(1, T + 1))
            for b in want:
                assert got[b].dtype == want[b].dtype
                assert np.array_equal(got[b], want[b])
