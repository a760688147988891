"""Three-stage block code: stage-1 outcomes, decoding, follow-up
resolution, ledgers, and energy accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetcount.core import (
    EnergyLedger,
    PopulationSpec,
    RngBank,
    SlotOutcome,
    bb_blocks,
    bitmap_bp_slots,
    derive_config,
)
from hetcount.homogeneous import (
    first_empty,
    participation_probability,
    participations,
)
from hetcount.three_stage import (
    Stage1Result3SS,
    outcomes_3ss,
    run_3ss_bb,
    run_3ss_followup,
    run_3ss_stage1,
    run_3ss_trial,
    sym3_matrix,
)

E = SlotOutcome.EMPTY.value
SA = SlotOutcome.SINGLE_ALPHA.value
SB = SlotOutcome.SINGLE_BETA.value
C = SlotOutcome.COLLISION.value


def _stage1_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    out = outcomes_3ss(counts)
    flagged = [int(h) + 1 for h in np.flatnonzero((out == C).all(axis=1))]
    return Stage1Result3SS(counts=counts, outcomes=out, chosen={},
                           flagged=flagged)


class TestSymbolMatrix:
    def test_t3(self):
        assert sym3_matrix(3) == (("alpha", "alpha"),
                                  ("beta", None),
                                  (None, "beta"))

    def test_type1_all_alpha(self):
        for T in range(2, 9):
            rows = sym3_matrix(T)
            assert rows[0] == ("alpha",) * (T - 1)
            for b in range(2, T + 1):
                assert rows[b - 1].count("beta") == 1
                assert rows[b - 1][b - 2] == "beta"


class TestStage1Outcomes:
    def test_empty_population(self):
        out = outcomes_3ss(np.zeros((4, 3), dtype=np.int64))
        assert (out == E).all()

    def test_lone_type1(self):
        out = outcomes_3ss(np.array([[1, 0, 0]]))
        assert list(out[0]) == [SA, SA]

    def test_two_type1_collide_everywhere(self):
        stage1 = _stage1_from_counts([[2, 0, 0]])
        assert list(stage1.outcomes[0]) == [C, C]
        assert stage1.flagged == [1]

    def test_lone_type2(self):
        out = outcomes_3ss(np.array([[0, 1, 0]]))
        assert list(out[0]) == [SB, E]

    def test_run_stage1_counts_consistent(self):
        pop = PopulationSpec.fixed((30, 40, 20), n_all=(64,) * 3)
        bank = RngBank(0)
        rngs = [bank.stream("p1", 0, b) for b in (1, 2, 3)]
        stage1 = run_3ss_stage1(pop, 6, "geometric", [1.0] * 3, rngs)
        assert stage1.counts.sum(axis=0).tolist() == [30, 40, 20]
        for b in (1, 2, 3):
            assert stage1.chosen[b].min() >= 1

    def test_run_stage1_uniform_participation(self):
        pop = PopulationSpec.fixed((200, 200), n_all=(200, 200))
        bank = RngBank(1)
        rngs = [bank.stream("p2", b) for b in (1, 2)]
        stage1 = run_3ss_stage1(pop, 50, "uniform", [0.0, 1.0], rngs)
        assert stage1.counts[:, 0].sum() == 0
        assert stage1.counts[:, 1].sum() == 200

    def test_unknown_distribution(self):
        pop = PopulationSpec.fixed((1, 1))
        with pytest.raises(ValueError):
            run_3ss_stage1(pop, 4, "zipf", [1.0, 1.0],
                           [np.random.default_rng(0)] * 2)


def _decode(counts):
    """(stage-1 outcomes, decoded presence, flagged) of one T = 3 block."""
    stage1 = _stage1_from_counts([counts])
    frame = run_3ss_followup(stage1, s_w=6)
    return (list(stage1.outcomes[0]), frame.presence[0].tolist(),
            frame.flagged)


class TestDecode:
    """The paper's T = 3 block examples: the outcomes stage 1 shows and the
    presence the follow-up decodes from them."""

    def test_all_empty(self):
        assert _decode([0, 0, 0]) == ([E, E], [False, False, False], [])

    def test_single_beta_then_empty(self):
        assert _decode([0, 1, 0]) == ([SB, E], [False, True, False], [])

    def test_all_collision_is_ambiguous(self):
        # Stage 1 cannot decode it, so the block is flagged for stage 2.
        outcomes, _presence, flagged = _decode([2, 0, 0])
        assert outcomes == [C, C] and flagged == [1]

    def test_single_alpha_everywhere(self):
        assert _decode([1, 0, 0]) == ([SA, SA], [True, False, False], [])

    def test_collision_with_clean_slot(self):
        # (Collision, SingleAlpha): the clean slot pins exactly one type-1
        # node, so slot 1's collision needs a type-2 node.
        assert _decode([1, 1, 0]) == ([C, SA], [True, True, False], [])


class TestFollowup:
    def test_no_flagged_blocks(self):
        stage1 = _stage1_from_counts([[1, 0, 0], [0, 2, 1]])
        frame = run_3ss_followup(stage1, s_w=6)
        assert frame.ledger.stage2 == 0
        assert frame.ledger.stage3 == 0
        assert frame.ledger.bp == bitmap_bp_slots(2, 6)

    def test_flagged_single_type1(self):
        # Exactly one type-1 node in an all-collision block: the stage-2
        # slot is SingleAlpha and every type is recorded present.
        stage1 = _stage1_from_counts([[1, 2, 3]])
        frame = run_3ss_followup(stage1, s_w=6)
        assert frame.ledger.stage2 == 1 and frame.ledger.stage3 == 0
        assert frame.presence[0].tolist() == [True, True, True]

    def test_flagged_no_type1(self):
        # Stage-2 Empty: type 1 absent, at least two of every other type.
        stage1 = _stage1_from_counts([[0, 2, 2]])
        frame = run_3ss_followup(stage1, s_w=6)
        assert frame.ledger.stage3 == 0
        assert frame.presence[0].tolist() == [False, True, True]

    def test_flagged_stage3(self):
        # Two type-1 nodes: stage 2 collides, stage 3 runs dedicated slots.
        stage1 = _stage1_from_counts([[2, 2, 0]])
        frame = run_3ss_followup(stage1, s_w=6)
        assert frame.r_list == [1]
        assert frame.ledger.stage3 == 2
        assert frame.presence[0].tolist() == [True, True, False]

    def test_ledger_exactness(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            counts = rng.poisson(0.8, size=(12, 4))
            stage1 = _stage1_from_counts(counts)
            frame = run_3ss_followup(stage1, s_w=6)
            r = len(frame.r_list)
            assert frame.ledger.stage1 == 3 * 12
            assert frame.ledger.stage2 == len(stage1.flagged)
            assert frame.ledger.stage3 == 3 * r
            assert frame.ledger.bp == bitmap_bp_slots(12, 6) + bitmap_bp_slots(
                len(stage1.flagged), 6)
            assert frame.ledger.total == (frame.ledger.stage1
                                          + frame.ledger.stage2
                                          + frame.ledger.stage3
                                          + frame.ledger.bp)

    def test_soundness_random(self):
        rng = np.random.default_rng(1)
        for T in (2, 3, 4, 5):
            for _ in range(40):
                counts = rng.poisson(rng.uniform(0.1, 2.0), size=(10, T))
                frame = run_3ss_followup(_stage1_from_counts(counts), s_w=6)
                assert (frame.presence == (counts > 0)).all()

    def test_first_absent(self):
        stage1 = _stage1_from_counts([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        frame = run_3ss_followup(stage1, s_w=6)
        assert first_empty(frame.presence[:, 0]) == 1
        assert first_empty(frame.presence[:, 1]) == 2
        assert frame.presence.tolist() == [[False, True, False],
                                           [True, False, False],
                                           [False, False, False]]


class TestTrialMode:
    def test_empty_population(self):
        pop = PopulationSpec.fixed((0, 0, 0), n_all=(64,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        res = run_3ss_trial(pop, cfg, RngBank(0))
        assert res.j == {1: 1, 2: 1, 3: 1}

    def test_single_type2_node_in_block_one(self):
        pop = PopulationSpec.fixed((0, 1, 0), n_all=(64,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for seed in range(40):
            res = run_3ss_trial(pop, cfg, RngBank(seed))
            if res.counts[1, 0] == 1:
                assert res.j == {1: 1, 2: 2, 3: 1}
                return
        pytest.fail("no seed put the lone node in block 1")

    def test_soundness_and_energy(self):
        pop = PopulationSpec.fixed((40, 25, 60), n_all=(64,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for seed in range(10):
            res = run_3ss_trial(pop, cfg, RngBank(seed))
            frame = run_3ss_followup(_stage1_from_counts(res.counts.T),
                                     cfg.s_w)
            assert (frame.presence == (res.counts.T > 0)).all()
            assert res.ledger == frame.ledger
            for b in (1, 2, 3):
                assert (res.energy.idle(b) >= 0).all()
                assert np.allclose(res.energy.accounted[b], res.ledger.total)
                # Equal energy costs: per-node energy equals the frame length.
                assert np.allclose(res.energy.energy(b, cfg), res.ledger.total)


class TestBBMode:
    def test_zero_participation(self):
        pop = PopulationSpec.fixed((100, 100, 100), n_all=(100,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rough = {1: 10 ** 9, 2: 10 ** 9, 3: 10 ** 9}
        res = run_3ss_bb(pop, rough, cfg, RngBank(0))
        # Participation ~ 0: virtually nobody joins.
        assert (np.count_nonzero(res.counts, axis=1) <= 1).all()

    def test_z_matches_standalone_bb_trial(self):
        pop = PopulationSpec.fixed((800, 300, 500), n_all=(1000,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rough = {1: 800, 2: 300, 3: 500}
        bank = RngBank(3)
        res = run_3ss_bb(pop, rough, cfg, bank)
        for b in (1, 2, 3):
            p = participation_probability(cfg.ell, rough[b])
            counts = bb_blocks(bank.stream("p2", b), pop.n[b - 1],
                               cfg.ell, p)[0]
            assert np.array_equal(res.counts[b - 1], counts)

    def test_ledger_and_soundness(self):
        pop = PopulationSpec.fixed((2000, 1000, 3000), n_all=(4000,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        res = run_3ss_bb(pop, {1: 2000, 2: 1000, 3: 3000}, cfg, RngBank(4))
        assert res.ledger.stage1 == 2 * cfg.ell
        frame = run_3ss_followup(_stage1_from_counts(res.counts.T), cfg.s_w)
        assert (frame.presence == (res.counts.T > 0)).all()
        assert res.ledger.stage2 == len(frame.flagged)
        assert res.ledger.stage3 == 2 * len(frame.r_list)


def _followup_loop(stage1, s_w):
    """Reference follow-up: the per-block loop over flagged blocks."""
    counts = stage1.counts
    out = stage1.outcomes
    n_blocks, T = counts.shape
    presence = np.zeros((n_blocks, T), dtype=bool)
    presence[:, 0] = (out == SA).any(axis=1)
    presence[:, 1:] = (out == SB) | (out == C)
    r_list = []
    for h in stage1.flagged:
        c1 = counts[h - 1, 0]
        if c1 == 1:
            presence[h - 1, :] = True
        elif c1 == 0:
            presence[h - 1, 0] = False
            presence[h - 1, 1:] = True
        else:
            presence[h - 1, 0] = True
            r_list.append(h)
            presence[h - 1, 1:] = counts[h - 1, 1:] > 0
    ledger = (T - 1) * n_blocks, len(stage1.flagged), (T - 1) * len(r_list), \
        bitmap_bp_slots(n_blocks, s_w) + bitmap_bp_slots(len(stage1.flagged),
                                                         s_w)
    return presence, r_list, ledger


def _energy_loop(frame, population, config, frame_total):
    """Reference energy accounting: masks built block by block, on a
    zero-filled ledger."""
    n_blocks, T = frame.presence.shape
    flagged_mask = np.zeros(n_blocks + 1, dtype=bool)
    rflag_mask = np.zeros(n_blocks + 1, dtype=bool)
    for h in frame.flagged:
        flagged_mask[h] = True
    for h in frame.r_list:
        rflag_mask[h] = True
    bp1 = bitmap_bp_slots(n_blocks, config.s_w)
    energy = EnergyLedger.zeros(population)
    for b in range(1, T + 1):
        blocks = frame.stage1.chosen[b]
        part = (blocks > 0).astype(float)
        if b == 1:
            tx = part * (T - 1) + part * flagged_mask[blocks]
            rx = np.full(blocks.shape, float(bp1))
        else:
            tx = part + part * rflag_mask[blocks]
            rx = bp1 + part * flagged_mask[blocks]
        accounted = np.full(blocks.shape, float(frame_total))
        energy.charge(b, (tx.sum(), rx.sum(), accounted.sum()), tx, rx,
                      accounted)
    return energy


def _is_int_list(xs):
    return type(xs) is list and all(type(x) is int for x in xs)


class TestFollowupMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(2, 8)),
                  elements=st.integers(0, 4)),
           st.integers(1, 8))
    @example(np.zeros((7, 4), dtype=np.int64), 6)          # nothing flagged
    @example(np.full((9, 5), 2, dtype=np.int64), 6)        # all flagged
    @example(np.array([[1, 1, 1], [0, 2, 3], [3, 0, 2]]), 1)  # every case
    def test_followup_equals_loop(self, counts, s_w):
        stage1 = _stage1_from_counts(counts)
        frame = run_3ss_followup(stage1, s_w)
        presence, r_list, ledger = _followup_loop(stage1, s_w)
        assert (frame.presence == presence).all()
        assert frame.flagged == stage1.flagged
        assert frame.r_list == r_list
        assert _is_int_list(frame.flagged) and _is_int_list(frame.r_list)
        assert (frame.ledger.stage1, frame.ledger.stage2, frame.ledger.stage3,
                frame.ledger.bp) == ledger

    def test_extremes_reach_both_ends(self):
        none = _stage1_from_counts(np.zeros((7, 4), dtype=np.int64))
        every = _stage1_from_counts(np.full((9, 5), 2, dtype=np.int64))
        assert none.flagged == [] and run_3ss_followup(none, 6).r_list == []
        assert every.flagged == list(range(1, 10))
        assert run_3ss_followup(every, 6).r_list == list(range(1, 10))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(1, 60),
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
            res = run_3ss_trial(pop, cfg, bank, trial_index=2)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "geometric", None,
                [bank.stream("p1", 2, b) for b in range(1, T + 1)])
        else:
            res = run_3ss_bb(pop, rough, cfg, bank)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "uniform", participations(rough, n_blocks, T),
                [bank.stream("p2", b) for b in range(1, T + 1)])
        assert _is_int_list(stage1.flagged)
        frame = run_3ss_followup(stage1, s_w)
        ref = _energy_loop(frame, pop, cfg, frame.ledger.total)
        for field in ("tx", "rx", "accounted"):
            got, want = getattr(res.energy, field), getattr(ref, field)
            assert sorted(got) == sorted(want) == list(range(1, T + 1))
            for b in want:
                assert got[b].dtype == want[b].dtype
                assert np.array_equal(got[b], want[b])
