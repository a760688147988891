"""One block-coded frame through the count engine (the runners, over
three_stage.run_frames and each code's resolver) against the reference
decoders run on the same generators: the 3SS stage-1 and follow-up
decoders, and the 2SS decoder tables. The per-node energy of each code is
checked against its own reference loop in test_three_stage and
test_two_stage. The batched trial draw (core.draw_trials) is checked
against frames drawn one by one by draw_blocks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcount import core
from hetcount.core import (
    PopulationSpec,
    RngBank,
    SlotLedger,
    bitmap_bp_slots,
    derive_config,
)
from hetcount.homogeneous import (
    first_empty,
    lof_estimate,
    participations,
    run_srcs,
)
from hetcount.three_stage import (
    draw_blocks,
    resolve_3ss,
    run_3ss_bb,
    run_3ss_followup,
    run_3ss_stage1,
    run_3ss_trial,
    trial_frames,
)
from hetcount.two_stage import (
    class_codes,
    plan_slots,
    resolve_2ss,
    resolver_lut,
    run_2ss_bb,
    run_2ss_trial,
    sigma_slots,
)

RUNNERS = {"3SS": (run_3ss_trial, run_3ss_bb),
           "2SS": (run_2ss_trial, run_2ss_bb)}


def _reference(code, stage1, population, config):
    """(presence, ledger, plan slots) of one frame by the reference
    decoders."""
    T = population.T
    if code == "3SS" or T <= 3:
        frame = run_3ss_followup(stage1, config.s_w)
        return frame.presence, frame.ledger, 0
    n_blocks = len(stage1.counts)
    codes = class_codes(stage1.counts)
    lut = resolver_lut(T)
    lut.ensure(codes)
    plan = plan_slots(T, n_blocks, config.s_w)
    ledger = SlotLedger(stage1=sigma_slots(T) * n_blocks,
                        stage2=int(lut.extra[codes].sum()),
                        bp=bitmap_bp_slots(n_blocks, config.s_w) + plan)
    return lut.presence[codes], ledger, plan


class TestFrameMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(RUNNERS)),
           st.sampled_from(["trial", "bb"]), st.integers(2, 8),
           st.integers(1, 60), st.integers(1, 8), st.data())
    def test_frame_equals_reference(self, seed, code, mode, T, n_blocks,
                                    s_w, data):
        n = data.draw(st.lists(st.integers(0, 30), min_size=T, max_size=T))
        # A rough estimate above 1.6 * ell sets participation below 1, so
        # bb frames have idle nodes.
        rough = data.draw(st.lists(st.integers(0, 200), min_size=T,
                                   max_size=T))
        pop = PopulationSpec.fixed(n, n_all=(64,) * T)
        cfg = dataclasses.replace(
            derive_config(0.03, 0.2, pop.n_all, s_w=s_w, ell=n_blocks),
            t_T=n_blocks)
        bank = RngBank(seed)
        trial, bb = RUNNERS[code]
        if mode == "trial":
            res = trial(pop, cfg, bank, trial_index=2)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "geometric", None,
                [bank.stream("p1", 2, b) for b in range(1, T + 1)])
        else:
            res = bb(pop, rough, cfg, bank)
            stage1 = run_3ss_stage1(
                pop, n_blocks, "uniform", participations(rough, n_blocks, T),
                [bank.stream("p2", b) for b in range(1, T + 1)])
        assert type(stage1.flagged) is list
        assert all(type(h) is int for h in stage1.flagged)
        presence, ledger, plan = _reference(code, stage1, pop, cfg)

        assert np.array_equal(res.counts, stage1.counts.T)
        assert (presence == (stage1.counts > 0)).all()
        if mode == "trial":
            assert res.j == {b: int(first_empty(presence[:, b - 1]))
                             for b in range(1, T + 1)}
        else:
            assert res.j is None
        assert res.ledger == ledger
        assert res.overhead == plan


class TestEnergySumsByContraction:
    """Each resolver's per-type energy sums, contracted from the counts,
    equal the sums of per-node arrays built from each type's
    (M, n_blocks + 1) reference tables, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([resolve_3ss, resolve_2ss]), st.integers(2, 8),
           st.integers(1, 3), st.integers(1, 10), st.integers(1, 8),
           st.sampled_from([np.int32, np.uint8]), st.data())
    def test_sums_equal_per_node_tables(self, resolve, T, M, n_blocks, s_w,
                                        dtype, data):
        # Counts near 128 make c_1 + c_b wrap in uint8 unless upcast.
        cells = data.draw(st.lists(st.integers(0, 3) | st.integers(126, 130),
                                   min_size=T * M * n_blocks,
                                   max_size=T * M * n_blocks))
        counts = np.array(cells, dtype=dtype).reshape(T, M, n_blocks)
        joined = counts.sum(axis=2, dtype=np.int64)
        idle = data.draw(st.lists(st.integers(0, 6), min_size=T, max_size=T))
        n = tuple(int(j) + i for j, i in zip(joined.max(axis=1), idle))
        ledger, plan, (tx, rx, tables) = resolve(counts, s_w, n)
        for b, nb in enumerate(n):
            table_tx, table_rx = tables(b + 1)
            # Frame m's nodes of type b + 1: the idle ones at entry 0, then
            # counts[b, m, k] at block k + 1.
            frames = [np.repeat(np.arange(n_blocks + 1), np.concatenate(
                ([nb - joined[b, m]], counts[b, m]))) for m in range(M)]
            node_tx = sum(table_tx[m].take(f) for m, f in enumerate(frames))
            node_rx = sum(table_rx[m].take(f) for m, f in enumerate(frames))
            assert node_tx.size == node_rx.size == nb
            assert tx[b] == node_tx.sum() and rx[b] == node_rx.sum()
        wide_ledger, wide_plan, (wide_tx, wide_rx, _tables) = resolve(
            counts.astype(np.int64), s_w, n)
        assert (wide_ledger, wide_plan) == (ledger, plan)
        assert np.array_equal(wide_tx, tx) and np.array_equal(wide_rx, rx)


@pytest.mark.parametrize("code", sorted(RUNNERS))
def test_numpy_integer_trial_index(code):
    """A trial index typed as a numpy integer names the same frame."""
    trial, _bb = RUNNERS[code]
    pop = PopulationSpec.fixed((5, 9, 3, 7), n_all=(64,) * 4)
    cfg = derive_config(0.03, 0.2, pop.n_all)
    want = trial(pop, cfg, RngBank(3), trial_index=2)
    for index in (np.int64(2), np.uint8(2)):
        got = trial(pop, cfg, RngBank(3), trial_index=index)
        assert np.array_equal(got.counts, want.counts)
        assert got.j == want.j and got.ledger == want.ledger


def _frames_by_draw_blocks(resolve, population, config, bank, M):
    """Trial-mode frames 0..M-1 drawn one at a time by draw_blocks and
    resolved one at a time: (counts, ledger, per-node tx, per-node rx)."""
    T = population.T
    counts = np.empty((T, M, config.t_T), dtype=np.int64)
    ledger = SlotLedger()
    tx = {b: np.zeros(population.n[b - 1]) for b in range(1, T + 1)}
    rx = {b: np.zeros(population.n[b - 1]) for b in range(1, T + 1)}
    for m in range(M):
        frame, chosen = draw_blocks(
            population, config.t_T, "geometric", None,
            [bank.stream("p1", m, b) for b in range(1, T + 1)])
        counts[:, m] = frame
        frame_ledger, _plan, (_tx, _rx, tables) = resolve(
            frame[:, None], config.s_w, population.n)
        ledger = ledger + frame_ledger
        for b in tx:
            frame_tx, frame_rx = tables(b)
            tx[b] += frame_tx[0, chosen[b]]
            rx[b] += frame_rx[0, chosen[b]]
    return counts, ledger, tx, rx


class TestBatchedTrialDraw:
    """Each type's trial frames drawn in chunks by draw_trials equal the
    frames drawn one by one; the chunk budget is cut to CHUNK nodes."""

    CHUNK = 12

    @pytest.mark.parametrize("resolve", [resolve_3ss, resolve_2ss])
    @pytest.mark.parametrize("nb", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("M", ["one", "m_prime", "rows_plus_one"])
    def test_equals_frames_drawn_one_by_one(self, resolve, nb, M,
                                            monkeypatch):
        monkeypatch.setattr(core, "_TRIAL_CHUNK", self.CHUNK)
        M = {"one": 1, "m_prime": 10,
             "rows_plus_one": max(1, self.CHUNK // max(nb, 1)) + 1}[M]
        pop = PopulationSpec.fixed((nb, 3, 0, nb + 2), n_all=(64,) * 4)
        cfg = dataclasses.replace(derive_config(0.03, 0.2, pop.n_all),
                                  m_prime=M)
        counts, ledger, plan, energy = trial_frames(
            resolve, pop, cfg, RngBank(9), range(M))
        want, want_ledger, tx, rx = _frames_by_draw_blocks(
            resolve, pop, cfg, RngBank(9), M)
        assert np.array_equal(counts, want)
        assert np.array_equal(first_empty(counts), first_empty(want))
        assert ledger == want_ledger
        for b in tx:
            assert np.array_equal(energy.tx[b], tx[b])
            assert np.array_equal(energy.rx[b], rx[b])
        # TxSRCS phase 1 reads the same draw for its first type.
        rough = run_srcs(nb, cfg, RngBank(9))[0]
        assert rough == lof_estimate(first_empty(want[0]))

    @pytest.mark.parametrize("resolve", [resolve_3ss, resolve_2ss])
    def test_per_node_energy_after_the_shared_counts_are_freed(self,
                                                              resolve):
        # Phase 1 keeps no node blocks: after its last reader freed the
        # shared counts, a per-node read draws them again from the streams.
        pop = PopulationSpec.fixed((7, 0, 12, 5), n_all=(64,) * 4)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        bank = RngBank(9, {"p1": 2})
        first = trial_frames(resolve, pop, cfg, bank)
        assert bank._kept
        second = trial_frames(resolve, pop, cfg, bank)
        assert not bank._kept
        assert second[0] is first[0] and not first[0].flags.writeable
        want, want_ledger, tx, rx = _frames_by_draw_blocks(
            resolve, pop, cfg, RngBank(9), cfg.m_prime)
        for counts, ledger, _plan, energy in (first, second):
            assert np.array_equal(counts, want)
            assert ledger == want_ledger
            for b in tx:
                assert np.array_equal(energy.tx[b], tx[b])
                assert np.array_equal(energy.rx[b], rx[b])
