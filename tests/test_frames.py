"""One block-coded frame through the count engine (the runners, over
three_stage.run_frames and each code's resolver) against the reference
decoders run on the same generators: the 3SS stage-1 and follow-up
decoders, and the 2SS decoder tables. The per-node energy of each code is
checked against its own reference loop in test_three_stage and
test_two_stage."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcount.core import (
    PopulationSpec,
    RngBank,
    SlotLedger,
    bitmap_bp_slots,
    derive_config,
)
from hetcount.homogeneous import first_empty, participations
from hetcount.three_stage import (
    run_3ss_bb,
    run_3ss_followup,
    run_3ss_stage1,
    run_3ss_trial,
)
from hetcount.two_stage import (
    class_codes,
    plan_slots,
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
            assert res.z is None
            assert res.j == {b: int(first_empty(presence[:, b - 1]))
                             for b in range(1, T + 1)}
        else:
            assert res.j is None
            assert res.z == {b: n_blocks - int(presence[:, b - 1].sum())
                             for b in range(1, T + 1)}
        assert res.ledger == ledger
        assert res.overhead == plan
