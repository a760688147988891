"""Experiment driver, presets, CSV emission, accuracy validation,
trial-length calibration, and the CLI."""

import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcount
from hetcount import cli, harness
from hetcount.core import PopulationSpec, RngBank, derive_config
from hetcount.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentSpec,
    _rep_seed,
    calibrate_ell,
    crossover_rows,
    figure_preset,
    run_experiment,
    threshold_rows,
    validate_accuracy,
    write_csv,
)


def _small_spec(out=None):
    return ExperimentSpec(
        schemes=["hsrc1", "txsrcs"], sweep_var="none", sweep_values=[0],
        fixed={"T": 3, "epsilon": 0.03, "delta": 0.2, "n": (300, 500, 200)},
        replicates=3, seed=42, out=out)


class TestSpecValidation:
    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["hsrc1"], "none", [0], {}, replicates=0)

    def test_empty_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["hsrc1"], "none", [], {})

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["nope"], "none", [0], {})

    def test_unknown_sweep_variable(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentSpec(["hsrc1"], "bogus", [0], {})

    @pytest.mark.parametrize("scheme", harness.PHASE2_ONLY)
    def test_phase2_only_needs_rough(self, scheme):
        fixed = {"T": 3, "epsilon": 0.03, "n": (50, 50, 50)}
        with pytest.raises(ConfigError, match="rough"):
            ExperimentSpec([scheme], "none", [0], fixed)
        ExperimentSpec([scheme], "n2_value", [60], fixed)
        ExperimentSpec([scheme], "none", [0], dict(fixed, rough=(50,) * 3))

    def test_api_default_n_all_sets_phase1_depth(self):
        # Without n_all or D the harness takes the CLI's default, 2^20
        # manufactured nodes per type: 20 one-slot blocks per trial at T = 2.
        spec = ExperimentSpec(["3ss-rep"], "none", [0],
                              {"epsilon": 0.03, "delta": 0.2, "n": (40, 40)},
                              replicates=1)
        row, = run_experiment(spec)
        assert row.stage1 == 20 * 1136
        population = harness._build_population(spec.fixed, RngBank(0))
        assert population.n_all == (harness.PRESET_N_ALL,) * 2
        assert cli._n_all is harness.default_n_all

    def test_zero_n_all_or_d_is_used(self):
        bank = RngBank(0)
        for key in ("n_all", "D"):
            with pytest.raises(ValueError, match="n_all_b"):
                harness._build_population({"n": (5, 5), key: 0}, bank)
            pop = harness._build_population({"n": (0, 0), key: 0}, bank)
            assert pop.n_all == (0, 0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            figure_preset("fig99")


class TestRunExperiment:
    def test_rows_and_schema(self):
        rows = run_experiment(_small_spec())
        assert [r.scheme for r in rows] == ["hsrc1", "txsrcs"]
        for r in rows:
            assert r.replicates == 3
            assert r.se_slots >= 0
            assert 0 <= r.acc_rate_min <= 1
            assert r.mean_slots > 0

    def test_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_experiment(_small_spec(str(out1)))
        run_experiment(_small_spec(str(out2)))
        data1, data2 = out1.read_bytes(), out2.read_bytes()
        assert data1 == data2
        header = data1.split(b"\n")[0].decode()
        assert header == ",".join(CSV_COLUMNS)
        assert b"\r" not in data1

    def test_write_csv_roundtrip(self, tmp_path):
        rows = threshold_rows([2, 3])
        out = tmp_path / "t.csv"
        data = write_csv(str(out), rows)
        assert data.startswith(",".join(CSV_COLUMNS))
        assert len(data.strip().split("\n")) == 1 + len(rows)


# Preset CSVs at 3 replicates, seed 0, as written before the replicate
# streams were shared across schemes.  Shared streams replay the same draws,
# so the bytes must not move.
PRESET_DIGESTS = {
    "fig11a": "6bef476d7c94075a4123795cfb736810e4848f730c05419e299d333e03337a53",
    "fig8b": "36054a9fdaf780fd914e5bb1e146d7111d0a559ee42e3433605c12140f91ee22",
    "fig10": "6f7c228286c3c13acbf021ec6e9362586f1a0ee99b8456c35aa05a4ad8eff8d6",
}


class TestSharedReplicates:
    @pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
    def test_preset_csv_digest(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        figure_preset(name, replicates=3, seed=0, out=str(out))
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PRESET_DIGESTS[name]

    def test_dispatch_order(self, monkeypatch):
        calls = []
        for scheme, fn in list(harness.SCHEMES.items()):
            def recorded(pop, cfg, bank, prm, scheme=scheme, fn=fn):
                calls.append((pop.D, scheme, bank.seed))
                return fn(pop, cfg, bank, prm)
            monkeypatch.setitem(harness.SCHEMES, scheme, recorded)
        schemes = ["hsrc1", "txsrcs", "3ss-rep"]
        spec = ExperimentSpec(schemes, "D", [40, 60],
                              {"T": 3, "epsilon": 0.03, "q": 0.2,
                               "n_all": 1 << 10}, replicates=3, seed=5)
        run_experiment(spec)
        assert calls == [(D, scheme, _rep_seed(5, "D", D, rep))
                         for D in (40, 60) for scheme in schemes
                         for rep in range(3)]

    @pytest.mark.parametrize("schemes", [
        ["3ss-rep", "2ss-rep"], ["2ss-rep", "hsrc1", "3ss-rep"], ["3ss-rep"]])
    def test_repeated_trials_drawn_once(self, schemes, monkeypatch):
        opened = []
        stream = RngBank.stream

        def counted(bank, *key):
            opened.append((bank.seed, key))
            return stream(bank, *key)
        monkeypatch.setattr(RngBank, "stream", counted)
        run_experiment(ExperimentSpec(
            schemes, "none", [0], {"T": 4, "epsilon": 0.03,
                                   "n": (20, 0, 30, 10), "n_all": 1 << 10},
            replicates=3, seed=2))
        # Once per replicate and type with nodes.
        rep = [(seed, key) for seed, key in opened if key[0] == "rep"]
        assert len(rep) == len(set(rep)) == 3 * 3

    def test_schemes_share_populations(self, monkeypatch):
        seen = {}
        for scheme, fn in list(harness.SCHEMES.items()):
            def recorded(pop, cfg, bank, prm, scheme=scheme, fn=fn):
                seen.setdefault(bank.seed, []).append((pop, cfg))
                return fn(pop, cfg, bank, prm)
            monkeypatch.setitem(harness.SCHEMES, scheme, recorded)
        run_experiment(ExperimentSpec(
            ["hsrc1", "hsrc2"], "none", [0],
            {"T": 3, "epsilon": 0.03, "D": 100, "q": 0.3, "n_all": 1 << 10},
            replicates=4, seed=2))
        assert len(seen) == 4
        for (pop1, cfg1), (pop2, cfg2) in seen.values():
            assert pop1 is pop2 and cfg1 is cfg2

    def test_integral_float_sweep_value_same_seed(self):
        assert _rep_seed(0, "T", 3, 1) == _rep_seed(0, "T", 3.0, 1)
        assert _rep_seed(0, "T", 3, 1) == _rep_seed(0, "T", np.float64(3), 1)
        assert _rep_seed(0, "q", 0.5, 0) != _rep_seed(0, "q", 0.25, 0)

        def run(value):
            return harness.format_csv(run_experiment(ExperimentSpec(
                ["txsrcs"], "D", [value], {"T": 3, "epsilon": 0.03,
                                           "q": 0.3}, replicates=2, seed=4)))
        assert run(50) == run(50.0)


class TestSchemeInvariants:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(harness.SCHEMES)), st.integers(0, 2 ** 32),
           st.lists(st.integers(0, 40), min_size=2, max_size=5))
    def test_ledger_and_energy(self, scheme, seed, n):
        """Every scheme on a random small population: the slot total is
        the sum of its stages, and no node of any type has negative idle
        time or is awake longer than the frame."""
        pop = PopulationSpec.fixed(n, n_all=(1024,) * len(n))
        cfg = derive_config(0.05, 0.2, pop.n_all)
        prm = {"rough": dict(enumerate(n, 1))}
        report = harness.SCHEMES[scheme](pop, cfg, RngBank(seed), prm)
        led = report.ledger
        assert min(led.stage1, led.stage2, led.stage3, led.bp) >= 0
        assert led.total == led.stage1 + led.stage2 + led.stage3 + led.bp
        assert 0 <= report.comparable_total <= led.total
        if report.energy is None:
            return
        for b in range(1, pop.T + 1):
            assert report.energy.tx[b].shape == (n[b - 1],)
            assert (report.energy.idle(b) >= 0).all()
            assert (report.energy.accounted[b] <= led.total).all()


class TestPresets:
    def test_fig9a_thresholds(self):
        rows = figure_preset("fig9a")
        by_scheme = {}
        for r in rows:
            by_scheme.setdefault(r.scheme, []).append(r)
        assert sorted(by_scheme) == ["n1_star_over_ell", "zeta1", "zeta2"]
        assert [r.sweep_value for r in by_scheme["zeta1"]] == list(range(2, 9))
        for z1, z2, star in zip(by_scheme["zeta1"], by_scheme["zeta2"],
                                by_scheme["n1_star_over_ell"]):
            assert z1.mean_slots <= star.mean_slots <= z2.mean_slots

    def test_fig9b_crossover(self):
        rows = figure_preset("fig9b")
        assert [r.sweep_value for r in rows] == [6638, 3009, 1674, 1075]
        for r in rows:
            assert 0.5 < r.mean_slots < 0.8

    def test_fig10_crossover_direction(self):
        rows = figure_preset("fig10", replicates=30)
        lo = next(r for r in rows if r.sweep_value == 1500)
        hi = next(r for r in rows if r.sweep_value == 4000)
        assert lo.mean_slots < 9027 < hi.mean_slots

    def test_fig8a_parameters_and_monotonicity(self):
        rows = figure_preset("fig8a", replicates=5)
        n2_values = sorted({r.sweep_value for r in rows})
        assert n2_values == [500, 1000, 1500, 2000, 2500, 3000]
        trep = [r.mean_slots for r in rows if r.scheme == "p2-trepbb"]
        # The per-type repetition baseline is flat in n2: always T*ell.
        assert all(v == trep[0] for v in trep)
        assert trep[0] == 4 * 3009

    def test_fig7a_schemes(self):
        rows = figure_preset("fig7a", replicates=1)
        assert {r.scheme for r in rows} == {"hsrc1-trepbb", "hsrc1-ssbb",
                                            "hsrc2-trepbb", "hsrc2-ssbb"}
        assert sorted({r.sweep_value for r in rows}) == [
            pytest.approx(0.1 * k) for k in range(1, 10)]


class TestValidateAccuracy:
    def test_empty_population_rate_one(self):
        rates = validate_accuracy(
            "hsrc1", [(0, 0, 0)],
            {"T": 3, "epsilon": 0.03, "delta": 0.2}, replicates=5)
        for rate, (lo, hi) in rates.values():
            assert rate == 1.0
            assert 0 <= lo <= hi <= 1

    def test_realistic_rate(self):
        rates = validate_accuracy(
            "txsrcs", [(500, 500, 500)],
            {"T": 3, "epsilon": 0.05, "delta": 0.2, "n_all": 4096},
            replicates=60)
        for rate, _ in rates.values():
            assert rate >= 0.7


class TestCalibrateEll:
    def test_within_band_of_published(self):
        ell = calibrate_ell(0.05, 0.2, (1000, 5000), replicates=200, seed=1)
        assert abs(ell - 1075) <= 0.15 * 1075

    def test_monotone_in_epsilon(self):
        tight = calibrate_ell(0.03, 0.2, (1000,), replicates=120, seed=2)
        loose = calibrate_ell(0.05, 0.2, (1000,), replicates=120, seed=2)
        assert tight > loose

    def test_insufficient_range(self):
        with pytest.raises(ConfigError):
            calibrate_ell(0.01, 0.2, (50000,), replicates=30, hi=60)


class TestCli:
    def _capture(self, argv):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            rc = cli.main(argv)
        finally:
            sys.stdout = old
        assert rc == 0
        return buf.getvalue()

    def test_zeta_table(self):
        out = self._capture(["zeta", "--t-min", "2", "--t-max", "3"])
        lines = out.strip().split("\n")
        assert lines[0] == "T,zeta1,zeta2,n1_star_over_ell"
        assert lines[1].startswith("2,0.4932")
        assert lines[2].startswith("3,0.6286")

    def test_simulate_smoke(self):
        out = self._capture([
            "simulate", "--schemes", "hsrc1", "--T", "3",
            "--n", "100,200,150", "--replicates", "2", "--seed", "1"])
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_n_parsing_forms(self):
        assert cli._parse_n("1=500,2=1000") == (500, 1000)
        assert cli._parse_n("500,1000") == (500, 1000)

    def test_analyze_smoke(self):
        out = self._capture(["analyze", "--T", "3", "--n", "500,500,500"])
        assert "lambda_II=" in out and "phase2=" in out

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T=3\nn=100,100,100\nreplicates=2\n")
        out = self._capture(["simulate", "--schemes", "txsrcs",
                             "--config", str(cfg)])
        assert "txsrcs" in out

    def test_figure_analytic(self):
        out = self._capture(["figure", "fig9b"])
        assert "n1_star_over_ell" in out

    def test_sweep_integer_variable(self):
        out = self._capture([
            "simulate", "--schemes", "hsrc2", "--sweep-var", "T",
            "--sweep-values", "4,5.0", "--D", "100", "--q", "0.15",
            "--replicates", "1", "--seed", "3"])
        lines = out.strip().split("\n")
        assert [line.split(",")[1] for line in lines[1:]] == ["4", "5"]
        assert lines[2].count(";") == 4    # five per-type energies at T=5

    def test_integer_sweep_values_typed_as_float_agree(self):
        argv = ["simulate", "--schemes", "txsrcs", "--sweep-var", "D",
                "--q", "0.3", "--T", "3", "--replicates", "2", "--seed", "4",
                "--sweep-values"]
        assert self._capture(argv + ["50"]) == self._capture(argv + ["50.0"])

    def test_types_inferred_from_n(self):
        out = self._capture(["simulate", "--schemes", "hsrc1", "--n",
                             "100,100,100,100", "--replicates", "1"])
        assert out.strip().split("\n")[1].count(";") == 3

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--T", "3", "--n", "5,5"], "--n gives 2 types"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "4",
          "--n", "20,20,20"], "--n gives 3 types but T is 4"),
        (["simulate", "--T", "1", "--D", "10", "--q", "0.5"],
         "at least 2"),
        (["simulate", "--T", "3"], "needs --n, or --D and --q"),
        (["simulate", "--sweep-var", "D", "--sweep-values", "50", "--T", "3"],
         "missing --q"),
        (["simulate", "--n", "5,5,5", "--eps", "0.07"], "epsilon=0.07"),
        (["simulate", "--n", "5,5", "--sweep-var", "epsilon",
          "--sweep-values", "0.05,0.07"], "epsilon=0.07"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "4.5",
          "--D", "10", "--q", "0.5"], "whole numbers"),
        (["validate", "--eps", "0.07"], "epsilon=0.07"),
        (["analyze", "--delta", "0.1"], "delta=0.1"),
        (["analyze", "--T", "4", "--n", "5,5,5"], "--n gives 3 types"),
        (["simulate", "--sweep-var", "n2_value", "--sweep-values", "10",
          "--D", "10", "--q", "0.5"], "n2_value needs --n"),
        (["simulate", "--n", "5,5,5", "--schemes", "p2-trepbb"],
         "p2-trepbb runs phase 2 alone"),
        (["simulate", "--n", "5,5,5", "--schemes", "hsrc1,bogus"],
         "unknown scheme 'bogus'"),
        (["simulate", "--n", "100,100,100", "--sweep-var", "n_all",
          "--sweep-values", "50"], "n_all (else D) is 50"),
        (["simulate", "--n", "5,80,5", "--D", "60"],
         "up to 80 active nodes"),
        (["simulate", "--D", "100", "--q", "0.5", "--sweep-var", "n_all",
          "--sweep-values", "50"], "n_all (else D) is 50"),
        (["simulate", "--n", "5,5,5", "--replicates", "0"],
         "--replicates must be at least 1, got 0"),
        (["validate", "--replicates", "0"], "--replicates must be at least 1"),
        (["calibrate-ell", "--replicates", "0"],
         "--replicates must be at least 1"),
        (["simulate", "--D", "10", "--q", "1.5", "--T", "3"],
         "q must be in [0, 1], got 1.5"),
        (["simulate", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["simulate", "--D", "-5", "--q", "0.5"], "must be >= 0"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "ell",
          "--sweep-values", "0"], "ell, m_prime, s_w, t_T must all be >= 1"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "gamma_rho",
          "--sweep-values", "-1"], "energy costs must be >= 0"),
        (["simulate", "--n", ",".join(["5"] * 11), "--schemes",
          "hsrc1,2ss-rep,txsrcs"],
         "2ss-rep: 2SS decoder tables are built for T <= 10, got T = 11"),
        (["simulate", "--T", "12", "--D", "10", "--q", "0.5", "--schemes",
          "hsrc2,hsrc2-ssbb"], "hsrc2, hsrc2-ssbb: 2SS decoder tables"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "10,11", "--D",
          "10", "--q", "0.5", "--schemes", "hsrc2-trepbb"], "got T = 11"),
        (["simulate", "--n", ",".join(["5"] * 11), "--sweep-var", "n2_value",
          "--sweep-values", "5", "--schemes", "p2-2ssbb"],
         "p2-2ssbb: 2SS decoder tables are built for T <= 10"),
        (["validate", "--scheme", "2ss-rep", "--T", "11"], "got T = 11"),
        (["analyze", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["analyze", "--n", "5,5,5", "--rough", "5,-1,5"],
         "rough estimates (--rough) must be >= 0"),
        (["validate", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "n_all",
          "--sweep-values", "0"], "n_all (else D) is 0"),
        (["simulate", "--n", "5,5,5", "--D", "0"], "n_all (else D) is 0"),
        (["validate", "--n", "1000,1000,1000", "--D", "999"],
         "n_all (else D) is 999"),
        (["simulate", "--n", "5,5,5", "--ell", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["simulate", "--n", "5,5,5", "--m-prime", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["validate", "--n", "5,5,5", "--ell", "-3"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["validate", "--m-prime", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
    ])
    def test_bad_input_one_line_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount: error: ")
        assert message in err[-1]

    @pytest.mark.parametrize("var", ["rough1", "bogus"])
    def test_unknown_sweep_variable_rejected(self, capsys, var):
        # rough1 needs rough estimates, which simulate does not take.
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--n", "5,5,5", "--sweep-var", var,
                      "--sweep-values", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount simulate: error: argument "
                                  f"--sweep-var: invalid choice: '{var}'")

    @pytest.mark.parametrize("scheme", ["bogus", "p2-trepbb"])
    def test_validate_rejects_schemes_it_cannot_run(self, capsys, scheme):
        # Phase-2-only schemes need rough estimates, which validate lacks.
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--scheme", scheme, "--replicates", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount validate: error: argument "
                                  f"--scheme: invalid choice: '{scheme}'")

    def test_replicates_default_only_when_absent(self):
        argv = ["simulate", "--schemes", "txsrcs", "--n", "5,5,5"]
        assert self._capture(argv).split("\n")[1].startswith(
            "none,0,txsrcs,100,")
        assert self._capture(argv + ["--replicates", "1"]).split(
            "\n")[1].startswith("none,0,txsrcs,1,")

    def test_table_bound_spares_other_schemes(self):
        out = self._capture(["simulate", "--n", ",".join(["5"] * 11),
                             "--schemes", "hsrc1,txsrcs,3ss-rep",
                             "--replicates", "1"])
        assert [line.split(",")[2] for line in out.strip().split("\n")[1:]] \
            == ["hsrc1", "txsrcs", "3ss-rep"]

    def test_stdout_equals_out_file(self, tmp_path):
        out = tmp_path / "o.csv"
        text = self._capture(["simulate", "--n", "5,5,5", "--replicates",
                              "2", "--out", str(out)])
        assert text.encode() == out.read_bytes()
        assert text.split("\n")[1].startswith("none,0,hsrc1,2,")

    def test_sweep_n2_value(self):
        out = self._capture(["simulate", "--schemes", "p2-trepbb", "--n",
                             "50,50,50", "--sweep-var", "n2_value",
                             "--sweep-values", "60,70.0", "--replicates", "1"])
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] \
            == ["60", "70"]

    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(hetcount.__file__))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-m", "hetcount", "zeta", "--t-min", "2",
             "--t-max", "2"], capture_output=True, text=True, env=env,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[1].startswith("2,0.4932")

    def test_validate_default_depth_not_ruled_out(self):
        # With n_all = n, phase 1 stopped at ceil(log2 1000) = 10 blocks and
        # 3ss-rep estimated about 0.58 n, so no replicate was within epsilon.
        out = self._capture(["validate", "--scheme", "3ss-rep", "--n",
                             "1000,1000,1000", "--replicates", "100",
                             "--seed", "7"])
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            hi = float(line.split("wilson95=(")[1].split(",")[1].rstrip(")"))
            assert hi >= 0.8                  # 1 - delta is not ruled out

    def test_default_n_all(self):
        assert cli._n_all(None, (5, 40)) == harness.PRESET_N_ALL
        assert cli._n_all(None, (3_000_000, 5, 5)) == 3_000_000
        assert cli._n_all(60, (5, 40)) == 60

    @pytest.mark.parametrize("flags, stage1", [
        ([], 10 * 2 * 20 + 3 * 500),
        (["--m-prime", "3"], 3 * 2 * 20 + 3 * 500),
    ])
    def test_ell_and_m_prime_flags(self, flags, stage1):
        # An untabulated epsilon runs once --ell is given; phase 1 is m'
        # trials of 20 two-slot blocks, TRepBB phase 2 one ell-slot trial
        # per type.
        out = self._capture(["simulate", "--n", "5,5,5", "--eps", "0.07",
                             "--ell", "500", "--schemes", "hsrc1-trepbb",
                             "--replicates", "1", *flags])
        assert out.split("\n")[1].split(",")[6] == str(stage1)
        out = self._capture(["validate", "--n", "50,50", "--eps", "0.07",
                             "--ell", "800", "--replicates", "2", *flags])
        assert [line.split(":")[0] for line in out.strip().split("\n")] \
            == ["type 1", "type 2"]

    def test_default_n_all_sets_phase1_depth(self):
        argv = ["simulate", "--schemes", "3ss-rep", "--n", "40,40",
                "--replicates", "1"]
        preset = self._capture(argv)
        assert self._capture(argv + ["--D", str(1 << 20)]) == preset
        # 20 blocks of one slot per trial at T = 2, against 6 at D = 40.
        assert preset.split("\n")[1].split(",")[6] == str(20 * 1136)
        assert self._capture(argv + ["--D", "40"]).split(
            "\n")[1].split(",")[6] == str(6 * 1136)
