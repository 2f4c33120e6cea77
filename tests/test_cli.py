import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gpl.cli
import gpl.metrics
from gpl.cli import ConfigError, _load_train_config, main, parse_config
from gpl.graph import heterophily_ratio
from gpl.synth import load_dataset
from gpl.trainer import TrainConfig

SMALL_CFG = """\
# tiny budget for test runs
outer_epochs = 2
k_inner = 5
clf_steps_per_epoch = 60
warmup_steps = 20
"""

CONFIG_KEYS = set(TrainConfig.__dataclass_fields__)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text(SMALL_CFG)
    return str(p)


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    rc = main(["synth", "--n", "120", "--h", "0.4", "--avg-degree", "6",
               "--out", str(out)])
    assert rc == 0
    return str(out)


class TestSynth:
    def test_writes_loadable_dataset(self, dataset):
        g = load_dataset(dataset)
        assert g.n == 120
        assert abs(heterophily_ratio(g) - 0.4) < 0.01

    def test_file_names(self, dataset, tmp_path):
        for name in ("edges.tsv", "features.csv", "labels.txt"):
            assert (tmp_path / "data" / name).exists()

    def test_multiple_h_values(self, tmp_path):
        out = tmp_path / "multi"
        rc = main(["synth", "--n", "80", "--h", "0.2,0.6", "--avg-degree", "6",
                   "--out", str(out)])
        assert rc == 0
        assert abs(heterophily_ratio(load_dataset(out / "h0.2")) - 0.2) < 0.02
        assert abs(heterophily_ratio(load_dataset(out / "h0.6")) - 0.6) < 0.02

    def test_close_h_values_get_their_own_directories(self, tmp_path):
        # both print as 0.123457 under %g; each directory reads back as its value
        out = tmp_path / "multi"
        rc = main(["synth", "--n", "40", "--h", "0.1234567,0.12345671,0,1", "--avg-degree", "4",
                   "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["h0", "h0.1234567", "h0.12345671", "h1"]

    def test_bad_h_exits_nonzero(self, tmp_path, capsys):
        rc = main(["synth", "--n", "40", "--h", "1.5", "--out",
                   str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--feature-dim", "0", "feature_dim"),
        ("--avg-degree", "inf", "avg_degree"),
        ("--n", "-5", "n must"),
        ("--mu", "nan", "feature_separation"),
        ("--h", "0.3,x", "--h: expected float values, got 'x'"),
        ("--h", "0.3,1.5", "--h: h must lie in [0, 1], got '1.5'"),
    ])
    def test_bad_planted_config_exits_nonzero(self, tmp_path, capsys, flag, value, field):
        rc = main(["synth", flag, value, "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "x").exists()  # every value is checked before the first write

    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys):
        rc = main(["synth", "--n", "60", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error: --seed: seeds must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestRewire:
    def test_hits_target(self, dataset, tmp_path):
        out = tmp_path / "rewired"
        rc = main(["rewire", "--data", dataset, "--target-h", "0.7",
                   "--out", str(out)])
        assert rc == 0
        g = load_dataset(out)
        assert abs(heterophily_ratio(g) - 0.7) < 0.02
        # rewiring permutes endpoints, never the node set or labels
        orig = load_dataset(dataset)
        assert np.array_equal(g.labels, orig.labels)
        assert g.m == orig.m

    def test_negative_seed_rejected_before_any_read(self, tmp_path, capsys):
        # the dataset does not exist, so the error shows the flag was checked first
        rc = main(["rewire", "--data", str(tmp_path / "nope"), "--target-h", "0.7",
                   "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error: --seed: seeds must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_gpl_outputs(self, dataset, cfg_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data", dataset, "--config", cfg_file,
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "f1", "pi_hat", "pi_true", "prior_error", "mean_weight_homo",
            "mean_weight_hetero", "epochs", "seed",
        }
        assert 0.0 <= summary["f1"] <= 1.0
        assert summary["epochs"] == 2
        assert summary["prior_error"] == pytest.approx(
            abs(summary["pi_hat"] - summary["pi_true"]))
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + summary["epochs"]
        assert (out / "classifier.txt").exists()

    def test_baseline_unit_weights(self, dataset, cfg_file, tmp_path):
        out = tmp_path / "base"
        rc = main(["train", "--data", dataset, "--method", "baseline",
                   "--config", cfg_file, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_weight_homo"] == 1.0
        assert summary["mean_weight_hetero"] == 1.0

    def test_absent_weight_mean_is_null(self, cfg_file, tmp_path):
        # h=0 plants no cross-class edge, so the heterophilic weight mean has no edges
        data, out = tmp_path / "h0", tmp_path / "run"
        assert main(["synth", "--n", "120", "--h", "0", "--avg-degree", "6", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--config", cfg_file, "--out", str(out)]) == 0

        def strict(name):
            raise ValueError(f"summary.json holds {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
        assert summary["mean_weight_hetero"] is None
        assert 0.0 < summary["mean_weight_homo"] < 1.0

    def test_repeat_runs_byte_identical(self, dataset, cfg_file, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", dataset, "--config", cfg_file,
                         "--out", str(out)]) == 0
            blobs.append(((out / "trace.csv").read_bytes(),
                          (out / "summary.json").read_bytes(),
                          (out / "classifier.txt").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_seed_override(self, dataset, cfg_file, tmp_path):
        outs = {}
        for seed in (0, 3):
            out = tmp_path / f"s{seed}"
            assert main(["train", "--data", dataset, "--config", cfg_file,
                         "--seed", str(seed), "--out", str(out)]) == 0
            outs[seed] = json.loads((out / "summary.json").read_text())
        assert outs[3]["seed"] == 3
        assert outs[0]["pi_hat"] != outs[3]["pi_hat"]

    def test_negative_seed_rejected_before_any_read(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--seed", "-2",
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error: --seed: seeds must be non-negative, got -2" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_label_beyond_int64_names_file_and_line(self, dataset, tmp_path, capsys):
        labels = tmp_path / "data" / "labels.txt"
        lines = labels.read_text().splitlines()
        lines[2] = "99999999999999999999999"
        labels.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", dataset, "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "labels.txt:3: unparseable label" in capsys.readouterr().err


class TestConfigFile:
    def test_parses_types_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("outer_epochs = 4  # comment\nlr_mask = 0.5\n"
                     "hidden = 8\n\n# full-line comment\n")
        out = parse_config(p)
        assert out == {"outer_epochs": 4, "lr_mask": 0.5, "hidden": 8}
        assert [type(v) for v in out.values()] == [int, float, int]

    def test_unknown_key_named_with_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("outer_epochs = 4\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match=r"2: unknown config key: learning_rate"):
            parse_config(p)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # a second setting would otherwise silently win
        p = tmp_path / "c.cfg"
        p.write_text("hidden = 8\n# wider\nhidden = 16\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: hidden is already set on line 1$"):
            parse_config(p)

    def test_undecodable_bytes_named_with_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"outer_epochs = 4  # caf\xe9\nk_prop = 1\xff\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2: bad value for k_prop"):
            parse_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("outer_epochs = four\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("outer_epochs 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(p)

    def test_cli_reports_config_error(self, dataset, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("bogus = 1\n")
        rc = main(["train", "--data", dataset, "--config", str(p),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("line,why", [
        ("outer_epochs = 0", "outer_epochs must be >= 1"),
        ("lr_mask = nan", "lr_mask must be finite"),
        ("lr_clf = inf", "lr_clf must be finite"),
    ])
    def test_rejected_value_names_file(self, dataset, tmp_path, capsys, line, why):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        rc = main(["train", "--data", dataset, "--config", str(p),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"error: {p}: {why}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("method", ["gpl", "baseline"])
    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_bad_alpha_names_file(self, dataset, tmp_path, capsys, method, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"alpha = {value}\n")
        rc = main(["train", "--data", dataset, "--method", method, "--config", str(p),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"error: {p}: alpha must lie strictly in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs=st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)),
                                    st.integers().map(str) | st.floats().map(repr) | TEXT),
                          max_size=6),
           lines=st.lists(TEXT, max_size=3))
    def test_fuzzed_lines_parse_or_name_the_file(self, tmp_path, pairs, lines):
        # known keys with numbers or text as values, plus arbitrary lines: a
        # file either gives a valid TrainConfig or an error that names it
        p = tmp_path / "fuzz.cfg"
        body = [f"{k} = {v}" for k, v in pairs] + lines
        p.write_text("\n".join(body) + "\n", encoding="utf-8")
        try:
            cfg = _load_train_config(SimpleNamespace(config=str(p), seed=None))
        except ConfigError as exc:
            assert str(exc).startswith(f"{p}:")
        else:
            assert isinstance(cfg, TrainConfig)


class TestEstimatePrior:
    def write_scores(self, tmp_path, rng):
        from conftest import separable_score_mixture
        sp_, su_ = separable_score_mixture(rng, 400, 0.25)
        pos = tmp_path / "pos.txt"
        unl = tmp_path / "unl.txt"
        pos.write_text("\n".join(f"{v:.9f}" for v in sp_))
        unl.write_text("\n".join(f"{v:.9f}" for v in su_))
        return str(pos), str(unl)

    def test_prints_estimate(self, tmp_path, capsys):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(0))
        rc = main(["estimate-prior", "--pos", pos, "--unlabeled", unl])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        pi_hat = float(lines[0].split("=")[1])
        assert abs(pi_hat - 0.25) <= 0.1
        assert lines[1].startswith("c_star=")
        assert lines[2] == "c,q_u,q_p,ratio,admissible"

    def test_curve_file(self, tmp_path, capsys):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(1))
        curve = tmp_path / "curve.csv"
        rc = main(["estimate-prior", "--pos", pos, "--unlabeled", unl,
                   "--q-floor", "0.1", "--curve-out", str(curve)])
        assert rc == 0
        rows = curve.read_text().splitlines()
        assert rows[0] == "c,q_u,q_p,ratio,admissible"
        assert len(rows) > 10
        # admissible column respects the floor
        for r in rows[1:]:
            c, qu, qp, ratio, adm = r.split(",")
            assert (int(adm) == 1) == (float(qp) >= 0.1)

    @pytest.mark.parametrize("bad,shown", [(b"abc", "abc"), (b"0.5\xff", "0.5\ufffd")])
    def test_unparseable_score_names_file_and_line(self, tmp_path, capsys, bad, shown):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(0))
        with open(unl, "ab") as f:
            f.write(b"\n" + bad + b"\n")
        rc = main(["estimate-prior", "--pos", pos, "--unlabeled", unl])
        assert rc == 1
        n = len(open(unl, "rb").read().splitlines())
        assert f"{unl}:{n}: unparseable score: {shown!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1.5", "nan", "-0.25"])
    def test_out_of_range_score_names_file_and_line(self, tmp_path, capsys, bad):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(0))
        lines = open(unl).read().splitlines()
        lines[1] = bad
        with open(unl, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main(["estimate-prior", "--pos", pos, "--unlabeled", unl])
        assert rc == 1
        assert f"error: {unl}:2: score {float(bad)!r} outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pos", "--unlabeled"])
    def test_empty_score_file_names_the_file(self, tmp_path, capsys, flag):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(0))
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        files = {"--pos": pos, "--unlabeled": unl, flag: str(empty)}
        rc = main(["estimate-prior", *(t for kv in files.items() for t in kv)])
        assert rc == 1
        assert f"error: {empty}: no scores in file" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,shown", [("--q-floor=nan", "nan"), ("--q-floor=-1", "-1.0")])
    def test_negative_or_nan_floor_rejected(self, tmp_path, capsys, flag, shown):
        pos, unl = self.write_scores(tmp_path, np.random.default_rng(0))
        rc = main(["estimate-prior", "--pos", pos, "--unlabeled", unl, flag])
        assert rc == 1
        assert capsys.readouterr().err == f"error: q_floor must be >= 0, got {shown}\n"

    def test_bad_score_file(self, tmp_path, capsys):
        pos = tmp_path / "pos.txt"
        pos.write_text("0.5 2.5")
        rc = main(["estimate-prior", "--pos", str(pos), "--unlabeled", str(pos)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def run_sweep(self, tmp_path, cfg_file, out_name, monkeypatch, threads):
        monkeypatch.setenv("GPL_THREADS", str(threads))
        out = tmp_path / out_name
        rc = main(["sweep", "--var", "rp", "--values", "0.3,0.6",
                   "--seeds", "0,1", "--method", "gpl", "--n", "120",
                   "--avg-degree", "6", "--config", cfg_file,
                   "--out", str(out)])
        assert rc == 0
        return out

    def test_grid_shape(self, tmp_path, cfg_file, monkeypatch):
        out = self.run_sweep(tmp_path, cfg_file, "sw", monkeypatch, 1)
        runs = (out / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 2 * 2  # values x seeds, one method
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 1 + 2
        assert runs[0].split(",")[:4] == ["var", "value", "seed", "method"]

    def test_thread_count_does_not_change_results(self, tmp_path, cfg_file,
                                                  monkeypatch):
        seq = self.run_sweep(tmp_path, cfg_file, "sw1", monkeypatch, 1)
        par = self.run_sweep(tmp_path, cfg_file, "sw4", monkeypatch, 4)
        assert (seq / "runs.csv").read_bytes() == (par / "runs.csv").read_bytes()
        assert (seq / "aggregate.csv").read_bytes() == (par / "aggregate.csv").read_bytes()

    def test_single_value_rejected(self, tmp_path, cfg_file, capsys):
        rc = main(["sweep", "--var", "h", "--values", "0.3", "--seeds", "0",
                   "--config", cfg_file, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "two values" in capsys.readouterr().err

    def test_duplicate_seeds_rejected(self, tmp_path, cfg_file, capsys):
        rc = main(["sweep", "--var", "h", "--values", "0.2,0.4",
                   "--seeds", "1,1", "--config", cfg_file,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "distinct" in capsys.readouterr().err

    def test_duplicate_values_rejected(self, tmp_path, cfg_file, capsys):
        # a repeated value would be aggregated twice from one set of runs
        out = tmp_path / "x"
        rc = main(["sweep", "--var", "h", "--values", "0.3,0.3,0.7",
                   "--seeds", "0", "--config", cfg_file, "--out", str(out)])
        assert rc == 1
        assert "values must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,bad", [("2.2,2.4", "'2.2'"), ("nan,3", "'nan'"),
                                            ("-1,3", "'-1'"), ("3,inf", "'inf'")])
    def test_k_prop_values_must_be_non_negative_integers(self, tmp_path, cfg_file, capsys,
                                                         monkeypatch, values, bad):
        built = []
        monkeypatch.setattr(gpl.cli, "generate_planted", built.append)
        out = tmp_path / "x"
        rc = main(["sweep", "--var", "k_prop", f"--values={values}", "--seeds", "0",
                   "--config", cfg_file, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--values" in err and bad in err
        assert built == []  # rejected before any job ran
        assert not out.exists()

    @pytest.mark.parametrize("var,values,seeds,bad", [
        ("h", "0.3,1.5", "0", "--values: h must lie in [0, 1], got '1.5'"),
        ("h", "-0.1,0.3", "0", "--values: h must lie in [0, 1], got '-0.1'"),
        ("h", "0.3,nan", "0", "--values: h must lie in [0, 1], got 'nan'"),
        ("rp", "0,0.5", "0", "--values: rp must lie in (0, 1], got '0'"),
        ("rp", "0.5,1.5", "0", "--values: rp must lie in (0, 1], got '1.5'"),
        ("rp", "nan,0.3", "0", "--values: rp must lie in (0, 1], got 'nan'"),
        ("h", "0.3,x", "0", "--values: expected float values, got 'x'"),
        ("rp", "0.3,", "0", "--values: expected float values, got ''"),
        ("h", "0.3,0.5", "0,1.5", "--seeds: expected int values, got '1.5'"),
        ("h", "0.3,0.5", "a", "--seeds: expected int values, got 'a'"),
        ("h", "0.3,0.5", "-1,0", "--seeds: seeds must be non-negative, got -1"),
        ("rp", "0.3,0.5", "2,-3", "--seeds: seeds must be non-negative, got -3"),
    ])
    def test_bad_values_and_seeds_rejected_before_any_job(self, tmp_path, cfg_file, capsys,
                                                          monkeypatch, var, values, seeds, bad):
        built = []
        monkeypatch.setattr(gpl.cli, "generate_planted", built.append)
        out = tmp_path / "x"
        rc = main(["sweep", "--var", var, f"--values={values}", f"--seeds={seeds}",
                   "--config", cfg_file, "--out", str(out)])
        assert rc == 1
        assert bad in capsys.readouterr().err
        assert built == []  # rejected before any job ran
        assert not (out / "runs.csv").exists()

    @pytest.mark.parametrize("flags,bad", [
        (["--var", "k_prop", "--h", "1.5"], "--h: h must lie in [0, 1], got '1.5'"),
        (["--var", "rp", "--h", "nan"], "--h: h must lie in [0, 1], got 'nan'"),
        (["--var", "h", "--rp", "1.5"], "--rp: rp must lie in (0, 1], got '1.5'"),
        (["--var", "k_prop", "--rp", "0"], "--rp: rp must lie in (0, 1], got '0.0'"),
        (["--var", "h", "--n", "1"], "n must be >= 2"),
        (["--var", "rp", "--pi-p", "1"], "pi_p must lie strictly in (0, 1)"),
        (["--var", "k_prop", "--avg-degree", "0.5"], "avg_degree must be finite and >= 1"),
    ])
    def test_bad_fixed_flags_rejected_before_any_job(self, tmp_path, cfg_file, capsys,
                                                     monkeypatch, flags, bad):
        built = []
        monkeypatch.setattr(gpl.cli, "generate_planted", built.append)
        out = tmp_path / "x"
        values = {"h": "0.3,0.5", "rp": "0.3,0.5", "k_prop": "1,2"}[flags[1]]
        rc = main(["sweep", *flags, "--values", values, "--seeds", "0",
                   "--config", cfg_file, "--out", str(out)])
        assert rc == 1
        assert bad in capsys.readouterr().err
        assert built == []  # rejected before any job ran
        assert not out.exists()

    def test_degenerate_rp_rejected_before_any_job(self, tmp_path, capsys, monkeypatch):
        # 0.01 is in (0, 1] but observes none of the 10 positives at n=40
        ran = []
        monkeypatch.setattr(gpl.cli, "_run_one", lambda *a: ran.append(a))
        rc = main(["sweep", "--var", "rp", "--values", "0.5,0.01", "--n", "40", "--seeds", "0,1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "r_p=0.01 observes 0 of 10 positives" in capsys.readouterr().err
        assert ran == []

    def test_both_methods_of_a_point_share_its_graph_and_split(self, tmp_path, monkeypatch):
        ran = []  # holds every graph and split, so no two share an id()
        summary = dict.fromkeys(["f1", "pi_hat", "pi_true", "prior_error", "mean_weight_homo",
                                 "mean_weight_hetero"], 0.0)
        monkeypatch.setattr(gpl.cli, "_run_one", lambda *a: ran.append(a) or (summary,))
        rc = main(["sweep", "--var", "h", "--values", "0.3,0.7", "--n", "40", "--seeds", "0,1",
                   "--method", "both", "--out", str(tmp_path / "x")])
        assert rc == 0
        points = {}
        for g, split, _cfg, method in ran:
            points.setdefault((id(g), id(split)), []).append(method)
        assert sorted(map(sorted, points.values())) == [["baseline", "gpl"]] * 4

    def test_seed_flag_rejected(self, tmp_path, cfg_file, capsys):
        # planted graphs take their seeds from --seeds; --seed belongs to synth
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--var", "h", "--values", "0.3,0.5", "--seeds", "0",
                  "--seed", "5", "--config", cfg_file, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_k_prop_sweep_runs_the_integer_values(self, tmp_path, cfg_file):
        out = tmp_path / "sw"
        rc = main(["sweep", "--var", "k_prop", "--values", "1,3.0", "--seeds", "0",
                   "--method", "gpl", "--n", "60", "--avg-degree", "4",
                   "--config", cfg_file, "--out", str(out)])
        assert rc == 0
        runs = [r.split(",") for r in (out / "runs.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in runs] == ["1", "3"]
        assert runs[0][4:] != runs[1][4:]  # two different configurations ran


class TestValidate:
    def test_suite_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "check,instances,value,threshold,pass"
        names = {r.split(",")[0] for r in out[1:]}
        assert {"belief_row_sums", "influence_sum_identity",
                "irreducibility_homophilic", "irreducibility_gap"} <= names
        assert all(r.split(",")[-1] == "1" for r in out[1:])

    def test_broken_normalization_detected(self, monkeypatch, capsys):
        # drop the row normalization: conservation must catch it and the
        # command must exit nonzero
        real = gpl.metrics.propagation_operator

        def unnormalized(g, mask):
            op = real(g, mask).tocsr(copy=True)
            rows = op.sum(axis=1).A.ravel()
            scale = sp.diags(np.where(rows > 0, 1.0 + 0.25 * rows, 1.0))
            return (scale @ op).tocsr()

        monkeypatch.setattr(gpl.metrics, "propagation_operator", unnormalized)
        rc = main(["validate"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "validation FAILED" in captured.err
        rows = {r.split(",")[0]: r.split(",")[-1]
                for r in captured.out.splitlines()[1:]}
        assert rows["belief_row_sums"] == "0"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpl", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        for sub in ("synth", "rewire", "train", "estimate-prior", "sweep",
                    "validate"):
            assert sub in proc.stdout
