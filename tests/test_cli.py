"""End-to-end command checks: file formats, determinism, exit codes."""

import json

import numpy as np
import pytest

from gradefactor.cli import main
from gradefactor.io_formats import (
    model_to_dot,
    read_model_json,
    read_response_csv,
    write_model_json,
    write_response_csv,
)
from gradefactor.model import FactorModel, ResponseMatrix
from gradefactor.synth import SynthConfig, generate_synthetic

SIM_CONFIG = """\
q = 12
n = 10
k = 2
nnz = uniform 1 2
p_obs = 0.7
link = probit
seed = 11
"""


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return out


class TestSimulate:
    def test_output_dimensions(self, sim_dir):
        data, qids, lids = read_response_csv(sim_dir / "synth_responses.csv")
        assert (data.Q, data.N) == (12, 10)
        assert len(qids) == 12 and len(lids) == 10

    def test_mask_count_field_matches(self, sim_dir):
        data, _, _ = read_response_csv(sim_dir / "synth_responses.csv")
        payload = json.loads((sim_dir / "synth_mask.json").read_text())
        assert payload["n_observed"] == data.n_observed
        assert len(payload["pairs"]) == data.n_observed

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
            outs.append(out)
        for fname in ("synth_responses.csv", "synth_truth.json", "synth_mask.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_bad_config_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q = 10\nn = 10\nk = 2\np_obs = 7\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_k_data_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"q = 10\nn = 10\nk = 2\nlambda_k = {value}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "lambda_k" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["uniform a 2", "bernoulli x", "", "gauss 1"])
    def test_bad_nnz_data_error(self, tmp_path, capsys, spec):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"q = 10\nn = 10\nk = 2\nnnz = {spec}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        assert "bad nnz spec" in capsys.readouterr().err

    def test_default_support_fits_small_k(self, tmp_path):
        # no nnz line: the generator's own default, uniform on {1..min(3, K)}
        cfg = tmp_path / "k2.cfg"
        cfg.write_text("q = 10\nn = 10\nk = 2\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        truth, _ = read_model_json(out / "synth_truth.json")
        assert truth.K == 2
        assert ((truth.W > 0).sum(axis=1) >= 1).all()

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "x")]) == 2


class TestFit:
    @pytest.mark.parametrize("method,extra", [
        ("ml", ["--lambda", "0.2"]),
        ("bayes", ["--burnin", "30", "--samples", "30"]),
        ("ksvd", ["--sparsity", "2", "--ksvd-iters", "5"]),
    ])
    def test_fit_writes_valid_model(self, sim_dir, tmp_path, method, extra):
        out = tmp_path / f"{method}.json"
        rc = main(["fit", "--method", method, "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", "--seed", "3", *extra])
        assert rc == 0
        model, payload = read_model_json(out)
        assert model.K == 2
        assert payload["method"] == method
        assert (model.W >= 0).all()

    def test_bayes_short_chain_is_quick(self, tmp_path):
        import time

        cfg = tmp_path / "sim.cfg"
        cfg.write_text("q = 30\nn = 30\nk = 2\nnnz = uniform 1 2\nseed = 2\n")
        out = tmp_path / "d"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        started = time.monotonic()
        rc = main(["fit", "--method", "bayes", "--data",
                   str(out / "synth_responses.csv"),
                   "--out", str(tmp_path / "b.json"), "--k", "2",
                   "--burnin", "100", "--samples", "100"])
        elapsed = time.monotonic() - started
        assert rc == 0
        assert elapsed < 60.0

    def test_rerun_identical(self, sim_dir, tmp_path):
        args = ["fit", "--method", "ml", "--data",
                str(sim_dir / "synth_responses.csv"), "--k", "2",
                "--lambda", "0.2", "--seed", "5"]
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_method_usage_error(self, sim_dir, tmp_path):
        rc = main(["fit", "--method", "pca", "--data",
                   str(sim_dir / "synth_responses.csv"),
                   "--out", str(tmp_path / "x.json"), "--k", "2"])
        assert rc == 1

    def test_unreadable_data_error(self, tmp_path):
        rc = main(["fit", "--method", "ml", "--data", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "x.json"), "--k", "2"])
        assert rc == 2

    def test_ragged_csv_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("question_id,l1,l2\nq1,1\n")
        rc = main(["fit", "--method", "ml", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"), "--k", "1"])
        assert rc == 2

    def test_lambda_grid_bic(self, sim_dir, tmp_path):
        out = tmp_path / "bic.json"
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", "--lambda-grid", "0.1,0.4", "--max-outer", "20"])
        assert rc == 0
        _, payload = read_model_json(out)
        assert payload["lambda_l1"] in (0.1, 0.4)

    def test_lambda_grid_reuses_winner_fit(self, sim_dir, tmp_path, capsys):
        common = ["fit", "--method", "ml", "--data",
                  str(sim_dir / "synth_responses.csv"), "--k", "2",
                  "--max-outer", "20", "--restarts", "2", "--seed", "4"]
        grid_out = tmp_path / "grid.json"
        assert main(common + ["--lambda-grid", "0.4,0.1", "--threads", "2",
                              "--out", str(grid_out)]) == 0
        assert "warning: BIC chose lambda=" in capsys.readouterr().err
        payload = json.loads(grid_out.read_text())
        table = payload.pop("lambda_selection")
        assert [row["lambda"] for row in table] == [0.1, 0.4]
        assert payload["lambda_l1"] == min(table, key=lambda row: row["bic"])["lambda"]
        single_out = tmp_path / "single.json"
        assert main(common + ["--lambda", repr(payload["lambda_l1"]),
                              "--out", str(single_out)]) == 0
        rewritten = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert rewritten.encode() == single_out.read_bytes()

    def test_duplicate_grid_values_fitted_once(self, sim_dir, tmp_path, monkeypatch):
        import gradefactor.cli as cli
        import gradefactor.mle as mle

        fitted = []

        def counting(data, K, config, n_threads=1, _real=mle.fit_ml):
            fitted.append(config.lambda_l1)
            return _real(data, K, config, n_threads)

        monkeypatch.setattr(mle, "fit_ml", counting)
        monkeypatch.setattr(cli, "fit_ml", counting)
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"),
                   "--out", str(tmp_path / "m.json"), "--k", "2",
                   "--lambda-grid", "0.1,0.4,0.4", "--max-outer", "10"])
        assert rc == 0
        assert sorted(fitted) == [0.1, 0.4]

    @pytest.mark.parametrize("grid,message", [
        ("", "lambda grid is empty"),
        (" ", "lambda grid is empty"),
        ("2,,4", "bad lambda grid entry ''"),
        ("2,x", "bad lambda grid entry 'x'"),
        ("a,b", "bad lambda grid entry 'a'"),
        ("1,0", "bad lambda grid entry '0'"),
        ("1,nan", "bad lambda grid entry 'nan'"),
    ])
    def test_bad_lambda_grid_usage_error(self, sim_dir, tmp_path, capsys, grid,
                                         message):
        out = tmp_path / "m.json"
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", "--lambda-grid", grid])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_with_grid_usage_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", "--lambda", "4", "--lambda-grid", "2,8"])
        assert rc == 1
        assert "not allowed with argument --lambda" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--lambda", "0"], "expected a positive number"),
        (["--lambda", "nan"], "expected a positive number"),
        (["--lambda", "-1"], "expected a positive number"),
        (["--restarts", "0"], "expected a positive integer"),
        (["--threads", "0"], "expected a positive integer"),
        (["--threads", "-3", "--restarts", "2"], "expected a positive integer"),
        (["--inner-iters", "0"], "expected a positive integer"),
        (["--max-outer", "0"], "expected a positive integer"),
    ])
    def test_out_of_range_option_usage_error(self, sim_dir, tmp_path, capsys, option,
                                             message):
        out = tmp_path / "m.json"
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", *option])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,kind,ident", [
        ("question_id,l1,l2,l1\nq1,1,0,1\n", "learner", "l1"),
        ("question_id,l1,l2\nq1,1,0\nq2,0,1\nq1,0,0\n", "question", "q1"),
    ])
    def test_duplicate_ids_data_error(self, tmp_path, capsys, text, kind, ident):
        bad = tmp_path / "dup.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"duplicate {kind} id '{ident}'"):
            read_response_csv(bad)
        rc = main(["fit", "--method", "ml", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"), "--k", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"duplicate {kind} id '{ident}'" in err


class TestModelRoundTrip:
    def test_write_read_write_is_identity(self, tmp_path):
        truth, _ = generate_synthetic(SynthConfig(Q=7, N=5, K=2, seed=13))
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        write_model_json(p1, truth, {"method": "ml"})
        model, payload = read_model_json(p1)
        write_model_json(p2, model, {"method": payload["method"]})
        assert p1.read_bytes() == p2.read_bytes()


class TestModelJsonIndices:
    @staticmethod
    def write_model(path, triplet):
        truth, _ = generate_synthetic(SynthConfig(Q=3, N=4, K=2, seed=15))
        write_model_json(path, truth)
        payload = json.loads(path.read_text())
        payload["W"] = [triplet]
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("triplet", [[-1, 0, 0.5], [3, 0, 0.5],
                                         [0, -1, 0.5], [0, 2, 0.5],
                                         [1.5, 0, 0.5], ["1", 0, 0.5]])
    def test_out_of_range_triplet_rejected(self, tmp_path, triplet):
        path = tmp_path / "m.json"
        self.write_model(path, triplet)
        with pytest.raises(ValueError, match="out of range"):
            read_model_json(path)

    @pytest.mark.parametrize("triplet", [[-1, 0, 0.5], [0, 2, 0.5]])
    def test_graph_reports_data_error(self, tmp_path, triplet):
        path = tmp_path / "m.json"
        self.write_model(path, triplet)
        rc = main(["graph", "--model", str(path), "--out", str(tmp_path / "g.dot")])
        assert rc == 2


class TestGraph:
    def test_zero_weights_graph_has_all_questions_no_edges(self, tmp_path):
        model = FactorModel(np.zeros((4, 2)), np.ones((2, 3)), np.zeros(4))
        dot = model_to_dot(model)
        assert dot.count("shape=box") == 4
        assert "--" not in dot.replace("rankdir", "")

    def test_single_edge(self, tmp_path):
        W = np.zeros((3, 2))
        W[1, 0] = 0.8
        model = FactorModel(W, np.ones((2, 3)), np.zeros(3))
        dot = model_to_dot(model)
        assert dot.count(" -- ") == 1
        assert "q1 -- c0" in dot

    def test_edge_width_ordering_matches_normalized_weights(self, tmp_path):
        rng = np.random.default_rng(14)
        W = np.abs(rng.normal(size=(5, 2))) + 0.1
        C = rng.normal(size=(2, 6))
        model = FactorModel(W, C, np.zeros(5))
        dot = model_to_dot(model)
        widths = {}
        for line in dot.splitlines():
            if " -- " in line:
                left = line.split("--")[0].strip().lstrip("q")
                k = int(line.split("c")[1].split(" ")[0])
                width = float(line.split("penwidth=")[1].rstrip("];"))
                widths[(int(left), k)] = width
        scaled = W * np.linalg.norm(C, axis=1)[None, :]
        pairs = sorted(widths)
        for a in pairs:
            for b in pairs:
                if scaled[a] < scaled[b]:
                    assert widths[a] < widths[b] + 1e-9

    def test_graph_command_with_tags(self, sim_dir, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--method", "ml", "--data",
                     str(sim_dir / "synth_responses.csv"), "--out",
                     str(model_path), "--k", "2", "--lambda", "0.2"]) == 0
        tags_path = tmp_path / "tags.csv"
        tags_path.write_text("q1,algebra\nq2,geometry\nq3,algebra\n")
        out = tmp_path / "g.dot"
        assert main(["graph", "--model", str(model_path), "--tags",
                     str(tags_path), "--out", str(out)]) == 0
        assert "graph concept_map {" in out.read_text()


class TestEval:
    def test_truth_equals_estimate_gives_zero_errors(self, sim_dir, tmp_path):
        report_path = tmp_path / "r.json"
        rc = main(["eval", "--model", str(sim_dir / "synth_truth.json"),
                   "--truth", str(sim_dir / "synth_truth.json"),
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        for key in ("e_w", "e_c", "e_mu", "e_h"):
            assert report["metrics"][key] == 0.0

    def test_overlapping_holdout_rejected(self, sim_dir, tmp_path):
        rc = main(["eval", "--model", str(sim_dir / "synth_truth.json"),
                   "--holdout", str(sim_dir / "synth_responses.csv"),
                   "--train", str(sim_dir / "synth_responses.csv"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_holdout_scoring(self, tmp_path):
        truth, data = generate_synthetic(SynthConfig(Q=10, N=10, K=2, seed=15))
        rng = np.random.default_rng(16)
        holdout_mask = (rng.random((10, 10)) < 0.2) & data.mask
        train_mask = data.mask & ~holdout_mask
        write_response_csv(tmp_path / "train.csv",
                           ResponseMatrix(np.where(train_mask, data.entries, 0.0),
                                          train_mask))
        write_response_csv(tmp_path / "hold.csv",
                           ResponseMatrix(np.where(holdout_mask, data.entries, 0.0),
                                          holdout_mask))
        write_model_json(tmp_path / "m.json", truth)
        csv_path = tmp_path / "r.csv"
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--holdout", str(tmp_path / "hold.csv"),
                   "--train", str(tmp_path / "train.csv"),
                   "--out", str(tmp_path / "r.json"), "--csv", str(csv_path),
                   "--trial", "4", "--method-name", "truth"])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert 0.0 <= report["prediction"]["accuracy"] <= 1.0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,method,metric,value"
        assert any(line.startswith("4,truth,accuracy,") for line in lines)

    def test_tag_report_includes_per_learner_rows(self, sim_dir, tmp_path):
        tags_path = tmp_path / "tags.csv"
        tags_path.write_text("q1,algebra\nq2,geometry\nq3,algebra\nq4,geometry\n")
        rc = main(["eval", "--model", str(sim_dir / "synth_truth.json"),
                   "--tags", str(tags_path), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert set(report["tag_knowledge"]["tags"]) == {"algebra", "geometry"}
        assert len(report["tag_knowledge"]["per_learner"]) == 10
        assert len(report["tag_knowledge"]["class_average"]) == 2

    def test_nothing_to_evaluate(self, sim_dir, tmp_path):
        rc = main(["eval", "--model", str(sim_dir / "synth_truth.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1
