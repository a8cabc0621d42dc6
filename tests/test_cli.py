"""End-to-end command checks: file formats, determinism, exit codes."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from gradefactor import cli
from gradefactor.bayes import PosteriorSummary
from gradefactor.cli import main
from gradefactor.evaluate import EvalReport
from gradefactor.io_formats import (
    model_to_dot,
    read_model_json,
    read_response_csv,
    write_model_json,
    write_response_csv,
)
from gradefactor.mle import FitTrace, MLConfig
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

    def test_negative_seed_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q = 5\nn = 5\nk = 2\nseed = -1\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer\n"

    def test_undecodable_config_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"q = 5\nn = 5\nk = 2\n# \xff\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("line,message", [
        ("q = abc", "q: invalid literal for int() with base 10: 'abc'"),
        ("seed = 1.5", "seed: invalid literal for int() with base 10: '1.5'"),
        ("p_obs = x", "p_obs: could not convert string to float: 'x'"),
        ("link = cauchy", "link: unknown link 'cauchy'; use 'probit' or 'logit'"),
    ])
    def test_non_numeric_value_data_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"q = 5\nn = 5\nk = 2\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("lines,message", [
        ("p_ob = 0.5", "not a simulate config key: 'p_ob'"),
        ("burnin = 5\nP_OBS = 0.5\nseeds = 2",
         "not a simulate config key: 'burnin', 'seeds'"),
    ])
    def test_unknown_key_data_error(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"q = 5\nn = 5\nk = 2\n{lines}\n")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: {message} (the keys are q, n, k, nnz, lambda_k, v_mu, "
            "p_obs, link, seed)\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["q", "n", "k"])
    def test_missing_required_key_names_file(self, tmp_path, capsys, key):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("".join(f"{k} = 5\n" for k in "qnk" if k != key))
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config is missing required key {key!r}\n")

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

    @pytest.mark.parametrize("content,message", [
        (b"question_id,l1\n" + b"q" * 131073 + b",1\n",
         ":2: field larger than field limit (131072)"),
        (b"question_id,l1\nq1,\xff\n",
         ": 'utf-8' codec can't decode byte 0xff in position 18"),
    ])
    def test_unreadable_csv_data_error(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        rc = main(["fit", "--method", "ml", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"), "--k", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}{message}")

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

        grids, fitted = [], []

        def counting(data, K, config, lambdas, n_threads, _real=mle._fit_grid):
            grids.append(list(lambdas))
            return _real(data, K, config, lambdas, n_threads)

        def stacking(data, K, config, members, _real=mle._run_stack):
            fitted.extend(lam for lam, _ in members)
            return _real(data, K, config, members)

        monkeypatch.setattr(mle, "_fit_grid", counting)
        monkeypatch.setattr(mle, "_run_stack", stacking)
        monkeypatch.setattr(cli, "fit_ml", None)  # the grid never fits one lambda
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"),
                   "--out", str(tmp_path / "m.json"), "--k", "2",
                   "--lambda-grid", "0.1,0.4,0.4", "--max-outer", "10"])
        assert rc == 0
        # each distinct value reaches the runner once, one member per restart
        assert grids == [[0.1, 0.4]]
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
        (["--k", "0"], "expected a positive integer"),
        (["--gamma", "0"], "expected a positive number"),
        (["--gamma", "nan"], "expected a positive number"),
        (["--mu-w", "-1"], "expected a non-negative number"),
        (["--outer-tol", "-1"], "expected a non-negative number"),
        (["--outer-tol", "inf"], "expected a non-negative number"),
        # a later --method overrides the test's --method ml
        (["--method", "bayes", "--samples", "0"], "expected a positive integer"),
        (["--method", "bayes", "--burnin", "0"], "expected a positive integer"),
        (["--method", "bayes", "--threshold", "2"], "expected a number in [0, 1]"),
        (["--method", "bayes", "--threshold", "nan"], "expected a number in [0, 1]"),
        (["--method", "ksvd", "--ksvd-iters", "0"], "expected a positive integer"),
        (["--method", "ksvd", "--sparsity", "0"], "expected a positive integer"),
        (["--link", "foo"], "invalid choice: 'foo'"),
        (["--seed", "-1"], "expected a non-negative integer"),
        (["--method", "bayes", "--seed", "-1"], "expected a non-negative integer"),
        (["--method", "ksvd", "--sparsity", "1", "--seed", "-1"],
         "expected a non-negative integer"),
        # the test's --k is 2, below the default --sparsity 3
        (["--method", "ksvd"], "--sparsity 3 exceeds --k 2"),
        (["--method", "ksvd", "--sparsity", "4"], "--sparsity 4 exceeds --k 2"),
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

    @pytest.mark.parametrize("method,option,unread", [
        ("bayes", ["--link", "logit", "--lambda", "5", "--threads", "2", "--gamma", "3"],
         "--link, --lambda, --gamma, --threads"),
        ("ksvd", ["--link", "logit", "--burnin", "7", "--restarts", "4"],
         "--link, --restarts, --burnin"),
        ("ml", ["--burnin", "7", "--sparsity", "1", "--threshold", "0.5"],
         "--burnin, --threshold, --sparsity"),
        ("ml", ["--ksvd-iters", "5"], "--ksvd-iters"),
        ("bayes", ["--link", "probit", "--lambda-grid", "1,2"], "--link, --lambda-grid"),
        ("ksvd", ["--samples", "5", "--mu-w", "0", "--inner-iters", "2",
                  "--max-outer", "3", "--outer-tol", "0"],
         "--mu-w, --inner-iters, --max-outer, --outer-tol, --samples"),
    ])
    def test_unread_option_usage_error(self, sim_dir, tmp_path, capsys, method, option,
                                       unread):
        out = tmp_path / "m.json"
        rc = main(["fit", "--method", method, "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", *option])
        assert rc == 1
        assert f"error: --method {method} does not read {unread}\n" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_ml_defaults_are_the_library_defaults(self, sim_dir, tmp_path,
                                                  monkeypatch):
        calls = []

        def recording(data, K, config, **kwargs):
            calls.append((config, kwargs))
            return FactorModel(np.zeros((data.Q, K)), np.zeros((K, data.N)),
                               np.zeros(data.Q)), FitTrace(np.zeros(1), 0.0, 0, 0)

        monkeypatch.setattr(cli, "fit_ml", recording)
        assert main(["fit", "--method", "ml", "--data",
                     str(sim_dir / "synth_responses.csv"),
                     "--out", str(tmp_path / "m.json"), "--k", "2"]) == 0
        assert calls == [(MLConfig(lambda_l1=0.1), {})]

    @pytest.mark.parametrize("option", [
        ["--mu-w", "0", "--outer-tol", "0", "--max-outer", "3"],
        ["--method", "bayes", "--burnin", "1", "--samples", "1", "--threshold", "0"],
        ["--method", "bayes", "--burnin", "1", "--samples", "1", "--threshold", "1"],
    ])
    def test_range_bounds_accepted(self, sim_dir, tmp_path, option):
        out = tmp_path / "m.json"
        rc = main(["fit", "--method", "ml", "--data",
                   str(sim_dir / "synth_responses.csv"), "--out", str(out),
                   "--k", "2", *option])
        assert rc == 0 and out.exists()

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

    @pytest.mark.parametrize("command", ["graph", "eval"])
    @pytest.mark.parametrize("edit", [
        {"W": 5}, {"Q": "3"}, {"Q": 10**12}, {"link": "cauchy"},
        {"question_ids": ["q1"]}, {"Q": None}, "{", "[" * 100000,
    ], ids=["W-int", "Q-str", "Q-huge", "unknown-link", "short-ids", "no-Q",
            "not-JSON", "deep-JSON"])
    def test_malformed_model_data_error(self, tmp_path, capsys, command, edit):
        """A dict edit updates the payload (None drops the key); a string
        replaces the whole file."""
        path = tmp_path / "m.json"
        self.write_model(path, [0, 0, 0.5])
        if isinstance(edit, dict):
            payload = {**json.loads(path.read_text()), **edit}
            edit = json.dumps({k: v for k, v in payload.items() if v is not None})
        path.write_text(edit)
        rc = main([command, "--model", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


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

    def test_holdout_without_train_usage_error(self, tmp_path, capsys):
        # exit 1 before any file is read: the model does not exist
        rc = main(["eval", "--model", str(tmp_path / "none.json"),
                   "--holdout", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "--holdout requires --train" in capsys.readouterr().err

    def test_nothing_to_evaluate(self, sim_dir, tmp_path):
        rc = main(["eval", "--model", str(sim_dir / "synth_truth.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2


def field_names(record_type):
    return {field.name for field in dataclasses.fields(record_type)}


class TestArtifactsMatchRecords:
    """The JSON artifacts hold exactly the fields of the library's records,
    and the keys the benchmark workloads read."""

    def test_ml_trace(self, sim_dir, tmp_path):
        out = tmp_path / "ml.json"
        assert main(["fit", "--method", "ml", "--data",
                     str(sim_dir / "synth_responses.csv"), "--out", str(out),
                     "--k", "2", "--lambda-grid", "0.1,0.4", "--max-outer", "5"]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["trace"]) == field_names(FitTrace)
        assert payload["lambda_l1"] in (0.1, 0.4)
        trace = payload["trace"]
        assert len(trace["objectives"]) == trace["n_outer"] + 1
        assert trace["final_objective"] == trace["objectives"][-1]

    def test_bayes_posterior(self, sim_dir, tmp_path):
        out = tmp_path / "bayes.json"
        assert main(["fit", "--method", "bayes", "--data",
                     str(sim_dir / "synth_responses.csv"), "--out", str(out),
                     "--k", "2", "--burnin", "3", "--samples", "4"]) == 0
        posterior = json.loads(out.read_text())["posterior"]
        assert set(posterior) == field_names(PosteriorSummary)
        assert (posterior["burn_in"], posterior["n_samples"]) == (3, 4)
        assert np.shape(posterior["w_mean"]) == (12, 2)

    def test_eval_metrics(self, sim_dir, tmp_path):
        truth = sim_dir / "synth_truth.json"
        _, data = generate_synthetic(SynthConfig(Q=12, N=10, K=2, seed=3))
        hold = ResponseMatrix(data.entries, data.mask)
        write_response_csv(tmp_path / "hold.csv", hold)
        write_response_csv(tmp_path / "train.csv",
                           ResponseMatrix(np.zeros((12, 10)), np.zeros((12, 10), bool)))
        out = tmp_path / "r.json"
        assert main(["eval", "--model", str(truth), "--truth", str(truth),
                     "--holdout", str(tmp_path / "hold.csv"),
                     "--train", str(tmp_path / "train.csv"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["metrics"]) == field_names(EvalReport)
        assert report["metrics"]["permutation"] == [0, 1]
        assert 0 < report["prediction"]["avg_likelihood"] <= 1


@pytest.mark.parametrize("command", ["graph", "eval"])
@pytest.mark.parametrize("content,message", [
    (b"q1," + b"t" * 131073 + b"\n", ":1: field larger than field limit (131072)"),
    (b"q1,\xff\n", ": 'utf-8' codec can't decode byte 0xff in position 3"),
], ids=["oversized-field", "non-utf8"])
def test_unreadable_tags_data_error(sim_dir, tmp_path, capsys, command, content,
                                    message):
    bad = tmp_path / "tags.csv"
    bad.write_bytes(content)
    rc = main([command, "--model", str(sim_dir / "synth_truth.json"),
               "--tags", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}{message}")


@pytest.mark.parametrize("command", ["simulate", "fit", "graph", "eval"])
def test_run_record(sim_dir, tmp_path, capsys, command):
    """A run writes its manifest next to its outputs and names every output
    once on stdout; a run that exits 2 writes no manifest."""
    cfg, responses = tmp_path / "sim.cfg", sim_dir / "synth_responses.csv"
    truth, tags_path = sim_dir / "synth_truth.json", tmp_path / "tags.csv"
    tags_path.write_text("q1,algebra\nq2,geometry\n")
    new = tmp_path / "new"
    argv, seed, inputs, outputs, manifest = {
        "simulate": (["--config", cfg, "--out-dir", new], 11, [cfg],
                     [new / "synth_responses.csv", new / "synth_truth.json",
                      new / "synth_mask.json"], new / "synth.manifest.json"),
        "fit": (["--method", "ksvd", "--data", responses, "--out", new / "m.json",
                 "--k", "2", "--sparsity", "1", "--seed", "5"], 5, [responses],
                [new / "m.json"], new / "m.json.manifest.json"),
        "graph": (["--model", truth, "--tags", tags_path, "--out", new / "g.dot"],
                  None, [truth, tags_path], [new / "g.dot"],
                  new / "g.dot.manifest.json"),
        "eval": (["--model", truth, "--tags", tags_path, "--out", new / "r.json",
                  "--csv", new / "r.csv"], None, [truth, tags_path],
                 [new / "r.json", new / "r.csv"], new / "r.json.manifest.json"),
    }[command]
    new.mkdir()
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    assert main([command, *(str(bad if a == inputs[0] else a) for a in argv)]) == 2
    assert not manifest.exists()
    capsys.readouterr()

    assert main([command, *map(str, argv)]) == 0
    assert capsys.readouterr().out == f"wrote {', '.join(map(str, outputs))}\n"
    record = json.loads(manifest.read_text())
    assert record["command"] == command
    assert record["seed"] == seed
    assert record["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
    assert record["outputs"] == [str(p) for p in outputs]
    assert all(p.exists() for p in outputs) and record["elapsed_s"] >= 0


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1
