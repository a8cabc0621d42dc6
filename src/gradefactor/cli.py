"""Command-line front end.

Subcommands: simulate (draw a synthetic dataset), fit (estimate a model
with the ml / bayes / ksvd methods), graph (DOT rendering of the
question-concept map), eval (error metrics, held-out prediction, tag
reports).  Every command writes a .manifest.json run record next to its
outputs.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import bayes, evaluate, io_formats, ksvd, tags
from .links import LinkKind
from .mle import MLConfig, bic_select_lambda, fit_ml
from .model import FactorModel
from .synth import SynthConfig, generate_synthetic

USAGE_ERROR = 1
DATA_ERROR = 2


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_link(text):
    try:
        return LinkKind(text)
    except ValueError:
        raise DataError(f"unknown link {text!r}; use 'probit' or 'logit'")


def _positive_number(text, what="value"):
    """--lambda value and each --lambda-grid entry: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"bad {what} {text.strip()!r}: expected a positive number"
        )
    return value


def _lambda_grid(text):
    """--lambda-grid value: comma-separated positive numbers."""
    if not text.strip():
        raise argparse.ArgumentTypeError("the lambda grid is empty")
    return [_positive_number(item, "lambda grid entry") for item in text.split(",")]


def _positive_int(text):
    """Iteration, restart and thread counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"bad value {text.strip()!r}: expected a positive integer"
        )
    return value


def read_config_file(path):
    """Plain key=value configuration, '#' comments allowed."""
    options = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        options[key.strip().lower()] = value.strip()
    return options


def _synth_config_from_options(options):
    def need(key):
        if key not in options:
            raise DataError(f"config is missing required key {key!r}")
        return options[key]

    nnz_raw = options.get("nnz", "").split()
    try:
        if "nnz" not in options:
            nnz_mode = None  # the generator's default, uniform on {1..min(3, K)}
        elif nnz_raw[:1] == ["uniform"] and len(nnz_raw) == 3:
            nnz_mode = ("uniform", int(nnz_raw[1]), int(nnz_raw[2]))
        elif nnz_raw[:1] == ["bernoulli"] and len(nnz_raw) == 2:
            nnz_mode = ("bernoulli", float(nnz_raw[1]))
        else:
            raise ValueError
    except ValueError:
        raise DataError(f"bad nnz spec {options['nnz']!r}") from None
    try:
        return SynthConfig(
            Q=int(need("q")),
            N=int(need("n")),
            K=int(need("k")),
            nnz_mode=nnz_mode,
            lambda_k=float(options.get("lambda_k", 2.0 / 3.0)),
            v_mu=float(options.get("v_mu", 1.0)),
            p_obs=float(options.get("p_obs", 1.0)),
            link=_parse_link(options.get("link", "probit")),
            seed=int(options.get("seed", 0)),
        )
    except ValueError as exc:
        raise DataError(str(exc))


def cmd_simulate(args):
    started = time.perf_counter()
    config = _synth_config_from_options(read_config_file(args.config))
    truth, data = generate_synthetic(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    responses = out_dir / f"{args.prefix}_responses.csv"
    truth_path = out_dir / f"{args.prefix}_truth.json"
    mask_path = out_dir / f"{args.prefix}_mask.json"
    io_formats.write_response_csv(responses, data)
    io_formats.write_model_json(truth_path, truth)
    io_formats.write_mask_json(mask_path, data)
    io_formats.write_manifest(
        out_dir / f"{args.prefix}.manifest.json",
        "simulate",
        {"config": str(args.config), "prefix": args.prefix},
        config.seed,
        [args.config],
        [responses, truth_path, mask_path],
        time.perf_counter() - started,
    )
    print(f"wrote {responses}, {truth_path}, {mask_path}")
    return 0


def _load_data(path):
    try:
        return io_formats.read_response_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read responses: {exc}")
    except ValueError as exc:
        raise DataError(str(exc))


def _fit_ml(args, data):
    config = MLConfig(
        lambda_l1=args.lam if args.lam is not None else 0.1,
        gamma_c=args.gamma,
        mu_w=args.mu_w,
        inner_iters=args.inner_iters,
        max_outer=args.max_outer,
        outer_tol=args.outer_tol,
        restarts=args.restarts,
        seed=args.seed,
        link=_parse_link(args.link),
    )
    extras = {"method": "ml", "lambda_l1": config.lambda_l1}
    if args.lambda_grid is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            selection = bic_select_lambda(data, args.k, args.lambda_grid, config,
                                          n_threads=args.threads)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        model, trace = selection.model, selection.trace
        extras["lambda_l1"] = selection.lambda_l1
        extras["lambda_selection"] = selection.table
    else:
        model, trace = fit_ml(data, args.k, config, n_threads=args.threads)
    extras["trace"] = {
        "objectives": [float(v) for v in trace.objectives],
        "final_objective": trace.final_objective,
        "n_outer": trace.n_outer,
        "restart_index": trace.restart_index,
    }
    return model, extras


def _fit_bayes(args, data):
    hyper = bayes.SpikeSlabHyperparams()
    summary = bayes.run_gibbs(
        data,
        args.k,
        hyper,
        burn_in=args.burnin,
        n_samples=args.samples,
        rng=args.seed,
    )
    model = bayes.posterior_point_estimates(summary, args.threshold)
    extras = {
        "method": "bayes",
        "activity_threshold": args.threshold,
        "posterior": io_formats.posterior_to_dict(summary),
    }
    return model, extras


def _fit_ksvd(args, data):
    config = ksvd.KsvdConfig(
        n_concepts=args.k,
        row_sparsity=args.sparsity,
        max_iters=args.ksvd_iters,
        seed=args.seed,
    )
    W, C = ksvd.fit_ksvd(data, config)
    # the baseline has no difficulty term and ignores the link; the probit
    # tag is a placeholder so the model file stays self-describing
    model = FactorModel(W, C, np.zeros(data.Q), LinkKind.PROBIT)
    extras = {"method": "ksvd", "row_sparsity": args.sparsity}
    return model, extras


def cmd_fit(args):
    started = time.perf_counter()
    data, question_ids, learner_ids = _load_data(args.data)
    try:
        if args.method == "ml":
            model, extras = _fit_ml(args, data)
        elif args.method == "bayes":
            model, extras = _fit_bayes(args, data)
        else:
            model, extras = _fit_ksvd(args, data)
    except ValueError as exc:
        raise DataError(str(exc))
    extras["question_ids"] = question_ids
    extras["learner_ids"] = learner_ids
    out = Path(args.out)
    io_formats.write_model_json(out, model, extras)
    io_formats.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "fit",
        {"method": args.method, "data": str(args.data), "k": args.k},
        args.seed,
        [args.data],
        [out],
        time.perf_counter() - started,
    )
    print(f"wrote {out}")
    return 0


def cmd_graph(args):
    started = time.perf_counter()
    try:
        model, payload = io_formats.read_model_json(args.model)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot read model: {exc}")
    question_ids = payload.get("question_ids")
    concept_labels = None
    if args.tags:
        try:
            qids = question_ids or io_formats.default_question_ids(model.Q)
            tag_matrix = tags.read_tags_csv(args.tags, qids)
            A = tags.fit_tag_map(model.W, tag_matrix)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc))
        concept_labels = []
        for k in range(model.K):
            parts = [f"{name} ({share:.0%})" for name, share in
                     tags.top_tags(A, tag_matrix.names, k)]
            concept_labels.append("\\n".join([f"C{k + 1}", *parts]))
    dot = io_formats.model_to_dot(model, question_ids, concept_labels)
    out = Path(args.out)
    out.write_text(dot)
    inputs = [args.model] + ([args.tags] if args.tags else [])
    io_formats.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "graph",
        {"model": str(args.model), "tags": str(args.tags) if args.tags else None},
        None,
        inputs,
        [out],
        time.perf_counter() - started,
    )
    print(f"wrote {out}")
    return 0


def cmd_eval(args):
    started = time.perf_counter()
    try:
        model, payload = io_formats.read_model_json(args.model)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot read model: {exc}")
    report = {}
    csv_rows = []
    trial = args.trial
    method = args.method_name or payload.get("method", "model")

    if args.truth:
        try:
            truth, _ = io_formats.read_model_json(args.truth)
            metrics = evaluate.eval_metrics(truth, model)
        except (OSError, ValueError, KeyError) as exc:
            raise DataError(str(exc))
        report["metrics"] = {
            "e_w": metrics.e_w,
            "e_c": metrics.e_c,
            "e_mu": metrics.e_mu,
            "e_h": metrics.e_h,
            "permutation": list(metrics.permutation),
        }
        for name in ("e_w", "e_c", "e_mu", "e_h"):
            csv_rows.append((trial, method, name, report["metrics"][name]))

    if args.holdout:
        if not args.train:
            raise DataError("--holdout requires --train to check disjointness")
        holdout, _, _ = _load_data(args.holdout)
        train, _, _ = _load_data(args.train)
        if holdout.mask.shape != train.mask.shape:
            raise DataError("held-out and training matrices differ in shape")
        if (holdout.mask & train.mask).any():
            raise DataError("held-out entries overlap the training mask")
        try:
            accuracy, likelihood = evaluate.predict_heldout(model, holdout)
        except ValueError as exc:
            raise DataError(str(exc))
        report["prediction"] = {
            "accuracy": accuracy,
            "avg_likelihood": likelihood,
            "n_heldout": holdout.n_observed,
        }
        csv_rows.append((trial, method, "accuracy", accuracy))
        csv_rows.append((trial, method, "avg_likelihood", likelihood))

    if args.tags:
        qids = payload.get("question_ids") or io_formats.default_question_ids(model.Q)
        lids = payload.get("learner_ids") or io_formats.default_learner_ids(model.N)
        try:
            tag_matrix = tags.read_tags_csv(args.tags, qids)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc))
        A = tags.fit_tag_map(model.W, tag_matrix)
        U = tags.learner_tag_knowledge(A, model.C)
        report["concept_tags"] = {
            f"concept_{k + 1}": [[name, share] for name, share in
                                 tags.top_tags(A, tag_matrix.names, k)]
            for k in range(model.K)
        }
        report["tag_knowledge"] = {
            "tags": list(tag_matrix.names),
            "per_learner": {
                lids[j]: [float(U[m, j]) for m in range(tag_matrix.M)]
                for j in range(model.N)
            },
            "class_average": [float(v) for v in U.mean(axis=1)],
        }

    if not report:
        raise DataError("nothing to evaluate: pass --truth, --holdout or --tags")

    out = Path(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if args.csv:
        evaluate.write_benchmark_csv(args.csv, csv_rows)
    inputs = [p for p in (args.model, args.truth, args.holdout, args.train,
                          args.tags) if p]
    outputs = [out] + ([Path(args.csv)] if args.csv else [])
    io_formats.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "eval",
        {"model": str(args.model)},
        None,
        inputs,
        outputs,
        time.perf_counter() - started,
    )
    print(f"wrote {out}")
    return 0


def build_parser():
    parser = _Parser(prog="gradefactor",
                     description="sparse factor analysis of graded responses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--prefix", default="synth")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="estimate a factor model")
    p_fit.add_argument("--method", required=True, choices=["ml", "bayes", "ksvd"])
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--k", type=int, required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--link", default="probit")
    lam_choice = p_fit.add_mutually_exclusive_group()
    lam_choice.add_argument("--lambda", dest="lam", type=_positive_number,
                            default=None)
    lam_choice.add_argument("--lambda-grid", type=_lambda_grid, default=None,
                            help="comma-separated candidates scored by BIC")
    p_fit.add_argument("--gamma", type=float, default=0.1)
    p_fit.add_argument("--mu-w", type=float, default=1e-4)
    p_fit.add_argument("--inner-iters", type=_positive_int, default=10)
    p_fit.add_argument("--max-outer", type=_positive_int, default=500)
    p_fit.add_argument("--outer-tol", type=float, default=1e-6)
    p_fit.add_argument("--restarts", type=_positive_int, default=1)
    p_fit.add_argument("--threads", type=_positive_int, default=1)
    p_fit.add_argument("--burnin", type=int, default=1000)
    p_fit.add_argument("--samples", type=int, default=1000)
    p_fit.add_argument("--threshold", type=float, default=0.35,
                       help="activity threshold for the bayes point estimate")
    p_fit.add_argument("--sparsity", type=int, default=3,
                       help="per-question nonzero budget for ksvd")
    p_fit.add_argument("--ksvd-iters", type=int, default=20)
    p_fit.set_defaults(func=cmd_fit)

    p_graph = sub.add_parser("graph", help="emit a DOT concept map")
    p_graph.add_argument("--model", required=True)
    p_graph.add_argument("--tags", default=None)
    p_graph.add_argument("--out", required=True)
    p_graph.set_defaults(func=cmd_graph)

    p_eval = sub.add_parser("eval", help="score a fitted model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--truth", default=None)
    p_eval.add_argument("--holdout", default=None)
    p_eval.add_argument("--train", default=None)
    p_eval.add_argument("--tags", default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--csv", default=None)
    p_eval.add_argument("--trial", type=int, default=0)
    p_eval.add_argument("--method-name", default=None)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
