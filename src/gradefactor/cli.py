"""Command-line front end.

Subcommands: simulate (draw a synthetic dataset), fit (estimate a model
with the ml / bayes / ksvd methods), graph (DOT rendering of the
question-concept map), eval (error metrics, held-out prediction, tag
reports).  Every command writes a .manifest.json run record next to its
outputs.  Exit codes: 0 success, 1 usage error, 2 data error.

Each cmd_* returns (manifest path, options, seed, inputs, outputs), and
`main` writes the run record from it.  `main` is also the one place that
maps errors: a ValueError or OSError from a command is a data error, and
the readers name the file in its message.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import bayes, evaluate, io_formats, ksvd, tags
from .links import LinkKind
from .mle import MLConfig, bic_select_lambda, fit_ml
from .model import FactorModel, check_count, check_real
from .synth import SynthConfig, generate_synthetic

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_link(text):
    try:
        return LinkKind(text)
    except ValueError:
        raise ValueError(f"unknown link {text!r}; use 'probit' or 'logit'") from None


def _checked(parse, check, expected, what="value", **limits):
    """An argparse type: parse(text), held to check(what, value, **limits);
    any failure is a usage error that names the text and what was
    expected."""
    def convert(text):
        try:
            value = parse(text)
            check(what, value, **limits)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {what} {text.strip()!r}: expected {expected}") from None
        return value
    return convert


def _unit_interval(what, value):
    if not 0 <= value <= 1:
        raise ValueError(f"{what} must lie in [0, 1]")


# --lambda and --gamma
_positive_number = _checked(float, check_real, "a positive number", positive=True)
# --mu-w and --outer-tol
_non_negative_number = _checked(float, check_real, "a non-negative number")
# --threshold
_probability = _checked(float, _unit_interval, "a number in [0, 1]")
# concept, iteration, sample, restart and thread counts and the ksvd
# sparsity budget
_positive_int = _checked(int, check_count, "a positive integer")
# --seed, as numpy's generators require
_non_negative_int = _checked(int, check_count, "a non-negative integer", minimum=0)
# each --lambda-grid entry
_lambda_grid_entry = _checked(float, check_real, "a positive number",
                              what="lambda grid entry", positive=True)


def _lambda_grid(text):
    """--lambda-grid value: comma-separated positive numbers."""
    if not text.strip():
        raise argparse.ArgumentTypeError("the lambda grid is empty")
    return [_lambda_grid_entry(item) for item in text.split(",")]


def read_config_file(path):
    """Plain key=value configuration, '#' comments allowed."""
    options = {}
    for lineno, raw in enumerate(io_formats.read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        options[key.strip().lower()] = value.strip()
    return options


def _nnz_mode(text):
    """A simulate config's nnz spec: 'uniform lo hi' or 'bernoulli q'."""
    spec = text.split()
    try:
        if spec[:1] == ["uniform"] and len(spec) == 3:
            return ("uniform", int(spec[1]), int(spec[2]))
        if spec[:1] == ["bernoulli"] and len(spec) == 2:
            return ("bernoulli", float(spec[1]))
    except ValueError:
        pass
    raise ValueError(f"bad nnz spec {text!r}")


# the SynthConfig field of each simulate config key, and its parser
_SYNTH_KEYS = {"q": ("Q", int), "n": ("N", int), "k": ("K", int),
               "nnz": ("nnz_mode", _nnz_mode), "lambda_k": ("lambda_k", float),
               "v_mu": ("v_mu", float), "p_obs": ("p_obs", float),
               "link": ("link", _parse_link), "seed": ("seed", int)}


def _synth_config_from_options(path, options):
    """SynthConfig from the options read from path; q, n and k are
    required, any other key left out takes SynthConfig's default, and a
    key SynthConfig does not have is an error."""
    unknown = sorted(options.keys() - _SYNTH_KEYS.keys())
    if unknown:
        raise ValueError(f"{path}: not a simulate config key: "
                         f"{', '.join(map(repr, unknown))} (the keys are "
                         f"{', '.join(_SYNTH_KEYS)})")
    fields = {}
    for key, (field, parse) in _SYNTH_KEYS.items():
        if key not in options:
            if field in ("Q", "N", "K"):
                raise ValueError(f"{path}: config is missing required key {key!r}")
            continue
        try:
            fields[field] = parse(options[key])
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return SynthConfig(**fields)


def _manifest_path(out):
    return out.with_suffix(out.suffix + ".manifest.json")


def cmd_simulate(args):
    config = _synth_config_from_options(args.config, read_config_file(args.config))
    truth, data = generate_synthetic(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    responses = out_dir / f"{args.prefix}_responses.csv"
    truth_path = out_dir / f"{args.prefix}_truth.json"
    mask_path = out_dir / f"{args.prefix}_mask.json"
    io_formats.write_response_csv(responses, data)
    io_formats.write_model_json(truth_path, truth)
    io_formats.write_mask_json(mask_path, data)
    return (out_dir / f"{args.prefix}.manifest.json",
            {"config": str(args.config), "prefix": args.prefix}, config.seed,
            [args.config], [responses, truth_path, mask_path])


# the fit options each method reads, by flag, with the name of the library
# parameter each one sets, which is also its argparse dest; --k, --seed,
# --data and --out are read by every method.  These options are None unless
# given, so main can refuse one the method does not read.
_METHOD_OPTIONS = {
    "ml": {"--link": "link", "--lambda": "lambda_l1", "--gamma": "gamma_c",
           "--mu-w": "mu_w", "--inner-iters": "inner_iters",
           "--max-outer": "max_outer", "--outer-tol": "outer_tol",
           "--restarts": "restarts", "--lambda-grid": "lambda_grid",
           "--threads": "n_threads"},
    "bayes": {"--burnin": "burn_in", "--samples": "n_samples",
              "--threshold": "activity_threshold"},
    "ksvd": {"--sparsity": "row_sparsity", "--ksvd-iters": "max_iters"},
}
# the defaults the library does not state: MLConfig has no default weight,
# run_gibbs defaults to the 30k-sweep protocol, and the point estimate and
# KsvdConfig have no default threshold or budget; every other option left
# out takes the library's default
_FIT_DEFAULTS = {"lambda_l1": 0.1, "burn_in": 1000, "n_samples": 1000,
                 "activity_threshold": 0.35, "row_sparsity": 3}


def _given(args, method):
    """{dest: value} of the options of method that are not None."""
    dests = _METHOD_OPTIONS[method].values()
    return {dest: getattr(args, dest) for dest in dests
            if getattr(args, dest) is not None}


def _fit_ml(args, data):
    options = _given(args, "ml")
    lambda_grid = options.pop("lambda_grid", None)
    threads = {"n_threads": options.pop("n_threads")} if "n_threads" in options else {}
    if "link" in options:
        options["link"] = LinkKind(options["link"])
    config = MLConfig(seed=args.seed, **options)
    extras = {"method": "ml", "lambda_l1": config.lambda_l1}
    if lambda_grid is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            selection = bic_select_lambda(data, args.k, lambda_grid, config, **threads)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        model, extras["trace"] = selection.model, selection.trace
        extras["lambda_l1"] = selection.lambda_l1
        extras["lambda_selection"] = selection.table
    else:
        model, extras["trace"] = fit_ml(data, args.k, config, **threads)
    return model, extras


def _fit_bayes(args, data):
    summary = bayes.run_gibbs(data, args.k, burn_in=args.burn_in,
                              n_samples=args.n_samples, rng=args.seed)
    model = bayes.posterior_point_estimates(summary, args.activity_threshold)
    extras = {"method": "bayes", "activity_threshold": args.activity_threshold,
              "posterior": summary}
    return model, extras


def _fit_ksvd(args, data):
    config = ksvd.KsvdConfig(n_concepts=args.k, seed=args.seed, **_given(args, "ksvd"))
    W, C = ksvd.fit_ksvd(data, config)
    # the baseline has no difficulty term and ignores the link; the probit
    # tag is a placeholder so the model file stays self-describing
    model = FactorModel(W, C, np.zeros(data.Q), LinkKind.PROBIT)
    extras = {"method": "ksvd", "row_sparsity": args.row_sparsity}
    return model, extras


def cmd_fit(args):
    data, question_ids, learner_ids = io_formats.read_response_csv(args.data)
    fit = {"ml": _fit_ml, "bayes": _fit_bayes, "ksvd": _fit_ksvd}[args.method]
    model, extras = fit(args, data)
    extras.update(question_ids=question_ids, learner_ids=learner_ids)
    out = Path(args.out)
    io_formats.write_model_json(out, model, extras)
    return (_manifest_path(out),
            {"method": args.method, "data": str(args.data), "k": args.k},
            args.seed, [args.data], [out])


def cmd_graph(args):
    model, payload = io_formats.read_model_json(args.model)
    question_ids = payload.get("question_ids")
    concept_labels = None
    if args.tags:
        qids = question_ids or io_formats.default_question_ids(model.Q)
        tag_matrix = tags.read_tags_csv(args.tags, qids)
        A = tags.fit_tag_map(model.W, tag_matrix)
        concept_labels = []
        for k in range(model.K):
            parts = [f"{name} ({share:.0%})" for name, share in
                     tags.top_tags(A, tag_matrix.names, k)]
            concept_labels.append("\\n".join([f"C{k + 1}", *parts]))
    dot = io_formats.model_to_dot(model, question_ids, concept_labels)
    out = Path(args.out)
    out.write_text(dot)
    inputs = [args.model] + ([args.tags] if args.tags else [])
    return (_manifest_path(out),
            {"model": str(args.model), "tags": str(args.tags) if args.tags else None},
            None, inputs, [out])


def cmd_eval(args):
    model, payload = io_formats.read_model_json(args.model)
    report = {}
    csv_rows = []
    trial = args.trial
    method = args.method_name or payload.get("method", "model")

    if args.truth:
        truth, _ = io_formats.read_model_json(args.truth)
        metrics = report["metrics"] = evaluate.eval_metrics(truth, model)
        for name in ("e_w", "e_c", "e_mu", "e_h"):
            csv_rows.append((trial, method, name, getattr(metrics, name)))

    if args.holdout:
        holdout, _, _ = io_formats.read_response_csv(args.holdout)
        train, _, _ = io_formats.read_response_csv(args.train)
        if holdout.mask.shape != train.mask.shape:
            raise ValueError("held-out and training matrices differ in shape")
        if (holdout.mask & train.mask).any():
            raise ValueError("held-out entries overlap the training mask")
        accuracy, likelihood = evaluate.predict_heldout(model, holdout)
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
        tag_matrix = tags.read_tags_csv(args.tags, qids)
        A = tags.fit_tag_map(model.W, tag_matrix)
        U = tags.learner_tag_knowledge(A, model.C)
        report["concept_tags"] = {f"concept_{k + 1}": tags.top_tags(A, tag_matrix.names, k)
                                  for k in range(model.K)}
        report["tag_knowledge"] = {"tags": tag_matrix.names,
                                   "per_learner": dict(zip(lids, U.T)),
                                   "class_average": U.mean(axis=1)}

    if not report:
        raise ValueError("nothing to evaluate: pass --truth, --holdout or --tags")

    out = Path(args.out)
    io_formats.write_json(out, report)
    if args.csv:
        evaluate.write_benchmark_csv(args.csv, csv_rows)
    inputs = [p for p in (args.model, args.truth, args.holdout, args.train,
                          args.tags) if p]
    outputs = [out] + ([Path(args.csv)] if args.csv else [])
    return _manifest_path(out), {"model": str(args.model)}, None, inputs, outputs


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
    p_fit.add_argument("--k", type=_positive_int, required=True)
    p_fit.add_argument("--seed", type=_non_negative_int, default=0)
    dest = {flag: d for options in _METHOD_OPTIONS.values()
            for flag, d in options.items()}
    p_fit.add_argument("--link", dest=dest["--link"],
                       choices=[kind.value for kind in LinkKind])
    lam_choice = p_fit.add_mutually_exclusive_group()
    lam_choice.add_argument("--lambda", dest=dest["--lambda"], type=_positive_number)
    lam_choice.add_argument("--lambda-grid", dest=dest["--lambda-grid"],
                            type=_lambda_grid,
                            help="comma-separated candidates scored by BIC")
    for flag, kind in (("--gamma", _positive_number), ("--mu-w", _non_negative_number),
                       ("--inner-iters", _positive_int), ("--max-outer", _positive_int),
                       ("--outer-tol", _non_negative_number),
                       ("--restarts", _positive_int), ("--threads", _positive_int),
                       ("--burnin", _positive_int), ("--samples", _positive_int),
                       ("--ksvd-iters", _positive_int)):
        p_fit.add_argument(flag, dest=dest[flag], type=kind)
    p_fit.add_argument("--threshold", dest=dest["--threshold"], type=_probability,
                       help="activity threshold for the bayes point estimate")
    p_fit.add_argument("--sparsity", dest=dest["--sparsity"], type=_positive_int,
                       help="per-question nonzero budget for ksvd")
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
        if args.command == "fit":
            unread = [flag for method, options in _METHOD_OPTIONS.items()
                      if method != args.method for flag, dest in options.items()
                      if getattr(args, dest) is not None]
            if unread:
                parser.error(f"--method {args.method} does not read "
                             f"{', '.join(unread)}")
            for dest, value in _FIT_DEFAULTS.items():
                if getattr(args, dest) is None:
                    setattr(args, dest, value)
            if args.method == "ksvd" and args.row_sparsity > args.k:
                parser.error(f"--sparsity {args.row_sparsity} exceeds --k {args.k}: "
                             "a question cannot use more concepts than the model has")
        if args.command == "eval" and args.holdout and not args.train:
            parser.error("--holdout requires --train to check disjointness")
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    started = time.perf_counter()
    try:
        manifest, options, seed, inputs, outputs = args.func(args)
        io_formats.write_manifest(manifest, args.command, options, seed, inputs,
                                  outputs, time.perf_counter() - started)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    print(f"wrote {', '.join(map(str, outputs))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
