"""The benchmark's workloads.

`prepare(seed, workdir)` draws a workload's `n_instances` synthetic
instances from the workload seed and writes them to files; the runner
calls it in a child process, so input generation is neither timed nor
counted in the run's peak memory.  `setup(b)` gets instance b into the
program (timed as setup_s).  One operation, `run_op`, runs every
instance through the public entry points (`fit_ml`, `run_gibbs` or
`cli.main`), so every operation does the same work and
instance-to-instance differences average out inside it.  `check` lists
the output checks an operation failed; `quality` gives its fit-quality
metrics, the median over the instances.

Package functions are looked up on their module at call time
(`gf.fit_ml`, `gf.cli.main`), so the tracer's wrappers see them.

    python3 benchmarks/workloads.py <workload> <seed> <workdir>

runs `prepare` (with ./src on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import gradefactor as gf
import gradefactor.cli
import gradefactor.io_formats
import gradefactor.links
import gradefactor.mle

K = 5
LAMBDA = 12.0


def instance_seed(seed, b):
    return 100 * seed + b


def objective_failures(objectives, W):
    """ml output checks: non-increasing objective trace, finite W >= 0."""
    fails = []
    objs = np.asarray(objectives, dtype=float)
    rises = np.diff(objs) > 1e-9 * np.maximum(1.0, np.abs(objs[:-1]))
    if rises.any():
        fails.append(f"objective rose at outer iteration {int(np.argmax(rises)) + 1}")
    if not np.isfinite(W).all():
        fails.append("W is not finite")
    if (np.asarray(W) < 0).any():
        fails.append("W has negative entries")
    return fails


def truth_objective(truth, data, config):
    return gf.mle.objective_value(np.column_stack([truth.W, truth.mu]), truth.C, data, config)


def median_quality(per_instance):
    # a median, so one badly mixed chain or unlucky start does not set it
    return {key: float(np.median([q[key] for q in per_instance])) for key in per_instance[0]}


class _LibraryWorkload:
    """Synthetic instances written to response CSVs, fitted in-process."""

    Q = N = n_instances = 0
    p_obs = 1.0
    per_iteration = True

    @classmethod
    def prepare(cls, seed, workdir: Path):
        for b in range(cls.n_instances):
            truth, data = gf.generate_synthetic(gf.SynthConfig(
                Q=cls.Q, N=cls.N, K=K, p_obs=cls.p_obs, seed=instance_seed(seed, b)))
            gf.io_formats.write_response_csv(workdir / f"responses-{b}.csv", data)
            gf.io_formats.write_model_json(workdir / f"truth-{b}.json", truth)

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.paths = [workdir / f"responses-{b}.csv" for b in range(self.n_instances)]
        self.data = [None] * self.n_instances

    def setup(self, b):
        self.data[b], _, _ = gf.io_formats.read_response_csv(self.paths[b])

    def after_setup(self):
        pass

    @property
    def n_observed(self):
        """Mean observed count over the instances (each gets the same calls)."""
        return float(np.mean([d.n_observed for d in self.data]))

    def run_op(self):
        return [self.fit(b) for b in range(self.n_instances)]

    def truth(self, b):
        return gf.io_formats.read_model_json(self.workdir / f"truth-{b}.json")[0]

    def _scores(self, b, truth, model):
        report = gf.eval_metrics(truth, model)
        # held-out responses: an independent draw of every cell from the truth
        probs = gf.links.inv_link(gf.slack(truth), truth.link)
        draw = np.random.default_rng([self.seed, b]).random(probs.shape) < probs
        _, heldout_ll = gf.predict_heldout(model, gf.ResponseMatrix(draw.astype(float)))
        return {"e_w": report.e_w, "e_c": report.e_c, "e_mu": report.e_mu,
                "heldout_ll": heldout_ll}


class _MLWorkload(_LibraryWorkload):
    """fit_ml for a fixed number of outer iterations per instance."""

    outer_iters = 0

    def config(self, b):
        return gf.MLConfig(lambda_l1=LAMBDA, max_outer=self.outer_iters, outer_tol=0.0,
                           seed=instance_seed(self.seed, b))

    def fit(self, b):
        model, trace = gf.fit_ml(self.data[b], K, self.config(b))
        return {"model": model, "trace": trace, "n_iter": trace.n_outer}

    def check(self, outs):
        return [f for out in outs
                for f in objective_failures(out["trace"].objectives, out["model"].W)]

    def quality(self, outs):
        per_instance = []
        for b, out in enumerate(outs):
            truth = self.truth(b)
            final = out["trace"].final_objective
            per_instance.append({
                "obj_ratio": final / truth_objective(truth, self.data[b], self.config(b)),
                "final_obj": final, **self._scores(b, truth, out["model"])})
        return median_quality(per_instance)


class MLFull(_MLWorkload):
    """Dense probit fits: every cell observed."""

    Q, N, p_obs = 200, 300, 1.0
    n_instances, outer_iters = 4, 10


class MLSparse(_MLWorkload):
    """Large, 10% observed: the cost of one outer iteration."""

    Q, N, p_obs = 1000, 2000, 0.1
    n_instances, outer_iters = 3, 1


class Gibbs(_LibraryWorkload):
    """Spike-slab sampler, partially observed so the batched Cholesky runs."""

    Q, N, p_obs = 100, 100, 0.8
    n_instances = 4
    burn_in = n_samples = 150

    def fit(self, b):
        summary = gf.run_gibbs(self.data[b], K, burn_in=self.burn_in,
                               n_samples=self.n_samples, rng=instance_seed(self.seed, b))
        return {"summary": summary, "n_iter": self.burn_in + self.n_samples}

    def check(self, outs):
        fails = []
        for out in outs:
            s = out["summary"]
            if ((s.activity < 0) | (s.activity > 1)).any():
                fails.append("activity outside [0, 1]")
            if (s.w_mean < 0).any():
                fails.append("posterior mean W has negative entries")
            factors = (s.w_mean, s.w_var, s.c_mean, s.c_var, s.mu_mean, s.mu_var)
            if not all(np.isfinite(f).all() for f in factors):
                fails.append("a posterior factor is not finite")
        return fails

    def quality(self, outs):
        per_instance = []
        for b, out in enumerate(outs):
            truth = self.truth(b)
            model = gf.posterior_point_estimates(out["summary"], activity_threshold=0.35)
            # the sampler has no objective: compare negative log-likelihoods
            nll = -gf.log_likelihood(model, self.data[b])
            per_instance.append({
                "obj_ratio": nll / -gf.log_likelihood(truth, self.data[b]),
                "final_obj": nll, **self._scores(b, truth, model)})
        return median_quality(per_instance)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CliPipeline:
    """The README pipeline, run in process through gradefactor.cli.main."""

    Q, N, p_obs = 34, 99, 0.9
    n_instances = 5
    outer_iters = 25
    per_iteration = False
    artifacts = ("ml.json", "ksvd.json", "report.json", "graph.dot")

    @classmethod
    def prepare(cls, seed, workdir: Path):
        for b in range(cls.n_instances):
            d = workdir / f"instance-{b}"
            d.mkdir()
            (d / "sim.cfg").write_text(
                f"q = {cls.Q}\nn = {cls.N}\nk = {K}\np_obs = {cls.p_obs}\n"
                f"link = logit\nseed = {instance_seed(seed, b)}\n")

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dirs = [workdir / f"instance-{b}" for b in range(self.n_instances)]
        self.n_ops = 0
        self.first_digests = None

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = gf.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"gradefactor {argv[0]} exited with code {code}")

    def setup(self, b):
        d = self.dirs[b]
        self._cli("simulate", "--config", d / "sim.cfg", "--out-dir", d / "sim")

    def after_setup(self):
        """Hold out 10% of each instance's observed entries; write tag CSVs."""
        self.train, self.truths = [], []
        for b, d in enumerate(self.dirs):
            data, qids, lids = gf.io_formats.read_response_csv(
                d / "sim" / "synth_responses.csv")
            rng = np.random.default_rng([self.seed, b])
            held = data.mask & (rng.random(data.mask.shape) < 0.1)
            train = gf.ResponseMatrix(data.entries, data.mask & ~held)
            gf.io_formats.write_response_csv(d / "train.csv", train, qids, lids)
            gf.io_formats.write_response_csv(
                d / "holdout.csv", gf.ResponseMatrix(data.entries, held), qids, lids)
            self.train.append(train)
            truth, _ = gf.io_formats.read_model_json(d / "sim" / "synth_truth.json")
            self.truths.append(truth)
            # true tags: the concepts in the support of the true W; each
            # question also carries each of three distractor tags w.p. 0.15
            with open(d / "tags.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                for i, qid in enumerate(qids):
                    for k in np.flatnonzero(truth.W[i] > 0):
                        writer.writerow([qid, f"skill-{k + 1}"])
                    for t in np.flatnonzero(rng.random(3) < 0.15):
                        writer.writerow([qid, f"distractor-{t + 1}"])

    @property
    def n_observed(self):
        return float(np.mean([t.n_observed for t in self.train]))

    def run_op(self):
        outs = []
        for b, d in enumerate(self.dirs):
            out = d / f"op{self.n_ops}"
            out.mkdir()
            self._cli("fit", "--method", "ml", "--data", d / "train.csv",
                      "--out", out / "ml.json", "--k", K, "--link", "logit",
                      "--lambda-grid", "2,4,8,12", "--restarts", 2, "--threads", 2,
                      "--max-outer", self.outer_iters, "--outer-tol", 0,
                      "--seed", instance_seed(self.seed, b))
            self._cli("fit", "--method", "ksvd", "--data", d / "train.csv",
                      "--out", out / "ksvd.json", "--k", K,
                      "--seed", instance_seed(self.seed, b))
            self._cli("eval", "--model", out / "ml.json",
                      "--truth", d / "sim" / "synth_truth.json",
                      "--holdout", d / "holdout.csv", "--train", d / "train.csv",
                      "--tags", d / "tags.csv", "--out", out / "report.json")
            self._cli("graph", "--model", out / "ml.json", "--tags", d / "tags.csv",
                      "--out", out / "graph.dot")
            model = json.loads((out / "ml.json").read_text())
            outs.append({"dir": out, "model": model, "n_iter": model["trace"]["n_outer"]})
        self.n_ops += 1
        return outs

    def check(self, outs):
        fails = []
        digests = [{name: _sha256(out["dir"] / name) for name in self.artifacts}
                   for out in outs]
        if self.first_digests is None:
            self.first_digests = digests
        for b, (now, first) in enumerate(zip(digests, self.first_digests)):
            fails += [f"instance {b}: {name} differs from the first operation"
                      for name in self.artifacts if now[name] != first[name]]
        for out in outs:
            model = out["model"]
            fails += objective_failures(model["trace"]["objectives"],
                                        [v for _, _, v in model["W"]] or [0.0])
        return fails

    def quality(self, outs):
        per_instance = []
        for b, out in enumerate(outs):
            report = json.loads((out["dir"] / "report.json").read_text())
            final = out["model"]["trace"]["final_objective"]
            config = gf.MLConfig(lambda_l1=out["model"]["lambda_l1"],
                                 link=gf.LinkKind.LOGIT)
            per_instance.append({
                "obj_ratio": final / truth_objective(self.truths[b], self.train[b], config),
                "final_obj": final,
                "e_w": report["metrics"]["e_w"], "e_c": report["metrics"]["e_c"],
                "e_mu": report["metrics"]["e_mu"],
                "heldout_ll": report["prediction"]["avg_likelihood"]})
        return median_quality(per_instance)


WORKLOADS = {
    "ml-full": MLFull,
    "ml-sparse": MLSparse,
    "gibbs": Gibbs,
    "cli-pipeline": CliPipeline,
}


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    WORKLOADS[name].prepare(int(seed), Path(workdir))
