"""Self-checks of the benchmark's tracing wrappers.

    python3 -m pytest -q benchmarks/check_tracing.py

The file name keeps it out of the package's own test collection.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TinyMLFull(workloads.MLFull):
    Q, N, n_instances = 20, 30, 2


class TinyMLSparse(workloads.MLSparse):
    Q, N, n_instances = 60, 80, 2


class TinyGibbs(workloads.Gibbs):
    Q, N, n_instances = 15, 20, 2
    burn_in = n_samples = 20


class TinyCli(workloads.CliPipeline):
    Q, N, n_instances, outer_iters = 15, 30, 2, 5


TINY = {"ml-full": TinyMLFull, "ml-sparse": TinyMLSparse, "gibbs": TinyGibbs,
        "cli-pipeline": TinyCli}


def loaded(name, tmp_path, seed=3):
    TINY[name].prepare(seed, tmp_path)
    workload = TINY[name](seed, tmp_path)
    for b in range(workload.n_instances):
        workload.setup(b)
    workload.after_setup()
    return workload


def traced_run(name, tmp_path):
    workload = loaded(name, tmp_path)
    tracer = tracing.Tracer()
    ops, first = run.run_ops(workload, 0.0, 2, tracer)
    assert first is not None and not any(op["fails"] for op in ops)
    return workload, tracer, ops


def package_state():
    return {(mod.__name__, name): value
            for mod in tracing.package_modules() for name, value in vars(mod).items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_patched_attributes_are_restored(name, tmp_path):
    import gradefactor.mle

    original_hazard = gradefactor.mle.hazard
    before = package_state()
    workload = loaded(name, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gradefactor.mle.hazard is not original_hazard
        assert gradefactor.mle.hazard.__wrapped__ is original_hazard
        workload.run_op()
    after = package_state()
    assert before.keys() <= after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert tracer.spans


@pytest.mark.parametrize("name", ["ml-full", "ml-sparse"])
def test_hazard_useful_ratio_is_observed_fraction(name, tmp_path):
    workload, tracer, ops = traced_run(name, tmp_path)
    metrics = tracer.layer_metrics(1, workload.n_observed)
    expected = sum(d.n_observed / (d.Q * d.N) for d in workload.data) / len(workload.data)
    assert metrics["links.hazard.calls"]["value"] > 0
    assert metrics["links.hazard.useful_ratio"]["value"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_sum_to_at_most_traced_wall(name, tmp_path):
    _, tracer, ops = traced_run(name, tmp_path)
    traced_wall = sum(op["wall_s"] for op in ops if op["traced"])
    self_total = sum(tracer.self_times())
    assert 0 < self_total <= traced_wall
    metrics = tracer.layer_metrics(1, 1)
    per_layer = sum(m["value"] for key, m in metrics.items() if key.endswith(".self_s"))
    assert per_layer <= traced_wall * (1 + 1e-9)


@pytest.mark.parametrize("name", ["ml-full", "cli-pipeline"])
def test_setup_spans_count_once(name, tmp_path):
    workload = loaded(name, tmp_path)
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    with tracer.installed():
        for b in range(workload.n_instances):
            workload.setup(b)
    tracer.phase = "op"
    with tracer.installed():
        workload.run_op()
        workload.run_op()
    metrics = tracer.layer_metrics(2, workload.n_observed)
    n = workload.n_instances
    if name == "ml-full":
        assert metrics["io_formats.read_response_csv.bytes"]["value"] == pytest.approx(
            sum(p.stat().st_size for p in workload.paths))
        assert metrics["mle.fit_ml.calls"]["value"] == n
    else:
        # simulate per instance in set-up; fit, fit, eval, graph per operation
        assert metrics["cli.main.calls"]["value"] == n + 4 * n
        assert metrics["synth.generate_synthetic.self_s"]["value"] > 0


def test_self_time_splits_concurrent_threads():
    tracer = tracing.Tracer()
    main, w1, w2 = 1, 2, 3
    tracer.spans = [
        ["mle.fit_ml", main, 0.0, 10.0, -1, {}, "op"],
        ["mle.phase_c", w1, 1.0, 5.0, 0, {}, "op"],
        ["links.hazard", w1, 2.0, 3.0, 1, {}, "op"],
        ["mle.phase_c", w2, 2.0, 6.0, 0, {}, "op"],
    ]
    selfs = tracer.self_times()
    # fit_ml waits while a worker span is open: charged 0-1 and 6-10
    assert selfs[0] == pytest.approx(5.0)
    # 1-2 alone, 2-3 shared with w2 but its child runs, 3-5 shared
    assert selfs[1] == pytest.approx(1.0 + 0.0 + 1.0)
    assert selfs[2] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(0.5 + 1.0 + 1.0)
    assert sum(selfs) == pytest.approx(10.0)


def test_worker_thread_spans_take_the_main_thread_parent():
    tracer = tracing.Tracer()
    seen = []
    inner = tracer._wrap("links.hazard", lambda: seen.append(1), {})

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer._wrap("mle.fit_ml", outer, {})()
    assert seen == [1]
    names = [span[0] for span in tracer.spans]
    assert names == ["mle.fit_ml", "links.hazard"]
    assert tracer.spans[1][4] == 0


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    layer = {f"{p}.{f}": tracing.UNITS[f] for p, fs in tracing.REPORTED.items() for f in fs}
    layer.update(dict(run.TRACE_EXTRA))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
