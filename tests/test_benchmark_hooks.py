"""The functions the benchmark tracer wraps by name still exist, and
return what its counters read.

`benchmarks/tracing.py` replaces module attributes of the package listed
in its WRAPPED table; an attribute renamed or deleted in the package
would only surface when `benchmarks/run.py --trace` fails.  The tracer
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gradefactor import mle
from gradefactor.links import LinkKind
from gradefactor.synth import SynthConfig, generate_synthetic

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_callable(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.WRAPPED
    missing = []
    for prefix, mod_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{prefix}: {mod_name}.{attr}")
    assert not missing, missing


def test_phases_return_the_shape_of_their_first_argument(monkeypatch):
    # the tracer's rows_kept / cols_kept compare a phase's result with its
    # first argument entry by entry; here on a stack of two members, as
    # the ML fits run them
    tracing = load_tracing(monkeypatch)
    _, data = generate_synthetic(SynthConfig(Q=6, N=5, K=2, p_obs=0.8, seed=3))
    rng = np.random.default_rng(4)
    W_aug = np.hstack([np.abs(rng.standard_normal((12, 2))),
                       rng.standard_normal((12, 1))])
    C = rng.standard_normal((2, 10))
    ones = np.ones((1, 10))
    work = mle._Workspace(data.observed, W_aug, np.vstack([C, ones]), LinkKind.PROBIT)
    C_new = mle._phase_c(C, W_aug, work, 0.1, LinkKind.PROBIT, 3)
    W_new = mle._phase_w(W_aug, np.vstack([C_new, ones]), work, 0.5, 1e-4,
                         LinkKind.PROBIT, 3)
    assert C_new.shape == C.shape
    assert W_new.shape == W_aug.shape
    assert 0 <= tracing._cols_kept((C,), {}, C_new) <= 10
    assert 0 <= tracing._rows_kept((W_aug,), {}, W_new) <= 12
