"""The functions the benchmark tracer wraps by name still exist.

`benchmarks/tracing.py` replaces module attributes of the package listed
in its WRAPPED table; an attribute renamed or deleted in the package
would only surface when `benchmarks/run.py --trace` fails.  The tracer
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
