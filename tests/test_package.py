"""Package-level guards: what ``import proprisk`` loads, and the names the
benchmark's tracer wraps."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proprisk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracing = _tracing_module()
    return sorted({**tracing.SPANNED, **tracing.COUNTED}.values())


@pytest.mark.parametrize("module, function", _traced_names())
def test_tracer_targets_resolve(module, function):
    # a deleted or renamed name would break `perfbench/run.py --trace 1` only
    assert callable(getattr(importlib.import_module(module), function))


def test_import_leaves_scipy_unloaded():
    # the runtime needs numpy only; scipy is a test dependency
    env = dict(os.environ, PYTHONPATH=str(Path(proprisk.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, proprisk; print(any(m.startswith('scipy') for m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
