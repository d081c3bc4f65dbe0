"""Package-level guards: what ``import proprisk`` loads and exports, the
README's Python block and the names it cites, the names the benchmark calls
and its tracer wraps, and the script that regenerates the bundled trial."""
import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import proprisk

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = (ROOT / "README.md").read_text()


def _readme_section(heading):
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_python_block():
    return _readme_section("Python API").split("```python\n", 1)[1].split("```", 1)[0]


def _readme_exports():
    """The names the README's "Python API" section lists, before its code block."""
    listed = _readme_section("Python API").split("```", 1)[0]
    bullets = [line for line in listed.splitlines() if line.startswith(("* ", "  "))]
    return re.findall(r"`([A-Za-z_]\w*)`", "\n".join(bullets))


def test_all_is_the_documented_list():
    assert len(proprisk.__all__) == len(set(proprisk.__all__)) == 26
    assert sorted(proprisk.__all__) == sorted(_readme_exports())


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from proprisk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(proprisk.__all__)


def test_readme_python_block_runs(tmp_path, monkeypatch):
    block = _readme_python_block()
    # the block uses exported names only
    assert set(re.findall(r"\bpr\.(\w+)", block)) <= set(proprisk.__all__)
    shutil.copy(Path(proprisk.__file__).parent / "data" / "synthetic_trial.csv", tmp_path / "trial.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert json.loads(proprisk.report_to_json(namespace["doc"])) == namespace["doc"]
    assert namespace["result"].n_runs == 1000


def test_readme_lists_the_grid_file_fields():
    fields = re.findall(r"^  - `(\w+)`", _readme_section("CLI"), flags=re.M)
    assert fields == [f.name for f in dataclasses.fields(proprisk.Scenario)]


def _resolve(dotted):
    """The object a dotted ``proprisk.`` reference names; a submodule that
    ``import proprisk`` does not load is imported."""
    obj, path = proprisk, "proprisk"
    for part in dotted.split(".")[1:]:
        path = f"{path}.{part}"
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def _perfbench_references():
    return sorted({ref for f in (ROOT / "perfbench").glob("*.py")
                   for ref in re.findall(r"\bproprisk(?:\.\w+)+", f.read_text())})


@pytest.mark.parametrize("dotted", _perfbench_references())
def test_perfbench_references_resolve(dotted):
    # an export cut would break the benchmark only when it runs
    _resolve(dotted)


def _readme_references():
    """The package names the README cites: ``proprisk.<module>.<name>``,
    `` `<module>.<name>` `` for a submodule, and ``from proprisk.<module> import ...``."""
    modules = {m.name for m in pkgutil.iter_modules(proprisk.__path__)}
    refs = set(re.findall(r"\bproprisk(?:\.\w+)+", README))
    refs |= {f"proprisk.{m}.{name}" for m, name in re.findall(r"`(\w+)\.(\w+)`", README) if m in modules}
    for m, names in re.findall(r"\bfrom proprisk\.(\w+) import (\w+(?:, \w+)*)", README):
        refs |= {f"proprisk.{m}.{name}" for name in names.split(", ")}
    return sorted(refs)


@pytest.mark.parametrize("dotted", _readme_references())
def test_readme_references_resolve(dotted):
    # a deleted internal must not stay in the docs
    _resolve(dotted)


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


def test_cli_import_leaves_statistics_unloaded():
    # statistics pulls in fractions and decimal, milliseconds of every CLI call;
    # the one number taken from it, models.Z, is a literal
    env = dict(os.environ, PYTHONPATH=str(Path(proprisk.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, proprisk.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_synthetic_trial_script_regenerates_bundled_file(tmp_path):
    # every trial figure in the tests and the benchmark rests on this file
    root = Path(__file__).resolve().parents[1]
    script = runpy.run_path(str(root / "scripts" / "make_synthetic_trial.py"))
    out = tmp_path / "synthetic_trial.csv"
    script["main"].__globals__["OUT"] = str(out)
    script["main"]()
    assert out.read_bytes() == (root / "src" / "proprisk" / "data" / "synthetic_trial.csv").read_bytes()
