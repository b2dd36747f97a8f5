"""The benchmark's layer tracer finds every function it names.

``bench/spans.py`` wraps the program's functions by name.  A target that was
moved or deleted breaks the traced benchmark round, which only fails inside
the full benchmark self-check; this test resolves each target the way
``Tracer._patch`` does, alone and in milliseconds.  A second test runs the
traced self-check itself, alone, in a fresh interpreter.  ``bench/`` is
read, not written: no bytecode is cached there.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    groups = {**spans.SPAN_GROUPS, **spans.COUNT_GROUPS}
    for group, (module, paths) in groups.items():
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for path in paths:
            if "." in path:  # a method: looked up in the class's own namespace
                cls_name, attr = path.split(".")
                assert attr in vars(getattr(mod, cls_name)), (group, path)
            else:  # a module attribute, rebound in every module that holds it
                assert callable(getattr(mod, path, None)), (group, path)


def test_traced_self_check_passes_alone():
    """The benchmark's traced self-check, run on its own in a fresh
    interpreter.  It asserts that tracing leaves the program's module
    attributes as it found them; an attribute the program adds on first use
    shows only when no earlier test has loaded it, so test order cannot hide
    it here."""
    root = SPANS.parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "bench/test_selfcheck.py", "-k", "traced"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
