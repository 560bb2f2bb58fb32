"""The benchmark tracer ``clibench/trace_child.py`` patches hetg2 functions
by name; a refactor that renames a traced function or changes the call shape
a repeat key reads must fail here rather than break a traced run."""

import importlib.util
from pathlib import Path

import pytest

from hetg2 import bianchi, cli, spinor

TRACE_CHILD = Path(__file__).resolve().parents[1] / "clibench" / \
    "trace_child.py"


@pytest.fixture(scope="module")
def trace_child():
    # imported from its path: the benchmark directory is not a package
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_resolve(trace_child):
    for name, (owner, attr) in trace_child.SPANS.items():
        assert callable(getattr(owner, attr, None)), name


def test_repeat_keys_accept_call_shapes(trace_child, monkeypatch):
    calls = {name: [] for name in trace_child.REPEAT_KEYS}
    for name in calls:
        owner, attr = trace_child.SPANS[name]
        old = getattr(owner, attr)

        def record(*args, _old=old, _calls=calls[name], **kwargs):
            _calls.append((args, kwargs))
            return _old(*args, **kwargs)
        # patched wherever the tracer would patch it
        for module in trace_child.MODULES:
            for key, value in list(vars(module).items()):
                if value is old:
                    monkeypatch.setattr(module, key, record)
    bianchi.constraint_system.cache_clear()
    cli.run_suite("bianchi", {})
    spinor.spinor_registry()["v1"]()
    for name, key in trace_child.REPEAT_KEYS.items():
        assert calls[name], name
        for args, kwargs in calls[name]:
            key(*args, **kwargs)
