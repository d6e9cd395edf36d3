"""The end-to-end benchmark's span table still resolves against ``repro``.

``benchmarks/e2e/spans.py`` wraps a fixed table of entry points by
name: methods through the named class's own ``__dict__`` (a method that
moves into a base class stops resolving), functions through their
module.  The full traced run only finds a broken entry after a minute
of simulation; this pins the table in the unit suite.  The span module
imports only the standard library, so it loads here without the
benchmark's harness.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"
)


def _entry_points():
    spec = importlib.util.spec_from_file_location("e2e_span_table", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


def _entry_id(entry) -> str:
    module, cls_name, attr, _name, _post = entry
    return f"{cls_name}.{attr}" if cls_name else f"{module}.{attr}"


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=_entry_id)
def test_entry_point_resolves(entry):
    module_name, cls_name, attr, _name, _post = entry
    module = importlib.import_module(module_name)
    if cls_name is None:
        # Recorder.patch_function: getattr on the defining module
        assert callable(getattr(module, attr))
        return
    # Recorder.patch_method: the class's own dict, not the MRO
    cls = getattr(module, cls_name)
    assert attr in vars(cls), (
        f"{cls_name}.{attr} is not defined on {cls_name} itself"
    )
    assert callable(vars(cls)[attr])
