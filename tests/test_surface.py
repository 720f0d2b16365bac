"""The public surface: the top-level names, and every entry point the
benchmark's tracer (perfbench/traced.py) wraps.

Renaming or deleting a wrapped entry point makes the benchmark drop its
metrics; this test fails first instead.  The tracer is only read here: its
wrapper table is built, but nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import mertens

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target: str):
    """mertens.mod.name or mertens.mod.Class.method, as the tracer finds it."""
    module_name, _, attr = target.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        module_name, _, cls = module_name.rpartition(".")
        owner = getattr(importlib.import_module(module_name), cls)
    return getattr(owner, attr, None)


def test_every_traced_entry_point_exists():
    traced = _load_traced()
    targets = traced._wrappers(traced.Tracer())
    assert traced.ADD_ARRAY in targets and traced.MAIN in targets
    for target in targets:
        assert callable(_resolve(target)), target


def test_top_level_exports_the_pipeline():
    assert sorted(mertens.__all__) == [
        "SieveLimitError",
        "__version__",
        "accumulate_checkpoints",
        "estimate_mertens_B",
        "extrapolate_sum",
        "primes_array",
    ]
    for name in mertens.__all__:
        assert getattr(mertens, name) is not None
