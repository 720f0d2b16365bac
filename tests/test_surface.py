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
    # The package exports only its version; each pipeline name has one home.
    assert mertens.__all__ == ["__version__"]
    assert not hasattr(mertens, "__getattr__")
    homes = {
        "mertens.sieve": ["SieveLimitError", "primes_array"],
        "mertens.sums": ["accumulate_checkpoints"],
        "mertens.bounds": ["estimate_mertens_B", "extrapolate_sum"],
    }
    for module_name, names in homes.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert getattr(module, name).__module__ == module_name, name
            assert not hasattr(mertens, name), name
