"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` names the functions it traces as (module, qualified
name) pairs.  Deleting or renaming one of them breaks the traced benchmark
run; this test makes it break the test suite as well.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for modname, qualname, *_ in targets:
        obj = importlib.import_module(f"smoothsum.{modname}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qualname}")
    assert missing == []
