"""The names perfbench's tracer wraps must exist: a renamed or removed hook
would otherwise only show as a malformed traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _owner(path):
    head, _, rest = path.partition(".")
    obj = importlib.import_module(f"hecke_spectra.{head}")
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve_to_callables():
    spans = _load_spans()
    hooks = [(owner, attr) for owner, attr, _, _ in spans.WRAPS]
    hooks += [(owner, attr) for owner, attr, _ in spans.COUNTS]
    assert hooks
    for owner, attr in hooks:
        assert callable(getattr(_owner(owner), attr, None)), f"{owner}.{attr}"


def test_traced_lru_caches_report_cache_info():
    spans = _load_spans()
    assert spans.LRU_CACHES
    for owner, attr, _ in spans.LRU_CACHES:
        info = getattr(_owner(owner), attr).cache_info()
        assert info.hits >= 0 and info.misses >= 0, f"{owner}.{attr}"
