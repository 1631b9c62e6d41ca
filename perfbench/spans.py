"""Outside-in tracing: wrappers installed on the names the calling modules
bind, spans kept in memory and written once, and their aggregation into
per-layer calls and self time.

A span is (id, parent id, name, start, end, thread id, tag).  A span opened
with an empty stack on a worker thread gets the open `run_experiment` span
as its parent, since that call is what handed the cell to the pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (module, attribute, span name, tag) where tag classifies the result; the
# attribute is the name the calling module binds, so calls from inside the
# program are seen too.  "harness.ExperimentRecord" names a class attribute.
WRAPS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("harness", "main", "harness.main", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness.ExperimentRecord", "to_json_line", "harness.to_json_line", None),
    ("harness", "cache_get", "harness.cache_get", lambda r: "miss" if r is None else "hit"),
    ("harness", "cache_put", "harness.cache_put", None),
    ("eichler_selberg", "count_congruence_roots", "arithmetic.count_congruence_roots", None),
    ("eichler_selberg", "h_w", "class_numbers.h_w", None),
    ("eichler_selberg", "ensure_table", "class_numbers.ensure_table", None),
    ("class_numbers", "count_A", "class_numbers.count_A", None),
    ("eichler_selberg", "trace_new", "eichler_selberg.trace_new", None),
    ("eichler_selberg", "trace_full", "eichler_selberg.trace_full", None),
    ("eichler_selberg", "d_coefficient", "eichler_selberg.d_coefficient", None),
    ("eichler_selberg", "variance_window", "eichler_selberg.variance_window", None),
    ("eichler_selberg", "averaged_trace_window", "eichler_selberg.averaged_trace_window", None),
    ("petersson", "kloosterman_sum_fast", "kloosterman.kloosterman_sum_fast", None),
    ("petersson", "jv", "scipy.jv", None),
    ("special_functions", "bessel_j", "special_functions.bessel_j", None),
    ("petersson", "delta_full", "petersson.delta_full", None),
    ("petersson", "delta_new", "petersson.delta_new", None),
    ("petersson", "orbital_integral_A", "petersson.orbital_integral_A", None),
    ("spectral", "empirical_mu_star", "spectral.empirical_mu_star", None),
    ("spectral", "plancherel_measure", "spectral.plancherel_measure", None),
]

# names counted without a span, so the caller's self time keeps their time
COUNTS: List[Tuple[str, str, str]] = [
    ("class_numbers", "build_form_table", "class_numbers.ensure_table.rebuilds"),
]

# lru-cached functions whose cache_info() gives a hit ratio
LRU_CACHES: List[Tuple[str, str, str]] = [
    ("eichler_selberg", "_hw_sum", "eichler_selberg.hw_sum"),
    ("kloosterman", "_half_units", "kloosterman.half_units"),
]

_RUN_SPAN = "harness.run_experiment"


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._run_span: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, fn: Callable, name: str, tag: Optional[Callable]) -> Callable:
        def wrapped(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else (
                None if threading.get_ident() == self.main_thread else self._run_span)
            if name == _RUN_SPAN:
                self._run_span = sid
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                                   tag(result) if tag else None))
        wrapped.__wrapped__ = fn
        return wrapped

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        def wrapped(*args, **kwargs):
            with self._count_lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, modules: Dict[str, object]) -> List[str]:
        """Wrap every listed name that exists; returns the span and counter
        names installed.  A name that no longer exists is skipped, so its
        metric is absent rather than an error."""
        installed = []
        for owner_path, attr, name, tag in WRAPS:
            owner = _resolve(modules, owner_path)
            if owner is not None and callable(getattr(owner, attr, None)):
                setattr(owner, attr, self.span_wrapper(getattr(owner, attr), name, tag))
                installed.append(name)
        for owner_path, attr, name in COUNTS:
            owner = _resolve(modules, owner_path)
            if owner is not None and callable(getattr(owner, attr, None)):
                setattr(owner, attr, self.count_wrapper(getattr(owner, attr), name))
                installed.append(name)
        return installed


def _resolve(modules: Dict[str, object], path: str):
    head, _, rest = path.partition(".")
    obj = modules.get(head)
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part, None)
    return obj


def lru_stats(modules: Dict[str, object]) -> Dict[str, Dict[str, int]]:
    out = {}
    for owner_path, attr, name in LRU_CACHES:
        fn = getattr(_resolve(modules, owner_path), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[name] = {"hits": ci.hits, "misses": ci.misses}
    return out


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds (duration minus
    the part of the span its child spans cover), plus per-tag call counts."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, _, name, t0, t1, _, tag in spans:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - _union_length(clipped)
        if tag is not None:
            agg[tag] += 1
    return out


def worker_threads(spans: List[list]) -> int:
    """Threads that ran cell work: spans below run_experiment, excluding the
    harness's own emission spans."""
    own = {"harness.main", _RUN_SPAN, "harness.to_json_line"}
    return len({tid for _, _, name, _, _, tid, _ in spans if name not in own})
