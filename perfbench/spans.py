"""In-memory span recorder for the traced run.

Spans come from benchmark code only: wrappers installed from outside around
perfpart's public functions, and one span around each probe call.  A span is
the tuple (span_id, trace_id, parent_id, name, start, end, busy): `busy` is
the time the call was actually running.  For a plain function that is
end - start; for a generator it is the sum of its resume-to-yield slices, so
the time its consumer spends between two items is not charged to it.  All
spans of one command (one `cli.main` call, or one probe) share a trace id.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

# Public calls wrapped in a traced pass, per module of the perfpart package.
# label_l61/label_l82 and zero_blocks are left out: they run once per
# matching (50000 calls in a certify pass) and label_l82 is a thin shell
# around invertible_blocks, which is traced.
TRACED = {
    "cli": ("main",),
    "matchings": ("enumerate_matchings", "classify_l61", "classify_l82"),
    "graph_model": ("l_graph", "from_matrix", "invertible_blocks"),
    "perm_core": ("to_cycles", "parse_cycles"),
    "construct_l82": ("build_l82", "build_type1", "build_type2", "build_type3", "classify_parts"),
    "construct_l61": ("build_l61", "build_t1", "build_t3", "build_t4", "linked_zones"),
    "construct_group": ("knn_partition", "l2nn_partition"),
    "verifier": (
        "check_partition",
        "check_factorization",
        "check_extendability",
        "make_certificate",
        "save_certificate",
        "load_certificate",
    ),
    "search": ("exact_cover", "find_factorizations", "find_perfect_partition"),
    "counting": ("necessary_condition", "count_matchings", "ryser_permanent"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def new_trace(self) -> None:
        self.trace_id += 1

    def _new(self) -> tuple[int, int | None]:
        self._next_id += 1
        return self._next_id, (self._stack[-1] if self._stack else None)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._new()
        self._stack.append(sid)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans.append((sid, self.trace_id, parent, name, start, end, end - start))

    def wrap(self, fn, name: str):
        """A stand-in for fn that records one span per call."""
        spans = self.spans
        stack = self._stack

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid, parent = self._new()
                trace = self.trace_id
                it = fn(*args, **kwargs)
                start = clock()
                busy = 0.0
                try:
                    while True:
                        stack.append(sid)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            busy += clock() - t0
                            stack.pop()
                        yield item
                finally:
                    it.close()
                    spans.append((sid, trace, parent, name, start, clock(), busy))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._new()
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, self.trace_id, parent, name, start, end, end - start))

        return wrapper

    def install(self) -> None:
        """Replace every binding of each TRACED function with its wrapper.

        Modules import functions by name from each other, so the wrapper has
        to replace the name in every loaded perfpart module, not only in the
        module that defines it.
        """
        modules = [m for k, m in sys.modules.items() if k == "perfpart" or k.startswith("perfpart.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"perfpart.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(original, f"{mod_name}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def layer_self_times(spans) -> dict[str, float]:
    """Busy time minus the busy time of direct children, summed per layer.

    The layer is the module part of a span's name.
    """
    child_busy: dict[int, float] = defaultdict(float)
    for _sid, _trace, parent, _name, _start, _end, busy in spans:
        if parent is not None:
            child_busy[parent] += busy
    out: dict[str, float] = defaultdict(float)
    for sid, _trace, _parent, name, _start, _end, busy in spans:
        out[name.split(".", 1)[0]] += busy - child_busy[sid]
    return dict(out)
