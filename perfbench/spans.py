"""In-memory span recorder around the calls one bittables module makes into another.

Each wrapper replaces a function under every name a bittables module holds
it by, because modules import these names directly: patching only the
defining module would miss `binary_sampler.poisson_binomial_point`, for
example.  A span is (name, start, end, parent, op id); spans are kept in
flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# (defining module, attribute, span name).  Several functions may share a
# span name; a missing attribute leaves its metric at zero.
FUNCTION_SPANS = [
    ("pmf", "poisson_binomial_point", "pmf.poisson_binomial"),
    ("pmf", "conditioned_cell_pmf", "pmf.cell_law"),
    ("pmf", "mixed_column_sum_pmf", "pmf.column_law"),
    ("integer_sampler", "approx_bit_weight", "integer_sampler.bit_weight"),
    ("binary_sampler", "sample_binary_table", "binary_sampler.tables"),
    ("table", "deterministic_fill", "table.fill"),
    ("table", "binary_feasible", "table.feasible"),
    ("latin", "sample_latin_square", "latin"),
    ("partitions", "partition_counts", "partitions.count_table"),
    ("partitions", "distinct_partition_counts", "partitions.count_table"),
    ("partitions", "sample_partition", "partitions.levels"),
    ("partitions", "sample_distinct_partition", "partitions.levels"),
]
# Oracle methods: a span each, plus query counts.
COUNT_METHODS = [("count_integer_tables", "integer"), ("count_binary_tables", "binary")]
# Counted but not timed; the time stays in the caller's span.
COUNT_ONLY = [("table", "MaskedTable", "copy", "table.copy")]


class CountingRNG:
    """Generator proxy that counts `random` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Records spans of timed ops; warm-up calls (op id -1) leave no span."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()
        self._seen = weakref.WeakKeyDictionary()
        self._undo: list = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id):
        self.current_op = op_id
        return self._open(self._name_id("op"))

    def end_op(self, idx):
        self._close(idx)
        self.current_op = -1

    def _span(self, fn, name):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapped

    def _counting(self, fn, kind, query):
        """Span and query counts; `query.build` is the oracle's own cache key."""
        spanned = self._span(fn, "counting")

        @functools.wraps(fn)
        def wrapped(oracle, *args, **kwargs):
            seen = self._seen.setdefault(oracle, set())
            key = query.build(kind, *args, **kwargs)
            if self.current_op >= 0:
                self.counts["counting.queries"] += 1
                self.counts["counting.distinct_queries"] += key not in seen
            seen.add(key)
            return spanned(oracle, *args, **kwargs)

        return wrapped

    def _count_only(self, fn, name):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.current_op >= 0:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap every name under which a bittables module holds a traced function."""
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, attr, span in FUNCTION_SPANS:
            orig = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), attr, None)
            if orig is None:
                continue
            wrapped = self._span(orig, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)
        counting = sys.modules.get(f"{package.__name__}.counting")
        oracle_cls = getattr(counting, "CountOracle", None)
        query = getattr(counting, "CountQuery", None)
        for attr, kind in COUNT_METHODS:
            if hasattr(oracle_cls, attr) and query is not None:
                wrapped = self._counting(getattr(oracle_cls, attr), kind, query)
                self._replace(oracle_cls, attr, wrapped)
        for mod_name, cls_name, attr, name in COUNT_ONLY:
            cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), cls_name, None)
            if hasattr(cls, attr):
                self._replace(cls, attr, self._count_only(getattr(cls, attr), name))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _arrays(self):
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64)
                for k in ("name", "start", "end", "parent", "op")}

    def layer_totals(self) -> dict:
        """Per span name: (calls, self seconds), self time net of child spans."""
        a = self._arrays()
        size = len(a["start"])
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=size)
        own = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        own_ns = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(own_ns[i]) * 1e-9) for i, name in enumerate(self.names)}

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self._arrays())
