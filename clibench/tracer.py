"""In-memory spans around the public functions of each ``conic_lmcf`` module.

The tracer patches functions from outside the program: every module-level
binding that holds a wrapped function (``cli.run_flow`` as well as
``flow.run_flow``, ``asymptotics.dyadic_annulus_suprema`` as well as
``norms.dyadic_annulus_suprema``) is replaced, and class attributes are
patched on the class.  A span is ``(id, name, start, end, parent, job,
thread)``; spans opened on a pool thread take the running job's ``cli.main``
span as parent.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "conic_lmcf"
MODULES = ("cli", "flow", "radial", "asymptotics", "norms", "links", "exponents", "cones")

# public names without an ``__all__`` entry that callers look up at run time
EXTRA_FUNCTIONS = {
    "cli": ("main", "write_report", "write_csv", "write_columns", "write_json",
            "parse_initial_condition", "parse_forcing", "build_link"),
    "radial": ("splu",),
}
METHODS = {
    "links": {"FlatTorus": ("spectrum",), "RoundSphere": ("spectrum",),
              "MeshLink": ("__init__", "eigenvalues", "spectrum", "from_off")},
    "exponents": {"ExponentTable": ("for_link", "from_spectrum")},
}


class _CountingLU:
    """SuperLU stand-in that counts ``solve`` calls (one per time step)."""

    def __init__(self, lu):
        self._lu = lu
        self.solves = 0

    def solve(self, *args, **kwargs):
        self.solves += 1
        return self._lu.solve(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.job_root = None
        self.csv_rows = 0
        self._lus = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = None if is_main else tracer.job_root
            sid = next(tracer._ids)
            if is_main:
                tracer.job_root = sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.job,
                                     threading.get_ident()))

        return traced

    def take_counts(self):
        """Counters gathered since the last call: CSV rows and LU solves."""
        rows, self.csv_rows = self.csv_rows, 0
        steps = sum(lu.solves for lu in self._lus)
        self._lus.clear()
        return {"cli.write_csv.rows": rows, "radial.steps": steps}

    # -- patching

    def _special(self, name, fn):
        if name == "cli.write_csv":
            def write_csv(path, header, rows):
                if not isinstance(rows, list):
                    rows = list(rows)
                self.csv_rows += len(rows)
                return fn(path, header, rows)
            return functools.wraps(fn)(write_csv)
        if name == "radial.splu":
            def splu(*args, **kwargs):
                lu = _CountingLU(fn(*args, **kwargs))
                self._lus.append(lu)
                return lu
            return functools.wraps(fn)(splu)
        return fn

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) or attr in EXTRA_FUNCTIONS.get(short, ()):
                    name = f"{short}.{attr}"
                    wrapped[id(fn)] = (fn, self.wrap(name, self._special(name, fn)))
        every = [importlib.import_module(PACKAGE)] + list(mods.values())
        for mod in every:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        for short, classes in METHODS.items():
            for cls_name, attrs in classes.items():
                cls = getattr(mods[short], cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    label = "init" if attr == "__init__" else attr
                    name = f"{short}.{cls_name}.{label}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# --- aggregation ----------------------------------------------------------------


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= max(a, end):
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time does not count a span nested in another span of the same
    name twice; self time is the duration minus the union of the child
    spans' intervals (pool-thread children may overlap each other).
    """
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
        if s[4] is not None:
            children[s[4]].append(s)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, parent, _job, _tid in spans:
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - _union(
            (max(c[2], t0), min(c[3], t1)) for c in children.get(sid, ()))
        anc = by_id.get(parent)
        while anc is not None and anc[1] != name:
            anc = by_id.get(anc[4])
        if anc is None:
            st["s"] += t1 - t0
    return stats


def coverage(spans, select):
    """Share of ``cli.main`` time covered by spans whose name ``select`` accepts."""
    per_job = defaultdict(list)
    mains = {}
    for s in spans:
        if s[1] == "cli.main":
            mains[s[5]] = s
        elif select(s[1]):
            per_job[s[5]].append(s)
    total = sum(m[3] - m[2] for m in mains.values())
    covered = sum(_union((max(s[2], m[2]), min(s[3], m[3])) for s in per_job[job])
                  for job, m in mains.items())
    return covered / total if total > 0 else 0.0
