"""Spans at fciplus's module boundaries, recorded from outside the package.

Tracer.install replaces the public functions that fciplus.pipelines,
fciplus.dsep_search, fciplus.checks and fciplus.generators call, in the
namespace of the caller, by wrappers that record a span (name, start, end,
parent, operation id). Oracles are traced by subclassing. Spans stay in
memory; `write` dumps them as JSON when the run ends.
"""

from contextlib import contextmanager
import importlib
import json
from time import perf_counter

# (caller module, function name it calls, span name)
BOUNDARIES = (
    ("pipelines", "pc_adjacency_search", "pc"),
    ("pipelines", "augment_graph", "augment"),
    ("pipelines", "dsep_search", "dsep_search"),
    ("pipelines", "orient_v_structures", "orientation"),
    ("pipelines", "apply_fci_rules", "orientation"),
    ("pipelines", "run_invariant_checks", "checks"),
    ("pipelines", "fci_reference", "reference"),
    ("dsep_search", "augment_graph", "augment"),
    ("dsep_search", "minimal_dsep", "minimal_dsep"),
    ("checks", "check_hierarchy_ancestry", "checks.hierarchy_ancestry"),
    ("checks", "latent_project", "latent_project"),
    ("generators", "latent_project", "latent_project"),
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op id]
        self._stack = []
        self._patched = []
        self.op = 0
        self.draws = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        """Patch every boundary; a draw helper of fciplus.generators (any
        module function whose name ends in _draw) is counted, not spanned.
        A boundary the package no longer has is skipped, so a refactor of
        fciplus leaves its metrics at 0 instead of breaking the traced run."""
        for mod_name, attr, name in BOUNDARIES:
            mod = importlib.import_module("fciplus." + mod_name)
            if hasattr(mod, attr):
                self._patch(mod, attr, self._wrap(getattr(mod, attr), name))
        gen = importlib.import_module("fciplus.generators")
        for attr in dir(gen):
            fn = getattr(gen, attr)
            if attr.endswith("_draw") and callable(fn):
                self._patch(gen, attr, self._count_draws(fn))

    def _count_draws(self, fn):
        def counted(*args, **kwargs):
            self.draws += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, mod, attr, new):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        while self._patched:
            mod, attr, old = self._patched.pop()
            setattr(mod, attr, old)

    def totals(self):
        """name -> [span count, total duration, total self time].

        Self time is a span's duration minus the part of it covered by its
        direct children.
        """
        children = {}
        for i, (_n, s, e, parent, _op) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append((s, e))
        out = {}
        for i, (name, s, e, _p, _op) in enumerate(self.spans):
            covered = 0.0
            end = s
            for cs, ce in sorted(children.get(i, ())):
                cs = max(cs, end)
                if ce > cs:
                    covered += ce - cs
                    end = ce
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += e - s
            t[2] += e - s - covered
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def traced_oracle(base):
    """Subclass of an oracle class that counts and times query() and
    _decide() (the call that misses the memo and computes an answer)."""

    class Traced(base):
        query_calls = 0
        query_s = 0.0
        decide_calls = 0
        decide_s = 0.0

        def query(self, x, y, z):
            t0 = perf_counter()
            try:
                return super().query(x, y, z)
            finally:
                self.query_s += perf_counter() - t0
                self.query_calls += 1

        def _decide(self, x, y, zkey):
            t0 = perf_counter()
            try:
                return super()._decide(x, y, zkey)
            finally:
                self.decide_s += perf_counter() - t0
                self.decide_calls += 1

    Traced.__name__ = "Traced" + base.__name__
    return Traced
