"""Per-run records and structural comparison of outputs.

A RunReport captures everything needed to audit and replay a run: the
output graph, per-stage query counters, stage timings, the candidate-link
log, the results of the built-in invariant checks, and the number of
sample-data tests answered "dependent" because the covariance was degenerate
or the samples too few (always 0 for an exact oracle). Reports serialize to
one JSON object per line; replaying the same seed and configuration must
reproduce the report bit-identically up to the timing fields.
"""

from dataclasses import MISSING, dataclass, field, fields
import hashlib
import json

from .graphs import MixedGraph, _json_object


def graph_hash(graph):
    """Stable hex digest of a graph's canonical JSON (MixedGraph or
    CausalDag)."""
    return hashlib.sha256(graph.to_json().encode()).hexdigest()[:16]


@dataclass
class RunReport:
    algorithm: str
    n: int
    names: list
    pag: MixedGraph
    stats: dict
    config: dict = field(default_factory=dict)
    seed: int = None
    input_hash: str = None
    timings: dict = field(default_factory=dict)
    dsep_log: dict = None
    checks: dict = field(default_factory=dict)
    edges_removed: dict = field(default_factory=dict)
    test_errors: int = 0

    def checks_ok(self):
        return all(c.get("ok", True) for c in self.checks.values())

    def to_json_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["names"] = list(self.names)
        d["pag"] = self.pag.to_json_dict()
        return d

    def to_json_line(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        """A field missing from d takes its default; a missing field
        without one raises KeyError."""
        _json_object(d, "the top level")
        kw = {f.name: d[f.name] for f in fields(cls) if f.name in d or
              f.default is MISSING and f.default_factory is MISSING}
        pag = _json_object(kw["pag"], 'field "pag"')
        kw["pag"] = MixedGraph.from_json_dict(pag)
        return cls(**kw)

    @classmethod
    def from_json_line(cls, line):
        return cls.from_json_dict(json.loads(line))

    def replay_key(self):
        """Everything that must be bit-identical across replays."""
        d = self.to_json_dict()
        d.pop("timings")
        return json.dumps(d, sort_keys=True)


def compare_runs(a, b):
    """Structural diff of two reports' PAGs over the same variable table:
    edges present on one side only, plus per-endpoint mark differences.
    Identical PAGs yield an empty diff and `identical` True.
    """
    ga, gb = a.pag, b.pag
    if ga.n != gb.n or ga.names != gb.names:
        raise ValueError("graphs have different variable tables")
    pa, pb = set(ga.edge_pairs()), set(gb.edge_pairs())
    mark_diffs = []
    for x, y in sorted(pa & pb):
        ma = (ga.mark(x, y), ga.mark(y, x))
        mb = (gb.mark(x, y), gb.mark(y, x))
        if ma != mb:
            mark_diffs.append((x, y, ma, mb))
    return {
        "identical": pa == pb and not mark_diffs,
        "edges_only_in_a": sorted(pa - pb),
        "edges_only_in_b": sorted(pb - pa),
        "mark_diffs": mark_diffs,
    }


def format_diff(diff, names):
    lines = []
    for x, y in diff["edges_only_in_a"]:
        lines.append("edge only in a: %s - %s" % (names[x], names[y]))
    for x, y in diff["edges_only_in_b"]:
        lines.append("edge only in b: %s - %s" % (names[x], names[y]))
    for x, y, ma, mb in diff["mark_diffs"]:
        lines.append("marks differ on %s - %s: a=%s/%s b=%s/%s"
                     % (names[x], names[y], ma[0], ma[1], mb[0], mb[1]))
    return "\n".join(lines)
