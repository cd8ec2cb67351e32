"""Outside-in tracing of sigmasum for the benchmark's traced runs.

The program is not edited. ``install`` rebinds public names in the freshly
imported sigmasum modules (and the few private law functions the checker runs)
to wrappers that record spans: name, start, end and the enclosing span. Spans
are aggregated as they close, per name and per (parent, child) edge, so a run
of millions of calls keeps a small table in memory; ``Tracer.table`` is what
the benchmark writes out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Inclusive time counts only the outermost span of a name, so recursion and
nested sums are not counted twice. A hook whose target no longer exists is
skipped, so a refactor of the program leaves that metric at zero instead of
breaking the run.
"""
from __future__ import annotations

import time
from collections import Counter

LAWS = ("singleton", "neutral_element", "bracketing", "flattening",
        "subsummability", "strong_bracketing", "strong_flattening",
        "zero_sum_all_zero", "finite_totality", "inverses_exist",
        "inversion_hom", "inverse_cancellation")


class Tracer:
    def __init__(self):
        self.stack = [["<root>", 0.0, 0.0]]  # [name, start, child time]
        self.open_by_name = Counter()
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.edges = Counter()
        self.counts = Counter()
        self.distinct = {}

    def open(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        self.open_by_name[name] += 1
        return frame

    def close(self, frame, name=None):
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        self.open_by_name[frame[0]] -= 1
        name = name or frame[0]
        parent = self.stack[-1]
        parent[2] += duration
        self.calls[name] += 1
        self.self_time[name] += duration - frame[2]
        if not self.open_by_name[frame[0]]:
            self.inclusive[name] += duration
        self.edges[parent[0], name] += 1

    def add_distinct(self, key, item):
        self.distinct.setdefault(key, set()).add(item)

    def table(self):
        return {
            "spans": {name: {"calls": self.calls[name],
                             "inclusive_s": self.inclusive[name],
                             "self_s": self.self_time[name]}
                      for name in sorted(self.calls)},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def _traced(tracer, name, fn, after=None):
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(result)
        return result
    return traced


def counted(tracer, key, fn):
    """Count calls of a hot callable without a span per call."""
    counts = tracer.counts

    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


class _TracedStream:
    """Partition stream proxy: a span around each step of the generator, and
    the stream's ``truncated`` flag counted once per stream that reports it."""

    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer
        self._reported = False

    def __iter__(self):
        tracer = self._tracer
        it = iter(self._stream)
        while True:
            frame = tracer.open("family.partitions")
            try:
                part = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.counts["family.partitions.yielded"] += 1
            yield part

    @property
    def truncated(self):
        value = self._stream.truncated
        if value and not self._reported:
            self._reported = True
            self._tracer.counts["family.streams.truncated"] += 1
        return value


def _rebind(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer, m):
    """Wrap the layers of one fresh import ``m`` of sigmasum."""
    modules = [m.pkg, m.family, m.core, m.instances, m.checker,
               m.constructions, m.free_strong, m.net_sum, m.cli]
    counts = tracer.counts

    def hook(owner, attr, name, after=None):
        original = getattr(owner, attr, None)
        if original is not None:
            _rebind(modules, original,
                    _traced(tracer, name, original, after))

    hook(m.family, "canonicalize", "family.canonicalize")
    hook(m.family, "families_within", "family.families_within")
    hook(m.core, "budget_families", "core.budget_families",
         lambda fams: counts.update({"core.budget_families.size": len(fams)}))
    hook(m.core, "check_hom", "core.check_hom")
    hook(m.free_strong, "leads_to", "free_strong.leads_to")
    hook(m.free_strong, "free_strong_quotient", "free_strong.quotient",
         lambda q: counts.update({"free_strong.quotient.classes":
                                  len(getattr(q, "classes", ()))}))
    hook(m.constructions, "internal_hom", "constructions.internal_hom")
    hook(m.constructions, "check_bilinear", "constructions.check_bilinear",
         lambda v: counts.update({"constructions.check_bilinear.checked":
                                  v.checked}))
    hook(m.cli, "main", "cli.main")

    enumerate_partitions = getattr(m.family, "enumerate_partitions", None)
    if enumerate_partitions is not None:
        def traced_enumerate(*args, **kwargs):
            counts["family.streams.opened"] += 1
            return _TracedStream(enumerate_partitions(*args, **kwargs), tracer)
        _rebind(modules, enumerate_partitions, traced_enumerate)

    partition_sums = getattr(m.core, "partition_sums", None)
    if partition_sums is not None:
        def traced_partition_sums(inst, partition):
            frame = tracer.open("core.partition_sums")
            try:
                sums = partition_sums(inst, partition)
            finally:
                tracer.close(frame)
            if sums is not None:
                tracer.add_distinct("core.block_sums", (id(inst), sums))
            return sums
        _rebind(modules, partition_sums, traced_partition_sums)

    # the sum cache never evicts, so the first call per (instance, family) is
    # the miss that runs the rule; instances are kept alive so ids stay unique
    seen, alive = {}, []
    sum_ = m.core.SigmaInstance.sum

    def traced_sum(inst, fam):
        done = seen.get(id(inst))
        if done is None:
            done = seen[id(inst)] = set()
            alive.append(inst)
        frame = tracer.open("core.sum")
        try:
            if fam in done:
                return sum_(inst, fam)
            done.add(fam)
            inner = tracer.open("instances.rule")
            try:
                return sum_(inst, fam)
            finally:
                tracer.close(inner)
        finally:
            tracer.close(frame)
    m.core.SigmaInstance.sum = traced_sum

    for attr in [a for a in vars(m.checker) if a.startswith("_law_")]:
        law_fn = getattr(m.checker, attr)

        def traced_law(*args, _law_fn=law_fn, **kwargs):
            frame = tracer.open("checker.law")
            name = None
            try:
                verdict = _law_fn(*args, **kwargs)
                name = "checker.law_s." + verdict.law
                counts["checker.families_checked"] += verdict.checked
                return verdict
            finally:
                tracer.close(frame, name)
        setattr(m.checker, attr, traced_law)

    shrink = getattr(m.checker, "shrink_family", None)
    if shrink is not None:
        def traced_shrink(fam, violates):
            def counted_violates(cand):
                counts["checker.shrink.candidates"] += 1
                return violates(cand)
            frame = tracer.open("checker.shrink")
            try:
                return shrink(fam, counted_violates)
            finally:
                tracer.close(frame)
        _rebind(modules, shrink, traced_shrink)

    graph = getattr(m.free_strong, "CongruenceGraph", None)
    if graph is not None:
        init = graph.__init__

        def traced_init(self, *args, **kwargs):
            frame = tracer.open("free_strong.graph.build")
            try:
                init(self, *args, **kwargs)
            finally:
                tracer.close(frame)
            counts["free_strong.graph.nodes"] += len(self.universe)
            counts["free_strong.graph.edges"] += sum(
                len(self.successors(f)) for f in self.universe)
        graph.__init__ = traced_init
        for attr, name in (("components", "free_strong.components"),
                           ("related", "free_strong.related")):
            if hasattr(graph, attr):
                setattr(graph, attr,
                        _traced(tracer, name, getattr(graph, attr)))

    extended = getattr(m.net_sum, "extended_sum_real", None)
    if extended is not None:
        def traced_extended(gf, *args, **kwargs):
            name = ("net_sum.certified" if gf.certificate is not None
                    else "net_sum.probe")
            frame = tracer.open(name)
            try:
                verdict = extended(gf, *args, **kwargs)
            finally:
                tracer.close(frame)
            counts["net_sum.terms_used"] += verdict.terms_used
            if gf.certificate is not None:
                counts["net_sum.certified_terms"] += verdict.terms_used
            return verdict
        _rebind(modules, extended, traced_extended)


def layer_metrics(t, import_s, report_bytes):
    """Per-layer metrics of one traced round, with their units."""
    yielded = t.counts["family.partitions.yielded"]
    partitions_self = t.self_time["family.partitions"]
    ps_calls = t.calls["core.partition_sums"]
    distinct = len(t.distinct.get("core.block_sums", ()))
    bound_calls = t.counts["net_sum.bound_calls"]
    s, n = "s", "count"
    out = {
        "family.canonicalize.calls": (t.calls["family.canonicalize"], n),
        "family.canonicalize.s": (t.inclusive["family.canonicalize"], s),
        "family.partitions.yielded": (yielded, n),
        "family.partitions.self_s": (partitions_self, s),
        "family.partitions.per_s": (yielded / partitions_self
                                    if partitions_self else 0.0, "1/s"),
        "family.streams.opened": (t.counts["family.streams.opened"], n),
        "family.streams.truncated": (t.counts["family.streams.truncated"], n),
        "family.families_within.s": (t.inclusive["family.families_within"], s),
        "core.sum.calls": (t.calls["core.sum"], n),
        "core.sum.misses": (t.calls["instances.rule"], n),
        "core.sum.s": (t.inclusive["core.sum"], s),
        "core.partition_sums.calls": (ps_calls, n),
        "core.partition_sums.s": (t.inclusive["core.partition_sums"], s),
        "core.block_sums.distinct": (distinct, n),
        "core.block_sums.useful_ratio": (distinct / ps_calls if ps_calls
                                         else 0.0, "ratio"),
        "core.budget_families.s": (t.inclusive["core.budget_families"], s),
        "core.budget_families.size": (t.counts["core.budget_families.size"], n),
        "core.check_hom.calls": (t.calls["core.check_hom"], n),
        "core.check_hom.s": (t.inclusive["core.check_hom"], s),
        "instances.rule.calls": (t.calls["instances.rule"], n),
        "instances.rule.s": (t.inclusive["instances.rule"], s),
    }
    for law in LAWS:
        out["checker.law_s." + law] = (t.inclusive["checker.law_s." + law], s)
    out.update({
        "checker.shrink.calls": (t.calls["checker.shrink"], n),
        "checker.shrink.candidates": (t.counts["checker.shrink.candidates"], n),
        "checker.shrink.s": (t.inclusive["checker.shrink"], s),
        "checker.families_checked": (t.counts["checker.families_checked"], n),
        "free_strong.graph.nodes": (t.counts["free_strong.graph.nodes"], n),
        "free_strong.graph.edges": (t.counts["free_strong.graph.edges"], n),
        "free_strong.graph.build_s": (t.inclusive["free_strong.graph.build"], s),
        "free_strong.components.s": (t.inclusive["free_strong.components"], s),
        "free_strong.related.s": (t.inclusive["free_strong.related"], s),
        "free_strong.leads_to.calls": (t.calls["free_strong.leads_to"], n),
        "free_strong.quotient.classes": (
            t.counts["free_strong.quotient.classes"], n),
        "constructions.internal_hom.s": (
            t.inclusive["constructions.internal_hom"], s),
        "constructions.internal_hom.tables_tried": (
            t.edges["constructions.internal_hom", "core.check_hom"], n),
        "constructions.check_bilinear.s": (
            t.inclusive["constructions.check_bilinear"], s),
        "constructions.check_bilinear.checked": (
            t.counts["constructions.check_bilinear.checked"], n),
        "net_sum.certified.s": (t.inclusive["net_sum.certified"], s),
        "net_sum.probe.s": (t.inclusive["net_sum.probe"], s),
        "net_sum.bound_calls": (bound_calls, n),
        "net_sum.gen_calls": (t.counts["net_sum.gen_calls"], n),
        "net_sum.terms_used": (t.counts["net_sum.terms_used"], n),
        "net_sum.useful_ratio": (t.counts["net_sum.certified_terms"]
                                 / bound_calls if bound_calls else 0.0,
                                 "ratio"),
        "cli.import_s": (import_s, s),
        "cli.main.s": (t.inclusive["cli.main"], s),
        "cli.report_bytes": (report_bytes, "bytes"),
    })
    return out
