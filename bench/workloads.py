"""The four benchmark workloads and their independent output checks.

Each workload has four steps. ``build`` makes the inputs from the seed (timed
as set-up), ``run`` makes the public calls (timed as ``wall_ref``; it calls
``clock.lap()`` between steps, so the host's speed is sampled along the way),
``observe`` reads the results into plain data outside the timed region, and
``check`` compares that data with computations from ``reference`` or with
properties the method must have. ``mutations`` returns deliberately wrong
results that ``check`` must reject; the self-test runs them.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref
from clock import Stopwatch
from tracing import counted


class Outcome:
    """Operations attempted, the ones failed by the known rounding fault, and
    every other check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, problems, label, fault=False):
        """Record one operation; ``problems`` lists the checks it failed. A
        ``fault`` operation that fails counts as failed, not as an error."""
        self.attempted += 1
        if problems:
            if fault:
                self.failed += 1
            else:
                self.errors += [f"{label}: {p}" for p in problems]

    def require(self, ok, message):
        if not ok:
            self.errors.append(message)


def _family(m, ms):
    """sigmasum Family of a reference multiset."""
    return m.pkg.Family.from_counts(list(ms[0]), omega=list(ms[1]))


def _value(result):
    return result.value if result.defined else None


# -- weak_exhaustive -------------------------------------------------------------

F = Fraction
WEAK_FIXTURES = (
    # name, constructor, carrier samples, rule, zero
    ("pm", lambda p: p.pm_instance(), ("0", "+", "-"), ref.pm_rule, "0"),
    ("parity(a,b)", lambda p: p.powerset_parity_instance(("a", "b")),
     tuple(ref.subsets(("a", "b"))), ref.parity_rule, frozenset()),
    ("real", lambda p: p.real_abs_instance(),
     (F(0), F(-1, 4), F(1, 2), F(3, 4), F(1)), ref.rational_rule, F(0)),
    ("int", lambda p: p.int_group_instance(), (0, 1, 5, -5), ref.int_rule, 0),
    ("extnat", lambda p: p.ext_nat_instance(), (0, 1, 2, ref.INF),
     ref.extnat_rule, 0),
)
WEAK_LAWS = ("singleton", "neutral_element", "bracketing", "flattening")


class WeakExhaustive:
    """check_weak on the five stock fixtures of acceptance criterion 1, at a
    smaller budget: every law passes or truncates, so each family's whole
    partition stream is block-summed."""

    name = "weak_exhaustive"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.budget = dict(max_finite_size=2 if tiny else 3, max_omega_elems=1,
                           block_count=4, block_size=3, omega_splits=2,
                           trials=0, seed=7)
        self.samples_per_fixture = 2 if tiny else 6
        self.partitions_per_family = 4

    def build(self, m, tracer):
        return {"budget": m.pkg.Budget(**self.budget),
                "instances": [(name, make(m.pkg))
                              for name, make, *_ in WEAK_FIXTURES]}

    def run(self, m, inp, clock):
        reports = []
        for _, inst in inp["instances"]:
            clock.lap()
            reports.append(m.pkg.check_weak(inst, inp["budget"]))
        return reports

    def observe(self, m, inp, reports):
        """Reports, plus a seeded sample of bracketing partitions with the
        program's block sums, for the benchmark's own arithmetic."""
        samples = []
        budget = inp["budget"]
        for (name, inst), fixture in zip(inp["instances"], WEAK_FIXTURES):
            rng = random.Random(f"{self.seed}:{name}")
            pool = ref.universe(fixture[2], budget.max_finite_size,
                                budget.max_omega_elems)
            for ms in rng.sample(pool, self.samples_per_fixture):
                parts = list(m.pkg.enumerate_partitions(
                    _family(m, ms), m.pkg.BRACKETING, budget.caps))
                for part in rng.sample(parts, min(len(parts),
                                                  self.partitions_per_family)):
                    blocks = [(ref.from_program(b),
                               ref.OMEGA if mult == math.inf else mult,
                               _value(inst.sum(b)))
                              for b, mult in part.blocks]
                    samples.append((name, ms, blocks))
        return {"reports": reports, "samples": samples}

    def check(self, m, inp, obs, out):
        b = self.budget
        for (name, _, samples, rule, _zero), report in zip(
                WEAK_FIXTURES, obs["reports"]):
            pool = ref.universe(samples, b["max_finite_size"],
                                b["max_omega_elems"])
            summable = sum(rule(f) is not None for f in pool)
            expected = {"singleton": len(samples),
                        "neutral_element": 1 + summable,
                        "bracketing": summable, "flattening": len(pool)}
            out.require([v.law for v in report.laws] == list(WEAK_LAWS),
                        f"{name}: laws {[v.law for v in report.laws]}")
            for v in report.laws:
                problems = []
                if v.status not in ("pass", "truncated"):
                    problems.append(f"verdict {v.status}")
                if v.checked != expected.get(v.law):
                    problems.append(f"checked {v.checked}, recount "
                                    f"{expected.get(v.law)}")
                out.op(problems, f"{name} {v.law}")
        rules = {f[0]: f[3] for f in WEAK_FIXTURES}
        for name, ms, blocks in obs["samples"]:
            rule = rules[name]
            parent = ref.recombine([(blk, mult) for blk, mult, _ in blocks])
            out.require(parent == ms, f"{name}: partition does not recombine")
            sums = [rule(blk) for blk, _, _ in blocks]
            out.require(sums == [s for _, _, s in blocks],
                        f"{name}: block sums {[s for _, _, s in blocks]}, "
                        f"reference {sums}")
            whole = rule(ms)
            if whole is not None and None not in sums:
                regrouped = rule(ref.multiset(
                    zip(sums, (mult for _, mult, _ in blocks))))
                out.require(regrouped == whole,
                            f"{name}: bracketing gives {regrouped}, whole "
                            f"{whole}")

    def families(self, obs):
        return sum(v.checked for r in obs["reports"] for v in r.laws)

    def mutations(self, m, inp, obs):
        reports = copy.deepcopy(obs["reports"])
        reports[1].laws[2].checked += 1
        yield "checked count off by one", dict(obs, reports=reports)
        reports = copy.deepcopy(obs["reports"])
        reports[0].laws[3].status = "fail"
        yield "a verdict turned to fail", dict(obs, reports=reports)

        pm = m.pkg.pm_instance()
        plus2 = m.pkg.Family.of("+", "+")

        def broken(fam):
            return m.pkg.Defined("+") if fam == plus2 else pm.sum(fam)
        bad = m.core.SigmaInstance("pm", pm.carrier, "0", broken,
                                   codec=pm.codec)
        bad_inp = dict(inp, instances=[("pm", bad)] + inp["instances"][1:])
        yield ("instance rule off on {+,+}",
               self.observe(m, bad_inp, self.run(m, bad_inp, Stopwatch())))


# -- witness_cli -------------------------------------------------------------------

def table_definition(a, b):
    """The table instance of the top-level README, on elements 0, a, b."""
    return {"name": "tiny", "elements": ["0", a, b], "zero": "0",
            "sums": [{"finite": [], "value": "0"}, {"finite": [a], "value": a},
                     {"finite": [b], "value": b},
                     {"finite": ["0"], "value": "0"},
                     {"finite": [a, b], "value": "0"}]}


def _labels(rng, n):
    """n distinct three-letter names; relabelling keeps every search the
    same size, since the two names sort the same way as a, b."""
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                          for _ in range(3)))
    return sorted(names)


REPORT_KEYS = {"instance", "law", "verdict", "budget", "seed"}
LAW_GROUPS = {"weak": WEAK_LAWS,
              "strong": ("subsummability", "strong_bracketing",
                         "strong_flattening", "zero_sum_all_zero"),
              "ft": ("finite_totality",),
              "group": ("inverses_exist", "inversion_hom",
                        "inverse_cancellation")}


def expected_flavor(verdicts):
    """The flavor lattice of ``conclude_flavor``, from the law verdicts."""
    def ok(group):
        return all(verdicts.get(law) != "fail" for law in LAW_GROUPS[group])
    weak_ok = ok("weak")
    ft_ok = weak_ok and ok("ft")
    if ft_ok and "inverses_exist" in verdicts and ok("group"):
        return "sigma_group"
    if weak_ok and ok("strong"):
        return "strong"
    if ft_ok:
        return "finitely_total"
    return "weak" if weak_ok else None


class WitnessCli:
    """``sigmasum check --laws all`` through ``cli.main`` in process: searches
    stop at the first violation and the shrinker re-runs them."""

    name = "witness_cli"

    def __init__(self, seed, tiny, workdir):
        self.workdir = workdir
        # the seed names the parity points and the table's elements; the
        # suite's own seed stays 7, so the random trial families, and with
        # them the work, are the same on every benchmark seed
        points, (a, b) = _labels(random.Random(seed), 2), _labels(
            random.Random(f"{seed}:table"), 2)
        self.table = table_definition(a, b)
        # selector: (rule, element parser, zero, inversion, known flavor)
        self.instances = {
            "pm": (ref.pm_rule, str.strip, "0", None, "weak"),
            "parity:" + ",".join(points): (ref.parity_rule, ref.parse_subset,
                                           frozenset(), None, "finitely_total"),
            "interval": (ref.interval_rule, lambda s: Fraction(s.strip()),
                         Fraction(0), None, "weak"),
            "zmod:3": (ref.zmod_rule(3), int, 0, lambda x: -x % 3,
                       "sigma_group"),
            "table": (ref.table_rule([(r["finite"], [], r["value"])
                                      for r in self.table["sums"]]),
                      str.strip, "0", None, None),
        }
        # the known flavors need families of size 3: interval's smallest
        # subsummability witness is {-1/4, 1/2, 3/4}
        self.budget = {"max_finite_size": 3, "max_omega_elems": 1,
                       "block_count": 3, "block_size": 3, "omega_splits": 2,
                       "trials": 2 if tiny else 5, "seed": 7}
        self.first_reports = None

    def _argv(self, selector):
        b = self.budget
        return ["check", "--instance", selector, "--laws", "all",
                "--max-size", str(b["max_finite_size"]),
                "--omega", str(b["max_omega_elems"]),
                "--block-count", str(b["block_count"]),
                "--block-size", str(b["block_size"]),
                "--omega-splits", str(b["omega_splits"]),
                "--trials", str(b["trials"]), "--seed", str(b["seed"])]

    def build(self, m, tracer):
        path = os.path.join(self.workdir, f"table-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.table, fh)
        return {"table_path": path,
                "argv": [(sel, self._argv(path if sel == "table" else sel))
                         for sel in self.instances]}

    def run(self, m, inp, clock):
        runs = []
        for sel, argv in inp["argv"]:
            clock.lap()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m.cli.main(argv)
            runs.append((sel, code, buf.getvalue()))
        return runs

    def observe(self, m, inp, runs):
        os.remove(inp["table_path"])
        if self.first_reports is None:
            self.first_reports = [text for _, _, text in runs]
        return {"runs": runs, "first": self.first_reports}

    def check(self, m, inp, obs, out):
        for (sel, code, text), first in zip(obs["runs"], obs["first"]):
            rule, parse, zero, inverse, flavor = self.instances[sel]
            problems = []
            if code != 1:
                problems.append(f"exit code {code}")
            if text != first:
                problems.append("report differs from the first run's bytes")
            verdicts, flavors = {}, []
            for line in text.splitlines():
                try:
                    row = json.loads(line)
                except ValueError:
                    problems.append(f"not JSON: {line!r}")
                    continue
                keys = set(row)
                if not REPORT_KEYS <= keys <= REPORT_KEYS | {"witness",
                                                             "checked"}:
                    problems.append(f"keys {sorted(keys)}")
                    continue
                if (row["budget"] != self.budget
                        or row["seed"] != self.budget["seed"]):
                    problems.append(f"budget {row['budget']} seed {row['seed']}")
                if row["law"] == "flavor_conclusion":
                    flavors.append(row["verdict"])
                    continue
                verdicts[row["law"]] = row["verdict"]
                if row["verdict"] not in ("pass", "fail", "truncated"):
                    problems.append(f"{row['law']}: verdict {row['verdict']}")
                if (row["verdict"] == "fail") != ("witness" in row):
                    problems.append(f"{row['law']}: witness and verdict "
                                    "disagree")
                elif "witness" in row and not ref.replays(
                        row["law"], row["witness"], rule, parse, zero, inverse):
                    problems.append(f"{row['law']}: witness does not replay "
                                    f"{row['witness']}")
            want = expected_flavor(verdicts)
            if flavors != ([want] if want else []):
                problems.append(f"flavor {flavors}, the verdicts give {want}")
            if flavor is not None and flavors != [flavor]:
                problems.append(f"flavor {flavors}, known answer {flavor}")
            out.op(problems, f"check {sel}")

    def families(self, obs):
        return sum(json.loads(line).get("checked", 0)
                   for _, _, text in obs["runs"] for line in text.splitlines())

    def report_bytes(self, runs):
        return sum(len(text.encode()) for _, _, text in runs)

    def mutations(self, m, inp, obs):
        runs = list(obs["runs"])
        sel, code, text = runs[0]
        lines = [json.loads(x) for x in text.splitlines()]
        for row in lines:
            if row["law"] == "subsummability":
                row["witness"]["subfamily"] = row["witness"]["family"]
        wrong = "".join(json.dumps(r, sort_keys=True) + "\n" for r in lines)
        yield ("witness that does not replay",
               dict(obs, runs=[(sel, code, wrong)] + runs[1:],
                    first=[wrong] + obs["first"][1:]))
        sel, code, text = runs[1]
        wrong = text.replace('"finitely_total"', '"weak"')
        yield ("flavor conclusion changed",
               dict(obs, runs=runs[:1] + [(sel, code, wrong)] + runs[2:],
                    first=obs["first"][:1] + [wrong] + obs["first"][2:]))
        yield ("exit code 0", dict(obs, runs=[(runs[0][0], 0, runs[0][2])]
                                   + runs[1:]))
        yield ("report bytes differ between runs",
               dict(obs, first=[obs["first"][0] + " "] + obs["first"][1:]))


# -- quotient_tensor ---------------------------------------------------------------

PM_POOL = ("0", "+", "-")


def _matches_up_to_zeros(sums, target, zero):
    for e in ref.support(sums) | ref.support(target):
        if e != zero and ref.count(sums, e) != ref.count(target, e):
            return False
    have, want = ref.count(sums, zero), ref.count(target, zero)
    return want == ref.INF if have == ref.INF else want >= have


class QuotientTensor:
    """The free strong quotient along const0: pm -> extnat, congruence graphs
    at small caps, an internal hom and the bilinear maps of the tensor
    product. No law suite runs."""

    name = "quotient_tensor"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.queries = 2 if tiny else 6
        # name, constructor, reference pool (zero included), explicit pool,
        # universe size, reference rule
        self.graphs = (
            ("parity(a,b)", lambda p: p.powerset_parity_instance(("a", "b")),
             tuple(ref.subsets(("a", "b"))), None, 2, ref.parity_rule),
            ("extnat", lambda p: p.ext_nat_instance(), (0, 1, 2), (0, 1, 2), 2,
             ref.extnat_rule),
            ("zmod:3", lambda p: p.cyclic_instance(3), (0, 1, 2), None, 2,
             ref.zmod_rule(3)),
        )

    def build(self, m, tracer):
        p = m.pkg
        pm, en = p.pm_instance(), p.ext_nat_instance()
        graphs = []
        for name, make, pool, explicit, size, _ in self.graphs:
            caps = p.CongruenceCaps(max_family_size=size, max_omega_elems=1)
            rng = random.Random(f"{self.seed}:related:{name}")
            fams = ref.universe(pool, size, 1)
            pairs = [tuple(_family(m, f) for f in rng.sample(fams, 2))
                     for _ in range(self.queries)]
            graphs.append((name, make(p), caps, explicit, pairs))
        unit = p.unit_instance()
        return {
            "pm": pm, "en": en, "graphs": graphs, "unit": unit,
            "parity": p.powerset_parity_instance(("a", "b")),
            "caps": p.CongruenceCaps(max_family_size=3) if self.tiny
            else p.CongruenceCaps(),
            "small": p.Budget(max_finite_size=4, max_omega_elems=1, trials=0,
                              seed=7),
            "hom_budget": p.Budget(max_finite_size=2, max_omega_elems=1,
                                   trials=0, seed=7),
            "leads": [tuple(_family(m, x) for x in q)
                      for q in self._lead_queries()],
        }

    def _lead_queries(self):
        """Seeded one-step moves built by hand: a pm family, a random split
        into summable blocks, and the family of block sums."""
        rng = random.Random(f"{self.seed}:leads")
        queries = []
        while len(queries) < self.queries:
            word = [rng.choice(PM_POOL) for _ in range(rng.randint(2, 4))]
            cuts = sorted(rng.sample(range(1, len(word)),
                                     rng.randint(0, len(word) - 1)))
            blocks = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
            sums = [ref.pm_rule(ref.multiset((e, 1) for e in b)) for b in blocks]
            if None not in sums:
                queries.append((ref.multiset((e, 1) for e in word),
                                ref.multiset((s, 1) for s in sums)))
        return queries

    def run(self, m, inp, clock):
        p = m.pkg
        pm, en, caps, small = inp["pm"], inp["en"], inp["caps"], inp["small"]
        const0 = p.verify_hom(lambda e: 0, pm, en, small, name="const0")
        clock.lap()
        quotient = p.free_strong_quotient(pm, en, const0, caps)
        clock.lap()
        fac = p.factorize(pm, en, const0, caps)
        graphs = []
        for name, inst, gcaps, pool, pairs in inp["graphs"]:
            clock.lap()
            g = p.CongruenceGraph(inst, gcaps, pool=pool)
            graphs.append((name, g, g.components(),
                           [(a, b, g.related(a, b, gcaps.depth))
                            for a, b in pairs]))
        clock.lap()
        leads = [(a, b, p.leads_to(pm, a, b, caps)) for a, b in inp["leads"]]
        unit = inp["unit"]
        clock.lap()
        hom = p.internal_hom(inp["parity"], inp["parity"], inp["hom_budget"])
        clock.lap()
        h_unit = p.internal_hom(unit, unit, small)
        h_pm = p.internal_hom(unit, pm, small)
        parity = inp["parity"]
        bilinear = [
            ("left_unitor pm", p.left_unitor(pm), unit, pm, pm),
            ("right_unitor pm", p.right_unitor(pm), pm, unit, pm),
            ("left_unitor parity", p.left_unitor(parity), unit, parity, parity),
            ("right_unitor parity", p.right_unitor(parity), parity, unit,
             parity),
            ("evaluation [I,I]", p.evaluation(), h_unit, unit, unit),
            ("evaluation [I,pm]", p.evaluation(), h_pm, unit, pm),
            ("projection", lambda a, b: a, pm, pm, pm),
        ]
        clock.lap()
        verdicts = [(label, p.check_bilinear(h, x, y, z, small))
                    for label, h, x, y, z in bilinear]
        return {"const0": const0, "quotient": quotient, "fac": fac,
                "graphs": graphs, "leads": leads, "hom": hom,
                "bilinear": verdicts}

    def observe(self, m, inp, res):
        caps = inp["caps"]
        pm_universe = ref.universe(PM_POOL, caps.max_family_size,
                                   caps.max_omega_elems)
        fac = res["fac"]
        classes = {}
        for label, q in (("free_strong_quotient", res["quotient"]),
                         ("factorize", fac.quotient)):
            classes[label] = [(ms, q.class_of(_family(m, ms)))
                              for ms in pm_universe]
            classes[label + " named"] = [
                q.class_of(m.pkg.Family.of(*w))
                for w in (("+", "+", "-"), ("+",), ("-",))]
        graphs = []
        for name, g, comps, related in res["graphs"]:
            conv = ref.from_program
            graphs.append({
                "name": name,
                "universe": [conv(f) for f in g.universe],
                "succ": {conv(f): {conv(t) for t in g.successors(f)}
                         for f in g.universe},
                "components": [[conv(f) for f in c] for c in comps],
                "related": [(conv(a), conv(b), v.related, v.depth_exhausted,
                             [(conv(f), step) for f, step in v.chain])
                            for a, b, v in related],
            })
        leads = [(ref.from_program(a), ref.from_program(b), v.holds,
                  [(ref.from_program(blk),
                    ref.OMEGA if mult == math.inf else mult)
                   for blk, mult in v.witness.blocks] if v.holds else None)
                 for a, b, v in res["leads"]]
        return {
            "classes": classes, "commutes": fac.commutes,
            "unit_extension": [fac.extension(fac.unit(x)) for x in PM_POOL],
            "graphs": graphs, "leads": leads,
            "hom_tables": {frozenset(h.table)
                           for h in res["hom"].carrier.elements},
            "bilinear": [(label, v.ok, v.slot, v.fixed,
                          None if v.counterexample is None
                          else ref.from_program(v.counterexample))
                         for label, v in res["bilinear"]],
        }

    def check(self, m, inp, obs, out):
        for label in ("free_strong_quotient", "factorize"):
            problems = []
            by_class = {}
            for ms, cls in obs["classes"][label]:
                if cls is None:
                    problems.append(f"no class for {ms}")
                elif not ({"+", "-"} & ms[1]):
                    by_class.setdefault(cls, set()).add(
                        ref.count(ms, "+") - ref.count(ms, "-"))
            mixed = [s for s in by_class.values() if len(s) > 1]
            if mixed:
                problems.append(f"a class mixes signed surpluses {mixed[0]}")
            ppm, plus, minus = obs["classes"][label + " named"]
            if ppm != plus or plus == minus:
                problems.append("[{+,+,-}] = [{+}] != [{-}] fails")
            out.op(problems, label)
        out.op([] if obs["commutes"] else ["does not commute"], "factorize")
        out.op([] if obs["unit_extension"] == [0, 0, 0] else
               [f"extension(unit(x)) = {obs['unit_extension']}"],
               "unit and extension")
        for spec, g in zip(self.graphs, obs["graphs"]):
            self._check_graph(spec, g, out)
        for a, b, holds, blocks in obs["leads"]:
            problems = []
            if not holds:
                problems.append("a hand-built one-step move is not found")
            elif (ref.recombine(blocks) != a
                  or any(ref.pm_rule(blk) is None for blk, _ in blocks)
                  or not _matches_up_to_zeros(
                      ref.multiset((ref.pm_rule(blk), k) for blk, k in blocks),
                      b, "0")):
                problems.append("the witness partition is not a move to b")
            out.op(problems, f"leads_to {a} -> {b}")
        tables = {frozenset(f.items()) for f in ref.f2_linear_maps(("a", "b"))}
        out.op([] if obs["hom_tables"] == tables and len(tables) == 16 else
               [f"{len(obs['hom_tables'])} tables, not the 16 F2-linear maps"],
               "internal_hom(parity, parity)")
        for label, ok, slot, fixed, cex in obs["bilinear"]:
            if label != "projection":
                out.op([] if ok else [f"refuted in the {slot} slot at {fixed}"],
                       f"check_bilinear {label}")
                continue
            # h(a, b) = a with a fixed is the constant map b -> a; it must
            # break preservation on a summable family
            refuted = (not ok and slot == "second" and cex is not None
                       and ref.pm_rule(cex) is not None
                       and ref.pm_rule(ref.mapped(cex, lambda b: fixed))
                       != fixed)
            out.op([] if refuted else ["projection not refuted by a "
                                       "replayable counterexample"],
                   "check_bilinear projection")

    def _check_graph(self, spec, g, out):
        name, _, pool, _, size, rule = spec
        problems = []
        want = ref.universe(pool, size, 1)
        if (set(g["universe"]) != set(want) or len(g["universe"]) != len(want)
                or len(want) != ref.universe_size(len(pool), size, 1)):
            problems.append("universe differs from the reference enumeration")
        flat = [f for c in g["components"] for f in c]
        if len(flat) != len(set(flat)) or set(flat) != set(g["universe"]):
            problems.append("components do not partition the universe")
        if name == "extnat":
            bad = [(f, t) for f, ts in g["succ"].items() for t in ts
                   if rule(t) != rule(f)]
            if bad:
                problems.append(f"a one-step move changes the sum: {bad[0]}")
        out.op(problems, f"CongruenceGraph {name}")
        component = {f: i for i, c in enumerate(g["components"]) for f in c}
        for a, b, related, exhausted, chain in g["related"]:
            problems = []
            same = component.get(a) == component.get(b)
            if related:
                fams = [f for f, _ in chain]
                if fams[:1] != [a] or fams[-1:] != [b] or len(chain) > 5:
                    problems.append("chain endpoints or length")
                for (cur, step), (nxt, _) in zip(chain, chain[1:]):
                    forward = nxt in g["succ"].get(cur, ())
                    backward = cur in g["succ"].get(nxt, ())
                    if not (forward if step == "forward" else backward):
                        problems.append(f"step {step} {cur} -> {nxt} is no move")
                if not same:
                    problems.append("related across components")
                if name == "extnat" and len({rule(f) for f in fams}) > 1:
                    problems.append("chain changes the extnat sum")
            elif same and not exhausted:
                problems.append("unrelated inside one component")
            out.op(problems, f"related {name}")

    EXTRAS = {"graph_nodes_per_s": "nodes/s"}

    def extras(self, obs, wall_s):
        return {"graph_nodes_per_s": self.families(obs) / wall_s}

    def families(self, obs):
        """Congruence-universe families whose successors were built."""
        pm_nodes = len(obs["classes"]["factorize"])
        return 2 * pm_nodes + sum(len(g["universe"]) for g in obs["graphs"])

    def mutations(self, m, inp, obs):
        tables = set(obs["hom_tables"])
        tables.pop()
        yield "internal hom missing a table", dict(obs, hom_tables=tables)
        yield "factorize does not commute", dict(obs, commutes=False)
        graphs = copy.deepcopy(obs["graphs"])
        ext = graphs[1]
        src = next(f for f in ext["universe"] if f[0] and not f[1])
        ext["succ"][src] = ext["succ"][src] | {ref.multiset([(2, 3)])}
        yield "extnat move that changes the sum", dict(obs, graphs=graphs)
        graphs = copy.deepcopy(obs["graphs"])
        a, b, _, exhausted, _ = graphs[0]["related"][0]
        graphs[0]["related"][0] = (a, b, True, exhausted,
                                   [(a, "forward"), (ref.multiset([("x", 7)]),
                                                     None)])
        yield "related chain that is no zig-zag", dict(obs, graphs=graphs)


# -- net_mixed ---------------------------------------------------------------------

# Finite families of mixed sign and magnitudes 1e+-20 on which the certified
# path claims "converged v +-0" while v is not the correctly rounded sum. They
# do not depend on --seed; README.md gives the search that found them.
FAULT_FAMILIES = (
    (-1.763128449757662e+20, -7.954132836263199e+19, -8.560708005434262e+19,
     -6.571960886568807e-21, 8.99707121660062e-22, -1.6585388867809399e-21,
     -2.9778750604374553e-20),
    (1.1556724911091399e+19, 9.583584755501682e+19, 1.3405956039360375e+19,
     6.0401993293159445e-21),
    (1.0581444323052342e-20, -1.2111608049076477e-20, 8.718555032530918e+19,
     -6.444678015292798e-21, -1.241152611604164e-20, 5.419294498803823e+19),
    (-9.265577987121717e+19, -4.821757192536156e-21, -2.218118783968257e+19,
     3.880599694894267e-21),
)
FINITE_EPS = 1e-30   # below every term, so each certified finite sum is "+-0"
EVIDENCE_RE = re.compile(r"^(positive|negative) terms among indices 0\.\.(\d+)$")


def _within(value, bound, exact):
    """|value - exact| <= bound + half an ulp of value, exactly."""
    slack = Fraction(bound) + Fraction(math.ulp(value)) / 2
    return abs(Fraction(value) - exact) <= slack


def _alternating(i):
    return (-1.0) ** i / (i + 1)


def _harmonic(i):
    return (i + 1.0) ** -1.0


class NetMixed:
    """A seeded batch of extended_sum_real calls over both engine paths, then
    cold ``sigmasum net`` processes one after another."""

    name = "net_mixed"

    def __init__(self, seed, tiny, root):
        self.seed = seed
        self.root = root
        self.n_finite = 1 if tiny else 4
        self.n_geometric = 1 if tiny else 3
        self.max_terms = 20_000 if tiny else 200_000

    def build(self, m, tracer):
        p = m.pkg
        rng = random.Random(self.seed)
        calls = [("fault", vals, p.finite_terms(*vals), FINITE_EPS)
                 for vals in FAULT_FAMILIES]
        for _ in range(self.n_finite):
            # dyadic terms within a 52-bit window: every partial sum is exact
            vals = tuple(rng.choice((-1, 1)) * rng.randint(1, 2 ** 16 - 1)
                         * 2.0 ** rng.randint(-16, 16)
                         for _ in range(rng.randint(3, 8)))
            calls.append(("finite", vals, p.finite_terms(*vals), FINITE_EPS))
        for _ in range(self.n_geometric):
            # a 4-bit a and r = +-2^-k keep the ~45 bits of each partial sum
            # exact until the tail is below 1e-9
            a = rng.choice((-1, 1)) * rng.randint(1, 15) * 2.0 ** rng.randint(
                -4, 4)
            r = rng.choice((-1, 1)) * 2.0 ** -rng.randint(1, 3)
            calls.append(("geometric", (a, r), p.geometric(a, r), 1e-9))
        # power(2) needs about 1/eps terms; 2/max_terms is reachable
        calls += [("power(2)", 2.0, p.power_terms(2.0), 2 / self.max_terms),
                  ("alternating_harmonic", _alternating,
                   p.alternating_harmonic(), 1e-9),
                  ("power(1)", _harmonic, p.power_terms(1.0), 1e-9)]
        if tracer is not None:
            calls = [(kind, arg, self._counted(p, tracer, gf), eps)
                     for kind, arg, gf, eps in calls]
        finite = next(c for c in calls if c[0] == "finite")
        geo = next(c for c in calls if c[0] == "geometric")
        cold = [
            ("finite(" + ",".join(map(repr, finite[1])) + ")", FINITE_EPS,
             calls.index(finite)),
            ("geometric(%r,%r)" % geo[1], 1e-9, calls.index(geo)),
            ("alternating_harmonic", 1e-9,
             next(i for i, c in enumerate(calls)
                  if c[0] == "alternating_harmonic")),
        ]
        return {"calls": calls, "cold": cold}

    @staticmethod
    def _counted(p, tracer, gf):
        cert = gf.certificate
        if cert is not None:
            cert = p.AbsoluteBound(
                counted(tracer, "net_sum.bound_calls", cert.bound),
                cert.sorted_tail)
        return p.GeneratorFamily(counted(tracer, "net_sum.gen_calls", gf.gen),
                                 cert, gf.description)

    def run(self, m, inp, clock):
        verdicts = []
        for _, _, gf, eps in inp["calls"]:
            clock.lap()
            verdicts.append(m.pkg.extended_sum_real(gf, eps, self.max_terms))
        clock.lap()
        batch_s = clock.wall
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(self.root, "src"))
        cold = []
        for spec, eps, _ in inp["cold"]:
            if cold:
                clock.lap()
            argv = [sys.executable, "-m", "sigmasum.cli", "net", "--gen", spec,
                    "--eps", repr(eps), "--max-terms", str(self.max_terms)]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, cwd=self.root, timeout=120)
            cold.append((proc.returncode, proc.stdout,
                         time.perf_counter() - t0))
        return {"verdicts": verdicts, "batch_s": batch_s, "cold": cold}

    def observe(self, m, inp, res):
        return res

    def check(self, m, inp, obs, out):
        calls, verdicts = inp["calls"], obs["verdicts"]
        for (kind, arg, _, eps), v in zip(calls, verdicts):
            label = f"{kind} {arg if kind != 'alternating_harmonic' else ''}"
            if kind in ("fault", "finite", "geometric", "power(2)"):
                if v.kind != "converged":
                    out.op([f"verdict {v.kind}"], label)
                    continue
                if kind == "geometric":
                    a, r = map(Fraction, arg)
                    exact = a / (1 - r)
                elif kind == "power(2)":
                    exact = Fraction(math.pi ** 2 / 6)
                else:
                    exact = sum(map(Fraction, arg), Fraction(0))
                ok = _within(v.value, v.error_bound, exact)
                if kind == "power(2)":
                    # the float reference itself is within one ulp of pi^2/6
                    ok = _within(v.value, v.error_bound
                                 + math.ulp(math.pi ** 2 / 6), exact)
                out.op([] if ok else [f"{v.value} +-{v.error_bound} misses "
                                      f"{float(exact)!r}"],
                       label, fault=kind == "fault")
            else:
                out.op(self._divergence_problems(arg, eps, v), label)
        for (spec, eps, index), (code, stdout, _) in zip(inp["cold"],
                                                          obs["cold"]):
            want = self._cli_line(verdicts[index])
            problems = [] if code == 0 and stdout == want else [
                f"exit {code}, printed {stdout!r}, in process {want!r}"]
            out.op(problems, f"sigmasum net --gen {spec}")

    @staticmethod
    def _divergence_problems(term, eps, v):
        if v.kind != "diverged" or v.evidence is None:
            return [f"verdict {v.kind}"]
        problems, ranges = [], []
        for summary in v.evidence:
            match = EVIDENCE_RE.match(summary.description)
            if not match:
                return [f"evidence {summary.description!r}"]
            sign, last = match.group(1), int(match.group(2))
            terms = [t for t in map(term, range(last + 1))
                     if (t > 0 if sign == "positive" else t < 0)]
            exact = abs(math.fsum(terms))
            if (summary.count != len(terms)
                    or abs(summary.partial_sum - exact) > 1e-12 * exact):
                problems.append(f"{summary} recomputes to {len(terms)} terms, "
                                f"{exact!r}")
            ranges.append((sign, last))
        (s1, n1), (s2, n2) = ranges
        first, second = v.evidence
        if s1 != s2 or n1 >= n2 or (second.partial_sum - first.partial_sum
                                    <= max(1e-3, 1000 * eps)):
            problems.append("evidence subfamilies are not nested and apart")
        return problems

    @staticmethod
    def _cli_line(v):
        def fmt(x):
            return str(int(x)) if x == int(x) else repr(x)
        if v.kind == "converged":
            return f"converged {fmt(v.value)} ±{fmt(v.error_bound)}\n"
        if v.kind == "diverged":
            a, b = v.evidence
            return (f"diverged: partial sum over {{{a.description}}} is "
                    f"{fmt(a.partial_sum)}, over {{{b.description}}} is "
                    f"{fmt(b.partial_sum)}\n")
        return f"inconclusive after {v.terms_used} terms\n"

    def families(self, obs):
        """Generator families summed, in process and by the cold CLI."""
        return len(obs["verdicts"]) + len(obs["cold"])

    def report_bytes(self, res):
        return sum(len(stdout.encode()) for _, stdout, _ in res["cold"])

    EXTRAS = {"net_calls_per_s": "calls/s", "cold_cli_s": "s"}

    def extras(self, obs, wall_s):
        return {"net_calls_per_s": len(obs["verdicts"]) / obs["batch_s"],
                "cold_cli_s": statistics.median(t for _, _, t in obs["cold"])}

    def mutations(self, m, inp, obs):
        verdicts = list(obs["verdicts"])
        i = next(k for k, c in enumerate(inp["calls"]) if c[0] == "finite")
        v = verdicts[i]
        verdicts[i] = dataclasses.replace(
            v, value=v.value + 4 * math.ulp(v.value))
        yield "finite sum off by four ulps", dict(obs, verdicts=verdicts)
        verdicts = list(obs["verdicts"])
        i = next(k for k, c in enumerate(inp["calls"]) if c[0] == "power(1)")
        first, second = verdicts[i].evidence
        verdicts[i] = dataclasses.replace(verdicts[i], evidence=(
            first, dataclasses.replace(second,
                                       partial_sum=second.partial_sum * 1.01)))
        yield "divergence evidence with a wrong partial sum", dict(
            obs, verdicts=verdicts)
        cold = list(obs["cold"])
        code, stdout, t = cold[0]
        cold[0] = (code, stdout.replace("±", "±1"), t)
        yield "cold CLI line that disagrees", dict(obs, cold=cold)
