"""Budgeted law suites: which axiom flavor does an instance satisfy?

Every verdict is relative to an explicit budget. Failures carry replayable,
shrunk witnesses; searches clipped by the partition caps are reported as
``truncated`` rather than silently passed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from .family import (
    UNCONSTRAINED,
    EMPTY,
    BlockSumEngine,
    Family,
    disjoint_union,
    first_partition_sums,
    map_family,
    format_family_literal,
    is_omega,
    static_truncation,
    subfamilies,
    subfamily_product,
)
from .core import (
    Budget,
    Defined,
    SigmaInstance,
    budget_families,
    check_hom,
)

PASS, FAIL, TRUNCATED = "pass", "fail", "truncated"
_defined = attrgetter("defined")

# each law's group, in run order; law ``x`` runs as the module's ``_law_x``
LAWS = {"singleton": "weak", "neutral_element": "weak", "bracketing": "weak",
        "flattening": "weak", "subsummability": "strong",
        "strong_bracketing": "strong", "strong_flattening": "strong",
        "zero_sum_all_zero": "strong", "finite_totality": "ft",
        "inverses_exist": "group", "inversion_hom": "group",
        "inverse_cancellation": "group"}
# each flavor's groups, whose laws must all run and not fail; strongest first
FLAVORS = {"sigma_group": {"weak", "ft", "group"},
           "strong": {"weak", "strong"},
           "finitely_total": {"weak", "ft"}, "weak": {"weak"}}


@dataclass
class LawVerdict:
    law: str
    status: str
    witness: dict | None = None
    checked: int = 0

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass
class LawReport:
    instance: str
    budget: Budget
    laws: list = field(default_factory=list)
    flavor: str | None = None

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.laws)

    def verdict(self, law: str) -> LawVerdict:
        for v in self.laws:
            if v.law == law:
                return v
        raise KeyError(law)


def _format_family(inst, fam: Family) -> str:
    return format_family_literal(fam, inst.codec)


def _format_partition(inst, part) -> list:
    return [{"block": _format_family(inst, block),
             "multiplicity": "omega" if is_omega(mult) else mult}
            for block, mult in part.blocks]


def _shrink_candidates(fam: Family):
    for e, c in fam.finite:
        yield Family.from_counts(
            [(x, cc - 1 if x == e else cc) for x, cc in fam.finite],
            fam.omega)
    for e in fam.omega:
        rest = tuple(x for x in fam.omega if x != e)
        yield Family(fam.finite, rest)
        for demoted in (2, 1):
            yield Family.from_counts(list(fam.finite) + [(e, demoted)], rest)


def shrink_family(fam: Family, violates) -> Family:
    """Greedy minimization: drop occurrences / demote omega parts while the
    violation persists. Every candidate is smaller than ``fam``."""
    while True:
        for cand in sorted(_shrink_candidates(fam), key=Family.sort_key):
            if violates(cand):
                fam = cand
                break
        else:
            return fam


# -- individual laws --------------------------------------------------------


def _first_violation(law, inst, fams, violates, extra=None, applies=None,
                     clipped=None):
    """The one scan deciding a law's verdict: count the families of ``fams``
    that ``applies`` admits (all without it), shrink the first admitted one
    that ``violates`` the law and report its ``family`` entry plus
    ``extra(shrunk)``. ``violates`` checks the precondition itself, since the
    shrinker calls it on families never admitted. A law with no violation is
    ``truncated`` if ``clipped`` held for an admitted family, else ``pass``."""
    checked, status = 0, PASS
    for fam in fams:
        if applies is not None and not applies(fam):
            continue
        checked += 1
        if violates(fam):
            fam = shrink_family(fam, violates)
            witness = {"family": _format_family(inst, fam)}
            witness.update(extra(fam) if extra is not None else {})
            return LawVerdict(law, FAIL, witness, checked)
        if status == PASS and clipped is not None and clipped(fam):
            status = TRUNCATED
    return LawVerdict(law, status, checked=checked)


def _law_singleton(inst, fams, engine):
    # the shrinker's one candidate, the empty family, is no singleton
    def violates(fam):
        return (fam.finite_total == 1
                and inst.sum(fam) != Defined(fam.finite[0][0]))

    return _first_violation("singleton", inst, map(Family.of, inst.samples()),
                            violates)


def _law_neutral_element(inst, fams, engine):
    if inst.sum(EMPTY) != Defined(inst.zero):
        return LawVerdict("neutral_element", FAIL,
                          {"family": _format_family(inst, EMPTY)}, 1)

    def defined(fam):
        return inst.sum(fam).defined

    def violates(fam):
        return defined(fam) and not defined(fam.without(inst.zero))

    verdict = _first_violation(
        "neutral_element", inst, fams, violates,
        lambda fam: {"stripped": _format_family(inst, fam.without(inst.zero))},
        defined)
    verdict.checked += 1  # the empty family
    return verdict


def _regroup(law, inst, fams, engine):
    """(strong_)bracketing: a defined whole must regroup to the same value;
    (strong_)flattening: a defined regrouping forces the whole. A weak law
    names its partition shape, a strong one scans the unconstrained shape.

    The scan and the shrinker compare only the results of the block-sum
    families the run's one engine gives for the shape; the shrunk witness's
    partition is the first violating one in partition-stream order."""
    direction = law.removeprefix("strong_")
    shape = direction if direction == law else UNCONSTRAINED

    def applies(fam):
        return direction != "bracketing" or inst.sum(fam).defined

    def bad(r, rs):
        if direction == "bracketing":
            return r.defined and rs != r
        return rs.defined and r != rs

    def violates(fam):  # ``bad`` over the results, read lazily
        r, results = inst.sum(fam), engine.block_sum_results(fam, shape)
        if direction == "bracketing":
            return r.defined and any(map(r.__ne__, results))
        return any(map(r.__ne__, filter(_defined, results)))

    def extra(fam):
        r = inst.sum(fam)
        part, sums = first_partition_sums(inst, fam, shape, engine.caps,
                                          lambda sums: bad(r, inst.sum(sums)))
        return {"partition": _format_partition(inst, part),
                "block_sums": _format_family(inst, sums)}

    return _first_violation(law, inst, fams, violates, extra, applies,
                            lambda fam: static_truncation(fam, engine.caps))


_law_bracketing = partial(_regroup, "bracketing")
_law_flattening = partial(_regroup, "flattening")
_law_strong_bracketing = partial(_regroup, "strong_bracketing")
_law_strong_flattening = partial(_regroup, "strong_flattening")


def _law_subsummability(inst, fams, engine):
    # any unsummable subfamily decides; the witness shows the least one
    def unsummable(sub):
        return not inst.sum(sub).defined

    def violates(fam):
        return inst.sum(fam).defined and any(map(
            unsummable, subfamily_product(fam, engine.caps.block_size)))

    return _first_violation(
        "subsummability", inst, fams, violates,
        lambda fam: {"subfamily": _format_family(inst, next(filter(
            unsummable, subfamilies(fam, engine.caps.block_size))))},
        lambda fam: inst.sum(fam).defined)


def _law_zero_sum_all_zero(inst, fams, engine):
    def violates(fam):
        return (inst.sum(fam) == Defined(inst.zero)
                and any(e != inst.zero for e in fam.support()))

    return _first_violation("zero_sum_all_zero", inst, fams, violates)


def _law_finite_totality(inst, fams, engine):
    def violates(fam):
        return fam.is_finite and not inst.sum(fam).defined

    return _first_violation("finite_totality", inst, fams, violates,
                            applies=lambda fam: fam.is_finite)


def _law_inverses_exist(inst, fams, engine):
    # the shrinker's candidates, one element of the pair, are no pairs
    def violates(fam):
        return fam.finite_total == 2 and inst.sum(fam) != Defined(inst.zero)

    return _first_violation(
        "inverses_exist", inst,
        (Family.of(x, inst.inversion(x)) for x in inst.samples()), violates)


def _law_inversion_hom(inst, fams, engine):
    verdict = check_hom(inst.inversion, inst, inst, fams)
    witness = (None if verdict.ok else
               {"family": _format_family(inst, verdict.counterexample)})
    return LawVerdict("inversion_hom", PASS if verdict.ok else FAIL, witness,
                      verdict.checked)


def _law_inverse_cancellation(inst, fams, engine):
    def violates(fam):
        if not inst.sum(fam).defined:
            return False
        both = disjoint_union(fam, map_family(inst.inversion, fam))
        return inst.sum(both) != Defined(inst.zero)

    return _first_violation("inverse_cancellation", inst, fams, violates,
                            applies=lambda fam: inst.sum(fam).defined)


# -- suites ------------------------------------------------------------------


def _run_laws(inst: SigmaInstance, budget: Budget, groups: tuple,
              require_group: bool = False) -> LawReport:
    """Run the laws of ``groups`` in ``LAWS`` order over one family pool; the
    regrouping laws share one block-sum engine, which serves every partition
    shape. Without an inversion map installed the group laws are skipped, or
    fail with that reason when ``require_group`` is set. Each law runs as the
    module's ``_law_<law>(inst, fams, engine)``, looked up at call time."""
    fams = budget_families(inst, budget)
    engine = BlockSumEngine(inst, budget.caps)
    report = LawReport(inst.name, budget)
    for law in [law for law, group in LAWS.items() if group in groups]:
        if LAWS[law] == "group" and inst.inversion is None:
            if require_group:
                report.laws.append(LawVerdict(
                    law, FAIL, {"reason": "no inversion map installed"}))
            continue
        report.laws.append(globals()["_law_" + law](inst, fams, engine))
    return report


def check_weak(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Singleton, neutral element, bracketing and flattening, within budget."""
    return _run_laws(inst, budget, ("weak",))


def check_strong(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Subsummability plus unconstrained-shape regrouping, and the probe that
    families summing to zero contain only zeros."""
    return _run_laws(inst, budget, ("strong",))


def check_ft_and_group(inst: SigmaInstance, budget: Budget = Budget(),
                       require_group: bool = False) -> LawReport:
    """Finite totality; when an inversion map is installed (or the group laws
    were explicitly requested), also the group laws (inverse pairs, inversion
    preservation, family cancellation)."""
    return _run_laws(inst, budget, ("ft", "group"), require_group)


def check_hausdorff_axioms(inst: SigmaInstance,
                           budget: Budget = Budget()) -> LawReport:
    """Weak and finitely-total laws, plus the group laws when an inversion map
    is installed, over one family pool, for an instance induced by a
    topological monoid (discrete table or certified families)."""
    return _run_laws(inst, budget, ("weak", "ft", "group"))


def conclude_flavor(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Run every law and conclude the first flavor of ``FLAVORS`` whose groups'
    laws all ran and did not fail (modulo caps: truncated counts as
    non-failing and is reported as such). The group laws run only when an
    inversion map is installed, so only then can ``sigma_group`` hold."""
    report = _run_laws(inst, budget, tuple(LAWS.values()))
    held = {v.law for v in report.laws if not v.failed}
    report.flavor = next((flavor for flavor, groups in FLAVORS.items()
                          if {law for law, group in LAWS.items()
                              if group in groups} <= held), None)
    return report


def suite_for(laws: str):
    """Suite selector used by the command line: weak | strong | ft | group | all."""
    return {
        "weak": check_weak,
        "strong": check_strong,
        "ft": check_ft_and_group,
        "group": partial(check_ft_and_group, require_group=True),
        "all": conclude_flavor,
    }[laws]
