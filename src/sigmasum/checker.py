"""Budgeted law suites: which axiom flavor does an instance satisfy?

Every verdict is relative to an explicit budget. Failures carry replayable,
shrunk witnesses; searches clipped by the partition caps are reported as
``truncated`` rather than silently passed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
)
from .core import (
    Budget,
    Defined,
    SigmaInstance,
    budget_families,
    check_hom,
)

PASS, FAIL, TRUNCATED = "pass", "fail", "truncated"

WEAK_LAWS = ("singleton", "neutral_element", "bracketing", "flattening")
STRONG_LAWS = ("subsummability", "strong_bracketing", "strong_flattening",
               "zero_sum_all_zero")
FT_LAWS = ("finite_totality",)
GROUP_LAWS = ("inverses_exist", "inversion_hom", "inverse_cancellation")


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
    out = []
    for block, mult in part.blocks:
        out.append({"block": _format_family(inst, block),
                    "multiplicity": "omega" if is_omega(mult) else mult})
    return out


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
    violation persists."""
    improved = True
    while improved:
        improved = False
        for cand in sorted(_shrink_candidates(fam), key=Family.sort_key):
            if cand != fam and violates(cand):
                fam = cand
                improved = True
                break
    return fam


# -- individual laws --------------------------------------------------------


def _first_violation(law, fams, violates, witness, applies=None):
    """Scan ``fams`` in order, counting the families ``applies`` admits (all
    of them without it); the first admitted family that ``violates`` the law
    is shrunk and reported as ``witness(shrunk)``. ``violates`` must check the
    precondition itself: the shrinker calls it on families never admitted."""
    checked = 0
    for fam in fams:
        if applies is not None and not applies(fam):
            continue
        checked += 1
        if violates(fam):
            return LawVerdict(law, FAIL, witness(shrink_family(fam, violates)),
                              checked)
    return LawVerdict(law, PASS, checked=checked)


def _law_singleton(inst, budget, fams, engine):
    for i, x in enumerate(inst.samples()):
        if inst.sum(Family.of(x)) != Defined(x):
            return LawVerdict("singleton", FAIL,
                              {"family": _format_family(inst, Family.of(x))},
                              checked=i + 1)
    return LawVerdict("singleton", PASS, checked=len(inst.samples()))


def _law_neutral_element(inst, budget, fams, engine):
    if inst.sum(EMPTY) != Defined(inst.zero):
        return LawVerdict("neutral_element", FAIL,
                          {"family": _format_family(inst, EMPTY)}, 1)

    def defined(fam):
        return inst.sum(fam).defined

    def violates(fam):
        return defined(fam) and not defined(fam.without(inst.zero))

    def witness(fam):
        return {"family": _format_family(inst, fam),
                "stripped": _format_family(inst, fam.without(inst.zero))}

    verdict = _first_violation("neutral_element", fams, violates, witness,
                               defined)
    verdict.checked += 1  # the empty family
    return verdict


def _regroup(law, inst, budget, fams, engine):
    """(strong_)bracketing: a defined whole must regroup to the same value;
    (strong_)flattening: a defined regrouping forces the whole. A weak law
    names its partition shape, a strong one scans the unconstrained shape.

    The scan and the shrinker look only at the distinct block-sum families the
    run's one engine gives for the shape; the shrunk witness's partition is
    the first violating one in partition-stream order."""
    direction = law.removeprefix("strong_")
    shape = direction if direction == law else UNCONSTRAINED

    def applies(fam):
        return direction != "bracketing" or inst.sum(fam).defined

    def bad(r, sums):
        rs = inst.sum(sums)
        if direction == "bracketing":
            return r.defined and rs != r
        return rs.defined and r != rs

    def violates(fam):
        r = inst.sum(fam)
        return any(bad(r, sums) for sums in engine.block_sums(fam, shape))

    def witness(fam):
        r = inst.sum(fam)
        part, sums = first_partition_sums(inst, fam, shape, engine.caps,
                                          lambda sums: bad(r, sums))
        return {"family": _format_family(inst, fam),
                "partition": _format_partition(inst, part),
                "block_sums": _format_family(inst, sums)}

    verdict = _first_violation(law, fams, violates, witness, applies)
    if verdict.status == PASS and any(static_truncation(fam, engine.caps)
                                      for fam in fams if applies(fam)):
        verdict.status = TRUNCATED
    return verdict


_law_bracketing = partial(_regroup, "bracketing")
_law_flattening = partial(_regroup, "flattening")
_law_strong_bracketing = partial(_regroup, "strong_bracketing")
_law_strong_flattening = partial(_regroup, "strong_flattening")


def _law_subsummability(inst, budget, fams, engine):
    omega_cap = budget.caps.block_size

    def bad_sub(fam):
        if not inst.sum(fam).defined:
            return None
        for sub in subfamilies(fam, omega_finite_cap=omega_cap):
            if not inst.sum(sub).defined:
                return sub
        return None

    def witness(fam):
        return {"family": _format_family(inst, fam),
                "subfamily": _format_family(inst, bad_sub(fam))}

    return _first_violation("subsummability", fams,
                            lambda fam: bad_sub(fam) is not None, witness,
                            lambda fam: inst.sum(fam).defined)


def _law_zero_sum_all_zero(inst, budget, fams, engine):
    def violates(fam):
        return (inst.sum(fam) == Defined(inst.zero)
                and any(e != inst.zero for e in fam.support()))

    return _first_violation("zero_sum_all_zero", fams, violates,
                            lambda fam: {"family": _format_family(inst, fam)})


def _law_finite_totality(inst, budget, fams, engine):
    def violates(fam):
        return fam.is_finite and not inst.sum(fam).defined

    return _first_violation("finite_totality", fams, violates,
                            lambda fam: {"family": _format_family(inst, fam)},
                            lambda fam: fam.is_finite)


def _law_inverses_exist(inst, budget, fams, engine):
    for i, x in enumerate(inst.samples()):
        pair = Family.of(x, inst.inversion(x))
        if inst.sum(pair) != Defined(inst.zero):
            return LawVerdict("inverses_exist", FAIL,
                              {"family": _format_family(inst, pair)},
                              checked=i + 1)
    return LawVerdict("inverses_exist", PASS, checked=len(inst.samples()))


def _law_inversion_hom(inst, budget, fams, engine):
    verdict = check_hom(inst.inversion, inst, inst, fams)
    if not verdict.ok:
        return LawVerdict("inversion_hom", FAIL,
                          {"family": _format_family(inst, verdict.counterexample)},
                          checked=verdict.checked)
    return LawVerdict("inversion_hom", PASS, checked=verdict.checked)


def _law_inverse_cancellation(inst, budget, fams, engine):
    def violates(fam):
        if not inst.sum(fam).defined:
            return False
        both = disjoint_union(fam, map_family(inst.inversion, fam))
        return inst.sum(both) != Defined(inst.zero)

    return _first_violation("inverse_cancellation", fams, violates,
                            lambda fam: {"family": _format_family(inst, fam)},
                            lambda fam: inst.sum(fam).defined)


# -- suites ------------------------------------------------------------------


def _run_laws(inst: SigmaInstance, budget: Budget, laws: tuple,
              require_group: bool = False) -> LawReport:
    """Run ``laws`` in order over one family pool; the regrouping laws share
    one block-sum engine, which serves every partition shape. Without an
    inversion map installed the group laws are skipped, or fail with that
    reason when ``require_group`` is set. Each law runs as the module's
    ``_law_<law>``, looked up at call time."""
    fams = budget_families(inst, budget)
    engine = BlockSumEngine(inst, budget.caps)
    report = LawReport(inst.name, budget)
    for law in laws:
        if law in GROUP_LAWS and inst.inversion is None:
            if require_group:
                report.laws.append(LawVerdict(
                    law, FAIL, {"reason": "no inversion map installed"}))
            continue
        report.laws.append(globals()["_law_" + law](inst, budget, fams, engine))
    return report


def check_weak(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Singleton, neutral element, bracketing and flattening, within budget."""
    return _run_laws(inst, budget, WEAK_LAWS)


def check_strong(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Subsummability plus unconstrained-shape regrouping, and the probe that
    families summing to zero contain only zeros."""
    return _run_laws(inst, budget, STRONG_LAWS)


def check_ft_and_group(inst: SigmaInstance, budget: Budget = Budget(),
                       require_group: bool = False) -> LawReport:
    """Finite totality; when an inversion map is installed (or the group laws
    were explicitly requested), also the group laws (inverse pairs, inversion
    preservation, family cancellation)."""
    return _run_laws(inst, budget, FT_LAWS + GROUP_LAWS, require_group)


def check_hausdorff_axioms(inst: SigmaInstance,
                           budget: Budget = Budget()) -> LawReport:
    """Weak and finitely-total laws, plus the group laws when an inversion map
    is installed, over one family pool, for an instance induced by a
    topological monoid (discrete table or certified families)."""
    return _run_laws(inst, budget, WEAK_LAWS + FT_LAWS + GROUP_LAWS)


def conclude_flavor(inst: SigmaInstance, budget: Budget = Budget()) -> LawReport:
    """Run everything and conclude the strongest flavor whose laws all hold
    (modulo caps: truncated counts as non-failing and is reported as such)."""
    report = _run_laws(inst, budget,
                       WEAK_LAWS + STRONG_LAWS + FT_LAWS + GROUP_LAWS)
    failed = {v.law for v in report.laws if v.failed}
    if not failed.isdisjoint(WEAK_LAWS):
        report.flavor = None
    elif (inst.inversion is not None
          and failed.isdisjoint(FT_LAWS + GROUP_LAWS)):
        report.flavor = "sigma_group"
    elif failed.isdisjoint(STRONG_LAWS):
        report.flavor = "strong"
    elif failed.isdisjoint(FT_LAWS):
        report.flavor = "finitely_total"
    else:
        report.flavor = "weak"
    return report


def suite_for(laws: str):
    """Suite selector used by the command line: weak | strong | ft | group | all."""
    def group(inst, budget):
        return check_ft_and_group(inst, budget, require_group=True)

    return {
        "weak": check_weak,
        "strong": check_strong,
        "ft": check_ft_and_group,
        "group": group,
        "all": conclude_flavor,
    }[laws]
