"""Products, equalisers, chain colimits, internal homs, the unit instance,
and bilinearity checking, each with its explicit summation rule."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .family import Family, canonical_key, map_family
from .core import (
    Budget,
    ClassElement,
    ConstructionError,
    Defined,
    FiniteCarrier,
    Hom,
    QuotientInstance,
    SigmaInstance,
    SumResult,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    check_hom,
)
from .instances import INT_CODEC, restrict_instance


_fst, _snd = itemgetter(0), itemgetter(1)


def product(x: SigmaInstance, y: SigmaInstance, *,
            samples=None) -> SigmaInstance:
    """Pairs of carriers; a pair family is summable exactly when both
    projections are, the value being the pair of projection sums."""

    def rule(fam: Family) -> SumResult:
        rx = x.sum(map_family(_fst, fam))
        if not rx.defined:
            return UNDEFINED
        ry = y.sum(map_family(_snd, fam))
        if not ry.defined:
            return UNDEFINED
        return Defined((rx.value, ry.value))

    if x.carrier.is_finite and y.carrier.is_finite and samples is None:
        carrier = FiniteCarrier(itertools.product(x.carrier.elements,
                                                  y.carrier.elements))
    else:
        pool = (samples if samples is not None
                else [(a, b) for a in x.samples() for b in y.samples()])
        carrier = SymbolicCarrier(
            lambda p: isinstance(p, tuple) and len(p) == 2
            and p[0] in x.carrier and p[1] in y.carrier,
            samples=pool,
        )
    flavor = x.flavor if x.flavor == y.flavor else "weak"
    return SigmaInstance(f"{x.name}x{y.name}", carrier,
                         (x.zero, y.zero), rule, flavor=flavor, factors=(x, y))


def projections(prod: SigmaInstance, budget: Budget) -> tuple:
    """The two projection maps of a product instance, verified as homs."""
    x, y = prod.factors
    fams = budget_families(prod, budget)
    left = check_hom(_fst, prod, x, fams)
    right = check_hom(_snd, prod, y, fams)
    if not (left.ok and right.ok):
        raise ConstructionError("projection failed hom verification")
    return (Hom(prod, x, _fst, "proj_left", budget),
            Hom(prod, y, _snd, "proj_right", budget))


def pairing(f, g):
    """The map a -> (f(a), g(a)) induced by a pair of maps on a common source."""
    return lambda a: (f(a), g(a))


def equaliser(f: Hom, g: Hom) -> SigmaInstance:
    """Restriction of the common source to the agreement set of two homs.

    A family over the agreement set is summable exactly when it is summable
    upstairs with the sum landing back in the agreement set: the source's
    rule on the smaller carrier, the largest summation rule making the
    inclusion structure preserving.
    """
    if not isinstance(f, Hom) or not isinstance(g, Hom):
        raise ConstructionError("equaliser needs verified homs")
    if f.source is not g.source or f.target is not g.target:
        raise ConstructionError("homs must be parallel (same source and target)")
    x = f.source
    if f(x.zero) != g(x.zero):
        raise ConstructionError("the zero element must be in the agreement set")
    return restrict_instance(x, x.carrier.where(lambda e: f(e) == g(e)),
                             name=f"eq({x.name})", flavor=x.flavor)


def chain_colimit(stages, homs) -> QuotientInstance:
    """Colimit of a finite chain of instances along verified homs.

    Two stage elements are identified when they agree after pushing forward;
    with a finite chain that means agreeing at the last stage. A class is
    named by stepping back from the last stage to first preimages, in carrier
    order, while the stage before is finite; a class family sums by pushing
    representatives to the last stage and summing there.
    """
    stages, homs = list(stages), list(homs)
    if len(homs) != len(stages) - 1 or not stages:
        raise ConstructionError("need n stages and n-1 connecting homs")
    for i, h in enumerate(homs):
        if not isinstance(h, Hom):
            raise ConstructionError("connecting maps must be verified homs")
        if h.source is not stages[i] or h.target is not stages[i + 1]:
            raise ConstructionError(f"hom {i} does not connect stage {i} to {i + 1}")
    last = len(stages) - 1

    def push(i, e):
        for h in homs[i:]:
            e = h(e)
        return e

    def min_rep(value):
        # earliest (stage, element) pushing to this final value
        stage, elem = last, value
        while stage > 0 and stages[stage - 1].carrier.is_finite:
            hom = homs[stage - 1]
            prev = next((e for e in stages[stage - 1].carrier.elements
                         if hom(e) == elem), None)
            if prev is None:
                break
            elem = prev
            stage -= 1
        return (stage, elem)

    classes: dict = {}

    def class_of(pair):
        i, e = pair
        if e not in stages[i].carrier:
            raise ConstructionError(f"{e!r} not in stage {i} carrier")
        value = push(i, e)
        cls = classes.get(value)
        if cls is None:
            cls = classes[value] = ClassElement(min_rep(value))
        return cls

    def is_class(c):
        # the class of its representative (i, e), with e in stage i
        if not (isinstance(c, ClassElement) and isinstance(c.rep, tuple)
                and len(c.rep) == 2):
            return False
        i, e = c.rep
        return (isinstance(i, int) and 0 <= i <= last
                and e in stages[i].carrier and class_of(c.rep) == c)

    def rule(fam: Family) -> SumResult:
        pushed = map_family(lambda cls: push(*cls.rep), fam)
        r = stages[last].sum(pushed)
        return Defined(class_of((last, r.value))) if r.defined else UNDEFINED

    if all(s.carrier.is_finite for s in stages):
        for i, s in enumerate(stages):
            for e in s.carrier.elements:
                class_of((i, e))
        carrier = FiniteCarrier(classes.values())
    else:
        pool = [class_of((i, e)) for i, s in enumerate(stages)
                for e in s.samples()]
        carrier = SymbolicCarrier(is_class, samples=tuple(dict.fromkeys(pool)))

    return QuotientInstance(
        "colim(" + "->".join(s.name for s in stages) + ")",
        carrier, class_of((0, stages[0].zero)), rule,
        class_of=class_of, classes=tuple(classes.values()),
        flavor=stages[0].flavor if len({s.flavor for s in stages}) == 1 else "weak",
    )


@dataclass(frozen=True)
class HomElement:
    """Element of an internal-hom carrier: a function table between finite
    carriers, certified structure preserving at some budget."""

    table: tuple  # ((x, y), ...) sorted by source element

    def __call__(self, x):
        for a, b in self.table:
            if a == x:
                return b
        raise KeyError(x)

    def sort_key(self):
        return tuple((canonical_key(a), canonical_key(b)) for a, b in self.table)

    def __repr__(self):
        inner = ", ".join(f"{a!r}->{b!r}" for a, b in self.table)
        return f"hom{{{inner}}}"


def internal_hom(x: SigmaInstance, y: SigmaInstance,
                 budget: Budget) -> SigmaInstance:
    """Instance on the budget-certified homs x -> y; a family of homs sums to
    its pointwise sum when that is defined everywhere and, like every rule
    value, lies in the carrier."""
    if not (x.carrier.is_finite and y.carrier.is_finite):
        raise ConstructionError("internal hom needs finite carriers")
    xs = x.carrier.elements  # canonical order, as a HomElement table needs
    fams = budget_families(x, budget)
    members = []
    for image in itertools.product(y.carrier.elements, repeat=len(xs)):
        table = dict(zip(xs, image))
        if check_hom(table.__getitem__, x, y, fams).ok:
            members.append(HomElement(tuple(table.items())))
    if not members:
        raise ConstructionError(
            "budget too small to certify any hom (empty carrier)")

    carrier = FiniteCarrier(members)
    zero = HomElement(tuple((a, y.zero) for a in xs))
    if zero not in carrier:
        raise ConstructionError("constant-zero map failed certification")

    def rule(fam: Family) -> SumResult:
        rows = []
        for a in xs:
            r = y.sum(map_family(lambda h: h(a), fam))
            if not r.defined:
                return UNDEFINED
            rows.append((a, r.value))
        return Defined(HomElement(tuple(rows)))

    return SigmaInstance(f"[{x.name},{y.name}]", carrier, zero, rule,
                         flavor="weak")


def unit_instance() -> SigmaInstance:
    """Two-element instance {0, 1}: a family sums to 1 when it contains
    exactly one 1, to 0 when it contains none, and is undefined otherwise."""

    def rule(fam: Family) -> SumResult:
        return {0: Defined(0), 1: Defined(1)}.get(fam.count(1), UNDEFINED)

    return SigmaInstance("unit", FiniteCarrier((0, 1)), 0, rule,
                         flavor="weak", codec=INT_CODEC)


def left_unitor(x: SigmaInstance):
    """(n, a) -> a when n = 1, zero when n = 0; bilinear from unit x X to X."""
    return lambda n, a: a if n == 1 else x.zero


def right_unitor(x: SigmaInstance):
    return lambda a, n: a if n == 1 else x.zero


def evaluation():
    """(h, a) -> h(a); bilinear from [X,Y] x X to Y."""
    return lambda h, a: h(a)


@dataclass(frozen=True)
class BilinearVerdict:
    ok: bool
    slot: str | None = None          # which argument was being varied
    fixed: object = None             # the coordinate held fixed
    counterexample: Family | None = None
    checked: int = 0


def check_bilinear(h, x: SigmaInstance, y: SigmaInstance, z: SigmaInstance,
                   budget: Budget) -> BilinearVerdict:
    """Is h : X x Y -> Z structure preserving in each slot separately?

    Every h(a, -), a over the samples of X, then every h(-, b), b over those
    of Y, goes through check_hom on one family pool per slot, both built
    first. The counterexample names the varied slot, the fixed coordinate and
    the family in the varied slot; ``checked`` sums the checks' counts.
    """
    slots = (("second", x, y, budget_families(y, budget),
              lambda a: lambda b: h(a, b)),
             ("first", y, x, budget_families(x, budget),
              lambda b: lambda a: h(a, b)))
    checked = 0
    for slot, fixed_in, varied_in, fams, partial in slots:
        for c in fixed_in.samples():
            verdict = check_hom(partial(c), varied_in, z, fams)
            checked += verdict.checked
            if not verdict.ok:
                return BilinearVerdict(False, slot, c, verdict.counterexample,
                                       checked)
    return BilinearVerdict(True, checked=checked)
