"""Concrete summation instances used as fixtures and oracles, and the
instances that finite monoids with the discrete topology induce.

Law testing over the real-flavored instances uses exact rationals; floating
point lives only in the net-summation engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .family import OMEGA, Family, count_mul, is_omega
from .core import (
    Defined,
    UNDEFINED,
    ConstructionError,
    FiniteCarrier,
    SigmaInstance,
    SumResult,
    SymbolicCarrier,
    fold_rule,
)

INFINITY = math.inf


@dataclass(frozen=True)
class ElementCodec:
    """Element syntax owned by an instance: text -> element and back."""

    parse: Callable[[str], object]
    format: Callable[[object], str]


def _pm_parse(text):
    text = text.strip()
    if text not in ("0", "+", "-"):
        raise ValueError(f"bad element {text!r}, expected 0, + or -")
    return text


PM_CODEC = ElementCodec(_pm_parse, str)


def pm_instance() -> SigmaInstance:
    """Three-element instance {0, +, -}: a family sums to the sign of its
    finite surplus when + and - occurrences are finite and differ by at most
    one; everything else is undefined."""

    def rule(fam: Family):
        n_plus, n_minus = fam.count("+"), fam.count("-")
        if is_omega(n_plus) or is_omega(n_minus):
            return UNDEFINED
        sign = {0: "0", 1: "+", -1: "-"}.get(n_plus - n_minus)
        return UNDEFINED if sign is None else Defined(sign)

    return SigmaInstance("pm", FiniteCarrier(("0", "+", "-")), "0", rule,
                         flavor="weak", codec=PM_CODEC)


def _subset_codec(universe) -> ElementCodec:
    members = {str(u): u for u in universe}

    def parse(text):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"bad subset literal {text!r}")
        body = text[1:-1].strip()
        if not body:
            return frozenset()
        out = set()
        for part in body.split(","):
            part = part.strip()
            if part not in members:
                raise ValueError(f"{part!r} is not in the universe")
            out.add(members[part])
        return frozenset(out)

    def fmt(subset):
        return "[" + ",".join(sorted(str(x) for x in subset)) + "]"

    return ElementCodec(parse, fmt)


def powerset_parity_instance(universe) -> SigmaInstance:
    """Subsets of a finite universe; a family sums to the set of points that
    occur in an odd number of members, provided every point occurs finitely
    often. On finite families this is iterated symmetric difference."""
    universe = tuple(sorted(dict.fromkeys(universe)))
    uset = frozenset(universe)
    subsets = [frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
               for mask in range(1 << len(universe))]

    def odd_points(pairs):
        return frozenset(x for x in uset
                         if sum(c for subset, c in pairs if x in subset) % 2)

    name = "parity(" + ",".join(str(u) for u in universe) + ")"
    return SigmaInstance(name, FiniteCarrier(subsets), frozenset(),
                         fold_rule(odd_points),
                         flavor="weak", codec=_subset_codec(universe))


def _rational_parse(text):
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}")


RATIONAL_CODEC = ElementCodec(_rational_parse, str)


def _is_rational(e) -> bool:
    return isinstance(e, (int, Fraction)) and not isinstance(e, bool)


def _rational_sum(pairs) -> Fraction:
    """``c`` copies of each ``e`` over (e, c) pairs of ints and Fractions,
    summed as numerators over their least common denominator."""
    lcm = math.lcm(*[e.denominator for e, _ in pairs])
    return Fraction(sum([e.numerator * (lcm // e.denominator) * c
                         for e, c in pairs]), lcm)


def real_abs_instance() -> SigmaInstance:
    """Exact rationals under unordered absolute-convergence summation.

    Within this representation a family is summable iff its omega part is
    contained in {0} (a nonzero value repeated infinitely often has unbounded
    partial sums); the value is the exact sum over one common denominator.
    """

    carrier = SymbolicCarrier(
        _is_rational,
        samples=(Fraction(0), Fraction(-1, 4), Fraction(1, 2), Fraction(3, 4),
                 Fraction(1)),
    )
    return SigmaInstance("real", carrier, Fraction(0), fold_rule(_rational_sum),
                         flavor="sigma_group", inversion=lambda x: -x,
                         codec=RATIONAL_CODEC)


INT_CODEC = ElementCodec(lambda s: int(s.strip()), str)


def int_group_instance() -> SigmaInstance:
    """Integers with the same summability rule as the rationals; inversion is
    negation, making this the stock group-flavored fixture."""

    carrier = SymbolicCarrier(
        lambda e: isinstance(e, int) and not isinstance(e, bool),
        samples=(0, 1, 5, -5),
    )
    rule = fold_rule(lambda pairs: sum(e * c for e, c in pairs))
    return SigmaInstance("int", carrier, 0, rule, flavor="sigma_group",
                         inversion=lambda x: -x, codec=INT_CODEC)


def _extnat_parse(text):
    text = text.strip()
    if text in ("inf", "oo"):
        return INFINITY
    value = int(text)
    if value < 0:
        raise ValueError("extnat elements are nonnegative")
    return value


def _extnat_format(value):
    return "inf" if value == INFINITY else str(value)


EXTNAT_CODEC = ElementCodec(_extnat_parse, _extnat_format)


def ext_nat_instance() -> SigmaInstance:
    """Naturals with a top element: every family is summable (the supremum of
    the finite partial sums), so this is the stock strong fixture."""

    carrier = SymbolicCarrier(
        lambda e: e == INFINITY or (isinstance(e, int) and not isinstance(e, bool) and e >= 0),
        samples=(0, 1, 2, INFINITY),
    )
    rule = fold_rule(lambda pairs: sum(count_mul(e, c) for e, c in pairs),
                     OMEGA)
    return SigmaInstance("extnat", carrier, 0, rule, flavor="strong",
                         codec=EXTNAT_CODEC)


def cyclic_instance(n: int) -> SigmaInstance:
    """Integers mod n with direct modular summation: summable iff all but
    finitely many occurrences are zero."""
    if n < 1:
        raise ConstructionError("modulus must be >= 1")

    rule = fold_rule(lambda pairs: sum(e * c for e, c in pairs) % n)
    return SigmaInstance(f"zmod{n}", FiniteCarrier(range(n)), 0, rule,
                         flavor="sigma_group", inversion=lambda x: (n - x) % n,
                         codec=INT_CODEC)


def restrict_instance(parent: SigmaInstance, carrier, *, name=None,
                      flavor="weak") -> SigmaInstance:
    """The parent's rule, zero and codec on a smaller carrier that holds the
    zero: a family is summable when the parent's sum lies in the carrier, so
    the inclusion is structure preserving by construction."""
    if isinstance(carrier, (list, tuple)):
        carrier = FiniteCarrier(carrier)
    if parent.zero not in carrier:
        raise ConstructionError("the parent zero has no preimage in the carrier")
    return SigmaInstance(name or f"{parent.name}|restricted", carrier,
                         parent.zero, parent.sum, flavor=flavor,
                         codec=parent.codec)


def unit_interval_instance() -> SigmaInstance:
    """Rationals restricted to [-1, 1]: summable only when the unrestricted
    sum lands back inside the interval. A summable family can have unsummable
    subfamilies, e.g. {3/4, 1/2, -1/4} versus {3/4, 1/2}."""
    carrier = SymbolicCarrier(
        lambda e: _is_rational(e) and -1 <= e <= 1,
        samples=(Fraction(0), Fraction(-1, 4), Fraction(1, 2), Fraction(3, 4)),
    )
    return restrict_instance(real_abs_instance(), carrier, name="interval",
                             flavor="weak")


# -- discrete monoids ----------------------------------------------------------


class FiniteMonoid:
    """Commutative monoid table; validated for closure, identity,
    commutativity and associativity at construction."""

    def __init__(self, elements, op, identity, name=""):
        self.elements = tuple(elements)
        self.op = op
        self.identity = identity
        self.name = name or "monoid"
        for a in self.elements:
            for b in self.elements:
                if op(a, b) not in self.elements:
                    raise ConstructionError(
                        f"({a!r},{b!r}): {op(a, b)!r} is not an element")
        if identity not in self.elements:
            raise ConstructionError(f"identity {identity!r} is not an element")
        for a in self.elements:
            if op(a, identity) != a or op(identity, a) != a:
                raise ConstructionError(f"{a!r}: identity law fails")
            for b in self.elements:
                if op(a, b) != op(b, a):
                    raise ConstructionError(f"({a!r},{b!r}): not commutative")
                for c in self.elements:
                    if op(op(a, b), c) != op(a, op(b, c)):
                        raise ConstructionError(
                            f"({a!r},{b!r},{c!r}): not associative")

    def fold(self, pairs):
        """The product of ``c`` copies of each ``e`` over (e, c) pairs."""
        acc = self.identity
        for e, c in pairs:
            for _ in range(c):
                acc = self.op(acc, e)
        return acc


def cyclic_monoid(n: int) -> FiniteMonoid:
    return FiniteMonoid(range(n), lambda a, b: (a + b) % n, 0, name=f"Z{n}")


def extended_sum_discrete(monoid: FiniteMonoid, fam: Family) -> SumResult:
    """Extended sum in the discrete topology, ``discrete_instance(monoid)``'s
    sum: the net of finite partial sums converges exactly when it is
    eventually constant. An element outside the monoid raises CarrierError."""
    return discrete_instance(monoid).sum(fam)


def discrete_instance(monoid: FiniteMonoid) -> SigmaInstance:
    """The summation instance a discrete Hausdorff monoid induces. Let s fold
    the finite part and |M| copies of each omega element; from |M| copies on,
    the powers of every element are periodic, so the family is summable, with
    sum s, exactly when s + e == s for every omega element e."""
    return SigmaInstance(
        f"discrete({monoid.name})",
        FiniteCarrier(monoid.elements), monoid.identity,
        fold_rule(monoid.fold, len(monoid.elements)),
        flavor="finitely_total",
        codec=INT_CODEC if all(isinstance(e, int) for e in monoid.elements) else None,
    )
