"""Independent arithmetic for the benchmark's output checks.

Nothing here imports sigmasum. Multisets, the stock instance rules, family
literal parsing and partition recombination are written from their
definitions, so a check built on them does not trust the code it checks.

A multiset is a pair ``(finite, omega)``: ``finite`` is a frozenset of
``(element, count)`` pairs with count >= 1, ``omega`` a frozenset of the
elements repeated countably infinitely often. An element in ``omega`` never
also appears in ``finite``. Undefined sums are ``None``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

OMEGA = "omega"
INF = math.inf


def multiset(pairs=(), omega=()):
    """Canonical multiset from (element, count) pairs; count may be OMEGA."""
    counts, om = {}, set(omega)
    for e, c in pairs:
        if c == OMEGA or c == INF:
            om.add(e)
        elif c:
            counts[e] = counts.get(e, 0) + c
    return (frozenset((e, c) for e, c in counts.items() if e not in om),
            frozenset(om))


def from_program(fam):
    """Multiset of a sigmasum ``Family`` (read through its public fields)."""
    return multiset(fam.finite, fam.omega)


def count(m, e):
    if e in m[1]:
        return INF
    return dict(m[0]).get(e, 0)


def support(m):
    return {e for e, _ in m[0]} | set(m[1])


def is_submultiset(sub, sup):
    return all(count(sub, e) <= count(sup, e) for e in support(sub))


def without(m, e):
    return multiset([(x, c) for x, c in m[0] if x != e],
                    [x for x in m[1] if x != e])


def mapped(m, fn):
    return multiset([(fn(x), c) for x, c in m[0]], [fn(x) for x in m[1]])


def union(a, b):
    return multiset(list(a[0]) + list(b[0]), a[1] | b[1])


def universe(pool, max_size, max_omega):
    """Every multiset whose omega part is a subset of ``pool`` with at most
    ``max_omega`` elements and whose finite part has at most ``max_size``
    occurrences of the other pool elements."""
    pool = list(dict.fromkeys(pool))
    out = []
    for j in range(max_omega + 1):
        for om in combinations(pool, j):
            rest = [e for e in pool if e not in om]
            for k in range(max_size + 1):
                for combo in combinations_with_replacement(rest, k):
                    out.append(multiset(((e, 1) for e in combo), om))
    return out


def universe_size(n_pool, max_size, max_omega):
    return sum(math.comb(n_pool, j) * math.comb(n_pool - j + max_size, max_size)
               for j in range(min(max_omega, n_pool) + 1))


# -- instance rules, from the definitions in the paper's examples ------------


def pm_rule(m):
    """Signed surplus on {0,+,-}: defined when + and - are finite and differ
    by at most one."""
    if "+" in m[1] or "-" in m[1]:
        return None
    fin = dict(m[0])
    return {0: "0", 1: "+", -1: "-"}.get(fin.get("+", 0) - fin.get("-", 0))


def parity_rule(m):
    """Points lying in an odd number of members; every nonempty member must
    occur finitely often."""
    if any(m[1]):
        return None
    acc = frozenset()
    for subset, c in m[0]:
        if c % 2:
            acc = acc.symmetric_difference(subset)
    return acc


def rational_rule(m):
    """Absolute convergence on exact rationals: omega part only zeros."""
    if any(e != 0 for e in m[1]):
        return None
    return sum((Fraction(e) * c for e, c in m[0]), Fraction(0))


def int_rule(m):
    if any(e != 0 for e in m[1]):
        return None
    return sum(e * c for e, c in m[0])


def extnat_rule(m):
    """Naturals with infinity: every family sums to its supremum."""
    if any(e != 0 for e in m[1]) or any(e == INF for e, _ in m[0]):
        return INF
    return sum(e * c for e, c in m[0])


def interval_rule(m):
    s = rational_rule(m)
    return s if s is not None and -1 <= s <= 1 else None


def zmod_rule(n):
    def rule(m):
        if any(e != 0 for e in m[1]):
            return None
        return sum(e * c for e, c in m[0]) % n
    return rule


def table_rule(rows):
    """Rule of a declarative table: rows of (finite list, omega list, value);
    families not listed are undefined."""
    table = {multiset([(e, 1) for e in fin], om): v for fin, om, v in rows}
    return table.get


def subsets(points):
    return [frozenset(p for i, p in enumerate(points) if mask >> i & 1)
            for mask in range(1 << len(points))]


def f2_linear_maps(points):
    """Tables of the maps f on the subsets of ``points`` with
    f(x ^ y) = f(x) ^ f(y), i.e. the F2-linear maps."""
    elems = subsets(points)
    maps = []
    for image in product(elems, repeat=len(elems)):
        f = dict(zip(elems, image))
        if all(f[x ^ y] == f[x] ^ f[y] for x in elems for y in elems):
            maps.append(f)
    return maps


# -- literals and witnesses ------------------------------------------------------


def split_top_level(text):
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += ch in "([{"
        depth -= ch in ")]}"
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_subset(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad subset {text!r}")
    return frozenset(p.strip() for p in text[1:-1].split(",") if p.strip())


def parse_family(text, parse_element):
    """``{finite: [...], omega: [...]}`` as the checker's reports print it."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad family literal {text!r}")
    sections = {}
    for part in split_top_level(text[1:-1]):
        key, _, rest = part.partition(":")
        rest = rest.strip()
        if key.strip() not in ("finite", "omega") or not (
                rest.startswith("[") and rest.endswith("]")):
            raise ValueError(f"bad family section {part!r}")
        sections[key.strip()] = [parse_element(x)
                                 for x in split_top_level(rest[1:-1])]
    return multiset([(e, 1) for e in sections.get("finite", [])],
                    sections.get("omega", []))


def recombine(blocks):
    """Parent multiset of a partition given as [(block multiset, mult)]."""
    pairs, om = [], set()
    for (fin, bom), mult in blocks:
        om |= bom
        if mult == OMEGA:
            om |= {e for e, _ in fin}
        else:
            pairs += [(e, c * mult) for e, c in fin]
    return multiset(pairs, om)


REGROUP_SHAPES = {"bracketing": "bracketing", "flattening": "flattening",
                  "strong_bracketing": "bracketing",
                  "strong_flattening": "flattening"}


def replays(law, witness, rule, parse_element, zero, inverse=None):
    """Does ``witness`` show a violation of ``law`` under ``rule``?"""
    fam = parse_family(witness["family"], parse_element)
    whole = rule(fam)
    if law == "singleton":
        items = list(fam[0])
        return (not fam[1] and len(items) == 1 and items[0][1] == 1
                and whole != items[0][0])
    if law == "neutral_element":
        stripped = without(fam, zero)
        return (whole is not None
                and parse_family(witness["stripped"], parse_element) == stripped
                and rule(stripped) is None)
    if law in REGROUP_SHAPES:
        blocks = [(parse_family(b["block"], parse_element),
                   OMEGA if b["multiplicity"] == "omega" else b["multiplicity"])
                  for b in witness["partition"]]
        if recombine(blocks) != fam:
            return False
        if law == "bracketing" and any(b[1] for b, _ in blocks):
            return False
        if law == "flattening" and any(m == OMEGA for _, m in blocks):
            return False
        sums = [rule(b) for b, _ in blocks]
        if any(s is None for s in sums):
            return False
        block_sums = multiset(zip(sums, (m for _, m in blocks)))
        if parse_family(witness["block_sums"], parse_element) != block_sums:
            return False
        regrouped = rule(block_sums)
        if REGROUP_SHAPES[law] == "bracketing":
            return whole is not None and regrouped != whole
        return regrouped is not None and regrouped != whole
    if law == "subsummability":
        sub = parse_family(witness["subfamily"], parse_element)
        return (is_submultiset(sub, fam) and whole is not None
                and rule(sub) is None)
    if law == "zero_sum_all_zero":
        return whole == zero and any(e != zero for e in support(fam))
    if law == "finite_totality":
        return not fam[1] and whole is None
    if inverse is None:
        return False
    if law == "inverses_exist":
        return whole != zero and any(
            fam == multiset([(x, 1), (inverse(x), 1)]) for x in support(fam))
    if law == "inversion_hom":
        return whole is not None and rule(mapped(fam, inverse)) != inverse(whole)
    if law == "inverse_cancellation":
        return (whole is not None
                and rule(union(fam, mapped(fam, inverse))) != zero)
    return False
