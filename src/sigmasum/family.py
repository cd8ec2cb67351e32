"""Countable multiset families: canonical finite counts plus omega-repeated elements.

A family is a countable multiset considered up to index bijection, so only the
multiplicity of each element matters. Multiplicities live in N u {omega}; the
omega part records elements repeated countably infinitely often. All operations
keep families in a canonical sorted form so equality and hashing are structural.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction

OMEGA = float("inf")

BRACKETING = "bracketing"
FLATTENING = "flattening"
UNCONSTRAINED = "unconstrained"

_SHAPES = (BRACKETING, FLATTENING, UNCONSTRAINED)
_PLAIN = frozenset((int, float, Fraction, str))  # exact types: their own key


def is_omega(count) -> bool:
    return count == OMEGA


def count_mul(a, b):
    # 0 * omega is 0 here (an absent element stays absent), never NaN
    if a == 0 or b == 0:
        return 0
    return a * b


def canonical_key(e):
    """Sort key giving a deterministic total order on same-kind elements.

    Frozensets order by (size, sorted member keys), tuples componentwise;
    objects may supply their own ``sort_key`` method.
    """
    if type(e) in _PLAIN:
        return e
    sk = getattr(e, "sort_key", None)
    if callable(sk):
        return sk()
    if isinstance(e, frozenset):
        return (len(e), tuple(sorted(canonical_key(x) for x in e)))
    if isinstance(e, tuple):
        return tuple(canonical_key(x) for x in e)
    if isinstance(e, (int, float, Fraction, str)):
        return e
    raise TypeError(f"no canonical order for {e!r} of type {type(e).__name__}")


class CachedHash:
    """Base of frozen dataclasses whose caches, in underscored entries, stay
    out of pickled and copied state: a hash differs between processes."""

    _hash = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k[0] != "_"}


@dataclass(frozen=True)
class Family(CachedHash):
    """Canonical countable multiset: sorted (element, count) pairs + omega part."""

    finite: tuple = ()
    omega: tuple = ()
    _sort_key = None  # not a field: sort_key's cache, as _hash is __hash__'s

    @staticmethod
    def of(*elements) -> "Family":
        return canonicalize((e, 1) for e in elements)

    @staticmethod
    def from_counts(pairs, omega=()) -> "Family":
        raw = list(pairs) + [(e, OMEGA) for e in omega]
        return canonicalize(raw)

    def count(self, e):
        for x in self.omega:
            if x == e:
                return OMEGA
        for x, c in self.finite:
            if x == e:
                return c
        return 0

    def support(self) -> tuple:
        return tuple(e for e, _ in self.finite) + self.omega

    def items(self) -> tuple:
        """(element, count) pairs; omega-part elements carry count OMEGA."""
        return self.finite + tuple((e, OMEGA) for e in self.omega)

    @property
    def finite_total(self) -> int:
        return sum(c for _, c in self.finite)

    @property
    def is_finite(self) -> bool:
        return not self.omega

    def without(self, e) -> "Family":
        """Drop every occurrence of ``e`` (finite and omega), in order."""
        return Family(tuple(p for p in self.finite if p[0] != e),
                      tuple(x for x in self.omega if x != e))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.finite, self.omega)))
        return self._hash

    def sort_key(self):
        if self._sort_key is None:
            # lexicographic on the flattened sorted word, so {+,+,-} < {+,-,-}
            word = tuple(k for e, c in self.finite
                         for k in (canonical_key(e),) * c)
            object.__setattr__(self, "_sort_key", (
                self.finite_total,
                len(self.omega),
                word,
                tuple(canonical_key(e) for e in self.omega),
            ))
        return self._sort_key

    def __repr__(self):
        fin = ", ".join(f"{e!r}:{c}" for e, c in self.finite)
        if self.omega:
            om = ", ".join(repr(e) for e in self.omega)
            return f"Family({{{fin}}}, omega={{{om}}})"
        return f"Family({{{fin}}})"


EMPTY = Family()


def format_family_literal(fam: Family, codec=None) -> str:
    """``{finite: [e, e, ...], omega: [e, ...]}`` text, elements written by the
    instance's codec (``repr`` without one); the command line parses it back."""
    fmt = codec.format if codec else repr
    fin = ", ".join(fmt(e) for e, c in fam.finite for _ in range(c))
    om = ", ".join(fmt(e) for e in fam.omega)
    return "{finite: [" + fin + "], omega: [" + om + "]}"


def canonicalize(raw) -> Family:
    """Canonical family from (element, count) pairs; counts in N u {OMEGA}.

    Zero counts are dropped, repeated entries accumulate, and an omega count
    absorbs any finite count of the same element.
    """
    counts: dict = {}
    om: dict = {}
    for e, c in raw:
        if type(c) is not int or c < 0:  # a natural int needs no check
            if is_omega(c):
                om[e] = True
                continue
            if isinstance(c, float):
                if not c.is_integer():
                    raise ValueError(f"non-integer count {c!r}")
                c = int(c)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"bad count {c!r}")
            if c < 0:
                raise ValueError(f"negative count {c!r}")
        if c != 0:
            counts[e] = counts.get(e, 0) + c
    for e in om:
        counts.pop(e, None)
    fin = tuple(sorted(counts.items(), key=lambda p: canonical_key(p[0])))
    ome = tuple(sorted(om, key=canonical_key))
    return Family(fin, ome)


def disjoint_union(*fams: Family) -> Family:
    return canonicalize(itertools.chain.from_iterable(f.items() for f in fams))


def is_subfamily(sub: Family, sup: Family) -> bool:
    """count_sub(e) <= count_sup(e) for all e; omega <= omega, omega > finite."""
    return all(sub.count(e) <= sup.count(e) for e in sub.support())


def intersect(a: Family, b: Family) -> Family:
    """Pointwise minimum of counts (both arguments subfamilies of a common parent)."""
    support = {e: None for e in a.support() + b.support()}
    return canonicalize((e, min(a.count(e), b.count(e))) for e in support)


def map_family(h, fam: Family) -> Family:
    """Image family under h; counts of merged preimages add, omega absorbing."""
    return canonicalize((h(x), c) for x, c in fam.items())


def subfamilies(fam: Family, omega_finite_cap: int = 2) -> list:
    """All subfamilies, sorted by (size, omega count, element order).

    Taking finitely many copies of an omega element is capped at
    ``omega_finite_cap`` to keep the list finite.
    """
    return sorted(subfamily_product(fam, omega_finite_cap),
                  key=Family.sort_key)


def subfamily_product(fam: Family, omega_finite_cap: int):
    """The same subfamilies, unsorted, in the product order of the counts."""
    axes = [[(e, t) for t in range(c + 1)] for e, c in fam.finite]
    axes += [[(e, t) for t in range(omega_finite_cap + 1)] + [(e, OMEGA)]
             for e in fam.omega]
    # one axis per distinct element, so no two combinations give one family
    return map(canonicalize, itertools.product(*axes))


def families_within(pool, max_size: int, max_omega: int) -> list:
    """Every family with finite part drawn from ``pool`` (total size <= max_size)
    and omega part a subset of ``pool`` (at most ``max_omega`` elements).

    Each family comes once, canonical, in ``Family.sort_key`` order: finite
    size, omega count, word, omega part. (Distinct elements of equal
    ``canonical_key`` keep their order in ``pool``, and then the word decides
    before the omega part.)
    """
    pool = sorted(dict.fromkeys(pool), key=canonical_key)
    fams = []
    for k in range(max_size + 1):
        for j in range(max_omega + 1):
            for word in itertools.combinations_with_replacement(pool, k):
                finite = tuple(Counter(word).items())
                support = set(word)
                for osub in itertools.combinations(pool, j):
                    # an omega element of the word absorbs its finite copies:
                    # that family is a smaller one, emitted under its own size
                    if support.isdisjoint(osub):
                        fams.append(Family(finite, osub))
    return fams


class NonNegative:
    """Base of the dataclasses of bounds: a negative field, other than those
    named in ``_exempt``, raises ValueError naming it."""

    _exempt = ()

    def __post_init__(self):
        for f in fields(self):
            if f.name not in self._exempt and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class Caps(NonNegative):
    """Bounds on partition search.

    ``block_count`` caps the number of blocks, where an omega-repeated block
    entry counts once; ``block_size`` caps each block's size measure;
    ``omega_splits`` caps how many entries may supply omega to one element.
    """

    block_count: int = 4
    block_size: int = 4
    omega_splits: int = 2


@dataclass(frozen=True)
class Partition:
    """Multiset of blocks: ((block family, multiplicity), ...), multiplicity in
    N>=1 u {OMEGA}. Recombining the blocks reproduces the parent family."""

    blocks: tuple

    def recombine(self) -> Family:
        return canonicalize(
            (e, count_mul(c, m)) for b, m in self.blocks for e, c in b.items()
        )

    def __repr__(self):
        inner = ", ".join(f"{b!r}x{m}" for b, m in self.blocks)
        return f"Partition[{inner}]"


def static_truncation(fam: Family, caps: Caps) -> bool:
    """Do the caps clip some partition of ``fam``? True when the family has an
    omega part (omega splits and finite takes from omega elements are capped)
    or its finite size exceeds ``block_size`` (the one-block partition) or
    ``block_count`` (the all-singletons partition)."""
    return (bool(fam.omega) or fam.finite_total > caps.block_size
            or fam.finite_total > caps.block_count)


def enumerate_partitions(fam: Family, shape: str, caps: Caps = Caps(),
                         block_filter=None):
    """Generator of the partitions of ``fam`` with one shape, within caps.

    Shapes: ``bracketing`` (all blocks finite, block multiplicities may be
    omega), ``flattening`` (finitely many blocks in total, blocks may be
    infinite), ``unconstrained`` (both relaxations; used for the strong laws).

    Each partition is produced exactly once up to block reordering; blocks are
    nonempty. The caps clip the search exactly when ``static_truncation(fam,
    caps)`` says so. ``block_filter`` restricts blocks (e.g. to summable ones,
    when the consumer only quantifies over such partitions); filtering prunes
    the search tree. The shape is checked at call time; the stream runs once.
    """
    if shape not in _SHAPES:
        raise ValueError(f"unknown partition shape {shape!r}")
    return _partitions(fam, shape, caps, block_filter)


def _partitions(fam: Family, shape: str, caps: Caps, block_filter):
    # subfamilies come in increasing sort_key order; blocks go largest first
    blocks = [b for b in subfamilies(fam, caps.block_size)
              if 1 <= b.finite_total + len(b.omega) <= caps.block_size
              and not (shape == BRACKETING and b.omega)
              and (block_filter is None or block_filter(b))]
    blocks.reverse()
    splits = caps.omega_splits
    pos = {e: i for i, e in enumerate(fam.omega)}  # rec's used is by position

    def rec(start, rem, used, entries, room):
        """``entries`` if complete, then its extensions by ``blocks[start:]``
        in order, each block with multiplicities 1, 2, ... and then omega.
        ``rem`` holds the finite counts still to cover, ``used`` the entries
        supplying omega to each omega element (each needs one), ``room`` what
        is left under ``block_count``; omega multiplicity takes one unit."""
        if not any(rem.values()) and all(used):
            yield Partition(entries)
        if room <= 0:
            return
        for j in range(start, len(blocks)):
            block = blocks[j]
            om = [pos[e] for e in block.omega]
            if any(used[i] >= splits for i in om):
                continue
            touch = [(e, t) for e, t in block.finite if e in rem]
            mmax = min([room] + [rem[e] // t for e, t in touch])
            for m in range(1, mmax + 1):
                left = dict(rem)
                for e, t in touch:
                    left[e] -= m * t
                yield from rec(j + 1, left, _supply(used, om),
                               entries + ((block, m),), room - m)
            # omega copies of a block must leave the finite counts alone; then
            # each of its elements is an omega element and gains a supplier
            if not touch and shape != FLATTENING:
                sup = [pos[e] for e in block.support()]
                if all(used[i] < splits for i in sup):
                    yield from rec(j + 1, rem, _supply(used, sup),
                                   entries + ((block, OMEGA),), room - 1)

    yield from rec(0, dict(fam.finite), (0,) * len(fam.omega), (),
                   caps.block_count)


def first_partition_sums(inst, fam: Family, shape: str, caps: Caps, accept):
    """The first partition of ``fam`` into summable blocks, in stream order,
    whose family of block sums satisfies ``accept``, as (partition, sums);
    (None, None) when no partition within the caps does."""
    for part in enumerate_partitions(
            fam, shape, caps, block_filter=lambda b: inst.sum(b).defined):
        sums = canonicalize((inst.sum(b).value, m) for b, m in part.blocks)
        if accept(sums):
            return part, sums
    return None, None


class BlockSumEngine:
    """Distinct block-sum families of the partitions into summable blocks, for
    one (instance, caps) and any shape: the set ``enumerate_partitions`` would
    reach.

    Memoised recursion on the residual state: shape, remaining finite counts,
    omega splits used per omega element (none used: still needs a supplier)
    and room under ``block_count``. The next block holds the least remaining
    finite element; once none remain, omega-only blocks follow in any order.
    Reusing a block adds nothing, as (b, m1), (b, m2) sum like (b, m1 + m2),
    which takes no more room and fewer splits. Everything but the memo is
    shared by the shapes: element ids, the blocks compiled for each
    (remaining counts, omega elements), and the block-sum families, interned
    as keys (sorted (value id, count) tuples): ``block_sum_keys`` returns
    them, ``key`` gives any family's, and ``block_sum_results`` yields their
    sums lazily, each block or family summed once. A memo entry is the set of
    ids ``_solve`` built. Without omega elements the shapes coincide and share
    memo entries too.
    States are keyed by element ids, so the subfamilies of a family pool share
    entries; nothing is evicted, so scope an engine to one batch of queries.
    """

    def __init__(self, inst, caps: Caps):
        self.inst = inst
        self.caps = caps
        self._ids: dict = {}     # element -> id
        self._elems: list = []   # id -> element
        self._memo: dict = {}
        self._blocks: dict = {}  # (rem, omega ids) -> compiled blocks
        self._results: dict = {}  # key -> the instance's result on it
        self._plus: dict = {}    # (sums id, value id, mult) -> sums id
        self._counts: list = [()]        # sums id -> sorted (value id, count)
        self._count_ids: dict = {(): 0}

    def block_sum_keys(self, fam: Family, shape: str) -> list:
        """The block-sum families of ``fam``'s partitions of ``shape`` as their
        interned keys, one per family; whether the caps clipped them is
        ``static_truncation(fam, caps)``, as for the stream."""
        return [self._counts[i] for i in self._solved(fam, shape)]

    def block_sum_results(self, fam: Family, shape: str):
        """The instance's results on the same families, each summed as it is
        read; the ids are solved (and the shape checked) at the call."""
        return (self._result(self._counts[i]) for i in self._solved(fam, shape))

    def key(self, fam: Family) -> tuple:
        """``fam`` keyed as ``block_sum_keys`` keys its families."""
        return tuple(sorted((self._id(e), c) for e, c in fam.items()))

    def _id(self, e) -> int:
        i = self._ids.get(e)
        if i is None:
            i = self._ids[e] = len(self._elems)
            self._elems.append(e)
        return i

    def _solved(self, fam: Family, shape: str) -> set:
        if shape not in _SHAPES:
            raise ValueError(f"unknown partition shape {shape!r}")
        rem = tuple((self._id(e), c) for e, c in fam.finite)
        om = tuple(self._id(e) for e in fam.omega)
        return self._solve(shape if om else UNCONSTRAINED, rem, om,
                           (0,) * len(om), self.caps.block_count)

    def _result(self, key):
        r = self._results.get(key)
        if r is None:
            r = self._results[key] = self.inst.sum(canonicalize(
                (self._elems[v], c) for v, c in key))
        return r

    def _solve(self, shape, rem, om, used, room):
        """Ids of the block-sum families that complete the residual state."""
        key = (shape, rem, om, used, room)
        out = self._memo.get(key)
        if out is not None:
            return out
        found = set()
        if not rem and all(used):
            found.add(0)  # the empty family: every omega element supplied
        splits = self.caps.omega_splits
        for value, om_take, steps, suppliers in (self._compiled(rem, om)
                                                 if room > 0 else ()):
            used2 = used
            if om_take:
                if (shape == BRACKETING
                        or any(used[j] >= splits for j in om_take)):
                    continue
                used2 = _supply(used, om_take)
            for m, rem2 in steps:
                if m > room:
                    break
                self._extend(found, self._solve(shape, rem2, om, used2,
                                                room - m), value, m)
            if (suppliers and shape != FLATTENING
                    and all(used[j] < splits for j in suppliers)):
                self._extend(found, self._solve(shape, rem, om,
                                                _supply(used, suppliers),
                                                room - 1), value, OMEGA)
        self._memo[key] = found
        return found

    def _extend(self, found: set, subs, value: int, mult):
        """Add ``mult`` copies of ``value`` to each family of ``subs``; the
        sums are interned, so sets hold small ids."""
        plus = self._plus
        for sub in subs:
            key = (sub, value, mult)
            fid = plus.get(key)
            if fid is None:
                counts = dict(self._counts[sub])
                counts[value] = counts.get(value, 0) + mult  # omega absorbs
                counts = tuple(sorted(counts.items()))
                fid = self._count_ids.get(counts)
                if fid is None:
                    fid = self._count_ids[counts] = len(self._counts)
                    self._counts.append(counts)
                plus[key] = fid
            found.add(fid)

    def _compiled(self, rem, om):
        """Summable blocks holding the least remaining finite element (or, with
        none left, made of omega elements alone), as (sum, omega elements taken
        omega, (multiplicity, remaining counts) steps for finite copies, and
        the omega elements that omega copies supply, if those are allowed)."""
        key = (rem, om)
        blocks = self._blocks.get(key)
        if blocks is not None:
            return blocks
        size, count = self.caps.block_size, self.caps.block_count
        combos = [((), 0)]  # (takes so far, size measure so far)
        for k, (_, c) in enumerate(rem):
            combos = [(takes + (t,), n + t) for takes, n in combos
                      for t in range(k == 0, min(c, size - n) + 1)]
        for _ in om:
            combos = [(takes + (t,), n + (1 if is_omega(t) else t))
                      for takes, n in combos
                      for t in list(range(size - n + 1))
                      + ([OMEGA] if n < size else [])]
        ids = [i for i, _ in rem] + list(om)
        blocks = self._blocks[key] = []
        for combo, n in combos:
            if n == 0:
                continue
            r = self._result(tuple(sorted(
                (i, t) for i, t in zip(ids, combo) if t)))
            if not r.defined:
                continue
            value = self._id(r.value)
            steps = []
            for m in range(1, min([count] + [c // t for (_, c), t
                                             in zip(rem, combo) if t]) + 1):
                left = ((e, c - m * t) for (e, c), t in zip(rem, combo))
                steps.append((m, tuple(p for p in left if p[1])))
            # omega copies of a block must leave the finite counts alone (with
            # some left, every block holds one); then each of its elements is
            # an omega element and gains a supplier
            om_part = combo[len(rem):]
            blocks.append((
                value,
                tuple(j for j, t in enumerate(om_part) if is_omega(t)),
                tuple(steps),
                () if rem else tuple(j for j, t in enumerate(om_part) if t),
            ))
        return blocks


def _supply(used, supplied) -> tuple:
    """``used`` with one more supplier at each position in ``supplied``."""
    return tuple(u + 1 if j in supplied else u for j, u in enumerate(used))
