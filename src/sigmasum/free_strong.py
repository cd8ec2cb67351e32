"""The partition-sum relation on families, its zig-zag equivalence closure,
and the induced quotient instances.

One step of the relation replaces a family by the family of block sums of one
of its partitions into summable blocks (absorbing any number of extra zeros,
which realizes partitions with empty blocks). The equivalence closure is
explored inside a cap-bounded universe of families; all verdicts are relative
to those caps and say so.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .family import (
    EMPTY,
    OMEGA,
    UNCONSTRAINED,
    BlockSumEngine,
    Caps,
    Family,
    NonNegative,
    families_within,
    first_partition_sums,
    map_family,
    static_truncation,
)
from .core import (
    Budget,
    ClassElement,
    ConstructionError,
    Defined,
    FiniteCarrier,
    Hom,
    QuotientInstance,
    SigmaInstance,
    UNDEFINED,
    budget_families,
    check_hom,
)


@dataclass(frozen=True)
class CongruenceCaps(NonNegative):
    """Bounds for congruence exploration: the family universe (size and omega
    entries), the partition caps, and the zig-zag chain depth."""

    max_family_size: int = 4
    max_omega_elems: int = 1
    block_count: int = 4
    block_size: int = 4
    omega_splits: int = 2
    depth: int = 4

    @property
    def caps(self) -> Caps:
        return Caps(self.block_count, self.block_size, self.omega_splits)


@dataclass(frozen=True)
class LeadsTo:
    holds: bool
    witness: object = None  # the partition, when holds
    truncated: bool = False


def _zero_split(pairs, zero) -> tuple:
    """The (element, count) pairs but ``zero``'s, and ``zero``'s count."""
    return (tuple(p for p in pairs if p[0] != zero),
            next((c for e, c in pairs if e == zero), 0))


def _covers(have, want) -> bool:
    """Is the zero split ``want`` the split ``have`` plus any number (even
    omega) of zeros? An omega count is ``inf``: only omega covers it."""
    return have[0] == want[0] and want[1] >= have[1]


def _matches_up_to_zeros(sums: Family, target: Family, zero) -> bool:
    """target == sums plus any number (possibly omega) of extra zeros."""
    return _covers(_zero_split(sums.items(), zero),
                   _zero_split(target.items(), zero))


def leads_to(inst: SigmaInstance, a: Family, b: Family,
             caps: CongruenceCaps = CongruenceCaps()) -> LeadsTo:
    """One-step relation: some partition of ``a`` into summable blocks has
    block sums forming exactly ``b`` (up to extra zeros, i.e. empty blocks)."""
    pcaps = caps.caps
    part, _ = first_partition_sums(
        inst, a, UNCONSTRAINED, pcaps,
        lambda sums: _matches_up_to_zeros(sums, b, inst.zero))
    return LeadsTo(part is not None, part, static_truncation(a, pcaps))


@dataclass
class CongruenceVerdict:
    related: bool
    chain: list = field(default_factory=list)  # [(family, step), ...]; step
    # is "forward", "backward" or None on the last entry
    depth_exhausted: bool = False
    truncated: bool = False


class CongruenceGraph:
    """The one-step relation restricted to a bounded universe of families.

    Nodes are every family over the element pool within the size caps; edges
    are one-step moves. Undirected reachability is the cap-relative rendering
    of the zig-zag equivalence closure. Edges come from one
    ``BlockSumEngine``'s keys: each distinct block-sum key is matched once
    against the universe, indexed by zero-free key, so no block-sum family is
    built as a ``Family``, and none with a value outside the pool is formed.
    """

    def __init__(self, inst: SigmaInstance, caps: CongruenceCaps = CongruenceCaps(),
                 pool=None):
        elems = list(inst.samples() if pool is None else pool) + [inst.zero]
        self.universe = families_within(elems, caps.max_family_size,
                                        caps.max_omega_elems)
        engine = BlockSumEngine(inst, caps.caps, elems)
        zero = engine.key(Family(((inst.zero, 1),)))[0][0]  # its element id
        bucket: dict = {}
        for fam in self.universe:
            split = _zero_split(engine.key(fam), zero)
            bucket.setdefault(split[0], []).append((split, fam))
        moves: dict = {}  # block-sum key -> the members it leads to
        self.truncated = False
        self._succ: dict = {}
        self._undirected: dict = {fam: set() for fam in self.universe}
        for fam in self.universe:
            self.truncated |= static_truncation(fam, engine.caps)
            targets = self._succ[fam] = set()
            for key in engine.block_sum_keys(fam, UNCONSTRAINED):
                if key not in moves:
                    have = _zero_split(key, zero)
                    members = bucket.get(have[0], ())
                    # a member's zero paddings within the caps are members,
                    # so only a block-sum family outside clips the move
                    self.truncated |= have not in [w for w, _ in members]
                    moves[key] = [t for w, t in members if _covers(have, w)]
                targets.update(moves[key])
            self._undirected[fam] |= targets
            for t in targets:
                self._undirected[t].add(fam)
        self.truncated |= engine.dropped

    def successors(self, fam: Family) -> set:
        return self._succ[fam]

    def _walk(self, a: Family, depth: int, b=None):
        """Breadth-first from ``a`` over the undirected edges, neighbours in
        ``Family.sort_key`` order, for at most ``depth`` levels, stopping once
        ``b`` is reached. Returns each reached family's parent and the last
        level's frontier."""
        parent, frontier, level = {a: None}, [a], 0
        while frontier and level < depth and b not in parent:
            new = []
            for fam in frontier:
                for nxt in sorted(self._undirected[fam], key=Family.sort_key):
                    if nxt not in parent:
                        parent[nxt] = fam
                        new.append(nxt)
            frontier = new
            level += 1
        return parent, frontier

    def related(self, a: Family, b: Family, depth: int) -> CongruenceVerdict:
        """Is ``b`` within ``depth`` undirected steps of ``a``? The chain is
        the breadth-first path, each step marked forward or backward; a
        negative verdict is ``depth_exhausted`` when the walk still had
        families to expand at the depth bound."""
        if a not in self._succ or b not in self._succ:
            raise ConstructionError("family outside the explored universe")
        parent, frontier = self._walk(a, depth, b)
        if b not in parent:
            return CongruenceVerdict(False, [], depth_exhausted=bool(frontier),
                                     truncated=self.truncated)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        chain = [(cur, "forward" if nxt in self._succ[cur] else "backward")
                 for cur, nxt in zip(path, path[1:])]
        chain.append((b, None))
        return CongruenceVerdict(True, chain, truncated=self.truncated)

    def components(self) -> list:
        """Connected components, each the set the walk reaches from its least
        member, sorted by ``Family.sort_key``, in the order of their least
        members: the universe is in that order."""
        seen, comps = set(), []
        for fam in self.universe:
            if fam not in seen:
                comp = sorted(self._walk(fam, len(self.universe))[0],
                              key=Family.sort_key)
                seen.update(comp)
                comps.append(comp)
        return comps


def equivalent(inst: SigmaInstance, a: Family, b: Family,
               caps: CongruenceCaps = CongruenceCaps()) -> CongruenceVerdict:
    """Are two families joined by a zig-zag chain of one-step moves of length
    at most ``caps.depth``, inside the cap-bounded universe over the samples
    and the elements of ``a`` and ``b``?"""
    pool = list(inst.samples()) + [e for f in (a, b) for e in f.support()]
    return CongruenceGraph(inst, caps, pool=pool).related(a, b, caps.depth)


def free_strong_quotient(weak: SigmaInstance, strong: SigmaInstance, f: Hom,
                         caps: CongruenceCaps = CongruenceCaps()
                         ) -> QuotientInstance:
    """Quotient of the cap-bounded family universe by the zig-zag closure,
    restricted to classes whose image under ``f`` is summable in the strong
    target; a class family sums to the class of the disjoint union of
    representatives whenever that class is again in the carrier. The union is
    counted, not canonicalized: one index from counts to ``Defined(class)``
    serves the class sum and ``class_of``. The sum depends on the chosen
    representatives: it is ``Undefined`` when their union leaves the universe,
    so ``factorize(extnat, extnat, id)`` does not commute: ``{omega: [1]}``
    with omega copies of ``{2}`` has 2 omega elements, above the cap of 1.

    For several (target, hom) pairs build one quotient per pair and combine
    with ``intersect_instances``; the class elements coincide across quotients
    of the same source at the same caps, so the carriers intersect cleanly.
    The result is a lower approximation of the free strong structure, and all
    of its verdicts are relative to the caps.
    """
    if not isinstance(f, Hom) or f.verified_budget is None:
        raise ConstructionError("f must be a verified hom")
    if f.source is not weak or f.target is not strong:
        raise ConstructionError("f must map the weak instance to the strong one")
    if strong.flavor != "strong":
        raise ConstructionError("target instance is not declared strong")

    graph = CongruenceGraph(weak, caps)
    index: dict = {}  # frozenset(fam.items()) -> Defined(its class)
    classes, admitted = [], []
    for comp in graph.components():
        cls = ClassElement(comp[0])
        # image summability is constant on a component: every step is a
        # genuine one-step move, which strong targets respect
        summable = {strong.sum(map_family(f.fn, fam)).defined for fam in comp}
        if len(summable) > 1:
            raise ConstructionError(
                "component mixes summable and unsummable images")
        index.update(dict.fromkeys(
            (frozenset(fam.items()) for fam in comp), Defined(cls)))
        classes.append(cls)
        if summable == {True}:
            admitted.append(cls)

    def class_of(fam: Family):
        return index.get(frozenset(fam.items()), UNDEFINED).value

    def rule(fam_of_classes: Family):
        counts = {}  # counts are nonzero: a product with omega is omega
        for cls, c in fam_of_classes.finite:
            for e, ce in cls.rep.finite:
                counts[e] = counts.get(e, 0) + c * ce
            for e in cls.rep.omega:
                counts[e] = OMEGA
        for cls in fam_of_classes.omega:
            for e in cls.rep.support():
                counts[e] = OMEGA
        return index.get(frozenset(counts.items()), UNDEFINED)

    return QuotientInstance(
        f"free_strong({weak.name})",
        FiniteCarrier(admitted), class_of(EMPTY), rule,
        class_of=class_of, classes=classes, flavor="strong",
        graph=graph,
    )


def intersect_instances(instances) -> SigmaInstance:
    """Pointwise intersection: a family sums to x exactly when every instance
    agrees on Defined(x). The carrier is the first one's members that every
    other carrier has (finite when the first is); zeros must coincide."""
    instances = list(instances)
    if not instances:
        raise ConstructionError("need at least one instance")
    first = instances[0]
    if any(i.zero != first.zero for i in instances):
        raise ConstructionError("carrier mismatch: zeros differ")
    if len(instances) == 1:
        return first

    carrier = first.carrier.where(
        lambda e: all(e in i.carrier for i in instances[1:]))

    def rule(fam: Family):
        head, *rest = [i.sum(fam) for i in instances]
        return head if head.defined and all(r == head for r in rest) else UNDEFINED

    flavor = "strong" if all(i.flavor == "strong" for i in instances) else "weak"
    return SigmaInstance("&".join(i.name for i in instances),
                         carrier, first.zero, rule, flavor=flavor,
                         codec=first.codec)


@dataclass(frozen=True)
class Factorization:
    """Outcome of factoring a hom into a strong instance through the quotient:
    the unit (x -> class of {x}), the extension on classes, and whether the
    triangle commutes with both maps verified."""

    quotient: QuotientInstance
    unit: Hom
    extension: Hom
    commutes: bool


def factorize(weak: SigmaInstance, strong: SigmaInstance, f: Hom,
              caps: CongruenceCaps = CongruenceCaps()) -> Factorization:
    """Build the quotient along f and factor f through it.

    The unit sends x to the class of the singleton family {x}; the extension
    sends a class to the target sum of the image of its representative (None
    when that image has no sum), computed once per class of the quotient.
    ``commutes`` holds when f equals extension-after-unit pointwise on the
    samples and both maps pass check_hom at the budget the caps give: families
    up to ``min(max_family_size, block_size)``, no random trials.
    """
    quotient = free_strong_quotient(weak, strong, f, caps)
    budget = Budget(min(caps.max_family_size, caps.block_size),
                    caps.max_omega_elems, caps.block_count, caps.block_size,
                    caps.omega_splits, trials=0)

    def unit_fn(x):
        cls = quotient.class_of(Family.of(x))
        if cls is None:
            raise ConstructionError(f"singleton of {x!r} is outside the universe")
        return cls

    ext_fn = {cls: strong.sum(map_family(f.fn, cls.rep)).value
              for cls in quotient.classes}.__getitem__
    unit_ok = check_hom(unit_fn, weak, quotient, budget_families(weak, budget))
    ext_ok = check_hom(ext_fn, quotient, strong,
                       budget_families(quotient, budget))
    pointwise = all(f(x) == ext_fn(unit_fn(x)) for x in weak.samples())
    commutes = unit_ok.ok and ext_ok.ok and pointwise
    unit = Hom(weak, quotient, unit_fn, "unit",
               budget if unit_ok.ok else None)
    extension = Hom(quotient, strong, ext_fn, "extension",
                    budget if ext_ok.ok else None)
    return Factorization(quotient, unit, extension, commutes)
