"""One family pool per hom check, one target sum per distinct image in a hom
scan, one extension value per class, a congruence graph built from the
block-sum engine's keys and one walk over it: each checked against the loop
it replaced, kept here as the oracle, plus call counts that pin the
sharing."""
import inspect
import itertools
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigmasum.checker as checker
import sigmasum.constructions as constructions
import sigmasum.core as core
import sigmasum.family as family
import sigmasum.free_strong as free_strong
from sigmasum.checker import conclude_flavor
from sigmasum.cli import load_definition_file
from sigmasum.constructions import (
    BilinearVerdict,
    HomElement,
    chain_colimit,
    check_bilinear,
    evaluation,
    internal_hom,
    left_unitor,
    right_unitor,
    unit_instance,
)
from sigmasum.core import (
    Budget,
    ConstructionError,
    Defined,
    FiniteCarrier,
    Hom,
    HomVerdict,
    QuotientInstance,
    SigmaInstance,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    verify_hom,
)
from sigmasum.family import (
    OMEGA,
    UNCONSTRAINED,
    BlockSumEngine,
    Family,
    canonical_key,
    canonicalize,
    disjoint_union,
    families_within,
    is_omega,
    map_family,
    static_truncation,
)
from sigmasum.free_strong import (
    CongruenceCaps,
    CongruenceGraph,
    CongruenceVerdict,
    factorize,
    free_strong_quotient,
    leads_to,
)
from sigmasum.instances import (
    cyclic_instance,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
)

SMALL = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)
HOM_BUDGET = Budget(max_finite_size=2, max_omega_elems=1, trials=0, seed=7)


# -- oracles: a fresh family pool for every hom check --------------------------


def oracle_check_hom(f, source, target, budget):
    fn = f.fn if isinstance(f, Hom) else f
    checked = 0
    for fam in budget_families(source, budget):
        r = source.sum(fam)
        if not r.defined:
            continue
        checked += 1
        if target.sum(map_family(fn, fam)) != Defined(fn(r.value)):
            return HomVerdict(False, fam, checked)
    return HomVerdict(True, None, checked)


def oracle_internal_hom_members(x, y, budget):
    xs = x.carrier.elements
    members = []
    for image in itertools.product(y.carrier.elements, repeat=len(xs)):
        table = dict(zip(xs, image))
        if oracle_check_hom(table.__getitem__, x, y, budget).ok:
            members.append(HomElement(tuple(sorted(
                table.items(), key=lambda p: canonical_key(p[0])))))
    return members


def oracle_check_bilinear(h, x, y, z, budget):
    checked = 0
    for a in x.samples():
        verdict = oracle_check_hom(lambda b: h(a, b), y, z, budget)
        checked += verdict.checked
        if not verdict.ok:
            return BilinearVerdict(False, "second", a,
                                   verdict.counterexample, checked)
    for b in y.samples():
        verdict = oracle_check_hom(lambda a: h(a, b), x, z, budget)
        checked += verdict.checked
        if not verdict.ok:
            return BilinearVerdict(False, "first", b,
                                   verdict.counterexample, checked)
    return BilinearVerdict(True, checked=checked)


def oracle_factorize(weak, strong, f, caps):
    """(quotient, unit verdict, extension verdict, commutes, extension), the
    extension summing a class's image on every call."""
    quotient = free_strong_quotient(weak, strong, f, caps)
    budget = Budget(
        max_finite_size=min(caps.max_family_size, caps.block_size),
        max_omega_elems=caps.max_omega_elems,
        block_count=caps.block_count,
        block_size=caps.block_size,
        omega_splits=caps.omega_splits,
        trials=0,
    )

    def unit_fn(x):
        return quotient.class_of(Family.of(x))

    def ext_fn(cls):
        return strong.sum(map_family(f.fn, cls.rep)).value

    unit_ok = oracle_check_hom(unit_fn, weak, quotient, budget)
    ext_ok = oracle_check_hom(ext_fn, quotient, strong, budget)
    pointwise = all(f(x) == ext_fn(unit_fn(x)) for x in weak.samples())
    return (quotient, unit_ok, ext_ok, unit_ok.ok and ext_ok.ok and pointwise,
            ext_fn)


def block_sum_families(engine, fam):
    """The engine's unconstrained block-sum families of ``fam``, each key read
    back as a ``Family``."""
    return {canonicalize((engine._elems[v], c) for v, c in key)
            for key in engine.block_sum_keys(fam, UNCONSTRAINED)}


def oracle_graph(inst, caps, pool):
    """(universe, successors, truncated, components) of the congruence graph,
    with each block-sum family padded by every number of extra zeros up to
    the size caps and each padding tested for membership in the universe; a
    padding outside it clips the move."""
    zero = inst.zero
    universe = families_within(
        list(inst.samples() if pool is None else pool) + [zero],
        caps.max_family_size, caps.max_omega_elems)
    uset = set(universe)
    engine = BlockSumEngine(inst, caps.caps)
    succ, truncated = {}, False
    for fam in universe:
        truncated |= static_truncation(fam, caps.caps)
        succ[fam] = set()
        for sums in block_sum_families(engine, fam):
            paddings = [sums]
            if not is_omega(sums.count(zero)):
                room = caps.max_family_size - sums.finite_total
                paddings += [disjoint_union(sums, Family.from_counts([(zero, k)]))
                             for k in range(1, room + 1)]
                if len(sums.omega) < caps.max_omega_elems:
                    paddings.append(disjoint_union(
                        sums, Family.from_counts([(zero, OMEGA)])))
            for padded in paddings:
                if padded in uset:
                    succ[fam].add(padded)
                else:
                    truncated = True
    root = {fam: fam for fam in universe}

    def find(fam):
        while root[fam] != fam:
            fam = root[fam]
        return fam

    for fam, targets in succ.items():
        for t in targets:
            root[find(t)] = find(fam)
    comps = {}
    for fam in universe:
        comps.setdefault(find(fam), []).append(fam)
    components = sorted((sorted(c, key=Family.sort_key)
                         for c in comps.values()),
                        key=lambda c: c[0].sort_key())
    return universe, succ, truncated, components


# -- differential tests --------------------------------------------------------


def _const0():
    pm, en = pm_instance(), ext_nat_instance()
    return pm, en, verify_hom(lambda e: 0, pm, en, SMALL, name="const0")


@pytest.mark.parametrize("x, y, budget", [
    (powerset_parity_instance(("a", "b")), powerset_parity_instance(("a", "b")),
     HOM_BUDGET),
    (unit_instance(), unit_instance(), SMALL),
    (unit_instance(), pm_instance(), SMALL),
], ids=["parity", "unit-unit", "unit-pm"])
def test_internal_hom_members_match_per_table_checks(x, y, budget):
    assert internal_hom(x, y, budget).carrier.elements == \
        tuple(oracle_internal_hom_members(x, y, budget))


def _bilinear_cases():
    pm, parity, unit = (pm_instance(), powerset_parity_instance(("a", "b")),
                        unit_instance())
    h_unit, h_pm = internal_hom(unit, unit, SMALL), internal_hom(unit, pm, SMALL)
    return [
        (left_unitor(pm), unit, pm, pm),
        (right_unitor(pm), pm, unit, pm),
        (left_unitor(parity), unit, parity, parity),
        (right_unitor(parity), parity, unit, parity),
        (evaluation(), h_unit, unit, unit),
        (evaluation(), h_pm, unit, pm),
        (lambda a, b: a, pm, pm, pm),
    ]


@pytest.mark.parametrize("case", range(7))
def test_check_bilinear_matches_per_sample_checks(case):
    h, x, y, z = _bilinear_cases()[case]
    assert check_bilinear(h, x, y, z, SMALL) == \
        oracle_check_bilinear(h, x, y, z, SMALL)


SMALL_INSTANCES = [unit_instance(), powerset_parity_instance(("a",)),
                   cyclic_instance(2), cyclic_instance(3)]


@st.composite
def hom_tables(draw):
    """(source, target, table, element on which f raises or None, budget)."""
    x, y = (draw(st.sampled_from(SMALL_INSTANCES)) for _ in range(2))
    xs = x.carrier.elements
    table = dict(zip(xs, draw(st.lists(st.sampled_from(y.carrier.elements),
                                       min_size=len(xs), max_size=len(xs)))))
    poison = draw(st.sampled_from((None,) + xs))
    budget = Budget(max_finite_size=draw(st.integers(0, 3)),
                    max_omega_elems=draw(st.integers(0, 1)),
                    trials=draw(st.integers(0, 4)), seed=draw(st.integers(0, 9)))
    return x, y, table, poison, budget


def _scan(check, drawn):
    """(verdict or raised error, the arguments f was called with)."""
    x, y, table, poison, budget = drawn
    calls = []

    def f(e):
        calls.append(e)
        if e == poison:
            raise LookupError(e)
        return table[e]

    try:
        outcome = check(f, x, y, budget)
    except LookupError as err:
        outcome = ("raised", err.args)
    return outcome, calls


@settings(max_examples=150)
@given(hom_tables())
@example((cyclic_instance(3), cyclic_instance(2), {0: 0, 1: 1, 2: 1}, 2,
          Budget(max_finite_size=2, max_omega_elems=1, trials=0)))
def test_check_hom_matches_the_image_per_family_scan(drawn):
    """The same verdict, and f called on the same elements in the same order
    (so a raising f raises at the same family), as building and summing every
    image anew."""
    scan = lambda f, x, y, budget: core.check_hom(  # noqa: E731
        f, x, y, budget_families(x, budget))
    assert _scan(scan, drawn) == _scan(oracle_check_hom, drawn)


@st.composite
def bilinear_tables(draw):
    x, y, z = (draw(st.sampled_from(SMALL_INSTANCES)) for _ in range(3))
    keys = list(itertools.product(x.carrier.elements, y.carrier.elements))
    if draw(st.booleans()):
        values = [z.zero] * len(keys)  # the zero map is bilinear
    else:
        values = draw(st.lists(st.sampled_from(z.carrier.elements),
                               min_size=len(keys), max_size=len(keys)))
    budget = Budget(max_finite_size=draw(st.integers(0, 3)),
                    max_omega_elems=draw(st.integers(0, 1)),
                    trials=draw(st.integers(0, 4)), seed=draw(st.integers(0, 9)))
    return x, y, z, dict(zip(keys, values)), budget


@settings(max_examples=120)
@given(bilinear_tables())
def test_check_bilinear_matches_per_sample_checks_on_tables(drawn):
    x, y, z, table, budget = drawn
    h = lambda a, b: table[a, b]  # noqa: E731
    assert check_bilinear(h, x, y, z, budget) == \
        oracle_check_bilinear(h, x, y, z, budget)


@settings(max_examples=40)
@given(st.sampled_from(SMALL_INSTANCES), st.sampled_from(SMALL_INSTANCES),
       st.integers(0, 3), st.integers(0, 1))
def test_internal_hom_members_match_on_small_instances(x, y, size, omega):
    budget = Budget(max_finite_size=size, max_omega_elems=omega, trials=0)
    assert internal_hom(x, y, budget).carrier.elements == \
        tuple(oracle_internal_hom_members(x, y, budget))


def _finite_support_or():
    """Strong: a family over {0, 1} sums to its largest element when its omega
    part is only zeros, and has no sum otherwise."""
    def rule(fam):
        if any(e != 0 for e in fam.omega):
            return UNDEFINED
        return Defined(max((e for e, _ in fam.finite), default=0))

    return SigmaInstance("or", FiniteCarrier((0, 1)), 0, rule, flavor="strong")


def _factorize_cases():
    pm, en, const0 = _const0()
    bits = _finite_support_or()
    ident = verify_hom(lambda e: e, bits, bits, SMALL, name="id")
    return [(pm, en, const0, CongruenceCaps()),
            (pm, en, const0, CongruenceCaps(max_family_size=3)),
            (bits, bits, ident, CongruenceCaps(max_family_size=3))]


@pytest.mark.parametrize("case", range(3))
def test_factorize_matches_per_call_extension(case):
    weak, strong, f, caps = _factorize_cases()[case]
    fac = factorize(weak, strong, f, caps)
    quotient, unit_ok, ext_ok, commutes, ext_fn = oracle_factorize(
        weak, strong, f, caps)
    assert fac.quotient.classes == quotient.classes
    assert fac.quotient.carrier.elements == quotient.carrier.elements
    for fam in fac.quotient.graph.universe:
        assert fac.quotient.class_of(fam) == quotient.class_of(fam)
    assert fac.commutes == commutes
    assert (fac.unit.verified_budget is not None) == unit_ok.ok
    assert (fac.extension.verified_budget is not None) == ext_ok.ok
    values = [ext_fn(c) for c in quotient.classes]
    assert [fac.extension(c) for c in fac.quotient.classes] == values
    # the finite-support target leaves some class images without a sum
    assert (None in values) == (case == 2)


def _zero_block_toy():
    """{a, omega b} splits into {a, b} (sum 0), {b, b} (sum w) and {omega b}
    (sum u): block sums {0, w, u} over a size cap of 2, whose padding with an
    omega zero, {w, u, omega 0}, no other partition reaches."""
    table = {Family.of("a", "b"): "0", Family.of("b", "b"): "w",
             Family.from_counts([], ["b"]): "u", Family(): "0"}

    def rule(fam):
        if fam in table:
            return Defined(table[fam])
        if fam.finite_total == 1 and not fam.omega:
            return Defined(fam.finite[0][0])
        return UNDEFINED

    return SigmaInstance("toy", FiniteCarrier(["0", "a", "b", "w", "u"]), "0",
                         rule)


GRAPHS = [
    ("pm", pm_instance, CongruenceCaps(), None),
    ("parity", lambda: powerset_parity_instance(("a", "b")),
     CongruenceCaps(max_family_size=2), None),
    ("extnat", ext_nat_instance, CongruenceCaps(max_family_size=2), (0, 1, 2)),
    ("zmod3", lambda: cyclic_instance(3), CongruenceCaps(max_family_size=2),
     None),
    ("zmod3-no-omega", lambda: cyclic_instance(3),
     CongruenceCaps(max_family_size=3, max_omega_elems=0), None),
    ("extnat-two-omega", ext_nat_instance,
     CongruenceCaps(max_family_size=1, max_omega_elems=2), (0, 1, 2)),
    ("zero-block", _zero_block_toy, CongruenceCaps(max_family_size=2), None),
    ("pm-size5", pm_instance,
     CongruenceCaps(max_family_size=5, block_count=3), None),
    ("parity-size3-block2", lambda: powerset_parity_instance(("a", "b")),
     CongruenceCaps(max_family_size=3, block_size=2), None),
    ("zmod3-size3", lambda: cyclic_instance(3),
     CongruenceCaps(max_family_size=3), None),
    ("extnat-size2-two-omega", ext_nat_instance,
     CongruenceCaps(max_family_size=2, max_omega_elems=2), (0, 1, 2)),
    # finite families only, so only a block sum outside the pool, such as
    # {2, 2} -> {4}, makes the graph truncated
    ("extnat-no-omega", ext_nat_instance,
     CongruenceCaps(max_family_size=2, max_omega_elems=0), (0, 1, 2)),
    # a symbolic carrier whose samples already hold the zero
    ("int-size3", int_group_instance, CongruenceCaps(max_family_size=3), None),
    # block sums outside the universe: 11,743 of the 11,943 (member, block-sum
    # family) pairs here, and 189 of 1,345 in the next case, where they have
    # two omega elements or four finite ones; the oracle's unbounded engine
    # forms them all, the graph's engine none with a value outside the pool
    ("extnat-size3", ext_nat_instance, CongruenceCaps(max_family_size=3),
     (0, 1, 2)),
    ("parity-size3", lambda: powerset_parity_instance(("a", "b")),
     CongruenceCaps(max_family_size=3), None),
]


@pytest.mark.parametrize("name, make, caps, pool", GRAPHS,
                         ids=[g[0] for g in GRAPHS])
def test_congruence_graph_matches_unpruned_paddings(name, make, caps, pool):
    inst = make()
    graph = CongruenceGraph(inst, caps, pool=pool)
    universe, succ, truncated, components = oracle_graph(inst, caps, pool)
    assert graph.universe == universe
    assert graph.truncated == truncated
    for fam in universe:
        assert graph.successors(fam) == succ[fam]
    assert graph.components() == components


def assert_bounded_engine_matches(inst, caps, pool, asks):
    """An engine bounded by ``pool`` gives, for each asked family, exactly
    the unbounded engine's block-sum families whose values all lie in the
    pool, and has ``dropped`` once some asked family had one outside it."""
    bounded = BlockSumEngine(inst, caps, list(pool))
    unbounded = BlockSumEngine(inst, caps)
    left_out = False
    for fam in asks:
        everything = block_sum_families(unbounded, fam)
        inside = {s for s in everything if all(e in pool for e in s.support())}
        left_out |= inside != everything
        assert block_sum_families(bounded, fam) == inside, fam
        assert bounded.dropped == left_out, fam


@pytest.mark.parametrize("name, make, caps, pool", GRAPHS,
                         ids=[g[0] for g in GRAPHS])
def test_pool_bounded_engine_keeps_the_keys_inside_the_pool(name, make, caps,
                                                            pool):
    inst = make()
    elems = list(inst.samples() if pool is None else pool) + [inst.zero]
    assert_bounded_engine_matches(
        inst, caps.caps, elems,
        families_within(elems, caps.max_family_size, caps.max_omega_elems))


@st.composite
def table_engines(draw):
    """(instance, caps, pool, asked families): a definition file's table of
    summable families over 0, a and b, each singleton summing to itself, an
    element pool holding the zero, and families over all three elements."""
    elements = ["0", "a", "b"]
    fams = st.builds(
        lambda finite, omega: Family.from_counts([(e, 1) for e in finite],
                                                 omega),
        st.lists(st.sampled_from(elements), max_size=3),
        st.lists(st.sampled_from(elements), max_size=2, unique=True))
    rows = draw(st.dictionaries(fams, st.sampled_from(elements), max_size=12))
    rows.update({Family.of(e): e for e in elements})  # the singleton law
    spec = {"elements": elements, "zero": "0", "sums": [
        {"finite": [e for e, c in fam.finite for _ in range(c)],
         "omega": list(fam.omega), "value": value}
        for fam, value in rows.items()]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        inst = load_definition_file(path)
    pool = ["0"] + draw(st.lists(st.sampled_from(["a", "b"]), unique=True))
    caps = draw(st.builds(family.Caps, st.integers(1, 3), st.integers(1, 3),
                          st.integers(1, 2)))
    unions = st.lists(st.sampled_from(list(rows)), min_size=1,
                      max_size=3).map(lambda parts: disjoint_union(*parts))
    asks = draw(st.lists(st.one_of(unions, fams), min_size=1, max_size=4))
    return inst, caps, pool, asks


@settings(max_examples=150)
@given(table_engines())
def test_pool_bounded_engine_matches_on_definition_file_tables(drawn):
    assert_bounded_engine_matches(*drawn)


def test_the_extnat_graph_interns_only_block_sums_inside_its_pool(monkeypatch):
    # an unbounded engine interns 2,129 block-sum families here
    built = []

    class Counted(BlockSumEngine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(free_strong, "BlockSumEngine", Counted)
    graph = CongruenceGraph(ext_nat_instance(),
                            CongruenceCaps(max_family_size=2), pool=(0, 1, 2))
    (engine,) = built
    assert len(engine._counts) <= 60
    assert len(engine._memo) == 78
    assert engine.dropped and graph.truncated


def oracle_related(graph, a, b, depth):
    """The breadth-first search that answered ``related`` on its own: it
    stops at the first sight of ``b`` and reads the chain off its parents."""
    if a == b:
        return CongruenceVerdict(True, [(a, None)], truncated=graph.truncated)
    parent = {a: None}
    frontier = [a]
    exhausted = False
    for _ in range(depth):
        new = []
        for fam in frontier:
            for nxt in sorted(graph._undirected[fam], key=Family.sort_key):
                if nxt in parent:
                    continue
                parent[nxt] = fam
                if nxt == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(parent[path[-1]])
                    path.reverse()
                    chain = [(cur, "forward" if later in graph.successors(cur)
                              else "backward")
                             for cur, later in zip(path, path[1:])]
                    return CongruenceVerdict(True, chain + [(b, None)],
                                             truncated=graph.truncated)
                new.append(nxt)
        frontier = new
        if not frontier:
            break
    else:
        exhausted = bool(frontier)
    return CongruenceVerdict(False, [], depth_exhausted=exhausted,
                             truncated=graph.truncated)


def oracle_components(graph):
    """The depth-first traversal that found the components on its own."""
    seen = set()
    comps = []
    for fam in graph.universe:
        if fam in seen:
            continue
        comp = []
        stack = [fam]
        seen.add(fam)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in graph._undirected[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(sorted(comp, key=Family.sort_key))
    return comps


WALKS = [
    # (id, instance, caps, pool, pairs to sample; None: every ordered pair)
    ("pm-no-omega", pm_instance,
     CongruenceCaps(max_family_size=3, max_omega_elems=0), None, None),
    *((name, make, caps, pool, 60) for name, make, caps, pool in GRAPHS),
]


@pytest.mark.parametrize("name, make, caps, pool, sample", WALKS,
                         ids=[c[0] for c in WALKS])
def test_one_walk_matches_the_search_and_the_traversal(name, make, caps, pool,
                                                       sample):
    """``related`` and ``components`` share one breadth-first walk; both
    match the separate search and traversal they replaced, at depths 0-6."""
    graph = CongruenceGraph(make(), caps, pool=pool)
    assert graph.components() == oracle_components(graph)
    pairs = list(itertools.product(graph.universe, repeat=2))
    if sample is not None:
        pairs = random.Random(7).sample(pairs, sample)
    for a, b in pairs:
        for depth in range(7):
            assert graph.related(a, b, depth) == \
                oracle_related(graph, a, b, depth), (a, b, depth)


ONE_STEP = [
    # (id, instance, caps, pool, pairs to sample; None: every ordered pair)
    ("pm", pm_instance, CongruenceCaps(max_family_size=3, max_omega_elems=0),
     None, None),
    ("zmod3", lambda: cyclic_instance(3),
     CongruenceCaps(max_family_size=3, max_omega_elems=0), None, None),
    # a negative walks the whole partition stream of `a`, so sample
    ("pm-omega", pm_instance, CongruenceCaps(max_family_size=2), None, 60),
    ("extnat-omega", ext_nat_instance, CongruenceCaps(max_family_size=2),
     (0, 1, 2), 60),
]


@pytest.mark.parametrize("name, make, caps, pool, sample", ONE_STEP,
                         ids=[c[0] for c in ONE_STEP])
def test_leads_to_agrees_with_graph_successors(name, make, caps, pool, sample):
    """The partition stream (``leads_to``) and the engine's keys
    (``CongruenceGraph.successors``) decide the same one-step moves inside
    the universe."""
    inst = make()
    graph = CongruenceGraph(inst, caps, pool=pool)
    pairs = list(itertools.product(graph.universe, repeat=2))
    if sample is not None:
        pairs = random.Random(7).sample(pairs, sample)
    for a, b in pairs:
        assert leads_to(inst, a, b, caps).holds == (b in graph.successors(a)), \
            (a, b)


def test_congruence_graph_builds_only_the_blocks_it_sums(monkeypatch):
    """The edges come from the engine's keys: the engine builds a ``Family``
    only for a block it hands to the rule, once per distinct block, never for
    a block-sum family (at size 2, an unbounded engine's 6,275 (member,
    block-sum family) pairs have 6,188 outside the universe). Built counts
    the families summed inside ``BlockSumEngine._result``, which builds them
    from keys."""
    built, summed, inside = [], [], []

    def counted_result(engine, key, _result=BlockSumEngine._result):
        inside.append(key)
        try:
            return _result(engine, key)
        finally:
            inside.pop()

    def counted_sum(inst, fam, _sum=SigmaInstance.sum):
        summed.append(fam)
        if inside:
            built.append(fam)
        return _sum(inst, fam)

    monkeypatch.setattr(BlockSumEngine, "_result", counted_result)
    monkeypatch.setattr(SigmaInstance, "sum", counted_sum)
    CongruenceGraph(ext_nat_instance(), CongruenceCaps(max_family_size=2),
                    pool=(0, 1, 2))
    assert built == summed
    assert len(set(built)) == len(built) == 52


# -- one pool per call ---------------------------------------------------------


@pytest.fixture
def pool_calls(monkeypatch):
    """Names of the instances whose family pool was built, in order."""
    calls = []

    def counted(inst, budget, _pool=core.budget_families):
        calls.append(inst.name)
        return _pool(inst, budget)

    for module in (core, checker, constructions, free_strong):
        monkeypatch.setattr(module, "budget_families", counted, raising=False)
    return calls


def test_internal_hom_builds_one_pool(pool_calls):
    parity = powerset_parity_instance(("a", "b"))
    internal_hom(parity, parity, HOM_BUDGET)
    assert pool_calls == [parity.name]


def test_check_bilinear_builds_one_pool_per_slot(pool_calls):
    pm, unit = pm_instance(), unit_instance()
    assert check_bilinear(left_unitor(pm), unit, pm, pm, SMALL).ok
    assert pool_calls == ["pm", "unit"]


def test_factorize_builds_one_pool_per_check(pool_calls):
    pm, en, const0 = _const0()
    pool_calls.clear()
    fac = factorize(pm, en, const0, CongruenceCaps(max_family_size=3))
    assert pool_calls == ["pm", fac.quotient.name]


@pytest.fixture
def hom_scans(monkeypatch):
    """Source names of the hom scans the constructions run, in order."""
    calls = []

    def counted(f, source, target, fams, _scan=core.check_hom):
        calls.append(source.name)
        return _scan(f, source, target, fams)

    monkeypatch.setattr(constructions, "check_hom", counted)
    return calls


def test_internal_hom_scans_once_per_candidate_table(hom_scans):
    parity = powerset_parity_instance(("a", "b"))
    internal_hom(parity, parity, HOM_BUDGET)
    assert hom_scans == [parity.name] * 4 ** 4


def test_check_bilinear_scans_once_per_fixed_sample(hom_scans):
    pm, unit = pm_instance(), unit_instance()
    assert check_bilinear(left_unitor(pm), unit, pm, pm, SMALL).ok
    # h(n, -) over pm for each unit sample, then h(-, a) over unit for each
    # pm sample
    assert hom_scans == (["pm"] * len(unit.samples())
                         + ["unit"] * len(pm.samples()))


def test_suite_with_inversion_map_builds_one_pool(pool_calls):
    conclude_flavor(int_group_instance(), Budget(max_finite_size=3, trials=0))
    assert pool_calls == ["int"]


def test_factorize_sums_each_class_image_once():
    pm, en = pm_instance(), ext_nat_instance()
    calls = []

    def counting(e):
        calls.append(e)
        return 0

    const0 = verify_hom(counting, pm, en, SMALL, name="const0")
    caps = CongruenceCaps(max_family_size=3)
    calls.clear()
    free_strong_quotient(pm, en, const0, caps)
    quotient_calls = len(calls)
    calls.clear()
    fac = factorize(pm, en, const0, caps)
    # beyond the quotient's own: one image per class, and f on each sample
    # for the pointwise triangle
    assert len(calls) - quotient_calls == \
        sum(len(c.rep.items()) for c in fac.quotient.classes) + len(pm.samples())


# -- carriers without samples and the quotient's graph -------------------------


def _bare(name):
    return SigmaInstance(name, SymbolicCarrier(lambda e: True, ()), 0,
                         lambda fam: Defined(0))


@pytest.mark.parametrize("x_bare, y_bare", [(True, True), (True, False),
                                            (False, True)])
def test_check_bilinear_raises_on_a_carrier_without_samples(x_bare, y_bare):
    unit = unit_instance()
    x = _bare("bare_x") if x_bare else unit
    y = _bare("bare_y") if y_bare else unit
    with pytest.raises(ConstructionError, match="symbolic carrier without samples"):
        check_bilinear(lambda a, b: 0, x, y, unit, SMALL)


def test_quotient_graph_is_a_constructor_field():
    assert inspect.signature(QuotientInstance).parameters["graph"].default is None
    pm, en, const0 = _const0()
    caps = CongruenceCaps(max_family_size=3)
    quotient = free_strong_quotient(pm, en, const0, caps)
    assert isinstance(quotient.graph, CongruenceGraph)
    assert quotient.graph.universe == CongruenceGraph(pm, caps).universe
    unit = unit_instance()
    ident = verify_hom(lambda e: e, unit, unit, SMALL)
    assert chain_colimit([unit, unit], [ident]).graph is None


def test_factors_embed_and_stage_map_are_constructor_fields():
    # ``factors`` is the field a product sets; a restriction's inclusion is
    # the identity and a colimit's stage map ``class_of((i, e))``, no fields
    assert inspect.signature(SigmaInstance).parameters["factors"].default \
        is None
    pm, unit = pm_instance(), unit_instance()
    assert constructions.product(pm, unit).factors == (pm, unit)
    assert pm.factors is None
