"""The library has no runtime dependencies: every module under ``sigmasum``
imports only the standard library and ``sigmasum`` itself, only at module
level (the package's lazy exports are the one deferred import), uses every
name it imports, takes no private name of a sibling module, reads no
private attribute of anything but ``self`` and uses each private name it
binds at module level, reads every parameter it takes, and stores no
attribute that only unit tests read, and bounds a block-sum engine by a
pool only in the congruence graph; every law a suite names has its
function, and the benchmark's tracer and the command line spell the
checker's law and flavor names alike. The package exports, by defining
submodule, the names listed here, a cold
``sigmasum net`` loads only the net engine, and every module is written
in the Python 3.10 grammar that ``requires-python`` declares."""
import argparse
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmasum
from sigmasum import checker, cli


def test_library_imports_only_the_standard_library():
    root = Path(sigmasum.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "sigmasum" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(root)}: {name}")
    assert foreign == []


def test_library_parses_as_python_3_10():
    """``requires-python`` is ``>=3.10``: no module may use later syntax,
    such as ``except*``, which the 3.10 grammar refuses."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    root = Path(sigmasum.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _is_import_call(node):
    """A call of ``importlib.import_module``, ``import_module`` or
    ``__import__``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "import_module"
            or isinstance(func, ast.Name)
            and func.id in ("import_module", "__import__"))


def test_library_imports_only_at_module_level():
    root = Path(sigmasum.__file__).parent
    nested = set()
    calls = {}  # call site -> innermost enclosing function
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = str(path.relative_to(root))
        for node in ast.walk(tree):  # outer functions come before inner ones
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{where}:{inner.lineno}"
                           for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))}
                calls.update({f"{where}:{inner.lineno}": f"{where} {node.name}"
                              for inner in ast.walk(node)
                              if _is_import_call(inner)})
    assert sorted(nested) == []
    assert list(calls.values()) == ["__init__.py __getattr__"]


def _imported_names(tree):
    """(bound name, imported name, sibling) for each import of the module;
    ``sibling`` says whether the name comes from another sigmasum module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0],
                       alias.name, alias.name.startswith("sigmasum."))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sibling = node.level > 0 or (node.module or "").startswith(
                "sigmasum")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, sibling


def test_library_modules_use_every_import_and_no_private_sibling_name():
    root = Path(sigmasum.__file__).parent
    problems = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for bound, name, sibling in _imported_names(tree):
            where = f"{path.relative_to(root)}: {name}"
            if bound not in used:
                problems.append(f"{where} is never used")
            if sibling and name.startswith("_"):
                problems.append(f"{where} is private to its module")
    assert problems == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_library_reads_private_attributes_only_of_self():
    """``x._name``, ``getattr(x, "_name")`` and ``hasattr(x, "_name")`` take
    an underscored, non-dunder attribute; only ``self`` may be ``x``, so one
    module uses another's objects (such as a ``BlockSumEngine``) through their
    public methods alone."""
    root = Path(sigmasum.__file__).parent
    reads = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and _is_private(node.attr):
                owner = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)
                  and _is_private(node.args[1].value)):
                owner = node.args[0]
            else:
                continue
            if not (isinstance(owner, ast.Name) and owner.id == "self"):
                reads.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


def test_every_law_in_a_suite_has_its_function_and_no_other():
    """The runner dispatches law ``x`` to ``checker._law_x`` by name, so a
    misspelt law or a law function no suite names shows only here; each
    law's group is one that some flavor requires."""
    defined = sorted(n.removeprefix("_law_") for n in vars(checker)
                     if n.startswith("_law_"))
    assert sorted(checker.LAWS) == defined
    assert all(callable(getattr(checker, "_law_" + law))
               for law in checker.LAWS)
    assert set(checker.LAWS.values()) == set().union(*checker.FLAVORS.values())


def test_the_law_and_flavor_names_agree_wherever_they_are_spelt():
    """The benchmark's tracer, the command line's flavor check and its
    ``--laws`` choices spell the checker's names again without importing
    them; a law the tracer no longer names would read 0 without any error."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tuple(checker.LAWS) == tracing.LAWS
    assert set(cli._FLAVORS) == set(checker.FLAVORS)
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    check = commands.choices["check"]
    choices = next(action.choices for action in check._actions
                   if action.dest == "laws")
    near = set(checker.LAWS) | set(checker.LAWS.values()) \
        | set(checker.FLAVORS) | {"", "ALL", "weak "}
    for selector in sorted(near | set(choices)):
        try:
            checker.suite_for(selector)
        except KeyError:
            assert selector not in choices
        else:
            assert selector in choices


def test_every_private_module_level_name_is_used_in_its_module():
    """A module-level ``_name`` (function, class or binding) is referenced in
    its own module, other than where it is bound; the law functions, which
    the runner finds by name, are checked by the test above instead."""
    root = Path(sigmasum.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(root)
        bound = [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))]
        bound += [target.id for node in tree.body
                  if isinstance(node, ast.Assign) for target in node.targets
                  if isinstance(target, ast.Name)]
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unused += [f"{where}: {name}" for name in bound
                   if _is_private(name) and name not in loaded
                   and not (where.name == "checker.py"
                            and name.startswith("_law_"))]
    assert unused == []


def test_every_parameter_is_read():
    """Each ``def`` reads every parameter but ``self`` in its body, nested
    functions included. The one exemption is ``fams`` and ``engine`` of the
    law functions: the runner calls every law as ``(inst, fams, engine)``."""
    root = Path(sigmasum.__file__).parent
    unread = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {inner.id for stmt in node.body for inner in ast.walk(stmt)
                    if isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)}
            exempt = {"self"} | ({"fams", "engine"}
                                 if node.name.startswith("_law_") else set())
            unread += [f"{where}:{node.lineno} {node.name}({name})"
                       for name in params
                       if name not in read and name not in exempt]
    assert unread == []


def _stored_attributes(tree):
    """``Class.name`` for each public dataclass field and each public
    ``self.name = ...`` in an ``__init__``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        if any(ast.unparse(d).startswith("dataclass")
               for d in cls.decorator_list):
            names += [node.target.id for node in cls.body
                      if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)]
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                names += [node.attr for node in ast.walk(init)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "self"]
        yield from (f"{cls.name}.{name}" for name in names
                    if not name.startswith("_"))


def _attributes_read(tree):
    """Names read as ``x.name`` or as ``getattr``/``hasattr`` strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_stored_attribute_is_read():
    """A public field or ``__init__`` attribute of a library class is read
    by the library, the benchmark, a demo or the acceptance tests; a value
    only unit tests read is an option no caller needs."""
    root = Path(sigmasum.__file__).parent
    repo = Path(__file__).resolve().parent.parent
    readers = [*root.rglob("*.py"), *(repo / "bench").rglob("*.py"),
               *(repo / "demos").rglob("*.py"),
               repo / "tests" / "test_acceptance.py"]
    read = {name for path in readers
            for name in _attributes_read(ast.parse(path.read_text(), str(path)))}
    stored = [name for path in sorted(root.rglob("*.py"))
              for name in _stored_attributes(ast.parse(path.read_text(),
                                                       str(path)))]
    assert stored
    assert [name for name in stored
            if name.partition(".")[2] not in read] == []


def test_only_the_congruence_graph_bounds_a_block_sum_engine():
    """A pool-bounded engine forms no block-sum family with a value outside
    its pool. In a law scan that would hide block sums and turn a ``fail``
    into a ``pass``, so only ``CongruenceGraph`` passes a pool."""
    root = Path(sigmasum.__file__).parent
    bounded, built = [], 0
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func).endswith("BlockSumEngine")):
                    built += 1
                    if len(node.args) + len(node.keywords) > 2:
                        bounded.append(f"{path.name}: {top.name}")
    assert built >= 2
    assert bounded == ["free_strong.py: CongruenceGraph"]


def test_omega_is_spelled_only_as_family_omega():
    """The only ``float("inf")`` in the library defines ``family.OMEGA``;
    every other omega multiplicity goes through it."""
    root = Path(sigmasum.__file__).parent
    spelled = []
    for path in sorted(root.rglob("*.py")):
        text, where = path.read_text(), path.relative_to(root)
        lines = text.splitlines()
        spelled += [f"{where}: {lines[node.lineno - 1].strip()}"
                    for node in ast.walk(ast.parse(text, str(path)))
                    if isinstance(node, ast.Call) and ast.unparse(node).lower()
                    in ("float('inf')", "float('+inf')", "float('infinity')")]
    assert spelled == ['family.py: OMEGA = float("inf")']


def test_cold_net_loads_only_the_net_engine():
    code = ("import sys, sigmasum.cli; "
            "code = sigmasum.cli.main(['net', '--gen', 'finite(1.0)']); "
            "print(sorted(m for m in sys.modules if m.startswith('sigmasum')))"
            "; sys.exit(code)")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, (
        "converged 1 ±0\n"
        "['sigmasum', 'sigmasum.cli', 'sigmasum.net_sum']\n"), "")


# the package's exports by defining submodule
EXPORTS = {
    "family": [
        "BRACKETING", "FLATTENING", "UNCONSTRAINED", "BlockSumEngine", "Caps",
        "EMPTY", "Family", "OMEGA", "Partition", "canonical_key",
        "canonicalize", "disjoint_union", "enumerate_partitions",
        "families_within", "format_family_literal", "intersect", "is_omega",
        "is_subfamily", "map_family", "static_truncation", "subfamilies"],
    "core": [
        "Budget", "CarrierError", "ClassElement", "ConstructionError",
        "Defined", "FiniteCarrier", "Hom", "HomVerdict",
        "HomVerificationError", "QuotientInstance", "SigmaInstance",
        "SumResult", "SymbolicCarrier", "UNDEFINED", "budget_families",
        "check_hom", "compose_homs", "verify_hom"],
    "instances": [
        "ElementCodec", "FiniteMonoid", "INFINITY", "cyclic_instance",
        "cyclic_monoid", "discrete_instance", "ext_nat_instance",
        "extended_sum_discrete", "int_group_instance", "pm_instance",
        "powerset_parity_instance", "real_abs_instance", "restrict_instance",
        "unit_interval_instance"],
    "constructions": [
        "BilinearVerdict", "HomElement", "chain_colimit", "check_bilinear",
        "equaliser", "evaluation", "internal_hom", "left_unitor", "pairing",
        "product", "projections", "right_unitor", "unit_instance"],
    "free_strong": [
        "CongruenceCaps", "CongruenceGraph", "CongruenceVerdict",
        "Factorization", "LeadsTo", "equivalent", "factorize",
        "free_strong_quotient", "intersect_instances", "leads_to"],
    "net_sum": [
        "AbsoluteBound", "CertificateError", "GeneratorFamily", "NetVerdict",
        "alternating_harmonic", "extended_sum_real", "finite_terms",
        "geometric", "parse_generator_spec", "power_terms", "reordered"],
    "checker": [
        "LawReport", "LawVerdict", "check_ft_and_group",
        "check_hausdorff_axioms", "check_strong", "check_weak",
        "conclude_flavor", "shrink_family"],
}


def test_package_exports_are_the_submodules_objects():
    names = sorted([*EXPORTS, *(n for ns in EXPORTS.values() for n in ns)])
    assert len(names) == 102
    assert sorted(sigmasum.__all__) == names
    assert set(names) <= set(dir(sigmasum))
    for module, exported in EXPORTS.items():
        submodule = importlib.import_module(f"sigmasum.{module}")
        assert getattr(sigmasum, module) is submodule
        for name in exported:
            assert getattr(sigmasum, name) is getattr(submodule, name), name
    star = {}
    exec("from sigmasum import *", star)
    assert sorted(n for n in star if n != "__builtins__") == names
    assert all(star[name] is getattr(sigmasum, name) for name in names)
    with pytest.raises(AttributeError):
        sigmasum.no_such_export
