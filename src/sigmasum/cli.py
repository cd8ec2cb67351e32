"""Command line front end: law suites, sum evaluation, net summation.

Exit codes: 0 success (requested laws pass, or the sum/net command ran),
1 law failure, 2 usage/config error. ``check`` emits one JSON object per law
on stdout (or to --out); ``sum`` and ``net`` print single-line results.
``net`` runs on ``net_sum`` alone; ``check`` and ``sum`` reach the rest of the
library through the package, which imports a submodule on first use.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import sigmasum as lib
from .net_sum import extended_sum_real, parse_generator_spec


class UsageError(ValueError):
    pass


# the selectors that take no argument, with their package constructors
_PLAIN_SELECTORS = {"pm": "pm_instance", "real": "real_abs_instance",
                    "int": "int_group_instance", "extnat": "ext_nat_instance",
                    "unit": "unit_instance",
                    "interval": "unit_interval_instance"}


def resolve_instance(selector: str) -> lib.SigmaInstance:
    """Built-in selectors: pm, parity:<e1,e2,...>, real, int, extnat, unit,
    interval, zmod:<n>; anything ending in .json is a definition file."""
    if selector.endswith(".json"):
        return load_definition_file(selector)
    name, colon, arg = selector.partition(":")
    try:
        if name in _PLAIN_SELECTORS and not colon:
            return getattr(lib, _PLAIN_SELECTORS[name])()
        if name == "parity":
            points = tuple(s.strip() for s in arg.split(","))
            if not all(map(_nameable, points)):
                raise UsageError("parity needs points named without "
                                 "brackets, e.g. parity:a,b")
            return lib.powerset_parity_instance(points)
        if name == "zmod" and arg.isascii() and arg.isdigit():
            return lib.cyclic_instance(int(arg))
    except UsageError:
        raise
    except (ValueError, lib.ConstructionError) as exc:
        raise UsageError(str(exc))
    raise UsageError(f"unknown or malformed instance selector {selector!r}")


_FLAVORS = ("weak", "strong", "finitely_total", "sigma_group")


def load_definition_file(path: str) -> lib.SigmaInstance:
    """Declarative finite instance: elements, zero, and an explicit table of
    summable families (everything else is undefined)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load instance file: {exc}")
    try:
        elements = [str(e) for e in data["elements"]]
        zero = str(data["zero"])
        rows = data.get("sums", [])
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad instance file: missing {exc}")
    if zero not in elements:
        raise UsageError("zero must be one of the elements")
    if not (isinstance(data["elements"], list) and isinstance(rows, list)):
        raise UsageError("bad instance file: elements and sums must be lists")
    for e in elements:
        if not _nameable(e):
            raise UsageError(f"bad instance file: element name {e!r} is empty, "
                             "padded with spaces or holds one of ,[](){}")
    name = data.get("name", os.path.basename(path))
    flavor = data.get("flavor", "weak")
    if not isinstance(name, str) or flavor not in _FLAVORS:
        raise UsageError("bad instance file: name must be a string and flavor "
                         "one of " + ", ".join(_FLAVORS))
    codec = lib.ElementCodec(lambda s: s.strip(), str)
    table = {}
    for row in rows:
        if not isinstance(row, dict) or "value" not in row:
            raise UsageError("bad instance file: each sums row must be an "
                             "object with a value")
        finite, omega = row.get("finite", []), row.get("omega", [])
        if not (isinstance(finite, list) and isinstance(omega, list)):
            raise UsageError("bad instance file: finite and omega must be "
                             "lists")
        finite = [str(e) for e in finite]
        omega = [str(e) for e in omega]
        for e in finite + omega:
            if e not in elements:
                raise UsageError(f"table element {e!r} not among the elements")
        fam = lib.canonicalize([(e, 1) for e in finite]
                               + [(e, lib.OMEGA) for e in omega])
        value = str(row["value"])
        if value not in elements:
            raise UsageError(f"table value {value!r} not among the elements")
        if table.setdefault(fam, value) != value:
            raise UsageError(
                f"family {lib.format_family_literal(fam, codec)} has two "
                f"values, {table[fam]!r} and {value!r}")

    def rule(fam: lib.Family):
        value = table.get(fam)
        return lib.Defined(value) if value is not None else lib.UNDEFINED

    return lib.SigmaInstance(name, lib.FiniteCarrier(elements), zero, rule,
                             flavor=flavor, codec=codec)


def _nameable(name: str) -> bool:
    """A name a family literal can write and read back: non-empty, unpadded
    (the element codec strips it) and free of ``,[](){}``."""
    return bool(name) and name == name.strip() and not set(name) & set(",[](){}")


def _split_top_level(text: str) -> list:
    """Split on commas that are not nested inside brackets. A blank text has
    no entries; an empty entry, such as after a trailing comma, is an error."""
    if not text.strip():
        return []
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    if "" in parts:
        raise UsageError(f"empty entry in {text.strip()!r}")
    return parts


def parse_family_literal(text: str, codec: lib.ElementCodec) -> lib.Family:
    """``{finite: [e, e, ...], omega: [e, ...]}`` with instance element syntax."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise UsageError("family literal must be {finite: [...], omega: [...]}")
    body = text[1:-1]
    sections = {}
    for part in _split_top_level(body):
        key, _, rest = part.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key not in ("finite", "omega"):
            raise UsageError(f"unknown family section {key!r}")
        if not (rest.startswith("[") and rest.endswith("]")):
            raise UsageError(f"section {key!r} must be a [...] list")
        if key in sections:
            raise UsageError(f"repeated family section {key!r}")
        sections[key] = _split_top_level(rest[1:-1])
    try:
        pairs = [(codec.parse(e), 1) for e in sections.get("finite", [])]
        omegas = [(codec.parse(e), lib.OMEGA) for e in sections.get("omega", [])]
    except ValueError as exc:
        raise UsageError(f"bad element: {exc}")
    return lib.canonicalize(pairs + omegas)


def _default_seed() -> int:
    env = os.environ.get("SIGMA_SUM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError("SIGMA_SUM_SEED must be an integer")
    return lib.Budget.seed


# check option -> Budget field; an option left unset takes the Budget default,
# except --trials, whose default is 20
_BUDGET_OPTIONS = {"--max-size": "max_finite_size", "--omega": "max_omega_elems",
                   "--block-count": "block_count", "--block-size": "block_size",
                   "--omega-splits": "omega_splits", "--trials": "trials"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmasum",
        description="partial-summation law suites, sums, and net evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a law suite against an instance")
    check.set_defaults(run=cmd_check, trials=20)
    check.add_argument("--instance", required=True)
    check.add_argument("--laws", default="weak",
                       choices=["weak", "strong", "ft", "group", "all"])
    for option, field in _BUDGET_OPTIONS.items():
        check.add_argument(option, dest=field, type=int)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--out", default=None)

    ssum = sub.add_parser("sum", help="evaluate one family in an instance")
    ssum.set_defaults(run=cmd_sum)
    ssum.add_argument("--instance", required=True)
    ssum.add_argument("--family", default=None)
    ssum.add_argument("--family-file", default=None)

    net = sub.add_parser("net", help="evaluate a real generator family")
    net.set_defaults(run=cmd_net)
    net.add_argument("--gen", required=True)
    net.add_argument("--eps", type=float, default=1e-9)
    net.add_argument("--max-terms", type=int, default=200_000)
    net.add_argument("--require-certificate", action="store_true")
    return parser


def cmd_check(args, out) -> int:
    inst = resolve_instance(args.instance)
    seed = args.seed if args.seed is not None else _default_seed()
    given = {field: getattr(args, field) for field in _BUDGET_OPTIONS.values()
             if getattr(args, field) is not None}
    try:
        budget = lib.Budget(seed=seed, **given)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:  # before the suite runs: an unwritable path costs no run
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(out)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}")
    with sink as fh:
        report = lib.checker.suite_for(args.laws)(inst, budget)
        base = {"instance": inst.name, "budget": asdict(budget), "seed": seed}
        lines = []
        for v in report.laws:
            row = dict(base, law=v.law, verdict=v.status, checked=v.checked)
            if v.witness is not None:
                row["witness"] = v.witness
            lines.append(json.dumps(row, sort_keys=True))
        if report.flavor is not None:
            lines.append(json.dumps(dict(base, law="flavor_conclusion",
                                         verdict=report.flavor), sort_keys=True))
        try:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}")
    return 0 if report.ok else 1


def cmd_sum(args, out) -> int:
    inst = resolve_instance(args.instance)
    if inst.codec is None:
        raise UsageError(f"instance {inst.name} has no element syntax")
    if (args.family is None) == (args.family_file is None):
        raise UsageError("need exactly one of --family or --family-file")
    literal = args.family
    if literal is None:
        try:
            with open(args.family_file, encoding="utf-8") as fh:
                literal = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read family file: {exc}")
    fam = parse_family_literal(literal, inst.codec)
    try:
        result = inst.sum(fam)
    except lib.CarrierError as exc:
        raise UsageError(str(exc))
    if result.defined:
        out.write(f"defined {inst.codec.format(result.value)}\n")
    else:
        out.write("undefined\n")
    return 0


def _fmt_float(x: float) -> str:
    """An integral float below 2^53 in magnitude prints as an integer, any
    other value as its repr."""
    return str(int(x)) if abs(x) < 2 ** 53 and x == int(x) else repr(x)


def cmd_net(args, out) -> int:
    try:
        gf = parse_generator_spec(args.gen)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.require_certificate and gf.certificate is None:
        raise UsageError(f"generator {gf.description} has no certificate")
    if not args.eps > 0:
        raise UsageError("--eps must be positive")
    if args.max_terms <= 0:
        raise UsageError("--max-terms must be positive")
    try:
        verdict = extended_sum_real(gf, args.eps, args.max_terms)
    except OverflowError:
        raise UsageError("the sum overflows the float range")
    if verdict.kind == "converged":
        out.write(f"converged {_fmt_float(verdict.value)} "
                  f"±{_fmt_float(verdict.error_bound)}\n")
    elif verdict.kind == "diverged":
        first, second = verdict.evidence
        out.write(
            "diverged: partial sum over {%s} is %s, over {%s} is %s\n"
            % (first.description, _fmt_float(first.partial_sum),
               second.description, _fmt_float(second.partial_sum)))
    else:
        out.write(f"inconclusive after {verdict.terms_used} terms\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.run(args, sys.stdout)
    except UsageError as exc:  # tried first: naming lib's errors loads core
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (lib.CarrierError, lib.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
