import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmasum.cli import main, parse_family_literal, resolve_instance
from sigmasum.family import Family, format_family_literal
from sigmasum.instances import pm_instance


def run_cli(argv):
    buf = io.StringIO()
    old_stdout = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old_stdout
    return code, buf.getvalue()


# -- family literals -------------------------------------------------------------


def test_family_literal_round_trip():
    pm = pm_instance()
    fam = Family.from_counts([("+", 2), ("-", 1)], omega=["0"])
    literal = format_family_literal(fam, pm.codec)
    assert parse_family_literal(literal, pm.codec) == fam


def test_family_literal_nested_brackets():
    par = resolve_instance("parity:a,b")
    fam = parse_family_literal("{finite:[[a],[a,b]]}", par.codec)
    assert fam == Family.of(frozenset({"a"}), frozenset({"a", "b"}))
    assert parse_family_literal(format_family_literal(fam, par.codec),
                                par.codec) == fam


def test_family_literal_errors():
    pm = pm_instance()
    with pytest.raises(Exception):
        parse_family_literal("finite:[+]", pm.codec)
    with pytest.raises(Exception):
        parse_family_literal("{finite:[q]}", pm.codec)


# -- sum command -------------------------------------------------------------------


def test_sum_pm_surplus():
    code, out = run_cli(["sum", "--instance", "pm",
                         "--family", "{finite:[+,+,-]}"])
    assert (code, out) == (0, "defined +\n")


def test_sum_parity_subsets():
    code, out = run_cli(["sum", "--instance", "parity:a,b",
                         "--family", "{finite:[[a],[a,b]]}"])
    assert (code, out) == (0, "defined [b]\n")


def test_sum_real_with_zero_padding():
    code, out = run_cli(["sum", "--instance", "real",
                         "--family", "{finite:[1,2],omega:[0]}"])
    assert (code, out) == (0, "defined 3\n")


def test_sum_undefined_result_still_exits_zero():
    code, out = run_cli(["sum", "--instance", "pm", "--family", "{finite:[+,+]}"])
    assert (code, out) == (0, "undefined\n")


def test_sum_family_file(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("{finite: [+, -], omega: [0]}")
    code, out = run_cli(["sum", "--instance", "pm", "--family-file", str(path)])
    assert (code, out) == (0, "defined 0\n")
    code, _ = run_cli(["sum", "--instance", "pm", "--family", "{finite:[+]}",
                       "--family-file", str(path)])
    assert code == 2  # exactly one of the two sources


def test_net_certificate_accepted_when_present():
    code, out = run_cli(["net", "--gen", "geometric(0.5,0.5)",
                         "--require-certificate"])
    assert code == 0 and out.startswith("converged")


def test_sum_parse_error_exits_two():
    code, _ = run_cli(["sum", "--instance", "pm", "--family", "{finite:[zz]}"])
    assert code == 2


def test_sum_unknown_instance_exits_two():
    code, _ = run_cli(["sum", "--instance", "nosuch", "--family", "{finite:[]}"])
    assert code == 2


# -- net command --------------------------------------------------------------------


def test_net_geometric():
    code, out = run_cli(["net", "--gen", "geometric(0.5,0.5)", "--eps", "1e-9"])
    assert code == 0
    assert out.startswith("converged 0.999999999")
    assert "±" in out


def test_net_finite():
    code, out = run_cli(["net", "--gen", "finite(1,2,3)"])
    assert (code, out) == (0, "converged 6 ±0\n")


def test_net_huge_max_terms_costs_only_the_terms_used():
    # the certified order is built lazily, so a budget of 1e9 terms allocates
    # nothing per index
    code, out = run_cli(["net", "--gen", "geometric(0.5,0.5)",
                         "--max-terms", "1000000000"])
    assert code == 0 and out.startswith("converged 0.999999999")


def test_net_alternating_harmonic_diverges():
    code, out = run_cli(["net", "--gen", "alternating_harmonic"])
    assert code == 0 and out.startswith("diverged")


ALTERNATING_LINE = (
    "diverged: partial sum over {positive terms among indices 0..99999} is "
    "6.391644155224187, over {positive terms among indices 0..199999} is "
    "6.738217745497909\n")


@pytest.mark.parametrize("argv, stdout", [
    # the three README examples
    (["--gen", "geometric(0.5,0.5)", "--eps", "1e-9"],
     "converged 0.9999999990686774 ±9.313225746154785e-10\n"),
    (["--gen", "finite(1,2,3)"], "converged 6 ±0\n"),
    (["--gen", "alternating_harmonic"], ALTERNATING_LINE),
    # one spec of each kind the benchmark runs in a fresh process
    (["--gen", "finite(-11991.75,0.3306427001953125,-1.613433837890625)",
      "--eps", "1e-30", "--max-terms", "200000"],
     "converged -11993.032791137695 ±0\n"),
    (["--gen", "geometric(-0.1875,0.125)", "--eps", "1e-09",
      "--max-terms", "200000"],
     "converged -0.21428571408614516 ±1.9956912313188824e-10\n"),
    (["--gen", "alternating_harmonic", "--eps", "1e-09",
      "--max-terms", "200000"], ALTERNATING_LINE),
], ids=["readme-geometric", "readme-finite", "readme-alternating",
        "finite", "geometric", "alternating"])
def test_net_output_is_pinned_in_a_fresh_process(argv, stdout):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "sigmasum.cli", "net", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, stdout, "")


def test_net_require_certificate():
    code, _ = run_cli(["net", "--gen", "alternating_harmonic",
                       "--require-certificate"])
    assert code == 2


def test_net_bad_eps():
    code, _ = run_cli(["net", "--gen", "geometric(0.5,0.5)", "--eps", "-1"])
    assert code == 2


# -- check command ------------------------------------------------------------------


def test_check_weak_pm_passes():
    code, out = run_cli(["check", "--instance", "pm", "--laws", "weak",
                         "--max-size", "3", "--omega", "1", "--seed", "7",
                         "--trials", "0"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["law"] for r in rows] == \
        ["singleton", "neutral_element", "bracketing", "flattening"]
    assert all(r["verdict"] in ("pass", "truncated") for r in rows)
    assert all(r["seed"] == 7 for r in rows)
    assert all(r["budget"]["max_finite_size"] == 3 for r in rows)


def test_check_strong_pm_fails_with_witness():
    code, out = run_cli(["check", "--instance", "pm", "--laws", "strong",
                         "--max-size", "3", "--trials", "0"])
    assert code == 1
    rows = {r["law"]: r for r in map(json.loads, out.splitlines())}
    assert rows["subsummability"]["verdict"] == "fail"
    assert rows["subsummability"]["witness"]["family"] == \
        "{finite: [+, +, -], omega: []}"


def test_check_strong_extnat_passes():
    code, out = run_cli(["check", "--instance", "extnat", "--laws", "strong",
                         "--max-size", "3", "--trials", "0"])
    assert code == 0


def test_check_reports_are_byte_identical_across_runs():
    argv = ["check", "--instance", "pm", "--laws", "all",
            "--max-size", "3", "--trials", "5", "--seed", "42"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 1  # pm is weak only: strong and ft laws fail


def test_check_reports_byte_identical_across_processes():
    import subprocess

    def run(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [sys.executable, "-m", "sigmasum.cli", "check", "--instance",
             "parity:a,b", "--laws", "weak", "--max-size", "2",
             "--trials", "5", "--seed", "7"],
            capture_output=True, env=env)

    first, second = run("1"), run("2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_check_out_file(tmp_path):
    path = tmp_path / "report.jsonl"
    code, out = run_cli(["check", "--instance", "pm", "--laws", "weak",
                         "--max-size", "2", "--trials", "0",
                         "--out", str(path)])
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 4


def test_check_env_seed(monkeypatch):
    monkeypatch.setenv("SIGMA_SUM_SEED", "99")
    code, out = run_cli(["check", "--instance", "pm", "--laws", "weak",
                         "--max-size", "2", "--trials", "0"])
    assert code == 0
    assert all(json.loads(line)["seed"] == 99 for line in out.splitlines())
    # explicit flag still wins
    code, out = run_cli(["check", "--instance", "pm", "--laws", "weak",
                         "--max-size", "2", "--trials", "0", "--seed", "3"])
    assert all(json.loads(line)["seed"] == 3 for line in out.splitlines())


def test_check_unknown_laws_rejected_before_compute():
    code, _ = run_cli(["check", "--instance", "pm", "--laws", "bogus"])
    assert code == 2


def test_check_group_without_inversion_fails():
    code, out = run_cli(["check", "--instance", "extnat", "--laws", "group",
                         "--max-size", "2", "--trials", "0"])
    assert code == 1
    rows = {r["law"]: r for r in map(json.loads, out.splitlines())}
    assert rows["inverses_exist"]["verdict"] == "fail"


# -- definition files ------------------------------------------------------------------


def test_definition_file_table_instance(tmp_path):
    spec = {
        "name": "tiny",
        "elements": ["0", "a", "b"],
        "zero": "0",
        "sums": [
            {"finite": [], "omega": [], "value": "0"},
            {"finite": ["a"], "value": "a"},
            {"finite": ["b"], "value": "b"},
            {"finite": ["0"], "value": "0"},
            {"finite": ["a", "b"], "value": "0"},
        ],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["sum", "--instance", str(path),
                         "--family", "{finite:[a,b]}"])
    assert (code, out) == (0, "defined 0\n")
    code, out = run_cli(["sum", "--instance", str(path),
                         "--family", "{finite:[a,a]}"])
    assert (code, out) == (0, "undefined\n")
    # this little table is closed enough to pass the weak suite at size 2
    code, out = run_cli(["check", "--instance", str(path), "--laws", "weak",
                         "--max-size", "2", "--trials", "0"])
    assert code == 0

    # dropping the {0} row breaks the singleton law
    spec["sums"] = [row for row in spec["sums"] if row.get("finite") != ["0"]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(spec))
    code, out = run_cli(["check", "--instance", str(broken), "--laws", "weak",
                         "--max-size", "2", "--trials", "0"])
    assert code == 1
    rows = {r["law"]: r for r in map(json.loads, out.splitlines())}
    assert rows["singleton"]["verdict"] == "fail"
    assert rows["singleton"]["witness"] == {"family": "{finite: [0], omega: []}"}


def test_definition_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(["sum", "--instance", str(path), "--family", "{finite:[]}"])
    assert code == 2
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"elements": ["a"], "zero": "z", "sums": []}))
    code, _ = run_cli(["sum", "--instance", str(path2), "--family", "{finite:[]}"])
    assert code == 2


# -- malformed input: exit 2 with a one-line error, never a traceback -------------


def assert_usage_error(argv, capsys):
    capsys.readouterr()
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_check_negative_budget_exits_two(capsys):
    assert_usage_error(["check", "--instance", "pm", "--max-size", "-1"], capsys)


def test_sum_zero_denominator_exits_two(capsys):
    assert_usage_error(["sum", "--instance", "real",
                        "--family", "{finite:[1/0]}"], capsys)


@pytest.mark.parametrize("spec", ["finite(inf)", "finite(1e308,1e308)"])
def test_net_non_finite_or_overflowing_exits_two(spec, capsys):
    # a non-finite parameter, and a certified sum beyond the float range
    assert_usage_error(["net", "--gen", spec], capsys)


@pytest.mark.parametrize("argv, first, second", [
    (["geometric(1e308,2)"], "0..1007", "0..1023"),
    (["geometric(1e300,10)", "--max-terms", "2000"], "0..239", "0..308"),
], ids=["geometric(1e308,2)", "geometric(1e300,10)"])
def test_net_probe_infinite_evidence_prints_inf(argv, first, second, capsys):
    # the probe's verdict is diverged, with evidence sums beyond the float
    # range; only a certified sum that overflows is an error
    code, out = run_cli(["net", "--gen", *argv])
    assert (code, capsys.readouterr().err) == (0, "")
    assert out == (f"diverged: partial sum over {{positive terms among indices "
                   f"{first}}} is inf, over {{positive terms among indices "
                   f"{second} (term overflow)}} is inf\n")


@pytest.mark.parametrize("spec, value", [
    ("finite(9007199254740991)", "9007199254740991"),
    ("finite(-9007199254740991)", "-9007199254740991"),
    ("finite(9007199254740992)", "9007199254740992.0"),
    ("finite(1e300)", "1e+300"),
])
def test_net_prints_integral_floats_as_integers_only_below_2_to_53(spec, value):
    assert run_cli(["net", "--gen", spec]) == (0, f"converged {value} ±0\n")


def test_net_huge_integral_evidence_sum_prints_as_a_float():
    # the first evidence sum is 2^1008 - 1 rounded, an integral float
    code, out = run_cli(["net", "--gen", "geometric(1.0,2.0)",
                         "--max-terms", "5000"])
    assert (code, out) == (0, (
        "diverged: partial sum over {positive terms among indices 0..1007} "
        "is 2.7430620343968443e+303, over {positive terms among indices "
        "0..1023 (term overflow)} is inf\n"))


def test_net_nan_parameter_exits_two(capsys):
    assert_usage_error(["net", "--gen", "power(nan)"], capsys)


@pytest.mark.parametrize("max_terms", ["0", "-5"])
def test_net_non_positive_max_terms_exits_two(max_terms, capsys):
    assert_usage_error(["net", "--gen", "finite(1,2)",
                        "--max-terms", max_terms], capsys)


@pytest.mark.parametrize("literal", ["{finite:[+], finite:[-]}",
                                     "{omega:[0], omega:[+]}"])
def test_sum_repeated_family_section_exits_two(literal, capsys):
    assert_usage_error(["sum", "--instance", "pm", "--family", literal], capsys)


def test_definition_file_row_with_unknown_element_exits_two(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "elements": ["0", "a"], "zero": "0",
        "sums": [{"finite": ["a"], "value": "a"},
                 {"finite": ["zz"], "value": "a"}]}))
    assert_usage_error(["sum", "--instance", str(path),
                        "--family", "{finite:[a]}"], capsys)


def test_family_file_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_bytes(b"{finite:[\xff]}")
    assert_usage_error(["sum", "--instance", "pm",
                        "--family-file", str(path)], capsys)


def test_definition_file_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"elements": ["\xff"], "zero": "0"}')
    assert_usage_error(["sum", "--instance", str(path),
                        "--family", "{finite:[]}"], capsys)


@pytest.mark.parametrize("row", [
    ["a"],                                  # not an object
    {"finite": ["a"]},                      # no value
    {"finite": "a", "value": "a"},          # a string, not a list
    {"omega": "0", "value": "0"},
], ids=["not_object", "no_value", "finite_string", "omega_string"])
def test_definition_file_malformed_row_exits_two(row, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"elements": ["0", "a"], "zero": "0",
                                "sums": [row]}))
    assert_usage_error(["sum", "--instance", str(path),
                        "--family", "{finite:[a]}"], capsys)


@pytest.mark.parametrize("data", [
    {"elements": "0a", "zero": "0"},
    {"elements": ["0", "a"], "zero": "0", "sums": {"value": "a"}},
], ids=["elements_string", "sums_object"])
def test_definition_file_sections_not_lists_exit_two(data, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    assert_usage_error(["sum", "--instance", str(path),
                        "--family", "{finite:[a]}"], capsys)


@pytest.mark.parametrize("field", [
    {"name": 5},
    {"name": None},
    {"flavor": [1]},
    {"flavor": "group"},
], ids=["name_number", "name_null", "flavor_list", "flavor_unknown"])
def test_definition_file_bad_name_or_flavor_exits_two(field, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"elements": ["0", "a"], "zero": "0",
                                "sums": [], **field}))
    assert_usage_error(["check", "--instance", str(path),
                        "--max-size", "1", "--trials", "0"], capsys)


@pytest.mark.parametrize("flavor", ["weak", "strong", "finitely_total",
                                    "sigma_group"])
def test_definition_file_accepts_each_flavor(flavor, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "tiny", "flavor": flavor,
                                "elements": ["0"], "zero": "0",
                                "sums": [{"finite": [], "value": "0"},
                                         {"finite": ["0"], "value": "0"}]}))
    code, out = run_cli(["check", "--instance", str(path), "--laws", "weak",
                         "--max-size", "1", "--trials", "0"])
    assert code == 0
    assert {json.loads(line)["instance"] for line in out.splitlines()} == {"tiny"}


def test_net_nan_eps_exits_two(capsys):
    assert_usage_error(["net", "--gen", "finite(1,2)", "--eps", "nan"], capsys)


# -- argv fuzzing: exit 0, 1 or 2, never a traceback; only check fails laws ------

ELEMENT_TEXT = st.sampled_from(["0", "+", "-", "1", "-5", "1/2", "3/4", "1/0",
                                "inf", "[a]", "[a,b]", "[]", "x", "", "2.5"])
FAMILY_TEXT = st.one_of(
    st.builds(lambda fin, om: "{finite: [%s], omega: [%s]}"
              % (", ".join(fin), ", ".join(om)),
              st.lists(ELEMENT_TEXT, max_size=4),
              st.lists(ELEMENT_TEXT, max_size=1)),
    st.text(alphabet="{}[](),: finteomga+-01/", max_size=24))
INSTANCES = ["pm", "parity:a,b", "interval", "zmod:3", "real", "int",
             "extnat", "unit"]
NUMBER_TEXT = st.sampled_from(["0.5", "-0.5", "2", "1", "0", "1e308", "-1e308",
                               "1e-300", "nan", "inf", "x", ""])


@st.composite
def argvs(draw):
    """Mostly well-formed argv; half of them get one option value replaced
    by a malformed one."""
    command = draw(st.sampled_from(["check", "sum", "net", "bogus"]))
    if command == "check":
        opts = {"--instance": st.sampled_from(INSTANCES),
                "--laws": st.sampled_from(["weak", "strong", "ft", "group",
                                           "all"]),
                "--max-size": st.integers(0, 2),
                "--omega": st.integers(0, 1),
                "--block-count": st.integers(0, 3),
                "--block-size": st.integers(0, 3),
                "--omega-splits": st.integers(0, 2),
                "--trials": st.integers(0, 3),
                "--seed": st.integers(0, 20)}
        bad = st.sampled_from(["-1", "x", "", "zmod:0", "parity:", "nope"])
    elif command == "sum":
        opts = {"--instance": st.sampled_from(INSTANCES),
                "--family": FAMILY_TEXT}
        bad = st.sampled_from(["zmod:0", "parity:", "nope"])
    elif command == "net":
        kind = draw(st.sampled_from(["geometric", "power", "finite",
                                     "alternating_harmonic", "nope"]))
        opts = {"--gen": st.lists(NUMBER_TEXT, max_size=3).map(
                    lambda args: kind + "(" + ",".join(args) + ")"),
                "--eps": st.sampled_from(["1e-9", "1e-3", "1", "inf"]),
                "--max-terms": st.integers(1, 1000)}
        bad = st.sampled_from(["0", "-1", "nan", "x"])
    else:
        return [command]
    values = {opt: str(draw(value)) for opt, value in opts.items()}
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(values)))] = draw(bad)
    return [command] + [x for opt, value in values.items()
                        for x in (opt, value)]


@settings(max_examples=150)
@given(argvs())
def test_main_never_raises_and_only_check_fails_laws(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "check"
