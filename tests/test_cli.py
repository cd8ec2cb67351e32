import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmasum.checker as checker
from sigmasum.cli import main, resolve_instance
from sigmasum.family import (Family, families_within, format_family_literal,
                             is_nameable, parse_family_literal)
from sigmasum.instances import ElementCodec, pm_instance


# the built-in instance selectors
SELECTORS = ["pm", "parity:a,b", "real", "int", "extnat", "unit", "interval",
             "zmod:3"]


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


@given(st.sampled_from(SELECTORS))
def test_every_pool_family_round_trips_through_the_literal(selector):
    inst = resolve_instance(selector)
    for fam in families_within(inst.samples(), 3, 1):
        text = format_family_literal(fam, inst.codec)
        assert parse_family_literal(text, inst.codec) == fam, text


def test_family_literal_errors():
    pm = pm_instance()
    with pytest.raises(ValueError, match=re.escape(
            "family literal must be {finite: [...], omega: [...]}")):
        parse_family_literal("finite:[+]", pm.codec)
    with pytest.raises(ValueError, match=re.escape(
            "bad element: bad element 'q', expected 0, + or -")):
        parse_family_literal("{finite:[q]}", pm.codec)


@given(st.lists(st.text(max_size=6).filter(is_nameable), min_size=1,
                max_size=3, unique=True))
def test_families_over_nameable_names_round_trip_through_the_literal(names):
    # the codec a definition file gives its instance
    codec = ElementCodec(lambda s: s.strip(), str)
    for fam in families_within(names, 2, 1):
        text = format_family_literal(fam, codec)
        assert parse_family_literal(text, codec) == fam, text


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
    # a certified search whose tail bound never falls below eps
    (["--gen", "geometric(0.5,0.5)", "--eps", "1e-300", "--max-terms", "5"],
     "inconclusive after 5 terms\n"),
], ids=["readme-geometric", "readme-finite", "readme-alternating",
        "finite", "geometric", "alternating", "inconclusive"])
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


# sha256 of the exit code and stdout of `sigmasum check --instance <selector>
# --laws <suite> --max-size 3 --trials 5 --block-size 3` at the default seed
REPORT_DIGESTS = {
    ("pm", "weak"):
        "27e1ac71a1cb1a49516c74abbe7f222d59d13f4d71e291fe7aadb1d48f0e7a46",
    ("pm", "strong"):
        "1caee4bed39051c4fe209995ff0dc13845be685bec0c231df7ab75c6117496be",
    ("pm", "ft"):
        "494635bc7943fe41497a1f62629db75c200f23f482f8e4456489a846a9168b51",
    ("pm", "group"):
        "988e4b67c4e521f22c1fbcd619c2755b20784c12745f4f5f90c079737640149f",
    ("pm", "all"):
        "ba620a8a922efa8d7c93e78ef3aaac0eb5e56429c8dd0b1105c6eed383bfa422",
    ("parity:a,b", "weak"):
        "c05715f9ff31fb41d24870c6d32ce684fad4da97fbc3e01be359e0c2d5092156",
    ("parity:a,b", "strong"):
        "57464239d188e91d34fec39c30e37989b163c089efc9de4bca9838680fc26606",
    ("parity:a,b", "ft"):
        "c4742d19b0356770fe00b34c3f8fa909e161e48bf3a72bac30a8fe6da5483b87",
    ("parity:a,b", "group"):
        "48e51cf70c391a22a58455c66a99159a1c7ddab13a3a34c5bda9a7c24ea2ccb6",
    ("parity:a,b", "all"):
        "64be724736d09a5563f2012d889e6588e22e7dbcc87584b6043ecd0ac487b6c4",
    ("real", "weak"):
        "d8a2690c2048cd1d0f0f5156f5f9f04f29ccbfed288b8edd8450e0bfcb0ad80a",
    ("real", "strong"):
        "09d63773aab762a799d041434175e3856a03f63fd1b7f82967b840707157be45",
    ("real", "ft"):
        "1a0c18ba5b8fdfa81ebd860c2317984e1044eac7628fa2fcb214616b487b2d18",
    ("real", "group"):
        "1a0c18ba5b8fdfa81ebd860c2317984e1044eac7628fa2fcb214616b487b2d18",
    ("real", "all"):
        "28f8c227e2bed055548d843edc22daa2f0cb742addd6c277a6f8cc950c83dc19",
    ("int", "weak"):
        "eb2656712fee504276112fe849e205a80fb1cf79d921133c51395ad357a4c99d",
    ("int", "strong"):
        "e5f768912909b699331a4270f23673b4c06763f03c39318a972eec57ad23141f",
    ("int", "ft"):
        "53e6c1d1789f28ca0d35a03c768f9eb16e36f0d622bb92d15c4cf23155a99a0c",
    ("int", "group"):
        "53e6c1d1789f28ca0d35a03c768f9eb16e36f0d622bb92d15c4cf23155a99a0c",
    ("int", "all"):
        "d8d45fc88ada4b130727d50b9da3dea03e92a783b00fb6365cd25bb85a470c59",
    ("extnat", "weak"):
        "b5ecfb8b2a487e43909a3d5218b7dcc3b6bfa7b055f1cbb3fd5532190239e2e5",
    ("extnat", "strong"):
        "6e5386ad1f7ca412f9b85d6ac2b2cb4f8390c4389432da44d974b90dd833b913",
    ("extnat", "ft"):
        "6ff95031bb4f1637db434c98189a920e9fc112dae852766d912010bcd6b7ba2f",
    ("extnat", "group"):
        "7de46effe4f0c9c361306cd49a59699f00784f0cfc0cd1ec673dbff1b342d537",
    ("extnat", "all"):
        "92175e8be91a76eedb93096617560439d8abb06b63619f3ca67eef0a4c12024c",
    ("unit", "weak"):
        "7840769776f9e46cf9add58e76f3062aabc9e0e29ccedf182571666ae557c05c",
    ("unit", "strong"):
        "661b91693267758221e9688ad566ef40943582c1708d6350eb46e6ddaafa3fa7",
    ("unit", "ft"):
        "78253cb121e271a3e0c528cc082b519fb6ae770fe12256c66a0730b349ce550f",
    ("unit", "group"):
        "49b1a21452f710845295af2d51dc294873f8087d32000eb640d3ee18c89508e7",
    ("unit", "all"):
        "d448b6ca6e6fe577826d32dbc0eccb4ac709dc5f3cf510e51d773c4c890a4924",
    ("interval", "weak"):
        "3090dda142cce8698ac22b1e460aa2f4469a24332d48cf4841ec960243cbcb8e",
    ("interval", "strong"):
        "9be1126b94a8d15ce01864f95b60e798a2700a1fa18e97b4598a2abaffe4841c",
    ("interval", "ft"):
        "616ac7a8f98c539bcbe227f1a04a8a48ad2aa8ec3aac9099c2957e0127a52ca2",
    ("interval", "group"):
        "4123be7b49b92134985498cf4e5fe3e5aa17225696e5606f47fb213492b8feb2",
    ("interval", "all"):
        "d2e5d836bd76f036162d128b00d9244ebc40ec7977ce76b33946e52af7281c81",
    ("zmod:3", "weak"):
        "78468b186b3fdc33c42a15fd68f16f5dc6368bfce99c80aab2c46cc7177a6393",
    ("zmod:3", "strong"):
        "10a31d21c87ae9f7e4f3133dc0643041d27c6d4ea2c2f447212883ba838309c7",
    ("zmod:3", "ft"):
        "a05560f4ca8f8c709a6a5d6fbce40a81b9c7f9f2dc168ba378323507da46982b",
    ("zmod:3", "group"):
        "a05560f4ca8f8c709a6a5d6fbce40a81b9c7f9f2dc168ba378323507da46982b",
    ("zmod:3", "all"):
        "9f6bda511ee92f0c7bde21e11ca1517481c0728a946f551c43d5c42f9bdfc743",
}


def test_check_report_bytes_are_pinned(monkeypatch):
    monkeypatch.delenv("SIGMA_SUM_SEED", raising=False)
    moved = []
    for (selector, suite), digest in REPORT_DIGESTS.items():
        code, out = run_cli(["check", "--instance", selector, "--laws", suite,
                             "--max-size", "3", "--trials", "5",
                             "--block-size", "3"])
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != digest:
            moved.append(f"{selector} --laws {suite}")
    assert len(REPORT_DIGESTS) == 40
    assert not moved, "report bytes moved: " + ", ".join(moved)


# a definition file that fails bracketing and flattening with a partition
# witness; digests as above, at the default budget and at the pinned one
REGROUPING_FAILS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fixtures", "regrouping_fails.json")
REGROUPING_DIGESTS = {
    ("weak", ()):
        "0e10e3d9dcf8d44b7cd6ded4771bed705bc6305039bdcf94070312dd1600b5e4",
    ("weak", ("--max-size", "3", "--trials", "5", "--block-size", "3")):
        "fa23c44e90bf0b53e4ea3bc16d6fa59f6cb68ffcb66886f25b8ba5736b7f2824",
    ("all", ()):
        "8932f8694f23c6feefcac59c852f541e5b9b08d0380accbb10099ee39621eb53",
    ("all", ("--max-size", "3", "--trials", "5", "--block-size", "3")):
        "d263ee79c7762a092767c54fea81d0fe246452d93b7a76cd856059205e9f8c37",
}


@pytest.mark.parametrize("suite, budget", list(REGROUPING_DIGESTS))
def test_check_weak_shape_witness_bytes_are_pinned(suite, budget, monkeypatch):
    monkeypatch.delenv("SIGMA_SUM_SEED", raising=False)
    code, out = run_cli(["check", "--instance", REGROUPING_FAILS,
                         "--laws", suite, *budget])
    rows = {r["law"]: r for r in map(json.loads, out.splitlines())}
    assert code == 1
    for law in ("bracketing", "flattening"):
        assert rows[law]["verdict"] == "fail" and rows[law]["witness"][
            "partition"]
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == \
        REGROUPING_DIGESTS[suite, budget]


def test_check_reports_byte_identical_across_processes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.path.join(root, "src"))
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
    return err


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


def test_check_out_to_an_unwritable_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "report.jsonl"
    err = assert_usage_error(["check", "--instance", "pm", "--max-size", "1",
                              "--trials", "0", "--out", str(out)], capsys)
    assert err.startswith("error: cannot write report: ")
    assert not out.parent.exists()


def test_check_out_is_opened_before_the_suite_runs(monkeypatch, tmp_path,
                                                  capsys):
    def suite_for(laws):
        raise AssertionError("the suite ran before the report was opened")

    monkeypatch.setattr(checker, "suite_for", suite_for)
    out = tmp_path / "missing" / "report.jsonl"
    err = assert_usage_error(["check", "--instance", "extnat", "--laws", "all",
                              "--out", str(out)], capsys)
    assert err.startswith("error: cannot write report: ")


@pytest.mark.parametrize("selector", [
    "pm:extra", "pm:", "real:1", "int:x", "extnat:foo", "unit:x",
    "interval:x", "parity:a,", "parity: ", "parity:", "parity:a,,b",
    "parity:a]", "parity:[b", "parity:a,{b}", "zmod:", "zmod:x", "zmod:1_0",
    "zmod: 3", "zmod:+3", "zmod:-3", "zmod:0"])
def test_malformed_selector_exits_two(selector, capsys):
    assert_usage_error(["check", "--instance", selector, "--max-size", "1",
                        "--trials", "0"], capsys)
    assert_usage_error(["sum", "--instance", selector, "--family", "{}"],
                       capsys)


def test_parity_points_may_be_padded_with_spaces():
    assert resolve_instance("parity: a , b").name == "parity(a,b)"


@pytest.mark.parametrize("literal", [
    "{finite:[+,,-]}", "{finite:[+],,omega:[]}", "{finite:[+,]}",
    "{finite:[+],}", "{,}", "{finite:[ , ]}", "{omega:[,0]}"])
def test_sum_empty_family_entry_exits_two(literal, capsys):
    assert_usage_error(["sum", "--instance", "pm", "--family", literal], capsys)


@pytest.mark.parametrize("instance, literal, stdout", [
    ("pm", "{}", "defined 0\n"),
    ("pm", "{ }", "defined 0\n"),
    ("pm", "{finite:[], omega:[ ]}", "defined 0\n"),
    ("parity:a,b", "{finite:[[]]}", "defined []\n"),
    ("parity:a,b", "{finite:[[], [a]], omega:[[]]}", "defined [a]\n"),
])
def test_sum_empty_lists_and_the_empty_parity_element_stay_valid(
        instance, literal, stdout):
    assert run_cli(["sum", "--instance", instance, "--family", literal]) == (
        0, stdout)


def test_definition_file_conflicting_rows_exit_two(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    rows = [{"finite": ["a"], "value": "a"}, {"finite": ["a"], "value": "a"}]
    path.write_text(json.dumps({"elements": ["0", "a"], "zero": "0",
                                "sums": rows}))
    # a repeated row with the same value is no conflict
    assert run_cli(["sum", "--instance", str(path),
                    "--family", "{finite:[a]}"]) == (0, "defined a\n")
    rows.append({"finite": ["a"], "value": "0"})
    path.write_text(json.dumps({"elements": ["0", "a"], "zero": "0",
                                "sums": rows}))
    err = assert_usage_error(["sum", "--instance", str(path),
                              "--family", "{finite:[a]}"], capsys)
    assert "{finite: [a], omega: []}" in err


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


@pytest.mark.parametrize("argv", [
    ["check", "--laws", "weak", "--max-size", "1", "--trials", "0"],
    ["sum", "--family", "{finite:[a,b]}"],
], ids=["check", "sum"])
@pytest.mark.parametrize("name", ["a,b", " a", "a ", "", "[a]", "f(a)", "{a}"],
                         ids=["comma", "leading_space", "trailing_space",
                              "empty", "brackets", "parentheses", "braces"])
def test_definition_file_refuses_names_a_family_literal_cannot_write(
        name, argv, tmp_path, capsys):
    # written back, {finite: [a,b]} reads as two elements and " a" as "a"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "elements": ["0", name, "a", "b"], "zero": "0",
        "sums": [{"finite": [name], "value": name},
                 {"finite": ["a", "b"], "value": "0"}]}))
    err = assert_usage_error([argv[0], "--instance", str(path), *argv[1:]],
                             capsys)
    assert f"element name {name!r}" in err


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


# -- every refusal: exit 2, nothing on stdout, one pinned line on stderr -------


def _definition(**data):
    return json.dumps({"elements": ["0", "a"], "zero": "0", "sums": [],
                       **data}).encode()


# the files the refusals read, written into the working directory
REFUSAL_FILES = {
    "not_json.json": b"{not json",
    "not_utf8.json": b'{"elements": ["\xff"], "zero": "0"}',
    "no_elements.json": json.dumps({"zero": "0"}).encode(),
    "zero_not_element.json": _definition(zero="z"),
    "elements_string.json": _definition(elements="0a"),
    "bad_name.json": _definition(elements=["0", "a,b"]),
    "bad_flavor.json": _definition(flavor="group"),
    "row_not_object.json": _definition(sums=[["a"]]),
    "finite_string.json": _definition(sums=[{"finite": "a", "value": "a"}]),
    "table_element.json": _definition(sums=[{"finite": ["zz"], "value": "a"}]),
    "table_value.json": _definition(sums=[{"finite": ["a"], "value": "9"}]),
    "two_values.json": _definition(sums=[{"finite": ["a"], "value": "a"},
                                         {"finite": ["a"], "value": "0"}]),
    "not_utf8.txt": b"{finite:[\xff]}",
}
CHECK = ["check", "--max-size", "1", "--trials", "0", "--instance"]


def _sum(instance, literal):
    return ["sum", "--instance", instance, "--family", literal]


# case -> (argv, the stderr line without "error: " and its newline)
REFUSALS = {
    # check
    "negative_budget": (["check", "--instance", "pm", "--max-size", "-1"],
                        "max_finite_size must be >= 0"),
    "seed_not_an_integer": (CHECK + ["pm"], "SIGMA_SUM_SEED must be an integer"),
    "out_unwritable": (
        CHECK + ["pm", "--out", "missing/report.jsonl"],
        "cannot write report: [Errno 2] No such file or directory: "
        "'missing/report.jsonl'"),
    # instance selectors
    "unknown_selector": (CHECK + ["nosuch"],
                         "unknown or malformed instance selector 'nosuch'"),
    "zmod_zero": (CHECK + ["zmod:0"], "modulus must be >= 1"),
    "parity_without_points": (
        CHECK + ["parity:"],
        "parity needs points named without brackets, e.g. parity:a,b"),
    # definition files
    "file_missing": (CHECK + ["missing.json"],
                     "cannot load instance file: [Errno 2] No such file or "
                     "directory: 'missing.json'"),
    "file_not_json": (CHECK + ["not_json.json"],
                      "cannot load instance file: Expecting property name "
                      "enclosed in double quotes: line 1 column 2 (char 1)"),
    "file_not_utf8": (CHECK + ["not_utf8.json"],
                      "cannot load instance file: 'utf-8' codec can't decode "
                      "byte 0xff in position 15: invalid start byte"),
    "file_without_elements": (CHECK + ["no_elements.json"],
                              "bad instance file: missing 'elements'"),
    "zero_not_an_element": (CHECK + ["zero_not_element.json"],
                            "zero must be one of the elements"),
    "elements_not_a_list": (
        CHECK + ["elements_string.json"],
        "bad instance file: elements and sums must be lists"),
    "element_name_unwritable": (
        CHECK + ["bad_name.json"],
        "bad instance file: element name 'a,b' is empty, padded with spaces "
        "or holds one of ,[](){}"),
    "unknown_flavor": (
        CHECK + ["bad_flavor.json"],
        "bad instance file: name must be a string and flavor one of weak, "
        "strong, finitely_total, sigma_group"),
    "row_not_an_object": (
        CHECK + ["row_not_object.json"],
        "bad instance file: each sums row must be an object with a value"),
    "row_finite_not_a_list": (
        CHECK + ["finite_string.json"],
        "bad instance file: finite and omega must be lists"),
    "table_element_unknown": (CHECK + ["table_element.json"],
                              "table element 'zz' not among the elements"),
    "table_value_unknown": (CHECK + ["table_value.json"],
                            "table value '9' not among the elements"),
    "family_with_two_values": (
        CHECK + ["two_values.json"],
        "family {finite: [a], omega: []} has two values, 'a' and '0'"),
    # sum: the family source and the literal
    "no_family_source": (["sum", "--instance", "pm"],
                         "need exactly one of --family or --family-file"),
    "family_file_missing": (
        ["sum", "--instance", "pm", "--family-file", "missing.txt"],
        "cannot read family file: [Errno 2] No such file or directory: "
        "'missing.txt'"),
    "family_file_not_utf8": (
        ["sum", "--instance", "pm", "--family-file", "not_utf8.txt"],
        "cannot read family file: 'utf-8' codec can't decode byte 0xff in "
        "position 9: invalid start byte"),
    "literal_without_braces": (
        _sum("pm", "finite:[+]"),
        "family literal must be {finite: [...], omega: [...]}"),
    "unknown_section": (_sum("pm", "{bogus:[+]}"),
                        "unknown family section 'bogus'"),
    "section_not_a_list": (_sum("pm", "{finite:+}"),
                           "section 'finite' must be a [...] list"),
    "repeated_section": (_sum("pm", "{finite:[+], finite:[-]}"),
                         "repeated family section 'finite'"),
    "empty_entry": (_sum("pm", "{finite:[+,,-]}"), "empty entry in '+,,-'"),
    "bad_pm_element": (_sum("pm", "{finite:[q]}"),
                       "bad element: bad element 'q', expected 0, + or -"),
    "bad_subset_literal": (_sum("parity:a,b", "{finite:[a]}"),
                           "bad element: bad subset literal 'a'"),
    "point_outside_the_universe": (_sum("parity:a,b", "{finite:[[c]]}"),
                                   "bad element: 'c' is not in the universe"),
    "negative_extnat": (_sum("extnat", "{finite:[-1]}"),
                        "bad element: extnat elements are nonnegative"),
    "zero_denominator": (_sum("real", "{finite:[1/0]}"),
                         "bad element: zero denominator in '1/0'"),
    "element_outside_the_carrier": (_sum("zmod:3", "{omega:[5]}"),
                                    "5 is not in the carrier of zmod3"),
    # net
    "bad_generator_spec": (["net", "--gen", "!!"], "bad generator spec '!!'"),
    "unknown_generator": (["net", "--gen", "nope(1)"],
                          "unknown generator kind 'nope'"),
    "generator_arity": (["net", "--gen", "geometric(1)"],
                        "geometric takes (a, r)"),
    "non_finite_parameter": (
        ["net", "--gen", "power(nan)"],
        "generator parameters must be finite in 'power(nan)'"),
    "no_certificate": (
        ["net", "--gen", "alternating_harmonic", "--require-certificate"],
        "generator alternating_harmonic has no certificate"),
    "eps_negative": (["net", "--gen", "finite(1,2)", "--eps", "-1"],
                     "--eps must be positive"),
    "eps_nan": (["net", "--gen", "finite(1,2)", "--eps", "nan"],
                "--eps must be positive"),
    "max_terms_zero": (["net", "--gen", "finite(1,2)", "--max-terms", "0"],
                       "--max-terms must be positive"),
    "certified_sum_overflows": (["net", "--gen", "finite(1e308,1e308)"],
                                "the sum overflows the float range"),
    # argument errors: argparse's message, without its usage block
    "laws_unknown": (
        ["check", "--instance", "pm", "--laws", "bogus"],
        "argument --laws: invalid choice: 'bogus' (choose from 'weak', "
        "'strong', 'ft', 'group', 'all')"),
    "max_terms_not_an_integer": (
        ["net", "--gen", "finite(1)", "--max-terms", "x"],
        "argument --max-terms: invalid int value: 'x'"),
    "max_size_not_an_integer": (
        ["check", "--instance", "pm", "--max-size", "x"],
        "argument --max-size: invalid int value: 'x'"),
    "no_subcommand": ([], "the following arguments are required: command"),
    "check_without_instance": (
        ["check", "--laws", "weak"],
        "the following arguments are required: --instance"),
    "net_without_gen": (["net", "--eps", "1e-3"],
                        "the following arguments are required: --gen"),
    "unknown_option": (CHECK + ["pm", "--bogus", "1"],
                       "unrecognized arguments: --bogus 1"),
    # a newline in the message is written as \n, so the error stays one line
    "argument_with_a_newline": (CHECK + ["pm", "x\ny"],
                                "unrecognized arguments: x\\ny"),
}
# the environment a case runs under; every other case unsets the seed
REFUSAL_ENV = {"seed_not_an_integer": {"SIGMA_SUM_SEED": "x"}}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_every_refusal_prints_its_pinned_line(case, tmp_path, monkeypatch,
                                              capsys):
    argv, message = REFUSALS[case]
    for name, data in REFUSAL_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SIGMA_SUM_SEED", raising=False)
    for key, value in REFUSAL_ENV.get(case, {}).items():
        monkeypatch.setenv(key, value)
    capsys.readouterr()
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_prints_the_usage_and_exits_zero(capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "sigmasum.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: sigmasum ")
    capsys.readouterr()
    assert run_cli(["--help"]) == (0, done.stdout)
    assert capsys.readouterr().err == ""


# -- a failed write is a refusal too, never a law failure ---------------------


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv, message", [
    (CHECK + ["pm"], "cannot write report: [Errno 28] No space left on device"),
    (_sum("pm", "{finite:[+]}"), "[Errno 28] No space left on device"),
    (["net", "--gen", "finite(1,2)"], "[Errno 28] No space left on device"),
], ids=["check", "sum", "net"])
def test_a_failed_write_exits_two_with_one_line(argv, message, monkeypatch,
                                                capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_check_out_to_a_full_device_exits_two_in_a_fresh_process():
    # the failed flush, and the close after it, both name the report
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "sigmasum.cli", *CHECK, "pm",
                           "--out", "/dev/full"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: cannot write report: [Errno 28] No space left on "
        "device\n")


# -- argv fuzzing: exit 0, 1 or 2, never a traceback; only check fails laws ------

ELEMENT_TEXT = st.sampled_from(["0", "+", "-", "1", "-5", "1/2", "3/4", "1/0",
                                "inf", "[a]", "[a,b]", "[]", "x", "", "2.5"])
FAMILY_TEXT = st.one_of(
    st.builds(lambda fin, om: "{finite: [%s], omega: [%s]}"
              % (", ".join(fin), ", ".join(om)),
              st.lists(ELEMENT_TEXT, max_size=4),
              st.lists(ELEMENT_TEXT, max_size=1)),
    st.text(alphabet="{}[](),: finteomga+-01/", max_size=24))
NUMBER_TEXT = st.sampled_from(["0.5", "-0.5", "2", "1", "0", "1e308", "-1e308",
                               "1e-300", "nan", "inf", "x", ""])


# a report path inside a directory that does not exist
MISSING_DIR_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "no-such-directory", "report.jsonl")


@st.composite
def argvs(draw):
    """Mostly well-formed argv; half of them get one option value replaced
    by a malformed one, and half of the check ones write the report into a
    missing directory."""
    command = draw(st.sampled_from(["check", "sum", "net", "bogus"]))
    if command == "check":
        opts = {"--instance": st.sampled_from(SELECTORS),
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
        opts = {"--instance": st.sampled_from(SELECTORS),
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
    if command == "check" and draw(st.booleans()):
        values["--out"] = MISSING_DIR_OUT
    return [command] + [x for opt, value in values.items()
                        for x in (opt, value)]


@settings(max_examples=150)
@given(argvs())
def test_main_never_raises_and_only_check_fails_laws(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "check"
    assert code == 2 or MISSING_DIR_OUT not in argv


# -- structured argv: every refusal, an argument error too, is one line --------

# subcommand -> option -> (good values, bad values); None is a flag alone
CLI_OPTIONS = {
    "check": {
        "--instance": (SELECTORS + ["tiny.json"],
                       ["missing.json", "nosuch", "zmod:0", "parity:"]),
        "--laws": (["weak", "strong", "ft", "group", "all"], ["bogus", ""]),
        "--max-size": (["0", "2"], ["-1", "x"]),
        "--omega": (["1"], ["-1", "x"]),
        "--block-count": (["1", "3"], ["-1", ""]),
        "--block-size": (["3"], ["x"]),
        "--omega-splits": (["0", "2"], ["1.5"]),
        "--trials": (["3"], ["-1", "x"]),
        "--seed": (["3", "-4"], ["x"]),
        "--out": (["report.jsonl"], ["missing/report.jsonl", ""]),
    },
    "sum": {
        "--instance": (SELECTORS + ["tiny.json"], ["missing.json", "nosuch"]),
        "--family": (["{finite:[+,+,-]}", "{finite:[1,2],omega:[0]}",
                      "{finite:[[a],[a,b]]}", "{finite:[a]}", "{omega:[0]}"],
                     ["{finite:[q]}", "finite:[+]", "{finite:[+,,-]}", ""]),
        "--family-file": (["family.txt"], ["missing.txt", ""]),
    },
    "net": {
        "--gen": (["geometric(0.5,0.5)", "finite(1,2,3)", "power(2)",
                   "alternating_harmonic"],
                  ["finite(1e308,1e308)", "geometric(1)", "nope(1)", "!!",
                   ""]),
        "--eps": (["1e-9", "1"], ["-1", "nan", "x"]),
        "--max-terms": (["10"], ["0", "x"]),
        "--require-certificate": ([None], ["yes"]),
    },
}
# the options each subcommand mostly starts with: those it cannot run
# without, and for check the suite
CLI_FIRST = {"check": ["--instance", "--laws"],
             "sum": ["--instance", "--family"], "net": ["--gen"]}
UNKNOWN_OPTIONS = ["--bogus", "-x", "--bogus=1", "-"]
# appended to keep each run small; a later option wins over an earlier one
CLI_TAIL = {"check": ["--max-size", "1", "--omega", "0", "--trials", "0"],
            "net": ["--max-terms", "50"]}
# the files the structured command lines name, in their working directory
CLI_FILES = {
    "tiny.json": _definition(sums=[{"finite": [], "value": "0"},
                                   {"finite": ["a"], "value": "a"}]),
    "family.txt": b"{finite: [+, -]}",
}


@st.composite
def structured_argvs(draw):
    """A subcommand or a junk first token, then 0-4 option/value pairs: the
    subcommand's options, each with a good value or (one time in four) a
    bad one, or (one time in eight) an unknown option."""
    command = draw(st.sampled_from([*CLI_OPTIONS, *CLI_OPTIONS, "bogus", "",
                                    "-x"]))
    options = CLI_OPTIONS.get(command, {})
    argv = [command]
    for i in range(draw(st.integers(0, 4))):
        if options and draw(st.integers(0, 7)):
            first = CLI_FIRST[command]
            option = (first[i] if i < len(first) and draw(st.integers(0, 3))
                      else draw(st.sampled_from(sorted(options))))
            good, bad = options[option]
            value = draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0
                                         else good))
        else:
            option = draw(st.sampled_from(UNKNOWN_OPTIONS))
            value = draw(st.sampled_from([None, "1", "x", "a\nb"]))
        argv += [option] if value is None else [option, value]
    return argv + CLI_TAIL.get(command, [])


@settings(max_examples=500)
@given(structured_argvs())
def test_every_command_line_exits_0_1_or_2_and_refuses_on_one_line(argv):
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CLI_FILES.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err):
                code, out = run_cli(argv)
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), err
    else:
        assert err == ""
