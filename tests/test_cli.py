"""CLI behavior: golden-file byte stability, exit codes, error diagnostics."""

import io
import json
import math
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from hermlat.cli import main
from hermlat.fixtures import FixtureError, load_bundle, load_field, load_invariants
from hermlat.reports import render_report
from hermlat.transference import STATEMENTS, check_all

from conftest import FIXDIR

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = {
    "field_gaussian.txt": ["field", "--fixture", str(FIXDIR / "field_gaussian.json"), "--cn-max", "16"],
    "field_q.txt": ["field", "--fixture", str(FIXDIR / "field_q.json"), "--cn-max", "16"],
    "minima_diag.txt": ["minima", "--fixture", str(FIXDIR / "bundle_diag_4_quarter.json"), "--k", "2"],
    "minima_gaussian_rank2_seed42.txt": [
        "minima", "--fixture", str(FIXDIR / "bundle_gaussian_rank2_seed42.json"),
        "--k", "2", "--mode", "f-rank", "--norm", "sup",
    ],
    "check_gaussian_rank1.txt": ["check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"), "--statement", "all"],
    "bounds_g2.txt": ["bounds", "--fixture", str(FIXDIR / "invariants_g2.json"), "--d", "1,5,100,100000000"],
    "fuzz_small.txt": [
        "fuzz", "--fields",
        f"{FIXDIR / 'field_q.json'},{FIXDIR / 'field_gaussian.json'}",
        "--rank-max", "2", "--trials", "3", "--seed", "7",
    ],
}


def _normalize(text: str) -> str:
    # golden files were generated with repo-relative fixture paths; compare
    # with the path lines normalized so the suite is location-independent
    lines = []
    for line in text.splitlines():
        if line.startswith(("fixture:", "fields:")):
            key, _, value = line.partition(":")
            names = [Path(p.strip()).name for p in value.split(",")]
            line = f"{key}: {','.join(names)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, out, err = run_cli(GOLDEN_CASES[name])
    assert code == 0, err
    expected = (GOLDEN / name).read_text()
    assert _normalize(out) == _normalize(expected)


@pytest.mark.parametrize("name", ["check_gaussian_rank1.txt", "fuzz_small.txt"])
def test_byte_stability(name):
    code1, out1, _ = run_cli(GOLDEN_CASES[name])
    code2, out2, _ = run_cli(GOLDEN_CASES[name])
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_unknown_statement():
    code, _, err = run_cli(["check", "--fixture", str(FIXDIR / "bundle_z2.json"), "--statement", "nope"])
    assert code == 1


def test_usage_error_missing_fixture():
    code, _, _ = run_cli(["field"])
    assert code == 1


def test_parse_error_diagnostic(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"poly": [2,\n')
    code, _, err = run_cli(["field", "--fixture", str(bad)])
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_fixture_keys_rejected(tmp_path):
    f = tmp_path / "weird.json"
    f.write_text(json.dumps({"poly": [0, 1], "extra": 1}))
    code, _, err = run_cli(["field", "--fixture", str(f)])
    assert code == 1
    assert "unknown keys" in err


def test_expected_disc_validated(tmp_path):
    f = tmp_path / "wrong_disc.json"
    f.write_text(json.dumps({"poly": [1, 0, 1], "expected_disc": -3}))
    code, _, err = run_cli(["field", "--fixture", str(f)])
    assert code == 1


SQRT2 = {"poly": [-2, 0, 1]}
POLY_MESSAGE = "poly must be a list of integers"
DISC_MESSAGE = "expected_disc must be an integer"
FIELD_INTEGER_CASES = {
    "poly-bool": ({"poly": [-2, 0, True]}, POLY_MESSAGE),
    "poly-float": ({"poly": [-2, 0, 1.0]}, POLY_MESSAGE),
    "poly-string": ({"poly": [-2, "0", 1]}, POLY_MESSAGE),
    "disc-float": (SQRT2 | {"expected_disc": 8.9}, DISC_MESSAGE),
    "disc-integral-float": (SQRT2 | {"expected_disc": 8.0}, DISC_MESSAGE),
    "disc-string": (SQRT2 | {"expected_disc": "8"}, DISC_MESSAGE),
    "disc-bool": (SQRT2 | {"expected_disc": True}, DISC_MESSAGE),
}


@pytest.mark.parametrize("fixture,message", FIELD_INTEGER_CASES.values(), ids=FIELD_INTEGER_CASES)
def test_field_fixture_integers_are_json_integers(tmp_path, fixture, message):
    # no coercion: true must not become the coefficient 1, nor 8.9 the disc 8
    f = tmp_path / "field.json"
    f.write_text(json.dumps(fixture))
    with pytest.raises(FixtureError, match=message):
        load_field(f)
    code, out, err = run_cli(["field", "--fixture", str(f)])
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "key,value,message",
    [("rank", v, "rank must be a positive integer") for v in (True, 1.0, "1")]
    + [("field", fixture, message) for fixture, message in FIELD_INTEGER_CASES.values()],
    ids=["rank-bool", "rank-float", "rank-string", *FIELD_INTEGER_CASES],
)
def test_bundle_fixture_integers_are_json_integers(tmp_path, key, value, message):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(
        {"field": SQRT2, "rank": 1, "grams": {"0": [[[1, 0]]], "1": [[[1, 0]]]}} | {key: value}
    ))
    with pytest.raises(FixtureError, match=message):
        load_bundle(f)
    code, out, err = run_cli(["check", "--fixture", str(f), "--statement", "all"])
    assert code == 1 and out == ""
    assert message in err


def test_every_shipped_fixture_loads():
    for path in sorted(FIXDIR.glob("*.json")):
        load = {"field": load_field, "bundle": load_bundle}.get(path.stem.split("_")[0], load_invariants)
        assert load(path) is not None


@pytest.mark.parametrize("bits", ["0", "-3"])
def test_precision_below_one_bit_is_a_usage_error(bits):
    code, out, err = run_cli(["field", "--fixture", str(FIXDIR / "field_gaussian.json"), "--precision", bits])
    assert code == 1 and out == ""
    assert err == f"hermlat: precision must be at least 1 bit (prec_bits >= 1), got {bits}\n"


def test_check_failure_exit_code():
    # negative slack forces the lower sandwich inequality to fail
    code, out, _ = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"),
        "--statement", "sandwich", "--slack", "-0.5",
    ])
    assert code == 2
    assert "verdict: fail" in out


def test_dual_minima_takes_slack():
    # a slack of -5 makes mu_k(E*) <= mu_k(E^v) + log|v| - 5 fail
    argv = ["check", "--fixture", str(FIXDIR / "bundle_sqrt2_rank1.json"), "--statement", "dual-minima"]
    code, out, _ = run_cli(argv + ["--slack", "-5"])
    assert code == 2
    assert "verdict: fail" in out
    assert run_cli(argv)[0] == 0


@pytest.mark.parametrize("statement", ["chain", "all"])
def test_chain_rejects_slack(statement):
    code, out, err = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"),
        "--statement", statement, "--slack", "0.1",
    ])
    assert code == 1
    assert out == ""
    assert "keep their declared slacks" in err


@pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
def test_non_finite_slack_rejected(slack):
    code, out, err = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"),
        "--statement", "sandwich", f"--slack={slack}",
    ])
    assert code == 1
    assert out == ""
    assert "--slack must be finite" in err


def test_budget_exhaustion_exit_code():
    code, out, _ = run_cli([
        "minima", "--fixture", str(FIXDIR / "bundle_gaussian_rank2_seed42.json"),
        "--k", "4", "--mode", "q-rank", "--budget", "3",
    ])
    assert code == 3
    assert "certified: no" in out


@pytest.mark.parametrize("argv", [
    ["minima", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"), "--k", "1", "--budget", "-3"],
    ["check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"), "--budget", "0"],
    ["fuzz", "--fields", str(FIXDIR / "field_q.json"), "--trials", "1", "--budget", "0"],
], ids=["minima", "check", "fuzz"])
def test_budget_below_one_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "budget must be at least 1" in err


@pytest.mark.parametrize("flag, message", [
    ("--rank-max=0", "rank_max must be at least 1"),
    ("--trials=-1", "trials must be non-negative"),
])
def test_fuzz_arguments_validated(flag, message):
    code, out, err = run_cli(["fuzz", "--fields", str(FIXDIR / "field_q.json"), flag])
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("disc", [0, True, 2.7, "12"], ids=["zero", "bool", "float", "string"])
def test_invariants_disc_must_be_a_nonzero_integer(tmp_path, disc):
    f = tmp_path / "invariants.json"
    f.write_text(json.dumps({"g": 2, "omega_sq": 1.0, "disc": disc}))
    with pytest.raises(FixtureError, match="disc must be a nonzero integer"):
        load_invariants(f)
    code, out, err = run_cli(["bounds", "--fixture", str(f), "--d", "5"])
    assert code == 1
    assert out == ""
    assert "disc must be a nonzero integer" in err


@pytest.mark.parametrize("key", ["omega_sq", "log_disc", "residual_C"])
def test_non_finite_invariants_fixture_rejected(tmp_path, key):
    f = tmp_path / "invariants.json"
    f.write_text(json.dumps({"g": 2, "omega_sq": 1.0, key: math.nan}))
    with pytest.raises(FixtureError, match="must be finite"):
        load_invariants(f)
    code, out, err = run_cli(["bounds", "--fixture", str(f), "--d", "5"])
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("entry", [[math.nan, 0], [math.inf, 0], [1, math.nan]])
def test_non_finite_gram_fixture_rejected(tmp_path, entry):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps({
        "field": {"poly": [0, 1]},
        "rank": 2,
        "grams": {"0": [[[1, 0], entry], [entry, [1, 0]]]},
    }))
    code, out, err = run_cli(["check", "--fixture", str(f), "--statement", "all"])
    assert code == 1
    assert out == ""
    assert "Gram 0 has an entry that is not finite" in err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("g", 2.9, "g must be an integer"),
        ("g", 2.0, "g must be an integer"),
        ("g", True, "g must be an integer"),
        ("g", "2", "g must be an integer"),
        ("r", True, "r must be an integer"),
        ("r", 1.5, "r must be an integer"),
        ("omega_sq", "1.5", "omega_sq must be a number"),
        ("omega_sq", True, "omega_sq must be a number"),
        ("log_disc", "0.5", "log_disc must be a number"),
        ("log_disc", [1.0], "log_disc must be a number"),
        ("residual_C", None, "residual_C must be a number"),
        ("residual_C", 10**400, "residual_C must be finite"),
    ],
)
def test_invariants_numbers_are_json_numbers(tmp_path, key, value, message):
    # no truncation or coercion: "g": 2.9 must not become g = 2
    f = tmp_path / "invariants.json"
    f.write_text(json.dumps({"g": 2, "omega_sq": 1.0} | {key: value}))
    with pytest.raises(FixtureError, match=message):
        load_invariants(f)
    code, out, err = run_cli(["bounds", "--fixture", str(f), "--d", "5"])
    assert code == 1
    assert out == ""
    assert message in err


def test_invariants_accept_integers_for_reals(tmp_path):
    f = tmp_path / "invariants.json"
    f.write_text(json.dumps({"g": 3, "r": 2, "omega_sq": 1, "log_disc": 2, "residual_C": 0}))
    inv = load_invariants(f)
    assert (inv.g, inv.r, inv.omega_sq, inv.log_disc, inv.residual_c) == (3, 2, 1.0, 2.0, 0.0)
    assert all(type(v) is float for v in (inv.omega_sq, inv.log_disc, inv.residual_c))
    code, _, _ = run_cli(["bounds", "--fixture", str(f), "--d", "5"])
    assert code == 0


def test_invariants_disc_gives_log_disc(tmp_path):
    f = tmp_path / "invariants.json"
    f.write_text(json.dumps({"g": 2, "omega_sq": 1.0, "disc": -12}))
    assert load_invariants(f).log_disc == math.log(12)


def test_uncertified_check_exit_code():
    code, out, _ = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"),
        "--statement", "sandwich", "--budget", "2",
    ])
    assert code == 3
    assert "verdict: uncertified" in out


def test_exhausted_field_searches_still_report():
    # two nodes stop the transfer and Minkowski vector searches too; the
    # chain and dual-minima statements report uncertified instead of aborting
    code, out, _ = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_gaussian_rank1.json"),
        "--statement", "all", "--budget", "2",
    ])
    assert code == 3
    docs = out.rstrip("\n").split("\n\n")[1:]
    assert [doc.partition("\n")[0] for doc in docs] == [
        "statement: sandwich[k=1]", "statement: polar[k=1]", "statement: polar[k=2]",
        "statement: index[k=0]", "statement: chain[k=1]", "statement: dual-minima[k=1]",
    ]
    assert all("verdict: uncertified" in doc for doc in docs)
    assert "transfer_log_norm: nan" in docs[-2] and "minkowski_log_norm: nan" in docs[-1]


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli([
        "bounds", "--fixture", str(FIXDIR / "invariants_g2.json"),
        "--d", "5", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    assert "columns: d|lower_a|lower_b|upper_a|upper_b|limit" in target.read_text()


def test_bounds_d1_has_no_bound_b():
    code, out, _ = run_cli(["bounds", "--fixture", str(FIXDIR / "invariants_g2.json"), "--d", "1"])
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("1|")][0]
    cols = row.split("|")
    assert cols[2] == "" and cols[4] == ""


def test_bounds_worked_row():
    code, out, _ = run_cli(["bounds", "--fixture", str(FIXDIR / "invariants_g2.json"), "--d", "5"])
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("5|")][0]
    cols = row.split("|")
    assert abs(float(cols[1]) - 0.19643) < 1e-5
    assert abs(float(cols[2]) - 0.16667) < 1e-5
    assert abs(float(cols[3]) - 0.30357) < 1e-5
    assert abs(float(cols[4]) - 0.33333) < 1e-5
    assert float(cols[5]) == 0.25


def test_dual_minima_statement():
    code, out, _ = run_cli([
        "check", "--fixture", str(FIXDIR / "bundle_sqrt2_rank1.json"),
        "--statement", "dual-minima",
    ])
    assert code == 0
    assert "statement: dual-minima[k=1]" in out
    assert "verdict: pass" in out


@pytest.mark.parametrize("k", [None, 1])
@pytest.mark.parametrize("name", list(STATEMENTS))
def test_check_statement_renders_check_all(name, k):
    # the CLI sweep reads STATEMENTS, as check_all does: same reports, same order
    fixture = FIXDIR / "bundle_gaussian_rank2_seed42.json"
    expected = [
        "\n".join(render_report(rep))
        for rep in check_all(load_bundle(fixture))
        if rep.statement.partition("[")[0] == name
        and (k is None or rep.statement == f"{name}[k={k}]")
    ]
    argv = ["check", "--fixture", str(fixture), "--statement", name]
    code, out, err = run_cli(argv if k is None else argv + ["--k", str(k)])
    assert code == 0, err
    assert out.rstrip("\n").split("\n\n")[1:] == expected
    assert expected and (k is None or len(expected) == 1)
