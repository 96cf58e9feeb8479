import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arrfree
import arrfree.oracle as oracle_mod
from arrfree.arrangement import parse_file
from arrfree.certify import verify_certificate
from arrfree.cli import eval_expr, main
from arrfree.fixtures import fixture_path

from conftest import cyclic_garbage, type_b_normals

BOOLEAN = fixture_path("boolean.json")
BOOLEAN234 = fixture_path("boolean_234.json")
BRAID = fixture_path("braid.json")
EX1 = fixture_path("example1_a1_m0_2.json")
EX1_TEMPLATE = fixture_path("example1_template.json")
EX52 = fixture_path("example52.json")
RANK4 = fixture_path("rank4_flag.json")
CERTIFIABLE = (BOOLEAN, BOOLEAN234, BRAID, EX1, EX52, fixture_path("generic4.json"), RANK4)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# unreadable input

SUBCOMMAND_ARGS = {"lattice": [], "b2": [], "certify": [], "sweep": [], "oracle": ["--hilbert"]}


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
@pytest.mark.parametrize("command", SUBCOMMAND_ARGS)
def test_unreadable_input_exits_2(tmp_path, capsys, command, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dim": 2, "labels": ["caf\u00e9"]}'.encode("latin-1"))
    code, out, err = run(capsys, command, str(path), *SUBCOMMAND_ARGS[command])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# lattice


def test_lattice_braid(capsys):
    code, out, _ = run(capsys, "lattice", BRAID, "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["levels"]["2"]) == 7


def test_lattice_boolean(capsys):
    code, out, _ = run(capsys, "lattice", BOOLEAN, "--json")
    assert code == 0
    assert len(json.loads(out)["levels"]["2"]) == 3


def test_lattice_rank4(capsys):
    code, out, _ = run(capsys, "lattice", RANK4, "--json", "--max-codim", "2")
    assert code == 0
    assert len(json.loads(out)["levels"]["2"]) == 28


def test_lattice_bad_codim(capsys):
    code, _, err = run(capsys, "lattice", BOOLEAN, "--max-codim", "5")
    assert code == 2
    assert "max-codim" in err


@pytest.mark.parametrize("codim", ["0", "-1"])
def test_lattice_codim_below_one(capsys, codim):
    code, out, err = run(capsys, "lattice", BOOLEAN, "--json", "--max-codim", codim)
    assert code == 2 and out == ""
    assert "max-codim" in err


def test_lattice_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid", encoding="utf-8")
    code, _, err = run(capsys, "lattice", str(bad))
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# b2


@pytest.mark.parametrize(
    "path,total", [(RANK4, 36), (EX1, 16), (BOOLEAN234, 26)]
)
def test_b2_values(capsys, path, total):
    code, out, _ = run(capsys, "b2", path, "--json")
    assert code == 0
    assert json.loads(out)["b2"]["total"] == total


def test_b2_solves_the_four_line_flats_of_b3_at_two(capsys, tmp_path):
    # B_3 with every m = 2 has exponents (6, 6, 6) (Terao's constant
    # multiplicity theorem), so b2 = 3 * 36; its three 4-line flats are the
    # only ones whose exponents need a graded solve
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"dim": 3, "hyperplanes": type_b_normals(3), "mult": [2] * 9}), encoding="utf-8")
    code, out, _ = run(capsys, "b2", str(path))
    lines = out.splitlines()
    assert code == 0 and lines[0] == "b2 = 108"
    assert len([line for line in lines if line.endswith(": exponents 4,4 -> 16")]) == 3


# ---------------------------------------------------------------------------
# certify


def test_certify_example1_free(capsys):
    code, out, _ = run(capsys, "certify", EX1, "--json")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["kind"] == "Free" and verdict["exponents"] == [2, 2, 3]


def test_certify_example52_nonfree(capsys):
    code, out, _ = run(capsys, "certify", EX52)
    assert code == 10
    assert "NonFree" in out


def test_certify_braid_inconclusive(capsys):
    code, out, _ = run(capsys, "certify", BRAID)
    assert code == 20
    assert "Inconclusive" in out


def test_certify_braid_with_oracle(capsys):
    code, out, _ = run(capsys, "certify", BRAID, "--oracle", "--json")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["exponents"] == [1, 2, 3]


@pytest.mark.parametrize(
    "path, extra, exponents",
    [(BRAID, (), [1, 2, 3]), (RANK4, ("--only-rule", "oracle", "--max-degree", "3"), [1, 3, 3, 3])],
    ids=["braid", "rank4_flag"],
)
def test_saito_basis_needs_no_polynomial_determinant(tmp_path, capsys, monkeypatch, path, extra, exponents):
    # every derivation tuple that the prover draws, and every one that the
    # verifier accepts, has degrees summing to |m|: Saito's criterion is
    # decided at one point, with no polynomial determinant
    def never(grid):
        raise AssertionError("poly_matrix_det must not run")

    monkeypatch.setattr(oracle_mod, "poly_matrix_det", never)
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", path, "--oracle", *extra, "--cert", str(cert))
    assert code == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    assert (payload["kind"], payload["exponents"], payload["certificate"]["rule"]) == ("Free", exponents, "SaitoBasis")
    v = verify_certificate(parse_file(path), payload)
    assert (v.kind, list(v.exponents), v.certificate.rule) == ("Free", exponents, "SaitoBasis")


def test_certify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2}', encoding="utf-8")
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 2 and "error" in err


def test_certify_json_deterministic(capsys):
    _, out1, _ = run(capsys, "certify", EX1, "--json", "--seed", "7")
    _, out2, _ = run(capsys, "certify", EX1, "--json", "--seed", "7")
    assert out1 == out2


def test_certificate_file_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", EX1, "--cert", str(cert))
    assert code == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    assert payload["header"]["format"] == "arrfree-certificate/1"
    assert payload["header"]["dispatch_order"][0] == "rank2"
    v = verify_certificate(parse_file(EX1), payload)
    assert v.kind == payload["kind"] == "Free"


def test_certify_only_rule(capsys):
    code, out, _ = run(capsys, "certify", EX52, "--only-rule", "two-locally-heavy", "--json")
    assert code == 10
    verdict = json.loads(out)["verdict"]
    assert verdict["certificate"]["rule"] == "TwoLocallyHeavy"


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("path", CERTIFIABLE, ids=lambda p: Path(p).stem)
def test_certify_json_golden(capsys, monkeypatch, path, oracle):
    # stdout of `certify --json` on every certifiable fixture, byte for byte
    monkeypatch.delenv("ARRFREE_SEED", raising=False)
    _, out, _ = run(capsys, "certify", path, "--json", *(["--oracle"] if oracle else []))
    golden = GOLDEN / (Path(path).stem + (".oracle.json" if oracle else ".json"))
    assert out == golden.read_text(encoding="utf-8")


def test_certify_digests_the_bytes_it_certified(tmp_path, capsys, monkeypatch):
    # the input is rewritten while the proof runs; the certificate's
    # input_digest is that of the bytes the proof read, not of the new file
    import hashlib

    import arrfree.cli as cli_mod

    path = tmp_path / "rank4.json"
    original = Path(RANK4).read_bytes()
    path.write_bytes(original)
    real = cli_mod.certify

    def rewriting(a, opts):
        path.write_bytes(Path(BRAID).read_bytes())
        return real(a, opts)

    monkeypatch.setattr(cli_mod, "certify", rewriting)
    code, out, _ = run(capsys, "certify", str(path), "--json", "--cert", str(tmp_path / "cert.json"))
    assert code == 0
    want = "sha256:" + hashlib.sha256(original).hexdigest()
    assert json.loads(out)["input_digest"] == want
    header = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))["header"]
    assert header["input_digest"] == want


def test_certify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("ARRFREE_SEED", "42")
    code, out, _ = run(capsys, "certify", EX1, "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 42


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", EX1, "--json"),
        ("sweep", EX1_TEMPLATE, "--param", "a=1..2", "--param", "m0=2*a", "--json"),
        ("oracle", BRAID, "--degree", "1", "--json"),
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_seed_env_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("ARRFREE_SEED", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: ARRFREE_SEED must be an integer, got 'abc'\n"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_boundary(capsys):
    code, out, _ = run(
        capsys, "sweep", EX1_TEMPLATE, "--param", "a=1..3", "--param", "m0=2*a", "--json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    verdicts = {r["params"]["a"]: r["verdict"] for r in rows}
    assert verdicts == {1: "Free", 2: "NonFree", 3: "NonFree"}


def test_sweep_m0_range_all_free(capsys):
    code, out, _ = run(
        capsys, "sweep", EX1_TEMPLATE, "--param", "a=1", "--param", "m0=2..5", "--json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    for r in rows:
        m0 = r["params"]["m0"]
        assert r["verdict"] == "Free"
        assert r["exponents"] == sorted([m0, 2, 3])


def test_sweep_rejects_row(capsys):
    code, out, _ = run(
        capsys, "sweep", EX1_TEMPLATE, "--param", "a=2", "--param", "m0=3", "--json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["status"] == "rejected"
    assert "m0 >= 2*a" in rows[0]["note"]


@pytest.mark.parametrize("param", ["m0=a/0", "m0=a//(a-1)", "m0=a%0"])
def test_sweep_division_by_zero_rejects_row(capsys, param):
    code, out, _ = run(capsys, "sweep", EX1_TEMPLATE, "--param", "a=1", "--param", param, "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["status"] == "rejected" and "division by zero" in row["note"]


def test_sweep_division_by_zero_in_require(tmp_path, capsys):
    template = json.loads(Path(EX1_TEMPLATE).read_text(encoding="utf-8"))
    template["require"] = ["m0 / (a - 1) >= 2"]
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", str(p), "--param", "a=1..2", "--param", "m0=4", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["status"] == "rejected" and "division by zero" in rows[0]["note"]
    assert rows[1]["status"] == "ok"


@pytest.mark.parametrize(
    "field, value",
    [
        ("mult", [1.5, "a", 1]),
        ("mult", [None, "a", 1]),
        ("mult", [True, "a", 1]),
        ("mult", "aa1"),
        ("mult", {"x": 1}),
        ("require", [5]),
        ("require", "a>0"),
        ("require", None),
    ],
)
def test_sweep_malformed_template_exits_2(tmp_path, capsys, field, value):
    template = json.loads(Path(BOOLEAN).read_text(encoding="utf-8"))
    template["mult"] = ["a", "a", 1]
    template[field] = value
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, err = run(capsys, "sweep", str(p), "--param", "a=1..2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: sweep template {field} must be a list of ")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dim", "3", "dim must be an integer"),
        ("hyperplanes", 5, "hyperplanes and mult must be lists"),
        ("labels", 5, "labels must be a list of strings"),
        ("mult", ["a", "a", 1, 1], "one multiplicity per hyperplane required"),
    ],
)
def test_sweep_malformed_template_arrangement_exits_2(tmp_path, capsys, field, value, message):
    # the template's arrangement is parsed once, before any row runs
    template = json.loads(Path(BOOLEAN).read_text(encoding="utf-8"))
    template["mult"] = ["a", "a", 1]
    template[field] = value
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, err = run(capsys, "sweep", str(p), "--param", "a=1..3")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_eval_expr_short_circuits_left_to_right():
    zero = {"a": Fraction(0)}
    assert eval_expr("a == 0 or 4 // a >= 2", zero) is True
    assert eval_expr("a != 0 and 4 // a >= 2", zero) is False
    assert eval_expr("a == 1 or a == 0", zero) is True
    assert eval_expr("a == 0 and a + 1 == 1 and a < 1", zero) is True
    with pytest.raises(ValueError, match="division by zero"):
        eval_expr("a == 1 or 4 // a >= 2", zero)


def test_sweep_require_short_circuits(tmp_path, capsys):
    template = json.loads(Path(EX1_TEMPLATE).read_text(encoding="utf-8"))
    template["require"] = ["m0 == 2 or 4 // (m0 - 2) >= 1"]
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", str(p), "--param", "a=1", "--param", "m0=2..7", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok", "ok", "ok", "ok", "rejected"]


@pytest.mark.parametrize(
    "mult0, params",
    [("m0", ["--param", "m0=a // 2"]), ("a // 2", [])],
)
def test_sweep_floor_division_is_an_integer(tmp_path, capsys, mult0, params):
    # Fraction // Fraction is an int; a floor quotient must still be read
    # as an integer parameter or multiplicity
    template = json.loads(Path(BRAID).read_text(encoding="utf-8"))
    template["mult"] = [mult0, 1, 1, 1, 1, 1]
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", str(p), "--param", "a=3..4", *params, "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["verdict"] for r in rows] == ["Inconclusive", "Free"]
    assert rows[1]["exponents"] == [2, 2, 3]


@pytest.mark.parametrize("expr, value", [("-(a < 2)", -1), ("(a > 0) * (a > 0)", 1), ("(a > 0) / (a > 0)", 1)])
def test_eval_expr_arithmetic_on_comparisons_is_a_fraction(expr, value):
    # a comparison is a bool, which arithmetic reads as 0 or 1; the result
    # is a Fraction, never an int, a bool or a float
    got = eval_expr(expr, {"a": Fraction(1)})
    assert type(got) is Fraction and got == value


def test_sweep_parameter_from_a_negated_comparison(capsys):
    code, out, _ = run(
        capsys, "sweep", EX1_TEMPLATE, "--param", "a=1..2", "--param", "b=-(a < 2)", "--param", "m0=2*a", "--json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["params"]["b"] for r in rows] == [-1, 0]


def test_eval_expr_leaves_no_cycles():
    env = {"a": Fraction(3)}
    assert cyclic_garbage(lambda: eval_expr("a == 0 or -a + 4 // a >= -2", env)) == []


# ---------------------------------------------------------------------------
# oracle


def test_oracle_braid_hilbert(capsys):
    code, out, _ = run(capsys, "oracle", BRAID, "--hilbert", "--json")
    assert code == 0
    h = json.loads(out)["hilbert"]
    assert h["kind"] == "FreeProven" and h["exponents"] == [1, 2, 3]
    # the basis is extracted at degree 3, the top exponent, below the
    # default cap 4, and the result cites that degree
    assert (h["degree_cap"], h["graded_dims"]) == (3, [0, 1, 4, 10])


def test_oracle_example52_cap8(capsys):
    code, out, _ = run(capsys, "oracle", EX52, "--hilbert", "--cap", "8", "--json")
    assert code == 0
    assert json.loads(out)["hilbert"]["kind"] == "NonFreeProven"


def test_oracle_degree_one_irreducible_nonsimple(capsys):
    code, out, _ = run(capsys, "oracle", EX52, "--degree", "1", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_oracle_cap_too_large(capsys):
    code, _, err = run(capsys, "oracle", EX52, "--hilbert", "--cap", "30")
    assert code == 3
    assert "too large" in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["certify", EX52, "--oracle", "--max-degree", "0"], 2),
        (["oracle", EX52, "--hilbert", "--cap", "0"], 2),
        (["certify", EX52, "--oracle", "--max-degree", "30"], 3),
        (["sweep", EX1_TEMPLATE, "--param", "a=1", "--param", "m0=2", "--oracle", "--max-degree", "30"], 3),
    ],
)
def test_oracle_cap_rejected_before_work(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert ("too large" if code == 3 else "at least 1") in err


def _rank3_in_k4(tmp_path, mult):
    # x, y, z, x+y+z with the fourth coordinate unused: rank 3 in K^4
    p = tmp_path / "rank3_in_k4.json"
    normals = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]]
    p.write_text(json.dumps({"dim": 4, "hyperplanes": normals, "mult": mult}), encoding="utf-8")
    return str(p)


def test_certify_cap_checked_against_the_essential_rank(tmp_path, capsys):
    # cap 8 is in range for rank 3 (not for rank 4), cap 16 for neither
    path = _rank3_in_k4(tmp_path, [1, 1, 1, 1])
    code, out, _ = run(capsys, "certify", path, "--oracle", "--max-degree", "8", "--only-rule", "oracle", "--json")
    assert code == 10
    payload = json.loads(out)["verdict"]
    assert payload["kind"] == "NonFree"
    assert verify_certificate(parse_file(path), payload).kind == "NonFree"
    code, out, err = run(capsys, "certify", path, "--oracle", "--max-degree", "16", "--only-rule", "oracle")
    assert code == 3 and out == ""
    assert "degree cap 16 too large for rank 3" in err


def test_sweep_cap_checked_against_the_essential_rank(tmp_path, capsys):
    path = _rank3_in_k4(tmp_path, ["a", 1, 1, 1])
    code, out, _ = run(capsys, "sweep", path, "--param", "a=1", "--oracle", "--max-degree", "8", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["status"] == "ok" and row["verdict"] == "NonFree"
    code, out, err = run(capsys, "sweep", path, "--param", "a=1", "--oracle", "--max-degree", "16", "--json")
    assert code == 3 and out == ""
    assert "degree cap 16 too large for rank 3" in err


@pytest.mark.parametrize("degree,code,message", [("-1", 2, "at least 0"), ("60", 3, "too large")])
def test_oracle_degree_rejected_before_work(capsys, degree, code, message):
    got, out, err = run(capsys, "oracle", BRAID, "--degree", degree)
    assert got == code and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("path", CERTIFIABLE)
def test_oracle_degree_matches_the_kernel(capsys, path):
    a = parse_file(path)
    for degree in range(4):
        code, out, _ = run(capsys, "oracle", path, "--degree", str(degree), "--json")
        assert code == 0
        assert json.loads(out)["dimension"] == len(oracle_mod.derivation_space_dim(a, degree)[1])


def _four_planes_at_400(tmp_path):
    p = tmp_path / "big.json"
    p.write_text(
        json.dumps({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "mult": [400] * 4}),
        encoding="utf-8",
    )
    return str(p)


def test_oracle_exponent_tuples_exit_3(tmp_path, capsys):
    # p(1600, 3) = 213,334 tuples; cap 2 is in range, the tuple list is not
    code, out, err = run(capsys, "oracle", _four_planes_at_400(tmp_path), "--hilbert", "--cap", "2", "--json")
    assert code == 3 and out == ""
    assert err.startswith("error: more than 10000 exponent tuples of length 3 sum to |m| = 1600")


def test_sweep_oracle_exponent_tuples_inconclusive(tmp_path, capsys, monkeypatch):
    # the braid with one multiplicity a is undecided by the rules; with the
    # bound lowered to 2, its p(6, 3) = 3 tuples are refused before any solve
    monkeypatch.setattr(oracle_mod, "MAX_EXPONENT_TUPLES", 2)

    def never(*args, **kwargs):
        raise AssertionError("no graded dimension may be solved")

    monkeypatch.setattr(oracle_mod, "derivation_dims", never)
    template = json.loads(Path(BRAID).read_text(encoding="utf-8"))
    template["mult"] = ["a"] + template["mult"][1:]
    p = tmp_path / "template.json"
    p.write_text(json.dumps(template), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", str(p), "--param", "a=1", "--oracle", "--max-degree", "2", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["status"] == "ok" and row["verdict"] == "Inconclusive"


def test_oracle_degree_zero(capsys):
    code, out, _ = run(capsys, "oracle", BRAID, "--degree", "0", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 0


def test_sweep_grid_limit(capsys):
    # 101 * 100 rows exceed the 10,000-row limit
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, "--param", "a=1..101", "--param", "m0=1..100")
    assert code == 2 and out == ""
    assert "10100 rows" in err


def test_sweep_grid_limit_past_maxsize(capsys):
    # len() of this range overflows; the row count comes from its bounds
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, "--param", "a=1..100000000000000000000000", "--param", "m0=2..3")
    assert code == 2 and out == ""
    assert err == f"error: sweep grid has {2 * 10**23} rows; the limit is 10000\n"


@pytest.mark.parametrize("spec", ["a=1..10**9", "a=x..3", "a=1..2.5", "a"])
def test_sweep_bad_param_exits_2(capsys, spec):
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, "--param", spec, "--param", "m0=2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "params",
    [
        # a second range would be lost, yet double the rows
        ["a=1..2", "a=3..3", "m0=2*a"],
        # an expression would overwrite the grid value
        ["a=1..2", "m0=2*a", "a=2*a"],
    ],
)
def test_sweep_repeated_parameter_exits_2(capsys, params):
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, *(x for p in params for x in ("--param", p)))
    assert (code, out, err) == (2, "", "error: --param a is given more than once\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1]}, "one multiplicity per hyperplane required"),
        ({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 0]}, "bad multiplicity 0"),
        ({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1.5]}, "bad multiplicity 1.5"),
    ],
)
def test_certify_bad_multiplicities_exit_2(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "certify", str(bad))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "entry, message",
    [("1/0", "zero denominator"), (True, "bad rational True"), ("1e400", "bad rational '1e400'")],
)
def test_certify_bad_normal_entry_exits_2(tmp_path, capsys, entry, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "hyperplanes": [[1, 0], [entry, 1]], "mult": [1, 1]}), encoding="utf-8")
    code, out, err = run(capsys, "certify", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_oracle_nonessential_needs_flag(tmp_path, capsys):
    p = tmp_path / "noness.json"
    p.write_text(
        json.dumps({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0]], "mult": [2, 3]}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "oracle", str(p), "--hilbert")
    assert code == 2 and "essentialize" in err
    code, out, _ = run(capsys, "oracle", str(p), "--hilbert", "--essentialize", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["nonessential_dims"] == 1
    assert data["hilbert"]["kind"] == "FreeProven"
    assert data["hilbert"]["exponents"] == [2, 3]


def _no_hyperplanes(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"dim": 3, "hyperplanes": [], "mult": []}), encoding="utf-8")
    return str(p)


def test_certify_no_hyperplanes_with_the_oracle(tmp_path, capsys):
    # the cap is checked against the rank, 0 here, without essentializing,
    # so the CLI answers as the library does
    path = _no_hyperplanes(tmp_path)
    for extra in ([], ["--max-degree", "3"]):
        code, out, _ = run(capsys, "certify", path, "--oracle", *extra, "--json")
        assert code == 0
        payload = json.loads(out)["verdict"]
        assert payload["kind"] == "Free" and payload["exponents"] == []
        assert payload["certificate"]["rule"] == "Rank2Base"
        assert verify_certificate(parse_file(path), payload).kind == "Free"


def test_certify_no_hyperplanes_with_the_oracle_rule_alone(tmp_path, capsys):
    # well-formed input: Inconclusive (exit 20), not a parse error (exit 2)
    code, out, _ = run(capsys, "certify", _no_hyperplanes(tmp_path), "--oracle", "--only-rule", "oracle", "--json")
    assert code == 20
    payload = json.loads(out)["verdict"]
    assert payload["kind"] == "Inconclusive" and payload["reason"] == "oracle: no hyperplanes to test"


def test_sweep_no_hyperplanes_with_the_oracle(tmp_path, capsys):
    path = _no_hyperplanes(tmp_path)
    code, out, _ = run(capsys, "sweep", path, "--param", "a=1..2", "--oracle", "--max-degree", "3", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["status"], r["verdict"]) for r in rows] == [("ok", "Free")] * 2


@pytest.mark.parametrize("argv", [["--hilbert", "--essentialize"], ["--degree", "1", "--essentialize"]])
def test_oracle_essentialize_no_hyperplanes_names_the_cause(tmp_path, capsys, argv):
    code, out, err = run(capsys, "oracle", _no_hyperplanes(tmp_path), *argv)
    assert code == 2 and out == ""
    assert "no hyperplanes to essentialize" in err


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib (OpenSSL) costs every process that loads it about 3 MB of
    # peak RSS; only the input digest needs it.  The child inherits the
    # environment, so that PYTHONDONTWRITEBYTECODE keeps it from writing
    # bytecode next to the sources
    src = str(Path(arrfree.__file__).resolve().parents[1])
    code = "import sys, arrfree.cli; print('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
