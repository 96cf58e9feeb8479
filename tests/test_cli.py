import json
from pathlib import Path

import pytest

from arrfree.arrangement import parse_file
from arrfree.certify import verify_certificate
from arrfree.cli import main
from arrfree.fixtures import fixture_path

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


# ---------------------------------------------------------------------------
# oracle


def test_oracle_braid_hilbert(capsys):
    code, out, _ = run(capsys, "oracle", BRAID, "--hilbert", "--json")
    assert code == 0
    h = json.loads(out)["hilbert"]
    assert h["kind"] == "FreeProven" and h["exponents"] == [1, 2, 3]


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


@pytest.mark.parametrize("degree,code,message", [("-1", 2, "at least 0"), ("60", 3, "too large")])
def test_oracle_degree_rejected_before_work(capsys, degree, code, message):
    got, out, err = run(capsys, "oracle", BRAID, "--degree", degree)
    assert got == code and out == ""
    assert err.startswith("error: ") and message in err


def test_oracle_degree_zero(capsys):
    code, out, _ = run(capsys, "oracle", BRAID, "--degree", "0", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 0


def test_sweep_grid_limit(capsys):
    # 101 * 100 rows exceed the 10,000-row limit
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, "--param", "a=1..101", "--param", "m0=1..100")
    assert code == 2 and out == ""
    assert "10100 rows" in err


@pytest.mark.parametrize("spec", ["a=1..10**9", "a=x..3", "a=1..2.5", "a"])
def test_sweep_bad_param_exits_2(capsys, spec):
    code, out, err = run(capsys, "sweep", EX1_TEMPLATE, "--param", spec, "--param", "m0=2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
