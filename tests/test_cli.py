import json

import pytest

from liesublat import cli
from liesublat.cli import SchemaError, main, validate_algebra_doc
from liesublat.catalog import simple3_char2


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# catalog / enumerate
# ---------------------------------------------------------------------------

def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--json")
    assert code == 0
    doc = json.loads(out)
    names = {e["name"] for e in doc["algebras"]}
    assert {"K", "sl2", "psl3_char3", "witt"} <= names
    assert "psl3" in doc["suites"]
    assert doc["omitted_topics"]


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "2", "--p", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"dim": 2, "p": 2, "candidates": 4, "jacobi_valid": 4, "solvable": 4}


def test_enumerate_needs_args(capsys):
    code, _, err = run_cli(capsys, "enumerate")
    assert code == 2 and "dim" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_sl2_f3(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--algebra", "sl2", "--p", "3",
        "--predicates", "modular,sm", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["nodes"] == 19
    assert len(doc["nodes"]) == 19
    verdicts = [n["predicates"]["sm"] for n in doc["nodes"]]
    assert sum(verdicts) == 6  # zero, four borels, whole algebra


def test_analyze_dim_filter(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--algebra", "K", "--predicates", "quasi_ideal",
        "--node-dim", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 7
    assert sum(n["predicates"]["quasi_ideal"] for n in doc["nodes"]) == 1


def test_analyze_unknown_predicate(capsys, monkeypatch):
    # the predicate list is checked before any lattice is built, so a bad
    # name exits at once even for psl3's 2.05M-candidate sweep
    def no_build(*args, **kwargs):
        raise AssertionError("lattice built before the predicates were checked")

    monkeypatch.setattr(cli, "build_lattice", no_build)
    for algebra in ("K", "psl3_char3"):
        code, _, err = run_cli(capsys, "analyze", "--algebra", algebra, "--predicates", "bogus")
        assert code == 2 and "bogus" in err


def test_analyze_needs_params(capsys):
    code, _, err = run_cli(capsys, "analyze", "--algebra", "sl2")
    assert code == 2 and "--p" in err


# ---------------------------------------------------------------------------
# lattice cache
# ---------------------------------------------------------------------------

def test_lattice_cache_hit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIESUBLAT_CACHE_DIR", str(tmp_path))
    code1, out1, _ = run_cli(capsys, "lattice", "--algebra", "sl2", "--p", "3", "--json")
    code2, out2, _ = run_cli(capsys, "lattice", "--algebra", "sl2", "--p", "3", "--json")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert not doc1["cache_hit"] and doc2["cache_hit"]
    assert doc1["nodes"] == doc2["nodes"] == 19
    assert doc1["by_dim"] == doc2["by_dim"]


def test_lattice_explicit_cache_path(tmp_path, capsys):
    path = str(tmp_path / "k.lat.json")
    code, out, _ = run_cli(capsys, "lattice", "--algebra", "K", "--cache", path, "--json")
    assert code == 0
    assert json.loads(out)["cache"] == path
    assert json.loads(open(path).read())["version"] == 1


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def test_analyze_from_file(tmp_path, capsys):
    doc = simple3_char2().to_json()
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "analyze", "--file", str(path), "--predicates", "quasi_ideal", "--json"
    )
    assert code == 0
    assert json.loads(out)["lattice"]["nodes"] == 12


def test_schema_errors_name_location(tmp_path, capsys):
    bad = {"p": 2, "dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 7]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2
    assert "$.brackets[0].coeffs[2]" in err

    with pytest.raises(SchemaError, match=r"\$\.p"):
        validate_algebra_doc({"p": 4, "dim": 2, "brackets": []})
    with pytest.raises(SchemaError, match=r"\$\.brackets\[0\]: indices"):
        validate_algebra_doc({"p": 2, "dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": [0, 0]}]})
    with pytest.raises(SchemaError, match=r"\$\.dim"):
        validate_algebra_doc({"p": 2, "dim": 11, "brackets": []})


def test_jacobi_violation_rejected_via_file(tmp_path, capsys):
    bad = {
        "p": 3,
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": [1, 0, 0]},
            {"i": 0, "j": 2, "coeffs": [0, 1, 0]},
        ],
    }
    path = tmp_path / "nonjacobi.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2
    assert "Jacobi" in err or "triple" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_k_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "K-example", "--json")
    assert code == 0
    doc = json.loads(out)
    statuses = {a["claim"]: a["status"] for a in doc["assertions"]}
    assert statuses["lattice-is-the-12-predicted-nodes"] == "pass"
    assert statuses["frattini-is-Fc"] == "pass"
    assert statuses["sm-verdict-of-Fc"] == "reported"
    assert len(doc["digest"]) == 64


def test_flags_only_on_commands_that_read_them(capsys):
    for argv in (
        ["catalog", "--threads", "1"],
        ["enumerate", "--dim", "2", "--p", "2", "--max-subspaces", "9"],
        ["enumerate", "--dim", "2", "--p", "2", "--algebra", "K"],
        ["analyze", "--algebra", "K", "--seed", "3"],
        ["lattice", "--algebra", "K", "--time-budget-secs", "5"],
        ["verify", "--suite", "K-example", "--table-limit", "9"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_budget_exceeded_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "lattice", "--algebra", "psl3_char3", "--max-subspaces", "1000",
        "--cache", "/tmp/never-written.json",
    )
    assert code == 2
    assert "budget" in err
