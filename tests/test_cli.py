"""Command-line driver: exit codes, JSON round trips, determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from rsqg.cli import run
from rsqg.matrices import matrix_from_json, matrix_to_json
from rsqg.rmatrix import build_rbar_inverse, build_rhat_explicit
from rsqg.scalars import rs_ring


def test_unknown_family_exits_2(capsys):
    assert run(["rmatrix", "build", "--family", "X", "--rank", "2"]) == 2


def test_bad_rank_exits_2(capsys):
    assert run(["rootdata", "dump", "--family", "B", "--rank", "1"]) == 2


def test_verify_pass_exits_0(capsys):
    code = run(["rmatrix", "verify", "--family", "B", "--rank", "2", "--checks", "braid"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] B2 braid" in out


def test_lyndon_table(capsys):
    assert run(["lyndon", "table", "--family", "D", "--rank", "4"]) == 0
    out = capsys.readouterr().out
    assert "gamma[1,1]" in out and "beta[1,2]" in out


def test_rootdata_dump_json(tmp_path, capsys):
    path = tmp_path / "b3.json"
    assert run(["rootdata", "dump", "--family", "B", "--rank", "3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["family"] == "B" and len(obj["positive_roots"]) == 9
    assert obj["omega"]["1,0"] == "1 * r^2 * s^2"


def test_matrix_json_round_trip(tmp_path):
    ring = rs_ring()
    m = build_rhat_explicit("C", 2, ring)
    again = matrix_from_json(ring, json.loads(json.dumps(matrix_to_json(m))))
    assert again == m


def test_rmatrix_build_out(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = run(
        ["rmatrix", "build", "--family", "C", "--rank", "2", "--route", "factorized", "--out", str(path)]
    )
    assert code == 0
    obj = json.loads(path.read_text())
    ring = rs_ring()
    assert matrix_from_json(ring, obj) == build_rhat_explicit("C", 2, ring)


def test_rep_dump(tmp_path, capsys):
    path = tmp_path / "rep.json"
    assert run(["rep", "dump", "--family", "B", "--rank", "2", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["dimension"] == 5
    assert "root_vectors" in obj and "gamma[1,2]" in obj["root_vectors"]
    path2 = tmp_path / "erep.json"
    assert run(["rep", "dump", "--family", "C", "--rank", "2", "--affine", "--out", str(path2)]) == 0
    obj2 = json.loads(path2.read_text())
    assert "e0" in obj2["generators"]


@pytest.mark.parametrize(
    "args,digest",
    [
        (["--affine", "--family", "B", "--rank", "2"], "11e3f1c3b10213aaf80624f28d161443e6434ed60d68fc15301048b3edb9620e"),
        (["--affine", "--family", "D", "--rank", "3"], "12751907fac8ff8c545bc34ba2c43d016fbad66b023810248826d416b978820b"),
        (["--family", "C", "--rank", "3"], "967e0dbc6bdc77bab01113eb1b4c5e47d9156a4bb64435cae76889bb5c3065b2"),
        (["--family", "A", "--rank", "3"], "95d9778faedd314f7c48a18dd1814fd26588b1cd31199c0ee4437ec1e9c36c94"),
        (["--family", "B", "--rank", "3"], "a72c91f0e73720502159f9a26e0cad8a7b08758e82ee9135a0f3cd188d45c60e"),
        (["--family", "D", "--rank", "4"], "ac415e062ba34bc52e890e55364995c4bd5030ee8a4e11bc88ebf3a084819ae9"),
        (["--affine", "--family", "A", "--rank", "3"], "d2ae3edfe2d9afc47fe7783705920134572494a80be52aaeb7f7655032c0f8b1"),
        (["--affine", "--family", "C", "--rank", "3"], "368b40efe2b217405cf3c8a0ea78a267a6dd720dc2ad403517c01ff929d00480"),
    ],
)
def test_rep_dump_bytes_are_pinned(tmp_path, args, digest):
    path = tmp_path / "rep.json"
    assert run(["rep", "dump", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "builder,family,rank,digest",
    [
        (build_rhat_explicit, "B", 2, "a95f846b404494ebe2a45da75c3d2259e13f2942724edff816eeafe9b44a0d46"),
        (build_rhat_explicit, "C", 3, "c3cbb7bc50be17ea29e90946a4563eb73c4fee4073132bf3296d7694f59f673c"),
        (build_rhat_explicit, "D", 4, "a90e41dfe9ab314d80a3e14aa426b80941f084180126bd57190fdd79986b9c75"),
        (build_rbar_inverse, "B", 2, "0552653396532ab77b0ac297ed14dc8a299a4f7005374859d4cb3c62dd05b46c"),
        (build_rbar_inverse, "C", 3, "5dec5e33e92bca345e27d8ef139772a35e65d186bfd355243289bdf1201de6ac"),
        (build_rbar_inverse, "D", 4, "f79517d064a810b26718dc3379a10ef0f9b05e9b2f7c4354008180ae05b74988"),
    ],
)
def test_rmatrix_json_is_pinned(builder, family, rank, digest):
    """SHA-256 of the sorted, compact matrix JSON of the R̂ and R̄ displays."""
    text = json.dumps(matrix_to_json(builder(family, rank)), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pairing_constants_cli(capsys):
    assert run(["pairing", "constants", "--family", "B", "--rank", "2", "--max-m", "1"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "MISMATCH" not in out


def test_embed_verify_cli(capsys):
    assert run(["embed", "verify", "--family", "A", "--rank", "2", "--checks", "dj,twist"]) == 0


def test_affine_verify_cli(capsys):
    assert (
        run(["affine", "verify", "--family", "C", "--rank", "2", "--checks", "baxterize-match,unit"])
        == 0
    )


def test_certify_all_exits_0(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["certify-all", "--max-rank", "2", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    report = json.loads(path.read_text())
    assert all(item["status"] == "pass" for item in report)
    # deterministic ordering by (check, family, rank)
    keys = [(item["check"], item["family"], item["rank"]) for item in report]
    assert keys == sorted(keys)


def test_failing_check_exits_1(capsys):
    from rsqg.cli import _finish
    from rsqg.report import CheckItem, Report

    rep = Report([CheckItem("demo", "B", 2, False, "entry (0,0) differs by 1")])
    assert _finish(rep) == 1
    out = capsys.readouterr().out
    assert "[fail]" in out and "witness" in out


def test_report_determinism(capsys):
    from rsqg.rmatrix import run_rmatrix_checks

    a = run_rmatrix_checks("B", 2, ["eigen", "inverse", "tables"]).to_json()
    b = run_rmatrix_checks("B", 2, ["eigen", "inverse", "tables"]).to_json()
    for x, y in zip(a, b):
        assert {k: v for k, v in x.items() if k != "seconds"} == {
            k: v for k, v in y.items() if k != "seconds"
        }


# ---------------------------------------------------------------------------
# input validation happens before any work or output
# ---------------------------------------------------------------------------


def test_inapplicable_check_exits_2_before_output(capsys):
    assert run(["embed", "verify", "--family", "C", "--rank", "2", "--checks", "twist"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not apply to C2" in captured.err


def test_check_below_affine_range_exits_2(capsys):
    assert run(["affine", "verify", "--family", "D", "--rank", "2", "--checks", "unit"]) == 2
    assert capsys.readouterr().out == ""


def test_unknown_check_exits_2(capsys):
    assert run(["rmatrix", "verify", "--family", "B", "--rank", "2", "--checks", "braid,nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nope" in captured.err


def test_pairing_outside_oracle_range_exits_2_before_output(capsys):
    assert run(["pairing", "constants", "--family", "A", "--rank", "4", "--max-m", "3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("max_m", ["0", "-3"])
def test_pairing_max_m_below_one_exits_2_before_output(capsys, max_m):
    """--max-m below 1 would pair nothing and pass vacuously."""
    assert run(["pairing", "constants", "--family", "B", "--rank", "2", "--max-m", max_m]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"m={max_m}" in captured.err


def test_affine_rep_dump_below_range_exits_2(capsys):
    assert run(["rep", "dump", "--family", "D", "--rank", "2", "--affine"]) == 2
    assert capsys.readouterr().out == ""


def test_raising_certificate_is_a_failure_not_usage(monkeypatch, capsys):
    from rsqg import rmatrix

    def broken(rep, rhat=None):
        raise ValueError("injected fault")

    monkeypatch.setattr(rmatrix, "check_braid", broken)
    code = run(["rmatrix", "verify", "--family", "B", "--rank", "2", "--checks", "braid,eigen"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[fail] B2 braid" in out and "ValueError: injected fault" in out
    assert "[pass] B2 eigenvalues" in out


def test_empty_report_is_not_ok():
    from rsqg.report import Report

    assert not Report().ok()


def test_verify_default_is_what_certify_all_runs(capsys):
    assert run(["embed", "verify", "--family", "C", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "dj-serre" in out and "kappa-recursion" in out and "root-vector-embedding" in out
    assert "twist" not in out


# ---------------------------------------------------------------------------
# RSQG_JOBS: validated and clamped without starting a process
# ---------------------------------------------------------------------------


def test_jobs_clamped_to_cases_and_cpus(monkeypatch):
    from rsqg import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._jobs("1", 7) == 1
    assert cli._jobs("2", 7) == 2
    assert cli._jobs("64", 7) == 3
    assert cli._jobs("64", 2) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._jobs("64", 7) == 1


def test_jobs_rejects_non_integer_and_below_one():
    from rsqg import cli

    for value in ("0", "-3", "two", "2.5", ""):
        with pytest.raises(ValueError):
            cli._jobs(value, 7)


def test_bad_jobs_exits_2_before_any_case(monkeypatch, capsys):
    from rsqg import cli

    def no_case(case):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cli, "_certify_one", no_case)
    monkeypatch.setenv("RSQG_JOBS", "0")
    assert run(["certify-all", "--max-rank", "2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("max_rank", ["1", "0", "-5"])
def test_max_rank_below_two_exits_2_before_any_case(monkeypatch, capsys, max_rank):
    from rsqg import cli

    def no_case(case):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cli, "_certify_one", no_case)
    assert run(["certify-all", "--max-rank", max_rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 2" in captured.err


@pytest.mark.parametrize("max_rank", ["7", "12", "100000"])
def test_max_rank_past_the_oracle_range_exits_2_before_any_case(monkeypatch, capsys, max_rank):
    """B7 and C7 have highest-root height 13; the oracle's bound admits 11."""
    from rsqg import cli

    def no_case(case):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cli, "_certify_one", no_case)
    assert run(["certify-all", "--max-rank", max_rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "includes B7" in captured.err and "height=13" in captured.err


def test_max_rank_limit_follows_the_oracle_range(monkeypatch):
    """The highest --max-rank accepted is read off check_oracle_range: 6 now,
    and 5 under a bound that rejects height 11."""
    from rsqg import cli

    cli._check_max_rank(6)
    original = cli.check_oracle_range

    def tighter(m, height):
        original(m, height)
        if m * height > 9:
            raise ValueError("tighter bound")

    monkeypatch.setattr(cli, "check_oracle_range", tighter)
    cli._check_max_rank(5)
    with pytest.raises(ValueError, match="includes B6"):
        cli._check_max_rank(6)
