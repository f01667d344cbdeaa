"""Tests of the benchmark itself: the correctness gate and its negative
controls, the layer attribution, and the output contract.

Run with ``python -m pytest perfbench``; each test takes at most a few
seconds, so none of them runs a whole workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import layers
import run
from workloads import sha256

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

SPECTRAL_REPORT = [
    {"check": "spectral-ybe", "family": "B", "rank": 2, "status": "pass", "witness": ""},
    {"check": "spectral-ybe", "family": "D", "rank": 3, "status": "pass", "witness": ""},
]


def spectral_outputs(report=SPECTRAL_REPORT):
    return {"report": [dict(it) for it in report], "errors": []}


def failed(verdicts):
    return [name for name, ok in verdicts if not ok]


# -- correctness gate ---------------------------------------------------------


def test_gate_accepts_the_pinned_spectral_report():
    assert failed(gate.verdicts(spectral_outputs(), gate.load_expected()["spectral-long"])) == []


def test_tampered_digest_flips_the_gate():
    expected = dict(gate.load_expected()["spectral-long"])
    expected["report_sha256"] = "0" * 64
    assert failed(gate.verdicts(spectral_outputs(), expected)) == ["report-sha256"]


def test_perturbed_report_entry_flips_the_gate():
    outputs = spectral_outputs()
    outputs["report"][1]["witness"] = "entry (0,0) differs by 1"
    assert failed(gate.verdicts(outputs, gate.load_expected()["spectral-long"])) == ["report-sha256"]
    outputs["report"][1]["status"] = "fail"
    assert failed(gate.verdicts(outputs, gate.load_expected()["spectral-long"])) == [
        "spectral-ybe D3",
        "report-sha256",
    ]


def test_perturbed_matrix_entry_flips_the_gate():
    from rsqg.matrices import matrix_to_json
    from rsqg.rmatrix import build_rhat_explicit

    obj = matrix_to_json(build_rhat_explicit("A", 2))
    expected = {"checks": 0, "report_sha256": sha256([]), "matrices": {"A2/rhat": sha256(obj)}}
    outputs = {"report": [], "errors": [], "matrices": {"A2/rhat": sha256(obj)}, "roundtrip": {"A2/rhat": True}}
    assert failed(gate.verdicts(outputs, expected)) == []
    obj["entries"][0]["num"][0]["coeff"] = "2"
    outputs["matrices"]["A2/rhat"] = sha256(obj)
    assert failed(gate.verdicts(outputs, expected)) == ["A2/rhat sha256"]


def test_a_raising_case_is_a_failure():
    outputs = spectral_outputs()
    outputs["errors"].append("D3: Traceback ...")
    assert failed(gate.verdicts(outputs, gate.load_expected()["spectral-long"])) == ["raised: D3: Traceback ..."]


def fake_pass(outputs, expected):
    return {
        "setup_s": 0.1,
        "wall_s": 1.0,
        "cpu_s": 1.0,
        "peak_rss_mb": 50.0,
        "case_s": {"B2": 0.4, "D3": 0.6},
        "verdicts": gate.verdicts(outputs, expected),
        "errors": outputs["errors"],
    }


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("tamper", [False, True])
def test_gate_sets_fail_ratio_and_exit_code(monkeypatch, capsys, tamper):
    expected = gate.load_expected()["spectral-long"]
    outputs = spectral_outputs()
    if tamper:
        outputs["report"][0]["status"] = "fail"
    monkeypatch.setattr(run, "run_child", lambda *a, **k: fake_pass(outputs, expected))
    code = run.main(["--workload", "spectral-long", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == (1 if tamper else 0)
    assert result["correct"] is not tamper
    assert (result["failed"] > 0) is tamper
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- layer attribution --------------------------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in layers.PER_LAYER.items()
    }


INSTALL_ORDER = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import layers
rec = layers.Recorder()
if {cli_first}:
    import rsqg.cli
rec.install()
import rsqg.cli as cli
missed = [
    f"{{mod.__name__}}.{{attr}}"
    for mod in list(sys.modules.values())
    if mod.__name__.startswith("rsqg")
    for attr, value in vars(mod).items()
    if getattr(value, "__wrapped__", None) is None
    and any(value is getattr(w, "__wrapped__") for w in rec.installed.values())
]
bound = [name for name in rec.installed if hasattr(cli, name)]
assert bound, "cli binds none of the wrapped names"
assert all(getattr(cli, name) is rec.installed[name] for name in bound), bound
assert not missed, missed
print("ok", len(rec.installed), len(bound))
"""


def run_snippet(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)


def test_wrappers_reach_every_binding_including_cli():
    proc = run_snippet(INSTALL_ORDER.format(bench=str(BENCH_DIR), src=str(ROOT / "src"), cli_first=False))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")


def test_installing_after_cli_import_is_refused():
    proc = run_snippet(INSTALL_ORDER.format(bench=str(BENCH_DIR), src=str(ROOT / "src"), cli_first=True))
    assert proc.returncode != 0
    assert "imported before the span wrappers" in proc.stderr


def test_standard_library_self_time_is_charged_to_the_calling_module():
    rsqg_dir = ROOT / "src" / "rsqg"
    scalars = (str(rsqg_dir / "scalars.py"), 548, "__mul__")
    matrices = (str(rsqg_dir / "matrices.py"), 130, "__matmul__")
    frac_mul = ("/usr/lib/python3/fractions.py", 400, "_mul")
    frac_gcd = ("~", 0, "<built-in method math.gcd>")
    stats = {
        matrices: (1, 1, 1.0, 10.0, {}),
        scalars: (5, 5, 2.0, 9.0, {matrices: (5, 5, 2.0, 9.0)}),
        # Fraction._mul is called from scalars (3 s) and from matrices (1 s)
        frac_mul: (7, 7, 4.0, 7.0, {scalars: (5, 5, 3.0, 6.0), matrices: (2, 2, 1.0, 1.0)}),
        # gcd runs only under Fraction._mul: charged 6:1 like its caller
        frac_gcd: (7, 7, 3.5, 3.5, {frac_mul: (7, 7, 3.5, 3.5)}),
    }
    got = layers.profile_metrics(stats, rsqg_dir, BENCH_DIR)
    assert got["scalars.self_s"] == pytest.approx(2.0 + 3.0 + 3.5 * 6 / 7)
    assert got["matrices.self_s"] == pytest.approx(1.0 + 1.0 + 3.5 * 1 / 7)
    assert got["profile.unattributed_s"] == pytest.approx(0.0)
    assert got["scalars.mul_calls"] == 5


def run_child(workload, cases, mode):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload, "--seed", "0", "--mode", mode, "--cases", cases],
        capture_output=True,
        text=True,
        timeout=120,
        env=run.child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return last_json_line(proc.stdout)


def test_spectral_path_bypasses_the_oracle_and_gcd():
    profile = run_child("spectral-long", "C2", "profile")["layers"]
    assert profile["scalars.gcd_calls"] == 0
    assert profile["pairing.pair_words_calls"] == 0
    assert profile["scalars.mul_calls"] > 0
    spans = run_child("spectral-long", "C2", "spans")["layers"]
    assert spans["pairing.hopf_pair_calls"] == 0
    assert spans["checks.check_spectral_ybe_s"] > 0
    assert spans["matrices.matmul_calls"] > 0


def test_finite_path_bypasses_the_oracle():
    spans = run_child("finite-wide", "B2", "spans")
    assert spans["layers"]["pairing.hopf_pair_calls"] == 0
    assert spans["layers"]["checks.check_braid_s"] > 0
    assert spans["layers"]["builders.calls"] > 0
    assert set(spans["case_s"]) == {"B2"}
