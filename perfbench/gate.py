"""Correctness gate: every workload output is compared with values pinned at
the seed commit in ``expected.json``.

An output fails when its certificate does not pass, when a pinned count or
SHA-256 digest differs, when a JSON round trip does not give back the same
matrix, or when a case raises.  ``verdicts`` lists one (name, ok) pair per
output, so ``fail_ratio`` is failed outputs over attempted outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import sha256

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verdicts(outputs: dict, expected: dict) -> list[tuple[str, bool]]:
    """One (output name, ok) pair per checked output of one workload pass."""
    report = outputs["report"]
    out = [(f"{it['check']} {it['family']}{it['rank']}", it["status"] == "pass") for it in report]
    out.append(("check-count", len(report) == expected["checks"]))
    out.append(("report-sha256", sha256(report) == expected["report_sha256"]))
    if "exit_code" in expected:
        out.append(("exit-code", outputs.get("exit_code") == expected["exit_code"]))
        out.append(("summary", outputs.get("summary") == expected["summary"]))
    for name, digest in expected.get("matrices", {}).items():
        out.append((f"{name} sha256", outputs["matrices"].get(name) == digest))
        out.append((f"{name} roundtrip", outputs["roundtrip"].get(name) is True))
    out.extend((f"raised: {err.splitlines()[0]}", False) for err in outputs["errors"])
    return out


def digests(outputs: dict) -> dict:
    """The values ``expected.json`` pins, computed from one pass's outputs."""
    pinned = {
        "checks": len(outputs["report"]),
        "report_sha256": sha256(outputs["report"]),
    }
    if "exit_code" in outputs:
        pinned["exit_code"] = outputs["exit_code"]
        pinned["summary"] = outputs["summary"]
    if "matrices" in outputs:
        pinned["matrices"] = outputs["matrices"]
    return pinned
