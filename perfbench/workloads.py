"""The three benchmark workloads, run through rsqg's public functions.

Every workload is a fixed, deterministic exact computation.  The seed only
permutes the order of its (family, rank) cases; the outputs are
order-independent because the reports are sorted before they are compared.

Each runner takes the permuted cases and a ``case_span`` factory (a context
manager that times one case) and returns the outputs the gate checks:

``report``   the merged certificate report, sorted, with ``seconds`` removed;
``errors``   one line per case that raised;
``exit_code``/``summary``   the command's exit code and last line (certify-desk);
``matrices`` name -> SHA-256 of the exported matrix JSON (finite-wide);
``roundtrip`` name -> whether ``matrix_from_json`` gave back the same matrix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback

DESK_ARGV = ["certify-all", "--max-rank", "3"]
# B3 and C3 are left out: each takes 5-10 s on its own and would dwarf B2/D3.
SPECTRAL_CASES = [("B", 2), ("D", 3)]
WIDE_CASES = [("B", 5), ("C", 5), ("D", 5), ("B", 6)]
WIDE_CHECKS = ["route", "eigen", "intertwine", "minpoly", "inverse", "weights", "tables", "braid"]


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def sha256(obj) -> str:
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def label(case) -> str:
    return f"{case[0]}{case[1]}"


def default_cases(workload: str) -> list[tuple[str, int]]:
    if workload == "certify-desk":
        from rsqg import cli

        return [tuple(c) for c in cli._desk_cases(3)]
    if workload == "spectral-long":
        return list(SPECTRAL_CASES)
    if workload == "finite-wide":
        return list(WIDE_CASES)
    raise ValueError(f"unknown workload {workload!r}")


def permuted_cases(workload: str, seed: int) -> list[tuple[str, int]]:
    cases = default_cases(workload)
    random.Random(seed).shuffle(cases)
    return cases


def _stripped(report) -> list[dict]:
    return [{k: v for k, v in item.items() if k != "seconds"} for item in report.to_json()]


def _sorted_report(items: list[dict]) -> list[dict]:
    return sorted(items, key=lambda it: (it["check"], it["family"], it["rank"]))


def _record_error(errors: list[str], case) -> None:
    errors.append(f"{label(case)}: {traceback.format_exc(limit=3).strip()}")


def run_certify_desk(cases, case_span) -> dict:
    """``rsqg certify-all --max-rank 3`` through ``cli.run``, stdout captured.

    The case order is injected by replacing ``cli._desk_cases``; each case is
    timed by wrapping ``cli._certify_one``.  Both are module globals that
    ``cmd_certify_all`` looks up at call time.
    """
    from rsqg import cli

    if sorted(cases) != sorted(default_cases("certify-desk")):
        raise ValueError(f"certify-desk cases must be a permutation of the desk cases, got {cases}")
    items: list[dict] = []
    errors: list[str] = []
    certify_one = cli._certify_one
    desk_cases = cli._desk_cases

    def timed_certify_one(case):
        with case_span(case[:2]):
            try:
                rep = certify_one(case)
            except Exception:
                _record_error(errors, case)
                raise
        items.extend(_stripped(rep))
        return rep

    cli._desk_cases = lambda max_rank: list(cases)
    cli._certify_one = timed_certify_one
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(list(DESK_ARGV))
    except Exception:
        if not errors:  # a case failure is already recorded by timed_certify_one
            errors.append(traceback.format_exc(limit=3).strip())
        code = None
    finally:
        cli._desk_cases = desk_cases
        cli._certify_one = certify_one
    lines = out.getvalue().splitlines()
    return {
        "report": _sorted_report(items),
        "errors": errors,
        "exit_code": code,
        "summary": lines[-1] if lines else "",
    }


def run_spectral_long(cases, case_span) -> dict:
    """``check_spectral_ybe`` on the B/D cases that ``--long`` adds."""
    from rsqg import affine

    items: list[dict] = []
    errors: list[str] = []
    for case in cases:
        with case_span(case):
            try:
                items.extend(_stripped(affine.check_spectral_ybe(*case)))
            except Exception:
                _record_error(errors, case)
    return {"report": _sorted_report(items), "errors": errors}


def run_finite_wide(cases, case_span) -> dict:
    """Finite certificates, the affine intertwiner and a JSON export/import
    round trip of the three exported operators, past desk scale."""
    from rsqg import affine, matrices, rmatrix

    items: list[dict] = []
    errors: list[str] = []
    digests: dict[str, str] = {}
    roundtrip: dict[str, bool] = {}
    for case in cases:
        with case_span(case):
            try:
                family, rank = case
                items.extend(_stripped(rmatrix.run_rmatrix_checks(family, rank, list(WIDE_CHECKS))))
                items.extend(_stripped(affine.check_affine_intertwiner(family, rank)))
                for name, build in (
                    ("rhat", rmatrix.build_rhat_explicit),
                    ("rbar", rmatrix.build_rbar_inverse),
                    ("rhat_z", affine.build_affine_rhat),
                ):
                    mat = build(family, rank)
                    obj = matrices.matrix_to_json(mat)
                    key = f"{label(case)}/{name}"
                    digests[key] = sha256(obj)
                    roundtrip[key] = matrices.matrix_from_json(mat.ring, obj) == mat
            except Exception:
                _record_error(errors, case)
    return {
        "report": _sorted_report(items),
        "errors": errors,
        "matrices": dict(sorted(digests.items())),
        "roundtrip": dict(sorted(roundtrip.items())),
    }


RUNNERS = {
    "certify-desk": run_certify_desk,
    "spectral-long": run_spectral_long,
    "finite-wide": run_finite_wide,
}
