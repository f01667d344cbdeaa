"""Command-line driver: table dumps, matrix exports, and the certificate
runner.  Exit code 0 when every selected check passes, 1 on a failing check
(with a witness), 2 on usage errors, which are found before any work or
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .affine import build_affine_rhat, run_affine_checks
from .catalogue import GROUPS, default_checks, names, open_case, run_group, select
from .embed import run_embed_checks
from .lyndon import is_convex, lalonde_ram, minimal_pair
from .matrices import matrix_to_json
from .pairing import PairingContext, check_oracle_range, closed_form_pairing
from .rep import build_evaluation, build_fundamental, check_affine_rank
from .report import Report
from .rmatrix import build_rhat_explicit, build_rhat_factorized, run_rmatrix_checks
from .rootdata import FAMILIES, MIN_AFFINE_RANK, affine_data, build_root_system
from .rootvec import build_root_vector_matrices
from .scalars import rs_ring, scalar_to_json, text_form


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_rootdata_dump(args) -> int:
    rs = build_root_system(args.family, args.rank)
    ring = rs_ring()
    obj = {
        "family": rs.family,
        "rank": rs.n,
        "d": list(rs.d),
        "cartan": [list(r) for r in rs.cartan],
        "ringel": [list(r) for r in rs.ringel],
        "positive_roots": [
            {
                "label": rt.label(),
                "alpha": list(rt.alpha),
                "eps": [str(x) for x in rt.eps],
            }
            for rt in rs.positive
        ],
    }
    if rs.n >= MIN_AFFINE_RANK[rs.family]:
        aff = affine_data(rs, ring)
        obj["omega"] = {
            f"{i},{j}": text_form(aff.omega[(i, j)]) for i in range(rs.n + 1) for j in range(rs.n + 1)
        }
        obj["cartan_extended"] = [
            [aff.cartan_ext[(i, j)] for j in range(rs.n + 1)] for i in range(rs.n + 1)
        ]
        obj["highest_root"] = list(aff.theta.alpha)
    _write_json(obj, args.out)
    return 0


def cmd_lyndon_table(args) -> int:
    rs = build_root_system(args.family, args.rank)
    order = lalonde_ram(rs)
    rows = []
    for rt in order.roots:
        row = {
            "root": rt.label(),
            "alpha": list(rt.alpha),
            "word": list(order.word(rt)),
        }
        if not rt.is_simple():
            a, b = minimal_pair(order, rt)
            row["minimal_pair"] = [a.label(), b.label()]
        rows.append(row)
    obj = {"family": rs.family, "rank": rs.n, "convex": is_convex(order), "roots": rows}
    if args.json or args.out:
        _write_json(obj, args.out)
    else:
        for row in rows:
            pair = " ".join(row.get("minimal_pair", []))
            print(f"{row['root']:<14} word={''.join(map(str, row['word'])):<8} {pair}")
    return 0


def cmd_rep_dump(args) -> int:
    if args.affine:
        mod = build_evaluation(args.family, args.rank)
        rep = mod.fin
    else:
        mod = rep = build_fundamental(args.family, args.rank)
    gens = {}
    for i in mod.e:
        gens[f"e{i}"] = matrix_to_json(mod.e[i])
        gens[f"f{i}"] = matrix_to_json(mod.f[i])
        gens[f"omega{i}"] = matrix_to_json(mod.omega[i])
        gens[f"omega_prime{i}"] = matrix_to_json(mod.omega_prime[i])
    if args.affine:
        gens["central_scalar"] = scalar_to_json(mod.c)
    order = lalonde_ram(rep.rs)
    rvm = build_root_vector_matrices(rep, order)
    obj = {
        "family": args.family,
        "rank": args.rank,
        "dimension": rep.N,
        "generators": gens,
        "root_vectors": {
            rt.label(): {
                "e": matrix_to_json(rvm.e_of(rt)),
                "f": matrix_to_json(rvm.f_of(rt)),
            }
            for rt in rep.rs.positive
        },
    }
    _write_json(obj, args.out)
    return 0


def cmd_pairing_constants(args) -> int:
    rs = build_root_system(args.family, args.rank)
    ring = rs_ring()
    pc = PairingContext(lalonde_ram(rs), ring)
    ok = True
    for rt in pc.order.roots:
        for m in range(1, args.max_m + 1):
            via_oracle = pc.power_pairing(rt, m)
            via_closed = closed_form_pairing(rs, ring, rt, m)
            match = via_oracle == via_closed
            ok = ok and match
            print(
                f"{rt.label():<14} m={m} closed={text_form(via_closed)} "
                f"oracle={text_form(via_oracle)} [{'ok' if match else 'MISMATCH'}]"
            )
    return 0 if ok else 1


def _rmatrix_builder(args):
    if args.route == "explicit":
        return build_rhat_explicit(args.family, args.rank)
    return build_rhat_factorized(args.family, args.rank)


def cmd_rmatrix_build(args) -> int:
    _write_json(matrix_to_json(_rmatrix_builder(args)), args.out)
    return 0


def cmd_rmatrix_verify(args) -> int:
    return _finish(run_rmatrix_checks(args.family, args.rank, args.checks))


def cmd_affine_build(args) -> int:
    _write_json(matrix_to_json(build_affine_rhat(args.family, args.rank)), args.out)
    return 0


def cmd_affine_verify(args) -> int:
    return _finish(run_affine_checks(args.family, args.rank, args.checks))


def cmd_embed_verify(args) -> int:
    return _finish(run_embed_checks(args.family, args.rank, args.checks))


def _finish(rep: Report) -> int:
    for it in rep.sorted_items():
        print(it.line())
    return 0 if rep.ok() else 1


# ---------------------------------------------------------------------------
# certify-all
# ---------------------------------------------------------------------------


def _desk_cases(max_rank: int) -> list[tuple[str, int]]:
    cases = []
    for fam in FAMILIES:
        lo = 3 if fam == "D" else 2
        for rank in range(lo, max(lo, max_rank) + 1):
            cases.append((fam, rank))
    return cases


def _certify_one(case: tuple[str, int, bool]) -> Report:
    """Every catalogue check that applies to one case, over one shared case
    context; each group runs through its module's driver where it has one."""
    fam, rank, long_mode = case
    drivers = {"rmatrix": run_rmatrix_checks, "affine": run_affine_checks, "embed": run_embed_checks}
    out = Report()
    with open_case(fam, rank):
        for group in GROUPS:
            checks = default_checks(group, fam, rank, long_mode)
            if checks:
                driver = drivers.get(group)
                out = out.merged(driver(fam, rank, checks) if driver else run_group(group, fam, rank, checks))
    return out


def _check_max_rank(max_rank: int) -> None:
    """``certify-all --max-rank`` is at least 2, and every case it runs keeps
    its highest root within the pairing oracle's range at m = 1, the least
    that ``pairing-constants`` asks of it."""
    if max_rank < 2:
        raise ValueError(f"--max-rank must be at least 2, got {max_rank}")
    # rank by rank, so that a large value stops at its first case out of
    # range; D2, which is not a desk case, is always in range
    for rank in range(2, max_rank + 1):
        for fam in FAMILIES:
            height = max(rt.height for rt in build_root_system(fam, rank).positive)
            try:
                check_oracle_range(1, height)
            except ValueError as exc:
                raise ValueError(f"--max-rank {max_rank} includes {fam}{rank}: {exc}") from None


def _jobs(value: str, n_cases: int) -> int:
    """Worker processes for ``RSQG_JOBS=value``: an integer ≥ 1, clamped to
    the number of cases and of CPUs."""
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"RSQG_JOBS must be an integer >= 1, got {value!r}")
    return min(jobs, n_cases, os.cpu_count() or 1)


def cmd_certify_all(args) -> int:
    cases = [(f, r, args.long) for (f, r) in _desk_cases(args.max_rank)]
    reports: list[Report]
    if args.jobs > 1:
        # imported here: a one-job run, the usual one, never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_certify_one, cases))
    else:
        reports = [_certify_one(c) for c in cases]
    total = Report()
    for rp in reports:
        total = total.merged(rp)
    for it in total.sorted_items():
        print(it.line())
    n_fail = sum(1 for it in total.items if not it.ok)
    print(f"{len(total.items)} checks, {n_fail} failures")
    if args.out:
        _write_json(total.to_json(), args.out)
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_family_rank(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--rank", required=True, type=int)


def _add_checks(p, group: str) -> None:
    p.add_argument(
        "--checks",
        help=f"comma-separated, from: {','.join(names(group))} "
        "(default: every one that certify-all runs for the case)",
    )
    p.set_defaults(group=group)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rsqg",
        description="Exact two-parameter R-matrices of classical type: builders and certificates.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rootdata", help="root system data")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("dump", help="emit roots, forms and affine constants as JSON")
    _add_family_rank(d)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_rootdata_dump)

    p = sub.add_parser("lyndon", help="word combinatorics")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("table", help="root/word/minimal-pair table")
    _add_family_rank(d)
    d.add_argument("--json", action="store_true")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_lyndon_table)

    p = sub.add_parser("rep", help="fundamental representations")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("dump", help="emit generator matrices as JSON")
    _add_family_rank(d)
    d.add_argument("--affine", action="store_true")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_rep_dump)

    p = sub.add_parser("pairing", help="Hopf pairing oracle")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("constants", help="closed form vs oracle, side by side")
    _add_family_rank(d)
    d.add_argument("--max-m", type=int, default=2)
    d.set_defaults(fn=cmd_pairing_constants)

    p = sub.add_parser("rmatrix", help="finite R-matrices")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("build")
    _add_family_rank(d)
    d.add_argument("--route", choices=("explicit", "factorized"), default="explicit")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_rmatrix_build)
    d = ssub.add_parser("verify")
    _add_family_rank(d)
    _add_checks(d, "rmatrix")
    d.set_defaults(fn=cmd_rmatrix_verify)

    p = sub.add_parser("affine", help="spectral R-matrices")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("build")
    _add_family_rank(d)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_affine_build)
    d = ssub.add_parser("verify")
    _add_family_rank(d)
    _add_checks(d, "affine")
    d.set_defaults(fn=cmd_affine_verify)

    p = sub.add_parser("embed", help="one-parameter subalgebra and twists")
    ssub = p.add_subparsers(dest="sub", required=True)
    d = ssub.add_parser("verify")
    _add_family_rank(d)
    _add_checks(d, "embed")
    d.set_defaults(fn=cmd_embed_verify)

    d = sub.add_parser("certify-all", help="run the full certificate suite")
    d.add_argument("--max-rank", type=int, default=3)
    d.add_argument("--long", action="store_true", help="include the long spectral YBE cases")
    d.add_argument("--out", help="also write the report as JSON")
    d.set_defaults(fn=cmd_certify_all)

    return ap


def _validate(args) -> None:
    """Reject out-of-range or inapplicable input with ValueError, and resolve
    the defaults that depend on the case."""
    if hasattr(args, "family"):
        rs = build_root_system(args.family, args.rank)
        if getattr(args, "affine", False):
            check_affine_rank(args.family, args.rank)
    if hasattr(args, "max_m"):
        check_oracle_range(args.max_m, max(rt.height for rt in rs.positive))
    if hasattr(args, "group"):
        wanted = args.checks.split(",") if args.checks is not None else default_checks(args.group, args.family, args.rank)
        args.checks = [c.name for c in select(args.group, args.family, args.rank, wanted)]
    if args.cmd == "certify-all":
        _check_max_rank(args.max_rank)
        args.jobs = _jobs(os.environ.get("RSQG_JOBS", "1"), len(_desk_cases(args.max_rank)))


def run(argv: list[str] | None = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        _validate(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
