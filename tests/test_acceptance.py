"""Acceptance suite: every identity the library asserts, at desk scale, with
exact (zero-tolerance) equality of canonical scalars.  One pass/fail line is
printed per criterion; run with `pytest -s tests/test_acceptance.py` to see
them as they complete.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

from conftest import case, order, rep, ring, rsys, rvm
from rsqg.affine import check_affine_intertwiner, check_baxterize_match, check_spectral_ybe
from rsqg.embed import b_type_obstruction, verify_dj_relations, verify_root_vector_embedding, verify_twist_A
from rsqg.lyndon import is_convex, telescoped
from rsqg.pairing import verify_pairing_constants, verify_pbw_orthogonality
from rsqg.rmatrix import (
    check_braid,
    check_eigenvalues,
    check_inverse,
    check_min_poly,
    check_route_equivalence,
)
from rsqg.rootdata import weyl_dimension


def _announce(num: int, label: str, ok: bool, t0: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label} ({time.perf_counter() - t0:.1f}s)")


def _assert_report(num, label, t0, reports):
    bad = [it.line() for r in reports for it in r.items if not it.ok]
    _announce(num, label, not bad, t0)
    assert not bad, bad


def test_criterion_01_route_equivalence():
    t0 = time.perf_counter()
    reports = [
        check_route_equivalence(rep(f, n), case(f, n).rhat, case(f, n).theta)
        for f, n in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]
    ]
    _assert_report(1, "route equivalence (explicit = ordered product)", t0, reports)


def test_criterion_02_eigenvalue_certificates():
    t0 = time.perf_counter()
    reports = [
        check_eigenvalues(rep(f, n), case(f, n).rhat)
        for f, n in [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]
    ]
    reports += [check_min_poly(rep("A", n), case("A", n).rhat) for n in (2, 3)]
    _assert_report(2, "highest-weight eigenvalues and A-type minimal polynomial", t0, reports)


def test_criterion_03_inverse_lemmas():
    t0 = time.perf_counter()
    reports = [
        check_inverse(rep(f, n), case(f, n).rhat, case(f, n).rbar, case(f, n).theta)
        for f, n in [("B", 2), ("C", 2), ("D", 3)]
    ]
    _assert_report(3, "printed inverses (product with the operator is Id)", t0, reports)


def test_criterion_04_braid_relation():
    t0 = time.perf_counter()
    reports = [check_braid(rep(f, n), case(f, n).rhat) for f, n in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]]
    _assert_report(4, "braid relation on the triple tensor power", t0, reports)


def test_criterion_05_affine_intertwiner():
    t0 = time.perf_counter()
    reports = [
        check_affine_intertwiner(f, n) for f, n in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]
    ]
    _assert_report(5, "spectral intertwiner for all generators, symbolic a", t0, reports)


def test_criterion_06_spectral_ybe():
    t0 = time.perf_counter()
    cases = [("A", 2), ("C", 2)]
    if os.environ.get("RSQG_LONG"):
        cases += [("B", 2), ("D", 3)]
    reports = [check_spectral_ybe(f, n) for f, n in cases]
    _assert_report(6, f"spectral Yang-Baxter equation {cases}", t0, reports)


def test_criterion_07_baxterization():
    t0 = time.perf_counter()
    cases = [case(f, n) for f, n in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]]
    reports = [check_baxterize_match(c.zrep, c.rz, c.zrhat, c.zrbar) for c in cases]
    _assert_report(7, "Yang-Baxterization reproduces the spectral operators", t0, reports)


def test_criterion_08_pairing_constants():
    t0 = time.perf_counter()
    reports = [
        verify_pairing_constants(rsys(f, n), ring(), order(f, n), max_m=2)
        for f, n in [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)]
    ]
    _assert_report(8, "oracle = closed forms = recursion for pairing constants, m ≤ 2", t0, reports)


def test_criterion_09_pbw_orthogonality():
    t0 = time.perf_counter()
    reports = [
        verify_pbw_orthogonality(rsys(f, n), ring(), order(f, n), 3)
        for f, n in [("A", 2), ("B", 2)]
    ]
    _assert_report(9, "ordered-monomial orthogonality up to height 3", t0, reports)


def test_criterion_10_dimension_bookkeeping():
    t0 = time.perf_counter()
    ok = True
    for fam, ranks, N_of in (
        ("B", (2, 3, 4), lambda n: 2 * n + 1),
        ("C", (2, 3, 4), lambda n: 2 * n),
        ("D", (3, 4), lambda n: 2 * n),
    ):
        for n in ranks:
            rs = rsys(fam, n)
            e1 = tuple(Fraction(2 if t == 0 else 0) for t in range(rs.eps_dim))
            e12 = tuple(Fraction(1 if t < 2 else 0) for t in range(rs.eps_dim))
            total = weyl_dimension(rs, e1) + weyl_dimension(rs, e12) + 1
            ok = ok and total == N_of(n) ** 2
    _announce(10, "Weyl dimension sums equal N²", ok, t0)
    assert ok


def test_criterion_11_one_param_subalgebra():
    t0 = time.perf_counter()
    cases = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 2), ("D", 3)]
    reports = [verify_dj_relations(case(f, n).rep, case(f, n).modified) for f, n in cases]
    reports += [verify_root_vector_embedding(case(f, n).rvm, case(f, n).modified) for f, n in cases]
    _assert_report(11, "one-parameter relations and root-vector rescaling", t0, reports)


def test_criterion_12_twists():
    t0 = time.perf_counter()
    a2, b2 = case("A", 2), case("B", 2)
    reports = [
        verify_twist_A(a2.rep, a2.rhat),
        verify_twist_A(a2.zrep, a2.rz),
        b_type_obstruction(b2.rep, b2.rhat),
    ]
    _assert_report(12, "A-type diagonal twist identity; B-type obstruction", t0, reports)


def test_criterion_13_combinatorics():
    from test_lyndon import expected_labels

    t0 = time.perf_counter()
    ok = True
    for f in "ABCD":
        for n in range(2, 5):
            o = order(f, n)
            ok = ok and [(rt.kind, rt.i, rt.j) for rt in o.roots] == expected_labels(f, n)
    for f in "ABCD":
        for n in range(2, 6):
            o = order(f, n)
            ok = ok and is_convex(o)
            low = 3 if f == "D" else 2
            if n > low or (f != "D" and n > 2):
                small = order(f, n - 1)
                ok = ok and telescoped(o) == [(rt.alpha, small.word(rt)) for rt in small.roots]
    _announce(13, "printed convex orders, convexity, telescoping", ok, t0)
    assert ok
