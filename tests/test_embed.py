"""One-parameter structures inside the two-parameter algebra: modified
generators, per-root rescalings, and the diagonal twist story."""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

import pytest

from conftest import case, flip_map, order, rep, ring, rvm
from rsqg import embed
from rsqg.embed import (
    _to_quarter_ring,
    b_type_obstruction,
    d_gamma,
    kappa_constants,
    modified_generators,
    quarter_ring,
    verify_dj_relations,
    verify_kappa_recursion,
    verify_root_vector_embedding,
    verify_twist_A,
)
from rsqg.matrices import SMatrix
from rsqg.report import basis_vector
from rsqg.rmatrix import CoefficientTables
from rsqg.scalars import q_scalar

CASES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]


@pytest.mark.parametrize("family,rank", CASES)
def test_dj_relations(family, rank):
    out = verify_dj_relations(case(family, rank).rep, case(family, rank).modified)
    assert out.ok(), [it.line() for it in out.items if not it.ok]


def test_conjugation_scalar_example():
    """ω̃_i ẽ_i = q² ẽ_i ω̃_i in type A (d_i = 1)."""
    r = rep("A", 2)
    R = r.ring
    mg = modified_generators(r)
    lhs = mg.omega[1] @ mg.e[1]
    rhs = (mg.e[1] @ mg.omega[1]).scale(q_scalar(R) ** 2)
    assert lhs == rhs


def test_kappa_tables():
    R = ring()
    a = rep("A", 3)
    for rt in a.rs.positive:
        assert kappa_constants(a, rt) == R.mono(s=Fraction(rt.j - rt.i, 2))
    c = rep("C", 3)
    b11 = c.rs.by_label[("b", 1, 1)]
    assert kappa_constants(c, b11) == R.mono(r=Fraction(1, 2), s=Fraction(5, 2))
    for rt in c.rs.simple:
        assert kappa_constants(c, rt).is_one()
    b = rep("B", 3)
    b12 = b.rs.by_label[("b", 1, 2)]
    assert kappa_constants(b, b12) == R.mono(r=-Fraction(1, 2), s=Fraction(5, 2))


def test_d_gamma():
    R = ring()
    b = rep("B", 2)
    g12 = b.rs.by_label[("g", 1, 2)]  # α_1 + α_2 with d = (2, 1)
    assert d_gamma(b, g12) == R.mono(s=3)


@pytest.mark.parametrize("family,rank", CASES + [("D", 4)])
def test_kappa_recursion(family, rank):
    out = verify_kappa_recursion(rep(family, rank), order(family, rank))
    assert out.ok(), [it.witness for it in out.items]


@pytest.mark.parametrize("family,rank", CASES)
def test_root_vector_embedding(family, rank):
    out = verify_root_vector_embedding(case(family, rank).rvm, case(family, rank).modified)
    assert out.ok(), [it.witness for it in out.items]


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("form", ["finite", "affine"])
def test_twist_A(rank, form):
    c = case("A", rank)
    out = verify_twist_A(c.rep, c.rhat) if form == "finite" else verify_twist_A(c.zrep, c.rz)
    assert out.ok(), [it.witness for it in out.items]


@pytest.mark.parametrize("rank", [2, 3])
def test_b_obstruction(rank):
    out = b_type_obstruction(rep("B", rank), case("B", rank).rhat)
    assert out.ok(), [it.witness for it in out.items]
    assert re.fullmatch(r"nonzero residual at entry \(\d+,\d+\): .+", out.items[0].witness)
    assert not out.items[0].witness.endswith(": 0")


def test_quarter_ring_image_is_labelled_with_its_ring():
    Q = quarter_ring()
    m = case("A", 2).rhat.map_entries(lambda v: _to_quarter_ring(v, Q), ring=Q)
    assert m.ring.names == ("w", "q")
    entries = [v for row in m.rows.values() for v in row.values()]
    assert entries and all(v.ring == m.ring for v in entries)


def test_twist_checks_compare_matrices_over_the_quarter_ring(monkeypatch):
    """Both twist checks hand the entries of R∘τ and R₁ to the gauge solver
    as scalars of the (w, q) ring (with z for the spectral form), not of the
    (r, s) ring they came from."""
    seen = []
    solve = embed.monomial_gauge

    def recording_solve(triples, n, names):
        seen.append({v.ring.names for _, value, partner in triples for v in (value, partner)})
        return solve(triples, n, names)

    monkeypatch.setattr(embed, "monomial_gauge", recording_solve)
    assert verify_twist_A(case("A", 2).rep, case("A", 2).rhat).ok()
    assert verify_twist_A(case("A", 2).zrep, case("A", 2).rz).ok()
    assert b_type_obstruction(rep("B", 2), case("B", 2).rhat).ok()
    assert seen == [{("w", "q")}, {("w", "q", "z")}, {("w", "q")}]


def _skew_gauge(m: SMatrix, v) -> SMatrix:
    """F⁻¹·m·F⁻¹ for F = (rs)^{v(a,b)/2} = w^{2v(a,b)} on v_a ⊗ v_b, with
    v(b, a) = −v(a, b)."""
    N = isqrt(m.nrows)
    ring = m.ring
    power = lambda k: Fraction(v(*divmod(k, N)), 2)
    f_inv = SMatrix(ring, N * N, N * N, {k: {k: ring.mono(r=-power(k), s=-power(k))} for k in range(N * N)})
    return f_inv @ m @ f_inv


def _planted_v(a: int, b: int) -> int:
    return 0 if a == b else (3 * a + 5 * b) % 7 - 3 if a < b else -_planted_v(b, a)


def _solved_twists(monkeypatch) -> list:
    """The (exponents, free unknowns) each twist check solves, in order."""
    solved, solve = [], embed.monomial_gauge

    def recording_solve(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(embed, "monomial_gauge", recording_solve)
    return solved


def _twist(rep, rhat):
    return (b_type_obstruction if rep.family == "B" else verify_twist_A)(rep, rhat).items[0]


def _with_r(rhat: SMatrix, change) -> SMatrix:
    """rhat with R = rhat∘τ replaced by change(R)."""
    flip = flip_map(rhat.ring, isqrt(rhat.ncols))
    return change(rhat @ flip) @ flip


TWIST_CASES = [("A", 2, "finite"), ("A", 3, "finite"), ("A", 4, "finite"), ("A", 2, "affine"), ("A", 3, "affine")]
TWIST_CASES += [("B", 2, "finite"), ("B", 3, "finite"), ("B", 4, "finite")]


def _operators(family, rank, form):
    c = case(family, rank)
    return (c.rep, c.rhat) if form == "finite" else (c.zrep, c.rz)


@pytest.mark.parametrize("family,rank,form", TWIST_CASES)
def test_planted_skew_twist_is_recovered(monkeypatch, family, rank, form):
    """R replaced by F⁻¹·R·F⁻¹ for a planted skew F = w^{2v} leaves R₁ as it
    is, so the solved twist moves by exactly 2v (off the E_{i'j'} ⊗ E_{ij}
    family in type B), with no free unknown and the item still passing."""
    mod, rhat = _operators(family, rank, form)
    solved = _solved_twists(monkeypatch)
    assert _twist(mod, rhat).ok and _twist(mod, _with_r(rhat, lambda m: _skew_gauge(m, _planted_v))).ok
    (base, free), (planted, planted_free) = solved
    pairs = [(a, b) for a in range(mod.N) for b in range(a + 1, mod.N)]
    assert free == planted_free == 0
    assert planted == [(u + 2 * _planted_v(a, b),) for (u,), (a, b) in zip(base, pairs)]
    if family == "A":
        assert base == [(1,)] * len(pairs)  # F = w on v_a ⊗ v_b for a < b
    else:
        # the twist the printed tables force: 1 on v_i ⊗ v_{i'}, else a_ij^{-1/2}
        tab, Q = CoefficientTables(mod), quarter_ring()
        for (u,), (a, b) in zip(base, pairs):
            i, j = a + 1, b + 1
            want = Q.one if j == mod.prime(i) else _to_quarter_ring(tab.a(i, j).inv(), Q).sqrt_monomial()
            assert Q.mono(w=u) == want, (i, j)


def _r_entry_across(m: SMatrix) -> tuple[int, int]:
    """The first stored entry of m from v_b ⊗ v_a to v_a ⊗ v_b, a ≠ b."""
    N = isqrt(m.nrows)
    return next((k, l) for k, l, _ in m.entries() if k != l and divmod(k, N) == divmod(l, N)[::-1])


@pytest.mark.parametrize("entry", ["first", "across"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3)])
def test_one_entry_times_w_squared_is_named(family, rank, entry):
    """One entry of R times w² = (rs)^{1/2}, the first one (v_1 ⊗ v_1 to
    itself) or one from v_b ⊗ v_a to v_a ⊗ v_b: a w-monomial, but the
    exponent form of the entry, u(a,b) + u(b,a), is 0, so the item fails and
    names that entry with R and R₁ there, even where it is the first entry
    the form is read from."""
    mod, rhat = _operators(family, rank, "finite")
    r_two = rhat @ flip_map(rhat.ring, mod.N)
    k, l = (0, 0) if entry == "first" else _r_entry_across(r_two)
    w2 = rhat.ring.mono(r=Fraction(1, 2), s=Fraction(1, 2))
    change = SMatrix.from_entries(rhat.ring, rhat.nrows, rhat.ncols, [(k, l, r_two.get(k, l) * (w2 - rhat.ring.one))])
    item = _twist(mod, _with_r(rhat, lambda m: m + change))
    assert not item.ok
    match = re.fullmatch(r"row (v_\d+⊗v_\d+), column (v_\d+⊗v_\d+): R (.+) vs R₁ (.+) admit no skew twist", item.witness)
    assert match, item.witness
    Q = quarter_ring()
    assert match.group(1, 2) == (basis_vector(k, mod.N, 2), basis_vector(l, mod.N, 2))
    assert match[3] == str(_to_quarter_ring(r_two.get(k, l) * w2, Q))
    assert match[4] == str(r_two.substituted({"r": Q.atom("q"), "s": Q.atom("q").inv()}, ring=Q).get(k, l))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3)])
def test_an_unconstrained_pair_fails_on_uniqueness(family, rank):
    """With every entry of R in a row or column v_1 ⊗ v_2 or v_2 ⊗ v_1
    deleted, no entry constrains u(1, 2), which is then free."""
    mod, rhat = _operators(family, rank, "finite")
    gone = {1, mod.N}
    kept = [(k, l, v) for k, l, v in rhat.entries() if k not in gone and l not in gone]
    item = _twist(mod, SMatrix.from_entries(rhat.ring, rhat.nrows, rhat.ncols, kept))
    assert not item.ok
    assert item.witness == "the skew twist is not unique: 1 free unknown(s)"
