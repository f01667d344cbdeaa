"""One-parameter structures inside the two-parameter algebra: modified
generators, per-root rescalings, and the diagonal twist story."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import case, order, rep, ring, rvm
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
    assert "nonzero residual" in out.items[0].witness


def test_quarter_ring_image_is_labelled_with_its_ring():
    Q = quarter_ring()
    m = case("A", 2).rhat.map_entries(lambda v: _to_quarter_ring(v, Q), ring=Q)
    assert m.ring.names == ("w", "q")
    entries = [v for row in m.rows.values() for v in row.values()]
    assert entries and all(v.ring == m.ring for v in entries)


def test_twist_checks_compare_matrices_over_the_quarter_ring(monkeypatch):
    """Both twist checks hand on R∘τ mapped into the (w, q) ring, labelled with
    that ring, not with the (r, s) ring it came from."""
    seen = []

    def recording_mismatch(a, b, n):
        seen.append(a.ring.names)
        return ""

    def recording_sub(self, other):
        seen.append(self.ring.names)
        return SMatrix.__add__(self, -other)

    monkeypatch.setattr(embed, "first_mismatch", recording_mismatch)
    verify_twist_A(case("A", 2).rep, case("A", 2).rhat)
    verify_twist_A(case("A", 2).zrep, case("A", 2).rz)
    monkeypatch.setattr(SMatrix, "__sub__", recording_sub)
    b_type_obstruction(rep("B", 2), case("B", 2).rhat)
    assert seen == [("w", "q"), ("w", "q", "z"), ("w", "q")]
