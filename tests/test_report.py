"""Witnesses of operator identities: ``product_mismatch`` decides a
conjugation by diagonal factors on the support of the conjugated matrix and
otherwise reports what ``first_mismatch`` of the two products reports; the
Cartan items of the intertwining certificates form no matrix product."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DESK, case
from rsqg import affine, rmatrix
from rsqg.matrices import SMatrix
from rsqg.report import first_mismatch, product_mismatch
from rsqg.scalars import rs_ring

R = rs_ring()
POOL = [R.one, -R.one, R.mono(r=1), R.mono(s=-1), R.mono(r=Fraction(1, 2), s=Fraction(1, 2))]
ENTRIES = POOL + [R.mono(r=1) + R.mono(s=1), R.one / (R.mono(r=1) - R.mono(s=1))]


def _diag(values: list) -> SMatrix:
    return SMatrix(R, len(values), len(values), {i: {i: v} for i, v in enumerate(values) if v is not None})


@st.composite
def _identities(draw):
    """(lhs, rhs, n, c) for D·X = c·X·D′ or X·D′ = c·D·X.

    Rows and columns carry labels, powers of c (or of r when c is None) up
    to ±2, and the diagonals are built so that the identity holds
    exactly where X lives on cells whose row and column labels agree; half
    the time X lives only there.  Labels that differ by a power of c make a
    test that scales the wrong side, or reads the wrong diagonal, pass where
    the identity fails.  Now and then a diagonal loses an entry (a zero),
    gains an off-diagonal one, or D′ is D itself; X may hold a stored zero;
    ``n`` names the rows as basis vectors of V or is None."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = draw(st.sampled_from([None, *POOL, *POOL[2:]]))  # mostly one that tells the sides apart
    g = c if c is not None else R.mono(r=1)
    labels = st.sampled_from([g**k for k in range(-2, 3)])
    u, v = [draw(labels) for _ in range(n)], [draw(labels) for _ in range(m)]
    cells = [(i, j) for i in range(n) for j in range(m) if draw(st.booleans()) or u[i] == v[j]]
    entries = {cell: draw(st.sampled_from(ENTRIES)) for cell in cells if draw(st.booleans()) or cells == [cell]}
    if entries and draw(st.integers(0, 7)) == 0:
        entries[draw(st.sampled_from(sorted(entries)))] = R.zero
    rows: dict = {}
    for (i, j), val in entries.items():
        rows.setdefault(i, {})[j] = val
    x = SMatrix(R, n, m, rows)
    k, unit = draw(st.sampled_from(POOL)), c if c is not None else R.one
    left_first = draw(st.booleans())
    # D·X = c·X·D′ holds iff d_ii = c·d′_jj on the support, X·D′ = c·D·X iff d′_jj = c·d_ii
    d_vals = [w * k if left_first else w * k / unit for w in u]
    d2_vals = [w * k / unit if left_first else w * k for w in v]
    for vals in (d_vals, d2_vals):
        if draw(st.integers(0, 5)) == 0:
            vals[draw(st.integers(0, len(vals) - 1))] = None
    d, d2 = _diag(d_vals), _diag(d2_vals)
    if n == m and draw(st.integers(0, 5)) == 0:
        d2 = d
    if n > 1 and draw(st.integers(0, 5)) == 0:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        d.rows.setdefault(i, {})[j] = draw(st.sampled_from(ENTRIES))
    names = draw(st.sampled_from([None, n]))
    return ((d, x), (x, d2), names, c) if left_first else ((x, d2), (d, x), names, c)


_X, _R1 = SMatrix(R, 1, 1, {0: {0: R.one}}), R.mono(r=1)
_E01 = SMatrix(R, 2, 2, {0: {1: R.one}})


@settings(max_examples=400, deadline=None)
@given(_identities())
# c on the wrong side, in either form, and the diagonals read in the wrong order
@example(((_diag([R.one]), _X), (_X, _diag([_R1])), None, _R1))
@example(((_X, _diag([R.one])), (_diag([_R1]), _X), None, _R1))
@example(((_E01, _diag([R.one, _R1])), (_diag([R.one, R.one]), _E01), None, None))
def test_product_mismatch_is_first_mismatch_of_the_products(identity):
    (a, b), (p, q), n, c = identity
    rhs = p @ q if c is None else (p @ q).scale(c)
    assert product_mismatch((a, b), (p, q), n, c) == first_mismatch(a @ b, rhs, n)


def test_product_mismatch_of_other_shapes_is_first_mismatch_of_the_products():
    """No shared factor, or a factor that is not square: the products."""
    d = SMatrix(R, 2, 2, {0: {0: R.mono(r=1)}, 1: {1: R.one}})
    x = SMatrix(R, 2, 2, {0: {1: R.one}})
    y = SMatrix(R, 2, 2, {0: {1: R.one}})
    assert product_mismatch((d, x), (y, d)) == first_mismatch(d @ x, y @ d) == "entry (0,1): LHS 1 * r^1 vs RHS 1"
    wide = SMatrix(R, 2, 3, {0: {0: R.one}})
    assert product_mismatch((wide, SMatrix.identity(R, 3)), (d, wide)) == first_mismatch(wide, d @ wide)


def test_product_mismatch_refuses_what_the_products_refuse():
    """Factors that do not chain, or matrices over different rings, raise as
    their products do, though every factor but X is diagonal."""
    d2, d3 = SMatrix.identity(R, 2), SMatrix.identity(R, 3)
    x = SMatrix(R, 2, 2, {0: {1: R.one}})
    with pytest.raises(ValueError, match="shape mismatch"):
        product_mismatch((d3, x), (x, d2))
    with pytest.raises(ValueError, match="shape mismatch"):
        product_mismatch((x, d2), (d3, x))
    other = rs_ring("z")
    with pytest.raises(ValueError, match="mixing matrices"):
        product_mismatch((SMatrix.identity(other, 2), x), (x, d2))


@pytest.mark.parametrize("family,rank", DESK)
def test_passing_cartan_items_of_the_intertwiners_form_no_product(monkeypatch, family, rank):
    """Every product the intertwining checks form is attributed to the
    generator kind whose coproduct was built last: the ω and ω′ kinds form
    none, the e and f kinds still do."""
    ctx = case(family, rank)
    rep, rhat, operators = ctx.rep, ctx.rhat, ctx.intertwiner
    kinds: list[str] = []
    products: Counter = Counter()
    coproduct, matmul = rmatrix.coproduct, SMatrix.__matmul__

    def traced_coproduct(left, right, kind, i):
        kinds.append(kind)
        return coproduct(left, right, kind, i)

    def traced_matmul(a, b):
        products[kinds[-1] if kinds else None] += 1
        return matmul(a, b)

    monkeypatch.setattr(rmatrix, "coproduct", traced_coproduct)
    monkeypatch.setattr(affine, "coproduct", traced_coproduct)
    monkeypatch.setattr(SMatrix, "__matmul__", traced_matmul)
    items = rmatrix.check_intertwining(rep, rhat).items + affine.check_affine_intertwiner(family, rank, operators).items
    assert [it.name for it in items if not it.ok] == []
    assert {"omega", "omega-prime"} <= set(kinds)
    assert products["omega"] == products["omega-prime"] == 0
    assert products["e"] > 0 and products["f"] > 0
