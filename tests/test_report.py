"""Witnesses of operator identities: ``product_mismatch`` decides a
conjugation by diagonal factors on the support of the conjugated matrix and
otherwise reports what ``first_mismatch`` of the two products reports; the
Cartan items of the intertwining certificates form no matrix product; and
``transpose_reflection`` solves the gauged transpose symmetry that lets the
V⊗³ checks compute one side, with the monomial-gauge solver of ``gauge``."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DESK, case, r_of, z_range
from rsqg import affine, rmatrix
from rsqg.gauge import Inconsistent, monomial_gauge, solve_exact
from rsqg.matrices import SMatrix, flip_map, kron
from rsqg.rep import Representation
from rsqg.report import first_mismatch, product_mismatch, transpose_reflection
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
    generator kind whose tensor-product table was read last: the ω and ω′
    kinds form none, the e and f kinds still do."""
    ctx = case(family, rank)
    rep, rhat, operators = ctx.rep, ctx.rhat, ctx.intertwiner
    kinds: list[str] = []
    products: Counter = Counter()
    table, matmul = Representation.table, SMatrix.__matmul__

    def traced_table(self, kind):
        kinds.append(kind)
        return table(self, kind)

    def traced_matmul(a, b):
        products[kinds[-1] if kinds else None] += 1
        return matmul(a, b)

    monkeypatch.setattr(Representation, "table", traced_table)
    monkeypatch.setattr(SMatrix, "__matmul__", traced_matmul)
    items = rmatrix.check_intertwining(rep, rhat).items + affine.check_affine_intertwiner(family, rank, operators).items
    assert [it.name for it in items if not it.ok] == []
    assert {"omega", "omega-prime"} <= set(kinds)
    assert products["omega"] == products["omega-prime"] == 0
    assert products["e"] > 0 and products["f"] > 0


def _reversal(ring, N: int) -> SMatrix:
    """Π = J⊗J on V⊗V, J reversing V's basis."""
    return SMatrix(ring, N * N, N * N, {k: {N * N - 1 - k: ring.one} for k in range(N * N)})


def _transposed(m: SMatrix) -> SMatrix:
    return SMatrix.from_entries(m.ring, m.ncols, m.nrows, [(j, i, v) for i, j, v in m.entries()])


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3), ("D", 3)])
def test_transpose_reflection_is_the_matrix_identity(family, rank):
    """The D that ``transpose_reflection`` returns satisfies the identity
    Mᵀ = Π·G·M·G⁻¹·Π as matrix products, for the spectral YBE's R(x), R(y),
    R(xy) and for R = R̂∘τ, with G = D⊗D; for R̂ itself this is P·R̂ᵀ·P =
    Π·G·R̂·G⁻¹·Π, P the flip.  Each d_a is an r,s-monomial of coefficient 1."""
    c = case(family, rank)
    for ops in (c.ybe, (r_of(c.rhat),)):
        d = transpose_reflection(ops)
        ring, N = ops[0].ring, len(d)
        assert all(v.is_monomial() and v.monomial_parts()[1] == 1 for v in d)
        assert all(z_range(v, x) == (0, 0) for v in d for x in ring.names[2:])
        dm = SMatrix(ring, N, N, {a: {a: v} for a, v in enumerate(d)})
        g, pi, p = kron(dm, dm), _reversal(ring, N), flip_map(ring, N)
        for m in ops:
            assert _transposed(m) == pi @ g @ m @ g.diagonal_inv() @ pi
        if len(ops) == 1:
            assert p @ _transposed(c.rhat) @ p == pi @ g @ c.rhat @ g.diagonal_inv() @ pi


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 5), ("C", 2), ("C", 5), ("D", 3), ("D", 5), ("B", 6)])
def test_transpose_reflection_holds_for_bcd_and_not_for_a(family, rank):
    """R = R̂∘τ has a transpose reflection in types B, C and D, and none in
    type A."""
    assert transpose_reflection((r_of(case(family, rank).rhat),)) is not None
    assert transpose_reflection((r_of(case("A", rank).rhat),)) is None


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_transpose_reflection_of_the_spectral_operators(family, rank):
    """R(x), R(y) and R(xy) share one D in types B, C and D; type A has
    none, so its spectral YBE computes both sides."""
    assert (transpose_reflection(case(family, rank).ybe) is None) == (family == "A")


@pytest.mark.parametrize("change", ["first entry times r", "entry without a partner"])
@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3)])
def test_one_entry_alone_breaks_the_reflection(family, rank, change):
    """An entry of R = R̂∘τ changed without its partner leaves a partner
    ratio that fits no D, and an entry added where R and its partner are
    zero (v_1⊗v_1 to v_1⊗v_2, across weights) has no partner: either way
    there is no reflection, so the checks fall back to both sides."""
    r = r_of(case(family, rank).rhat)
    i, j, v = r.entries()[0]
    if change == "first entry times r":
        added = (i, j, v * (r.ring.mono(r=1) - r.ring.one))
    else:
        assert r.get(0, 1).is_zero()
        added = (0, 1, r.ring.one)
    changed = r + SMatrix.from_entries(r.ring, r.nrows, r.ncols, [added])
    assert transpose_reflection((changed,)) is None


def test_solve_exact_returns_a_solution_and_the_rank():
    """Free unknowns are 0, a repeated row adds no rank, and an inconsistent
    system names the first row that contradicts the ones before it."""
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 3}]
    sol, rank = solve_exact(rows, [(3, 1), (6, 2), (1, 0)], 4)
    assert sol == [(3, 1), (0, 0), (Fraction(1, 3), 0), (0, 0)]
    assert rank == 2
    assert solve_exact([], [], 2) == ([(), ()], 0)
    with pytest.raises(Inconsistent) as exc:
        solve_exact(rows + [{2: 6}, {0: 1, 1: 1}], [(3, 1), (6, 2), (1, 0), (2, 0), (3, 0)], 4)
    assert exc.value.args[0] == 4


def test_monomial_gauge_names_the_first_triple_that_admits_none():
    """Exponents in internal units (half units of r); a ratio that is not a
    coefficient-1 monomial of the named variables, an empty form whose
    ratio is not 1, a fractional exponent, and a form read twice with two
    ratios each fail at that triple."""
    r, s, one = R.atom("r"), R.atom("s"), R.one
    x0, x1 = ((0, 1),), ((1, 1),)
    assert monomial_gauge([(x0, one, r), (((0, 1), (1, -1)), s, s * r)], 3, ("r",)) == ([(1,), (0,), (0,)], 1)
    for bad, at in [
        ([(x0, one, r), (x1, one, s)], 1),  # s is not a monomial in r alone
        ([(x0, one, r), (x1, r, 2 * r)], 1),  # coefficient 2
        ([(x0, one, r), ((), r, r * r)], 1),  # an empty form admits only the ratio 1
        ([(x0, one, r), (x0, one, r * r)], 1),  # the same form read twice
        ([(x1, one, one), (((0, 2),), one, r)], 1),  # 2·x0 = 1 has no integer solution
        ([(x0, one, r), (x1, one, r), (((0, 1), (1, -1)), one, r)], 2),  # x0 − x1 = 1 contradicts the two before it
        ([(x0, R.zero, r)], 0),
    ]:
        with pytest.raises(Inconsistent) as exc:
            monomial_gauge(bad, 2, ("r",))
        assert exc.value.args[0] == at, bad
