"""Witnesses of operator identities: ``product_mismatch`` decides a
conjugation by diagonal factors on the support of the conjugated matrix and
otherwise reports what ``first_mismatch`` of the two products reports; the
Cartan items of the intertwining certificates form no matrix product; the
Yang–Baxter decider's verdict on the N² generating columns is the verdict
on all N³, once its premises hold, and a broken premise is its witness; and
the monomial-gauge solver of ``gauge``."""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DESK,
    case,
    full_reference_witness,
    generating_columns,
    matrix_form_witness,
    r_of,
    spectral_factors,
    v3_sides,
)
from rsqg import affine, report, rmatrix
from rsqg.gauge import Inconsistent, monomial_gauge, solve_exact
from rsqg.matrices import SMatrix, pair_actions
from rsqg.rep import TensorProduct
from rsqg.report import first_column_mismatch, first_mismatch, product_mismatch
from rsqg.scalars import rs_ring

R = rs_ring()
POOL = [R.one, -R.one, R.mono(r=1), R.mono(s=-1), R.mono(r=Fraction(1, 2), s=Fraction(1, 2))]
ENTRIES = POOL + [R.mono(r=1) + R.mono(s=1), R.mono(r=1) - R.mono(Fraction(1, 2), s=-1)]


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
    ``n``, its row count, names the rows as basis vectors of V.  Every
    entry is a Laurent polynomial, the only kind products take."""
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
    return ((d, x), (x, d2), n, c) if left_first else ((x, d2), (d, x), n, c)


_X, _R1 = SMatrix(R, 1, 1, {0: {0: R.one}}), R.mono(r=1)
_E01 = SMatrix(R, 2, 2, {0: {1: R.one}})


@settings(max_examples=400, deadline=None)
@given(_identities())
# c on the wrong side, in either form, and the diagonals read in the wrong order
@example(((_diag([R.one]), _X), (_X, _diag([_R1])), 1, _R1))
@example(((_X, _diag([R.one])), (_diag([_R1]), _X), 1, _R1))
@example(((_E01, _diag([R.one, _R1])), (_diag([R.one, R.one]), _E01), 2, None))
def test_product_mismatch_is_first_mismatch_of_the_products(identity):
    (a, b), (p, q), n, c = identity
    rhs = p @ q if c is None else (p @ q).scale(c)
    assert product_mismatch((a, b), (p, q), n, c) == first_mismatch(a @ b, rhs, n)


def test_product_mismatch_of_other_shapes_is_first_mismatch_of_the_products():
    """No shared factor, or a factor that is not square: the products."""
    d = SMatrix(R, 2, 2, {0: {0: R.mono(r=1)}, 1: {1: R.one}})
    x = SMatrix(R, 2, 2, {0: {1: R.one}})
    y = SMatrix(R, 2, 2, {0: {1: R.one}})
    assert product_mismatch((d, x), (y, d), 2) == first_mismatch(d @ x, y @ d, 2) == "row v_1, column v_2: LHS 1 * r^1 vs RHS 1"
    wide = SMatrix(R, 2, 3, {0: {0: R.one}})
    assert product_mismatch((wide, SMatrix.identity(R, 3)), (d, wide), 2) == first_mismatch(wide, d @ wide, 2)


def test_product_mismatch_refuses_what_the_products_refuse():
    """Factors that do not chain, or matrices over different rings, raise as
    their products do, though every factor but X is diagonal."""
    d2, d3 = SMatrix.identity(R, 2), SMatrix.identity(R, 3)
    x = SMatrix(R, 2, 2, {0: {1: R.one}})
    with pytest.raises(ValueError, match="shape mismatch"):
        product_mismatch((d3, x), (x, d2), 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        product_mismatch((x, d2), (d3, x), 2)
    other = rs_ring("z")
    with pytest.raises(ValueError, match="mixing matrices"):
        product_mismatch((SMatrix.identity(other, 2), x), (x, d2), 2)


@pytest.mark.parametrize("family,rank", DESK)
def test_passing_cartan_items_of_the_intertwiners_form_no_product(monkeypatch, family, rank):
    """Every product the intertwining checks form is attributed to the
    generator kind whose tensor-product table was read last: the ω and ω′
    kinds form none, the e and f kinds still do."""
    ctx = case(family, rank)
    rep, rhat, operators = ctx.rep, ctx.rhat, ctx.intertwiner
    kinds: list[str] = []
    products: Counter = Counter()
    table, matmul = TensorProduct.table, SMatrix.__matmul__

    def traced_table(self, kind):
        kinds.append(kind)
        return table(self, kind)

    def traced_matmul(a, b):
        products[kinds[-1] if kinds else None] += 1
        return matmul(a, b)

    monkeypatch.setattr(TensorProduct, "table", traced_table)
    monkeypatch.setattr(SMatrix, "__matmul__", traced_matmul)
    items = rmatrix.check_intertwining(rep, rhat).items + affine.check_affine_intertwiner(family, rank, operators).items
    assert [it.name for it in items if not it.ok] == []
    assert {"omega", "omega-prime"} <= set(kinds)
    assert products["omega"] == products["omega-prime"] == 0
    assert products["e"] > 0 and products["f"] > 0


def _braid_operator(c, change: str) -> SMatrix:
    """R̂ changed by a polynomial in R̂ itself, which commutes with every
    Δ(g) as R̂ does."""
    rhat = c.rhat
    ring, one = rhat.ring, SMatrix.identity(rhat.ring, rhat.nrows)
    return {
        "none": rhat,
        "r·R̂": rhat.scale(ring.mono(r=1)),
        "R̄": c.rbar,
        "R̂ + Id": rhat + one,
        "Id + R̂ + r·R̂²": one + rhat + (rhat @ rhat).scale(ring.mono(r=1)),
    }[change]


def _spectral_operator(c, change: str) -> SMatrix:
    """R̂(z) changed by a multiple of R̂(z) or plus c·z^k·Id."""
    rz = c.rz
    ring, one = rz.ring, SMatrix.identity(rz.ring, rz.nrows)
    z = ring.atom("z")
    return {
        "none": rz,
        "r·R̂(z)": rz.scale(ring.mono(r=1)),
        "R̂(z) + Id": rz + one,
        "R̂(z) + s·z·Id": rz + one.scale(ring.mono(s=1) * z),
    }[change]


LEMMA_CASES = [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("C", 3), ("D", 3)]
BRAID_CHANGES = ["none", "r·R̂", "R̄", "R̂ + Id", "Id + R̂ + r·R̂²"]
SPECTRAL_CHANGES = ["none", "r·R̂(z)", "R̂(z) + Id", "R̂(z) + s·z·Id"]


@pytest.mark.parametrize("change", BRAID_CHANGES)
@pytest.mark.parametrize("family,rank", LEMMA_CASES)
def test_braid_verdict_on_the_generating_columns_is_the_full_verdict(family, rank, change):
    """On operators that pass the premise (polynomials in R̂, and R̄), the
    decider's verdict on the N² generating columns equals that of the
    two-sided reference on all N³ columns, and its witness is the
    reference's first failing column among the generating ones."""
    c = case(family, rank)
    rhat = _braid_operator(c, change)
    r = r_of(rhat)
    (item,) = rmatrix.check_braid(c.rep, rhat).items
    assert not item.witness.startswith("premise")
    assert item.ok == (full_reference_witness(r, r, r) == "")
    assert item.ok == (change in ("none", "r·R̂", "R̄"))
    if not item.ok:
        assert item.witness == matrix_form_witness(*v3_sides(r, r, r), generating_columns(c.rep.N))


@pytest.mark.parametrize("change", SPECTRAL_CHANGES)
@pytest.mark.parametrize("family,rank", LEMMA_CASES)
def test_spectral_verdict_on_the_generating_columns_is_the_full_verdict(family, rank, change):
    """The same for the spectral YBE, on R̂(z) times r and on R̂(z) plus
    c·z^k·Id, which pass the premise and the degree bound."""
    c = case(family, rank)
    rz = _spectral_operator(c, change)
    r_x, r_y, r_xy = spectral_factors(rz)
    (item,) = affine.check_spectral_ybe(family, rank, c.zrep, rz).items
    assert not item.witness.startswith(("premise", "R(z)"))
    assert item.ok == (full_reference_witness(r_x, r_xy, r_y) == "")
    assert item.ok == (change in ("none", "r·R̂(z)"))


def test_one_generating_column_misses_the_perturbations():
    """The generating columns are needed: v_N⊗v_N⊗v_N alone, a lowest
    weight vector with a one-dimensional weight space, passes every
    perturbation above that the decider fails."""
    for family, rank in LEMMA_CASES:
        c = case(family, rank)
        N = c.rep.N
        last = [N**3 - 1]
        for change in ("R̂ + Id", "Id + R̂ + r·R̂²"):
            r = r_of(_braid_operator(c, change))
            chain = pair_actions(N, ((r, (1, 2)), (r, (1, 3)), (r, (2, 3))))
            assert first_column_mismatch(chain, last) == ""
            assert first_column_mismatch(chain, generating_columns(N)) != ""
        for change in ("R̂(z) + Id", "R̂(z) + s·z·Id"):
            r_x, r_y, r_xy = spectral_factors(_spectral_operator(c, change))
            chain = pair_actions(N, ((r_x, (1, 2)), (r_xy, (1, 3)), (r_y, (2, 3))))
            assert first_column_mismatch(chain, last) == ""
            assert first_column_mismatch(chain, generating_columns(N)) != ""


PREMISE = re.compile(r"premise: Δ\((e|omega)_(\d+)\): row v_(\d+)⊗v_(\d+), column v_(\d+)⊗v_(\d+): LHS (.+) vs RHS (.+)")


def _first_entry_times_s(m: SMatrix) -> SMatrix:
    i, j, v = m.entries()[0]
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v * (m.ring.mono(s=1) - m.ring.one))])


@pytest.mark.parametrize("check", ["braid", "spectral-ybe"])
@pytest.mark.parametrize("family,rank", DESK)
def test_one_entry_times_s_fails_the_premise(family, rank, check):
    """R̂'s (or R̂(z)'s) first entry times s: the decider fails on its
    premise, and the witness names a Δ(e_i) or Δ(ω_i) and an entry of V⊗V
    where the two products differ."""
    c = case(family, rank)
    if check == "braid":
        rep, op = c.rep, _first_entry_times_s(c.rhat)
        (item,) = rmatrix.check_braid(rep, op).items
    else:
        rep, op = c.zrep, _first_entry_times_s(c.rz)
        (item,) = affine.check_spectral_ybe(family, rank, rep, op).items
    match = PREMISE.fullmatch(item.witness)
    assert match, item.witness
    kind, i = match[1], int(match[2])
    N = rep.N
    row, col = (int(match[3]) - 1) * N + int(match[4]) - 1, (int(match[5]) - 1) * N + int(match[6]) - 1
    g = rep.square.table(kind)[i]
    assert (g @ op).get(row, col) != (op @ g).get(row, col)
    assert match[7] != match[8]


@pytest.mark.parametrize("family,rank", DESK)
def test_a_module_without_e1_fails_the_generation_premise(family, rank):
    """With e_1 zeroed, Δ(e_1) is zero and commutes with everything, and
    the generating columns pass for the certified R̂, so the lemma's
    premise, not the comparison, has to fail: e-words no longer reach every
    v_k from v_N.  With ω_1 zeroed, ω_1 is not invertible."""
    c = case(family, rank)
    rep, N = c.rep, c.rep.N
    broken = dataclasses.replace(rep, e={**rep.e, 1: SMatrix.zero(rep.ring, N)})
    assert report.commutation_witness(broken, c.rhat, ("e", "omega")) == ""
    r = r_of(c.rhat)
    chain = pair_actions(N, ((r, (1, 2)), (r, (1, 3)), (r, (2, 3))))
    assert first_column_mismatch(chain, generating_columns(N)) == ""
    (item,) = rmatrix.check_braid(broken, c.rhat).items
    assert re.fullmatch(rf"premise: v_\d+ is not reached from v_{N} by the e_i", item.witness), item.witness
    assert report.generation_witness(rep) == ""
    flat = dataclasses.replace(rep, omega={**rep.omega, 1: SMatrix.zero(rep.ring, N)})
    (item,) = rmatrix.check_braid(flat, c.rhat).items
    assert item.witness == "premise: ω_1 is not an invertible diagonal matrix"


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
