"""Spectral operators: printed entries, Yang-Baxterization, intertwining of
evaluation-module tensor products (with and without the parameter
constraint), the spectral Yang-Baxter equation, and structure checks."""

from __future__ import annotations

import os
from math import isqrt

import pytest

from conftest import case
from rsqg.affine import (
    affine_rhat,
    baxterize,
    check_affine_intertwiner,
    check_baxterize_match,
    check_degree_bounds,
    check_spectral_ybe,
    check_unit_point,
    spectral_ybe_operators,
    xi_constant,
)
from rsqg.matrices import PairAction, SMatrix, flip_map, kron, scalar_of
from rsqg.rep import build_evaluation, build_fundamental
from rsqg.report import transpose_reflection
from rsqg.rmatrix import eigenvalues, rbar_inverse_printed, rhat_explicit
from rsqg.scalars import rs_ring

AFFINE_DESK = [("A", 2), ("B", 2), ("C", 2), ("D", 3)]


def test_xi_constants():
    R = rs_ring()
    assert xi_constant("B", 2, R) == R.mono(r=-3, s=3)
    assert xi_constant("B", 3, R) == R.mono(r=-5, s=5)
    assert xi_constant("C", 2, R) == R.mono(r=-3, s=3)
    assert xi_constant("D", 3, R) == R.mono(r=-2, s=2)


def test_b_type_middle_entry():
    """b_{n+1,n+1}(z) = r^{-1}s(z-1)(z-ξ) + (r^{-2}s²-1)(ξ-1)z."""
    R = rs_ring("z")
    n = 2
    rz = affine_rhat(build_fundamental("B", n, R))
    z = R.atom("z")
    xi = xi_constant("B", n, R)
    N = 2 * n + 1
    mid = (n + 1 - 1) * N + (n + 1 - 1)
    expect = R.mono(r=-1, s=1) * (z - R.one) * (z - xi) + (
        R.mono(r=-2, s=2) - R.one
    ) * (xi - R.one) * z
    assert rz.get(mid, mid) == expect


def test_a_type_entry():
    R = rs_ring("z")
    rz = affine_rhat(build_fundamental("A", 2, R))
    z = R.atom("z")
    assert rz.get(0, 0) == R.one - z * R.mono(r=1, s=-1)


@pytest.mark.parametrize("family,rank", AFFINE_DESK + [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_baxterize_match(family, rank):
    c = case(family, rank)
    out = check_baxterize_match(c.zrep, c.rz, c.zrhat, c.zrbar)
    assert out.ok(), [it.line() for it in out.items if not it.ok]


def test_baxterize_schemes_recorded():
    c = case("C", 2)
    out = check_baxterize_match(c.zrep, c.rz, c.zrhat, c.zrbar)
    schemes = {it.witness for it in out.items if it.name == "baxterize-scheme"}
    assert schemes == {"scheme=three-eigen-b"}
    c = case("B", 2)
    out = check_baxterize_match(c.zrep, c.rz, c.zrhat, c.zrbar)
    schemes = {it.witness for it in out.items if it.name == "baxterize-scheme"}
    assert schemes == {"scheme=three-eigen-a"}


def test_two_eigen_formula_is_linear_combination():
    """A-type: R̂(z) = R̂ + zλ R̂^{-1} with λ the antisymmetric eigenvalue."""
    R = rs_ring("z")
    r = build_fundamental("A", 2, R)
    rhat = rhat_explicit(r)
    rbar = rbar_inverse_printed(r)
    lam = eigenvalues(r)
    z = R.atom("z")
    combo = baxterize(rhat, rbar, lam, "two-eigen", z)
    assert combo == affine_rhat(r)


def test_scheme_argument_validation():
    R = rs_ring("z")
    r = build_fundamental("A", 2, R)
    rhat = rhat_explicit(r)
    rbar = rbar_inverse_printed(r)
    with pytest.raises(ValueError):
        baxterize(rhat, rbar, eigenvalues(r), "three-eigen-a", R.atom("z"))
    with pytest.raises(ValueError):
        baxterize(rhat, rbar, eigenvalues(r) + [R.one], "no-such-scheme", R.atom("z"))


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_affine_intertwiner(family, rank):
    out = check_affine_intertwiner(family, rank)
    assert out.ok(), [it.line() for it in out.items if not it.ok]


def test_intertwiner_needs_constraint():
    """With b = a^{-1} in place of b = (rs)^{-κ} a^{-1} the affine-node
    checks fail."""
    ring = rs_ring("x", "y", "a")
    a = ring.atom("a")
    ev_x = build_evaluation("B", 2, ring=ring, spectral="x", a=a, b=a.inv())
    ev_y = build_evaluation("B", 2, ring=ring, spectral="y", a=a, b=a.inv())
    rz = affine_rhat(ev_x.fin, z=ring.atom("x") * ring.atom("y").inv())
    out = check_affine_intertwiner("B", 2, (ev_x, ev_y, rz))
    by_name = {it.name: it.ok for it in out.items}
    assert not by_name["affine-intertwiner-f"]
    assert not by_name["affine-intertwiner-e"]
    assert by_name["affine-intertwiner-omega"]  # weight preservation survives
    assert by_name["affine-intertwiner-omega-prime"]


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("C", 2)])
def test_spectral_ybe(family, rank):
    out = check_spectral_ybe(family, rank)
    assert out.ok(), [it.witness for it in out.items]


@pytest.mark.skipif(
    not os.environ.get("RSQG_LONG"), reason="long mode (RSQG_LONG=1) only"
)
@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3)])
def test_spectral_ybe_long(family, rank):
    assert check_spectral_ybe(family, rank).ok()


def _basis3(k: int, N: int) -> str:
    a, bc = divmod(k, N * N)
    return f"v_{a + 1}⊗v_{bc // N + 1}⊗v_{bc % N + 1}"


def _matrix_form_witness(family: str, operators: tuple) -> str:
    """The spectral YBE in matrix form: both sides as V⊗³ matrices from kron
    and the flip of factors 2 and 3, and the witness the columnwise check
    must give for them: the first column (index order) whose sides differ,
    at its first differing row, or else the first left-side entry above the
    degree bound."""
    r_x, r_y, r_xy = operators
    ring, N = r_x.ring, isqrt(r_x.nrows)
    ident = SMatrix.identity(ring, N)
    mid_flip = kron(ident, flip_map(ring, N))
    r12, r23 = kron(r_x, ident), kron(ident, r_y)
    r13 = mid_flip @ kron(r_xy, ident) @ mid_flip
    lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
    bound = 2 if family == "A" else 4
    for col in range(N**3):
        rows = range(N**3)
        where = lambda row: f"column {_basis3(col, N)}, row {_basis3(row, N)}"
        diff = [row for row in rows if lhs.get(row, col) != rhs.get(row, col)]
        if diff:
            row = diff[0]
            return f"{where(row)}: LHS {lhs.get(row, col)} vs RHS {rhs.get(row, col)}"
        for row in rows:
            dx, dy = lhs.get(row, col).z_range("x")[1], lhs.get(row, col).z_range("y")[1]
            if dx > bound or dy > bound:
                return f"{where(row)}: LHS entry of x-degree {dx} and y-degree {dy} exceeds the spectral degree bound {bound}"
    return ""


def _first_entry_times_r(m: SMatrix) -> SMatrix:
    i, j, v = m.entries()[0]
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v * (m.ring.mono(r=1) - m.ring.one))])


@pytest.mark.parametrize("change", ["none", "R(xy) entry times r", "R(x) times x^3"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 3)])
def test_columnwise_spectral_ybe_matches_the_matrix_form(family, rank, change):
    """The columnwise check gives the verdict and the witness that the V⊗³
    matrix products give, on the case's operators and on perturbed ones."""
    r_x, r_y, r_xy = spectral_ybe_operators(family, rank)
    if change == "R(xy) entry times r":
        r_xy = _first_entry_times_r(r_xy)
    elif change == "R(x) times x^3":
        r_x = r_x.scale(r_x.ring.atom("x") ** 3)
    expect = _matrix_form_witness(family, (r_x, r_y, r_xy))
    (item,) = check_spectral_ybe(family, rank, (r_x, r_y, r_xy)).items
    assert item.witness == expect
    assert item.ok == (change == "none")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_columnwise_spectral_ybe_covers_every_column_and_entry(monkeypatch, family, rank):
    """A passing check reads one stored column per side it computes for each
    of the N³ basis vectors (R₂₃(y)'s on the left, R₁₂(x)'s on the right),
    applies the two other factor actions to it on kernel-value vectors, and
    reads the x and y digits of every nonzero entry of the left side: as
    many as the V⊗³ matrix of the left side has.  A2 has no transpose
    reflection, so both sides are computed: 4·N³ actions.  B2 has one, so
    only the left side is: 2·N³ actions, and every nonzero entry of the left
    side is compared with its reflected partner."""
    from rsqg import affine, matrices

    operators = spectral_ybe_operators(family, rank)
    r_x, r_y, r_xy = operators
    ring, N = r_x.ring, isqrt(r_x.nrows)
    ident = SMatrix.identity(ring, N)
    mid_flip = kron(ident, flip_map(ring, N))
    lhs = kron(r_x, ident) @ (mid_flip @ kron(r_xy, ident) @ mid_flip) @ kron(ident, r_y)
    one_sided = transpose_reflection(operators) is not None
    assert one_sided == (family != "A")
    applied, reads, digits, paired = [], [], [], []
    apply, column, exp_ranges = matrices.PairAction.__call__, matrices.PairAction.column, affine._packed_exp_ranges
    pairs = affine.reflected_column_pairs
    monkeypatch.setattr(matrices.PairAction, "__call__", lambda self, vec: applied.append(vec) or apply(self, vec))
    monkeypatch.setattr(matrices.PairAction, "column", lambda self, k: reads.append((self.strides, k)) or column(self, k))
    monkeypatch.setattr(
        affine, "_packed_exp_ranges", lambda terms, i, j: digits.append((i, j)) or exp_ranges(terms, i, j)
    )
    monkeypatch.setattr(affine, "reflected_column_pairs", lambda *a, **k: paired.append(pairs(*a, **k)) or paired[-1])
    assert check_spectral_ybe(family, rank, operators).ok()
    r23, r12 = PairAction(r_y, N, (2, 3)), PairAction(r_x, N, (1, 2))
    sides = (r23,) if one_sided else (r23, r12)
    assert len(applied) == 2 * len(sides) * N**3
    if one_sided:
        # the columns run by weight block, each exactly once
        assert sorted(k for _, k in reads) == list(range(N**3))
        assert paired == [lhs.nnz()]
    else:
        assert reads == [(op.strides, k) for k in range(N**3) for op in sides]
        assert paired == []
    # each side's first action takes the column read for that side
    by_strides = {op.strides: op for op in (r23, r12)}
    assert applied[::2] == [column(by_strides[strides], k) for strides, k in reads]
    assert digits == [(ring.index["x"], ring.index["y"])] * lhs.nnz()


def _lhs_columns(sides: tuple, N: int) -> list[dict]:
    """Every column of a product of factor actions on V⊗³, as Scalars."""
    out = []
    for col in range(N**3):
        vec = sides[-1].column(col)
        for op in sides[-2::-1]:
            vec = op(vec)
        out.append({row: scalar_of(sides[0].ring, v) for row, v in vec.items()})
    return out


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)])
def test_reflected_left_side_is_the_right_side(family, rank):
    """Where R(x), R(y) and R(xy) have a transpose reflection D, the right
    side R₂₃(y)R₁₃(xy)R₁₂(x) is the reflected left side, column by column:
    RHS[u, v] = LHS[τv, τu]·g(v)/g(u), with τ = J⊗J⊗J and g = d⊗d⊗d."""
    r_x, r_y, r_xy = operators = spectral_ybe_operators(family, rank)
    d = transpose_reflection(operators)
    assert d is not None
    N = isqrt(r_x.nrows)
    r12, r13, r23 = PairAction(r_x, N, (1, 2)), PairAction(r_xy, N, (1, 3)), PairAction(r_y, N, (2, 3))
    tau = lambda k: N**3 - 1 - k
    g = lambda k: d[k // (N * N)] * d[k // N % N] * d[k % N]
    reflected: list[dict] = [{} for _ in range(N**3)]
    for col, column in enumerate(_lhs_columns((r12, r13, r23), N)):
        for row, v in column.items():
            reflected[tau(row)][tau(col)] = v * g(tau(row)) * g(tau(col)).inv()
    assert reflected == _lhs_columns((r23, r13, r12), N)


def _with_partner_times_r(m: SMatrix) -> SMatrix:
    """The first stored entry of an operator on V⊗V and its partner under
    the transpose reflection of the spectral YBE, (k, l) ↦ (Πl, Πk), times r."""
    N = isqrt(m.nrows)
    pi = lambda k: (N - 1 - k // N) * N + N - 1 - k % N
    i, j, _ = m.entries()[0]
    changed = {(i, j), (pi(j), pi(i))}
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(a, b, m.get(a, b) * (m.ring.mono(r=1) - m.ring.one)) for a, b in changed])


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3)])
def test_lemma_preserving_perturbation_fails_with_the_matrix_form_witness(family, rank):
    """One entry of R(x) and its reflection partner times r: the transpose
    reflection still holds, with the same D, so the one-sided loop runs; it
    finds the spectral YBE broken, and the witness is the matrix form's."""
    r_x, r_y, r_xy = spectral_ybe_operators(family, rank)
    changed = (_with_partner_times_r(r_x), r_y, r_xy)
    assert transpose_reflection(changed) == transpose_reflection((r_x, r_y, r_xy)) is not None
    (item,) = check_spectral_ybe(family, rank, changed).items
    assert not item.ok
    assert item.witness == _matrix_form_witness(family, changed)


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_degree_bounds(family, rank):
    assert check_degree_bounds(case(family, rank).zrep, case(family, rank).rz).ok()


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_unit_point(family, rank):
    assert check_unit_point(case(family, rank).zrep, case(family, rank).rz).ok()
