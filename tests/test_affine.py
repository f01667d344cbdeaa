"""Spectral operators: printed entries, Yang-Baxterization, intertwining of
evaluation-module tensor products (with and without the parameter
constraint), the spectral Yang-Baxter equation, and structure checks."""

from __future__ import annotations

import re

import pytest

from conftest import (
    case,
    coproduct3,
    generating_columns,
    matrix_form_witness,
    r_of,
    reversal,
    spectral_factors,
    v3_sides,
    z_range,
)
from rsqg.affine import (
    affine_rhat,
    baxterize,
    check_affine_intertwiner,
    check_baxterize_match,
    check_degree_bounds,
    check_spectral_ybe,
    check_unit_point,
    xi_constant,
)
from rsqg.matrices import SMatrix, pair_actions
from rsqg.rep import build_evaluation, build_fundamental
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


@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3)])
def test_spectral_ybe_long(family, rank):
    assert check_spectral_ybe(family, rank).ok()


def _first_entry_times_r(m: SMatrix) -> SMatrix:
    i, j, v = m.entries()[0]
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v * (m.ring.mono(r=1) - m.ring.one))])


def _changed(rz: SMatrix, change: str) -> SMatrix:
    z = rz.ring.atom("z")
    if change == "R̂(z) entry times r":
        return _first_entry_times_r(rz)
    if change == "R̂(z) + z·Id":
        return rz + SMatrix.identity(rz.ring, rz.nrows).scale(z)
    if change == "R̂(z) times z^3":
        return rz.scale(z**3)
    if change == "R̂(z) times z^-3":
        return rz.scale(z**-3)
    return rz


@pytest.mark.parametrize("change", ["none", "R̂(z) entry times r", "R̂(z) + z·Id", "R̂(z) times z^3", "R̂(z) times z^-3"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 3)])
def test_columnwise_spectral_ybe_matches_the_matrix_form(family, rank, change):
    """The check's verdict is the verdict of the V⊗³ matrix products of
    R(x), R(y) and R(xy), on the case's R̂(z) and on changed ones, unless
    R(z) is out of its degree bound: an entry times r fails the premise, on
    V⊗V; R̂(z) + z·Id passes it and fails with the matrix form's witness on
    the generating columns v_N⊗v_b⊗v_c.  R̂(z) times z^{±3} scales both sides
    alike, and still fails, since the degree bound is proved on R(z) or not
    at all: the witness names an entry of R(z) out of the bound."""
    c = case(family, rank)
    rz = _changed(c.rz, change)
    (item,) = check_spectral_ybe(family, rank, c.zrep, rz).items
    r_x, r_y, r_xy = spectral_factors(rz)
    lhs, rhs = v3_sides(r_x, r_xy, r_y)
    holds = matrix_form_witness(lhs, rhs, range(lhs.ncols)) == ""
    assert item.ok == (change == "none")
    if change == "R̂(z) entry times r":
        assert not holds and item.witness.startswith("premise: Δ(")
    elif change == "R̂(z) + z·Id":
        assert not holds and item.witness == matrix_form_witness(lhs, rhs, generating_columns(c.zrep.N))
    elif change != "none":
        assert holds
        match = re.fullmatch(r"R\(z\): row v_(\d+)⊗v_(\d+), column v_(\d+)⊗v_(\d+) (has z-degree (\d+)|is not polynomial in z)", item.witness)
        assert match, item.witness
        N = c.zrep.N
        a, bb, cc, d = (int(g) - 1 for g in match.groups()[:4])
        entry = r_of(rz).get(a * N + bb, cc * N + d)
        if match[6]:
            assert z_range(entry, "z")[1] == int(match[6]) > (1 if family == "A" else 2)
        else:
            assert z_range(entry, "z")[0] < 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_columnwise_spectral_ybe_covers_the_generating_columns(monkeypatch, family, rank):
    """A passing check reads one stored column per side for each of the N²
    generating columns v_N⊗v_b⊗v_c, in index order (R₂₃(y)'s on the left,
    R₁₂(x)'s on the right), and applies the two other factor actions to it
    on packed vectors.  It reads the z digits of every stored entry of R(z)
    on V⊗V, to prove the degree bound, and of no entry on V⊗³."""
    from rsqg import affine, matrices

    c = case(family, rank)
    r_x, r_y, r_xy = spectral_factors(c.rz)
    N = c.zrep.N
    applied, reads, digits = [], [], []
    apply, column, exp_ranges = matrices.PairAction.__call__, matrices.PairAction.column, affine._packed_exp_ranges
    monkeypatch.setattr(matrices.PairAction, "__call__", lambda self, vec: applied.append(vec) or apply(self, vec))
    monkeypatch.setattr(matrices.PairAction, "column", lambda self, k: reads.append((self.strides, k)) or column(self, k))
    monkeypatch.setattr(
        affine, "_packed_exp_ranges", lambda terms, i, j: digits.append((i, j)) or exp_ranges(terms, i, j)
    )
    assert check_spectral_ybe(family, rank, c.zrep, c.rz).ok()
    r12, _, r23 = pair_actions(N, ((r_x, (1, 2)), (r_xy, (1, 3)), (r_y, (2, 3))))
    assert reads == [(op.strides, k) for k in generating_columns(N) for op in (r23, r12)]
    assert len(applied) == 4 * N * N
    by_strides = {op.strides: op for op in (r23, r12)}
    assert applied[::2] == [column(by_strides[strides], k) for strides, k in reads]
    iz = c.rz.ring.index["z"]
    assert digits == [(iz, iz)] * c.rz.nnz()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2)])
def test_both_spectral_sides_times_the_reversal_are_module_maps(family, rank):
    """With S the reversal v_a⊗v_b⊗v_c ↦ v_c⊗v_b⊗v_a, both sides of the
    spectral YBE times S, R̂₁₂(x)R̂₂₃(xy)R̂₁₂(y) and R̂₂₃(y)R̂₁₂(xy)R̂₂₃(x),
    commute with Δ⁽²⁾ of every generator, on V⊗³ matrices from kron: the
    lemma that lets the decider compare the N² generating columns only."""
    c = case(family, rank)
    r_x, r_y, r_xy = spectral_factors(c.rz)
    ring, N = r_x.ring, c.zrep.N
    lhs, rhs = v3_sides(r_x, r_xy, r_y)
    S = reversal(ring, N)
    rep = build_fundamental(family, rank, ring)
    for side in (lhs @ S, rhs @ S):
        for kind in ("e", "f", "omega", "omega-prime"):
            for i in range(1, rank + 1):
                g = coproduct3(rep, kind, i)
                assert side @ g == g @ side, (kind, i)


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_degree_bounds(family, rank):
    assert check_degree_bounds(case(family, rank).zrep, case(family, rank).rz).ok()


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_unit_point(family, rank):
    assert check_unit_point(case(family, rank).zrep, case(family, rank).rz).ok()
