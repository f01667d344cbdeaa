"""Spectral operators: printed entries, Yang-Baxterization, intertwining of
evaluation-module tensor products (with and without the parameter
constraint), the spectral Yang-Baxter equation, and structure checks."""

from __future__ import annotations

import os

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
    xi_constant,
)
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


@pytest.mark.skipif(
    not os.environ.get("RSQG_LONG"), reason="long mode (RSQG_LONG=1) only"
)
@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3)])
def test_spectral_ybe_long(family, rank):
    assert check_spectral_ybe(family, rank).ok()


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_degree_bounds(family, rank):
    assert check_degree_bounds(case(family, rank).zrep, case(family, rank).rz).ok()


@pytest.mark.parametrize("family,rank", AFFINE_DESK)
def test_unit_point(family, rank):
    assert check_unit_point(case(family, rank).zrep, case(family, rank).rz).ok()
