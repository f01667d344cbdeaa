"""Sparse matrices and tensor conventions."""

from __future__ import annotations

import pytest

from rsqg.matrices import SMatrix, act_12, act_13, act_23, flip_map, kron, mat_vec
from rsqg.scalars import rs_ring


@pytest.fixture(scope="module")
def R():
    return rs_ring()


def test_flattening_convention(R):
    """(X ⊗ Y)(v_a ⊗ v_b) = Xv_a ⊗ Yv_b with index (i-1)N + j."""
    N = 3
    x = SMatrix.from_entries(R, N, N, [(0, 1, R.mono(r=1))])  # E_12 scaled by r
    y = SMatrix.from_entries(R, N, N, [(2, 0, R.one)])  # E_31
    k = kron(x, y)
    vec = {1 * N + 0: R.one}  # v_2 ⊗ v_1
    out = mat_vec(k, vec)
    assert out == {0 * N + 2: R.mono(r=1)}  # r · v_1 ⊗ v_3


def test_flip(R):
    N = 3
    tau = flip_map(R, N)
    for a in range(N):
        for b in range(N):
            assert mat_vec(tau, {a * N + b: R.one}) == {b * N + a: R.one}
    assert tau @ tau == SMatrix.identity(R, N * N)


def test_acting_on_three_factors(R):
    N = 2
    x = SMatrix.from_entries(R, N, N, [(0, 1, R.one)])
    a = kron(x, x)

    def basis(i, j, k):
        return {(i * N + j) * N + k: R.one}

    assert mat_vec(act_12(a, N), basis(1, 1, 0)) == basis(0, 0, 0)
    assert mat_vec(act_23(a, N), basis(0, 1, 1)) == basis(0, 0, 0)
    assert mat_vec(act_13(a, N), basis(1, 0, 1)) == basis(0, 0, 0)
    assert mat_vec(act_13(a, N), basis(1, 1, 0)) == {}


def test_matmul_and_scale(R):
    m = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1)), (0, 1, R.one), (1, 1, R.mono(s=1))])
    ident = SMatrix.identity(R, 2)
    assert m @ ident == m
    assert m.scale(R.zero).is_zero()
    assert (m - m).is_zero()
    assert m.pow(2) == m @ m


def test_diagonal_helpers(R):
    d = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=2)), (1, 1, R.mono(r=-1, s=3))])
    assert d.diagonal_sqrt() @ d.diagonal_sqrt() == d
    assert d.diagonal_inv() @ d == SMatrix.identity(R, 2)
    nd = SMatrix.from_entries(R, 2, 2, [(0, 1, R.one), (0, 0, R.one), (1, 1, R.one)])
    with pytest.raises(ValueError):
        nd.diagonal_sqrt()


def test_substituted(R):
    ring_z = rs_ring("z")
    m = SMatrix.from_entries(ring_z, 2, 2, [(0, 0, ring_z.atom("z") - ring_z.one)])
    at_one = m.substituted({"z": ring_z.one})
    assert at_one.is_zero()


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a @ b,
        kron,
    ],
    ids=["add", "sub", "matmul", "kron"],
)
def test_operands_over_different_rings_are_rejected(R, op):
    other = rs_ring("z")
    a = SMatrix.identity(R, 2)
    b = SMatrix.identity(other, 2)
    with pytest.raises(ValueError, match="mixing matrices"):
        op(a, b)
    with pytest.raises(ValueError, match="mixing matrices"):
        op(b, a)
    assert op(a, SMatrix.identity(rs_ring(), 2)).ring == R  # an equal ring is the same ring


def test_sum_stores_no_zero_from_either_operand(R):
    """A stored explicit zero in either operand is not copied into a sum."""
    stored = SMatrix(R, 2, 2, {0: {1: R.zero}, 1: {1: R.one}})
    other = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1))])
    expect = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1)), (1, 1, R.one)])
    assert stored + other == expect
    assert other + stored == expect
    assert (stored - SMatrix.zero(R, 2)).rows == {1: {1: R.one}}
