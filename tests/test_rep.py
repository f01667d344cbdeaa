"""Fundamental representations: printed matrix entries, defining relations,
weight structure, highest weight vectors, evaluation modules."""

from __future__ import annotations

import pytest

from conftest import erep, rep, ring
from rsqg.matrices import SMatrix
from rsqg.rep import (
    build_evaluation,
    build_fundamental,
    highest_weight_vectors,
    verify_affine_relations,
    verify_finite_relations,
    verify_highest_weight,
)
from rsqg.scalars import rs_ring

FINITE_CASES = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("D", 2),
    ("D", 3),
    ("D", 4),
]
AFFINE_CASES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]


def test_printed_entries():
    R = ring()
    a = rep("A", 2)
    assert a.e[1] == SMatrix.from_entries(R, 3, 3, [(0, 1, R.one)])
    b = rep("B", 2)
    coeff = R.mono(r=-1) + R.mono(s=-1)
    n, N = 2, 5
    expect = SMatrix.from_entries(
        R, N, N, [(n, n - 1, coeff), (N - n, n, -coeff)]
    )  # (r^{-1}+s^{-1})(E_{n+1,n} - E_{n',n+1})
    assert b.f[2] == expect
    c = rep("C", 2)
    assert c.f[2] == SMatrix.from_entries(R, 4, 4, [(2, 1, R.mono(r=-1, s=-1))])
    d = rep("D", 3)
    assert d.e[3] == SMatrix.from_entries(
        R, 6, 6, [(1, 3, R.mono(r=-1, s=-1)), (2, 4, -R.one)]
    )


@pytest.mark.parametrize("family,rank", FINITE_CASES)
def test_defining_relations(family, rank):
    out = verify_finite_relations(rep(family, rank))
    assert out.ok(), [it.line() for it in out.items if not it.ok]


def test_perturbed_rep_fails():
    r = build_fundamental("A", 2)
    r.e[1] = r.e[1].scale(r.ring.mono(r=1))
    out = verify_finite_relations(r)
    bad = {it.name for it in out.items if not it.ok}
    assert "e-f-commutator" in bad


def test_weights_distinct():
    for family, rank in FINITE_CASES:
        r = rep(family, rank)
        joint = []
        for k in range(r.N):
            joint.append(
                tuple(r.omega[i].get(k, k) for i in range(1, rank + 1))
                + tuple(r.omega_prime[i].get(k, k) for i in range(1, rank + 1))
            )
        assert len(set(joint)) == r.N


def test_serre_summands_nonzero_in_type_d():
    """The alternating sums vanish even though individual summands act
    nontrivially (only the fork node of type D exposes this)."""
    r = rep("D", 3)
    i, j = 2, 3
    single = r.e[i] @ r.e[j] @ SMatrix.identity(r.ring, r.N)
    assert not single.is_zero()


@pytest.mark.parametrize("family,rank", FINITE_CASES)
def test_highest_weight_vectors(family, rank):
    out = verify_highest_weight(rep(family, rank))
    assert out.ok()


def test_highest_weight_vector_entries():
    R = ring()
    b = rep("B", 3)
    hw = highest_weight_vectors(b)
    # w2 = v1 ⊗ v2 - r² v2 ⊗ v1 when n > 1
    w2 = hw.vectors[1]
    assert w2[(1 - 1) * b.N + (2 - 1)] == R.one
    assert w2[(2 - 1) * b.N + (1 - 1)] == -R.mono(r=2)
    # C-type w3 coefficient of v_{i'} ⊗ v_i is -r^n s^{i-n-1}
    c = rep("C", 2)
    hw = highest_weight_vectors(c)
    w3 = hw.vectors[2]
    for i in (1, 2):
        ip = c.prime(i)
        assert w3[(ip - 1) * c.N + (i - 1)] == -R.mono(r=2, s=i - 3)
    # w1 = v1 ⊗ v1 everywhere
    for family, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        r = rep(family, rank)
        assert highest_weight_vectors(r).vectors[0] == {0: R.one}


def test_w2_coefficient_is_the_cartan_eigenvalue():
    """The w2 coefficient is the ω_1-eigenvalue on the highest weight line,
    uniformly across types (the general rule behind the per-rank branches)."""
    from rsqg.rootdata import weight_pairing

    R = ring()
    for family, rank, expect in (
        ("B", 2, R.mono(r=2)),
        ("C", 2, R.mono(r=1)),
        ("D", 3, R.mono(r=1)),
        ("A", 2, R.mono(r=1)),
    ):
        r = rep(family, rank)
        assert weight_pairing(r.rs, R, r.weights[0], r.rs.simple_eps[0]) == expect
        w2 = highest_weight_vectors(r).vectors[1]
        assert w2[(2 - 1) * r.N + (1 - 1)] == -expect


# -- evaluation modules -------------------------------------------------------


def test_evaluation_printed_entries():
    ev = erep("B", 2)
    R = ev.ring
    au = R.atom("a") * R.atom("x")
    N = 5
    expect = SMatrix.from_entries(
        R, N, N, [(N - 1, 1, au), (N - 2, 0, -au * R.mono(r=2, s=2))]
    )
    assert ev.e[0] == expect
    assert ev.c == R.mono(r=2, s=2) * R.atom("a") * R.atom("b")
    ev_a = erep("A", 2)
    assert ev_a.c == ev_a.ring.mono(r=1, s=1) * ev_a.ring.atom("a") * ev_a.ring.atom("b")
    ident = SMatrix.identity(ev_a.ring, 3).scale(ev_a.c)
    assert ev_a.gamma == ident and ev_a.gamma_prime == ident


def test_evaluation_fixed_a1():
    R = rs_ring("x")
    ev = build_evaluation("B", 2, ring=R, a=R.one, b=R.mono(r=-2, s=-2))
    assert ev.c.is_one()
    ev = build_evaluation("C", 2, ring=R, a=R.one, b=R.mono(r=-1, s=-1))
    assert ev.c.is_one()


def test_evaluation_keeps_an_explicit_a():
    """a and b default independently: giving only a keeps it."""
    R = rs_ring("x", "a", "b")
    ev = build_evaluation("B", 2, ring=R, a=R.mono(r=1))
    assert ev.a == R.mono(r=1)
    assert ev.b == R.atom("b")


@pytest.mark.parametrize("family,rank", AFFINE_CASES)
def test_affine_relations(family, rank):
    out = verify_affine_relations(erep(family, rank))
    assert out.ok(), [it.line() for it in out.items if not it.ok]


def test_affine_rank_guard():
    with pytest.raises(ValueError):
        build_evaluation("D", 2)


def test_degree_substitution_scalars():
    """Replacing the spectral variable by r_0 = r^{d_0} times itself
    multiplies e_0 by r_0 and fixes the finite generators."""
    ev = erep("C", 2)
    R = ev.ring
    assert ev.aff.d[0] == 2
    r0 = R.mono(r=ev.aff.d[0])
    sub = {"x": r0 * R.atom("x")}
    assert ev.e[0].substituted(sub) == ev.e[0].scale(r0)
    assert ev.f[0].substituted(sub) == ev.f[0].scale(r0.inv())
    assert ev.e[1].substituted(sub) == ev.e[1]


def test_affine_conjugation_scalar_example():
    """ω-conjugation of the affine node against the structural constants."""
    ev = erep("B", 2)
    om1 = ev.omega[1]
    lhs = om1 @ ev.e[0]
    rhs = (ev.e[0] @ om1).scale(ev.aff.omega[(0, 1)])
    assert lhs == rhs
    assert ev.aff.omega[(1, 0)] == ev.ring.mono(r=2, s=2)


def test_serre_computes_each_binomial_once(monkeypatch):
    """B3 has Cartan rows (2,-1,0), (-1,2,-1), (0,-2,2) and d = (2,2,1): its
    off-diagonal pairs need the eleven (m, k, d) binomials with (m, d) in
    (1,1), (1,2), (2,2), (3,1), each once for both the e and the f side."""
    from rsqg import rep as rep_module

    calls = []
    real = rep_module.rs_binomial

    def counting(ring, m, k, d=1):
        calls.append((m, k, d))
        return real(ring, m, k, d=d)

    monkeypatch.setattr(rep_module, "rs_binomial", counting)
    assert verify_finite_relations(build_fundamental("B", 3)).ok()
    assert len(calls) == len(set(calls)) == 11


@pytest.mark.parametrize("build", [build_fundamental, build_evaluation], ids=["fundamental", "evaluation"])
def test_a_module_and_its_square_are_freed_by_reference_counting(build):
    """A module keeps its tensor square, and the square refers back to no
    module that keeps it, so with the cyclic garbage collector off both are
    freed as soon as the last reference to the module goes: no case's
    modules outlive it."""
    import gc
    import weakref

    module = build("B", 2)
    module.square.e, module.square.omega
    refs = [weakref.ref(module), weakref.ref(module.square)]
    gc.disable()
    try:
        del module
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
