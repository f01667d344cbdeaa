"""Root systems, bilinear forms, Cartan pairings, Weyl dimensions and the
affine structural constants, checked against the printed per-type tables."""

from __future__ import annotations

import ast
import inspect
import textwrap
from fractions import Fraction

import pytest

from conftest import ring, rsys
from rsqg.rootdata import (
    RootSystem,
    affine_data,
    build_root_system,
    f_function,
    fundamental_weights,
    omega_pairing,
    weight_pairing,
    weyl_dimension,
)

ALL_FAMILIES = [("A", r) for r in range(1, 5)] + [
    (f, r) for f in "BCD" for r in range(2, 5)
]


def eps(rs, k, sign=1):
    return tuple(
        Fraction(sign) if t == k - 1 else Fraction(0) for t in range(rs.eps_dim)
    )


@pytest.mark.parametrize("family,rank", ALL_FAMILIES)
def test_positive_root_counts(family, rank):
    rs = rsys(family, rank)
    expected = {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
    }[family]
    assert len(rs.positive) == expected


def test_examples_from_construction():
    b2 = rsys("B", 2)
    labels = {rt.label() for rt in b2.positive}
    assert labels == {"gamma[1,1]", "gamma[1,2]", "beta[1,2]", "gamma[2,2]"}
    a1 = rsys("A", 1)
    assert [rt.label() for rt in a1.positive] == ["gamma[1,1]"]
    assert len(rsys("D", 3).positive) == 6  # n(n-1)
    with pytest.raises(ValueError):
        build_root_system("B", 1)


@pytest.mark.parametrize("family,rank", ALL_FAMILIES)
def test_symmetrization_identity(family, rank):
    rs = rsys(family, rank)
    for a in rs.positive:
        for b in rs.positive:
            assert rs.sym_form(a.alpha, b.alpha) == rs.ringel_form(
                a.alpha, b.alpha
            ) + rs.ringel_form(b.alpha, a.alpha)
            assert rs.sym_form(a.alpha, b.alpha) == rs.eps_inner(a.eps, b.eps)


def test_short_roots_have_length_two():
    for family, rank in ALL_FAMILIES:
        rs = rsys(family, rank)
        assert min(rs.sym_form(rt.alpha, rt.alpha) for rt in rs.positive) == 2


def test_d_type_ringel_exception():
    rs = rsys("D", 4)
    n = rs.n
    assert rs.ringel[n - 2][n - 1] == -1
    assert rs.ringel[n - 1][n - 2] == 1


def test_omega_pairing_examples():
    R = ring()
    b = rsys("B", 3)
    # λ = μ = α_n gives r·s^{-1}
    an = b.simple[-1].alpha
    assert omega_pairing(b, R, an, an) == R.mono(r=1, s=-1)
    a = rsys("A", 2)
    for i in range(2):
        ai = a.simple[i].alpha
        assert omega_pairing(a, R, ai, ai) == R.mono(r=1, s=-1)
    zero = (0, 0)
    assert omega_pairing(a, R, zero, a.simple[0].alpha).is_one()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_omega_pairing_bimultiplicative(family, rank):
    R = ring()
    rs = rsys(family, rank)
    for a in rs.simple:
        for b in rs.simple:
            for c in rs.simple:
                ab = tuple(x + y for x, y in zip(a.alpha, b.alpha))
                assert omega_pairing(rs, R, ab, c.alpha) == omega_pairing(
                    rs, R, a.alpha, c.alpha
                ) * omega_pairing(rs, R, b.alpha, c.alpha)
                assert omega_pairing(rs, R, c.alpha, ab) == omega_pairing(
                    rs, R, c.alpha, a.alpha
                ) * omega_pairing(rs, R, c.alpha, b.alpha)


@pytest.mark.parametrize("family", "ABCD")
def test_eps_ringel_restricts_to_the_ringel_form(family):
    """⟨·,·⟩ on the ε-lattice is ``ringel`` on the simple roots, ranks 2–12."""
    for rank in range(2, 13):
        rs = rsys(family, rank)
        for i, x in enumerate(rs.simple_eps):
            for j, y in enumerate(rs.simple_eps):
                assert rs.eps_forms(x, y)[:2] == (rs.ringel[i][j], rs.ringel[j][i])


@pytest.mark.parametrize("family", "BCD")
def test_stated_eps_ringel_is_the_pulled_back_ringel_form(family):
    """In B, C and D the stated ε-form is ``ringel`` pulled back through
    ε_a = Σ_k c_ak α_k (``eps_to_alpha``), as C·ringel·Cᵀ, ranks 2–8."""
    for rank in range(3 if family == "D" else 2, 9):
        rs = rsys(family, rank)
        units = [tuple(Fraction(int(t == a)) for t in range(rs.eps_dim)) for a in range(rs.eps_dim)]
        C = [rs.eps_to_alpha(u) for u in units]
        pulled = [[sum(x * y * rs.ringel[k][l] for k, x in enumerate(ca) for l, y in enumerate(cb)) for cb in C] for ca in C]
        assert [list(row) for row in rs.eps_ringel] == pulled


@pytest.mark.parametrize("family", "ABCD")
def test_eps_forms_are_the_fraction_sums_typed_by_integrality(family):
    """``eps_forms`` sums in units of 1/2 on ints; its values are the
    Fraction sums over ``eps_ringel`` and ``eps_inner``, each an int when it
    is integral and a Fraction otherwise, on the weights of V and the
    simple roots."""
    rs = rsys(family, 4)
    vectors = fundamental_weights(rs) + list(rs.simple_eps)
    for lam in vectors:
        for mu in vectors:
            pair = lambda x, y: sum((a * b * rs.eps_ringel[i][j] for i, a in enumerate(x) for j, b in enumerate(y)), Fraction(0))
            got = rs.eps_forms(lam, mu)
            assert got == (pair(lam, mu), pair(mu, lam), rs.eps_inner(lam, mu))
            assert [type(v) for v in got] == [int if Fraction(v).denominator == 1 else Fraction for v in got]


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)])
def test_weight_pairing_is_the_ringel_pairing_on_the_root_span(family, rank):
    """In B, C and D every weight of V is in the root span, and the pairing
    on ε-coordinates is ``omega_pairing`` on simple-root coordinates."""
    R = ring()
    rs = rsys(family, rank)
    weights = fundamental_weights(rs) + list(rs.simple_eps)
    for lam in weights:
        for mu in weights:
            assert weight_pairing(rs, R, lam, mu) == omega_pairing(rs, R, rs.eps_to_alpha(lam), rs.eps_to_alpha(mu))


@pytest.mark.parametrize("rank", [1, 2, 3, 5])
def test_type_a_stated_form_gives_the_gl_eigenvalues(rank):
    """Type A's weights span more than the roots, so its ε-form is stated;
    it gives ω_i on v_k the gl eigenvalue r^{δ_ki} s^{δ_k,i+1}, and ω'_i the
    exchanged one."""
    R = ring()
    rs = rsys("A", rank)
    assert rs.eps_ringel == tuple(tuple(int(a >= b) for b in range(rank + 1)) for a in range(rank + 1))
    for k, lam in enumerate(fundamental_weights(rs), 1):
        for i, alpha in enumerate(rs.simple_eps, 1):
            assert weight_pairing(rs, R, lam, alpha) == R.mono(r=int(k == i), s=int(k == i + 1))
            assert weight_pairing(rs, R, alpha, lam).inv() == R.mono(r=int(k == i + 1), s=int(k == i))


@pytest.mark.parametrize("fn", [weight_pairing, f_function, RootSystem.eps_forms])
def test_weight_forms_read_no_family(fn):
    """The pairing on weights and the twist f come from ``eps_ringel`` alone:
    none of them branches on the type."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "family"]


def test_f_function_tables():
    R = ring()
    b = rsys("B", 3)
    assert f_function(b, R, eps(b, 1), eps(b, 2)) == R.mono(r=-1, s=-1)
    assert f_function(b, R, eps(b, 2), eps(b, 2)) == R.mono(r=-1, s=1)
    assert f_function(b, R, eps(b, 3), eps(b, 1)) == R.mono(r=1, s=1)
    zero = tuple(Fraction(0) for _ in range(3))
    assert f_function(b, R, zero, zero).is_one()
    assert f_function(b, R, zero, eps(b, 2)).is_one()
    assert f_function(b, R, eps(b, 1, -1), eps(b, 2, -1)) == R.mono(r=-1, s=-1)
    assert f_function(b, R, eps(b, 1), eps(b, 2, -1)) == R.mono(r=1, s=1)
    c = rsys("C", 2)
    half = Fraction(1, 2)
    assert f_function(c, R, eps(c, 1), eps(c, 1)) == R.mono(r=-half, s=half)
    a = rsys("A", 2)
    assert f_function(a, R, eps(a, 1), eps(a, 2)) == R.mono(s=-1)
    assert f_function(a, R, eps(a, 2), eps(a, 1)) == R.mono(r=1)
    assert f_function(a, R, eps(a, 2), eps(a, 2)).is_one()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_f_function_constraints(family, rank):
    """The defining constraints, read through bimultiplicativity over the
    differences ε_b - ε_{b+1} of fundamental weights."""
    R = ring()
    rs = rsys(family, rank)
    wts = fundamental_weights(rs)
    n = rs.n
    for lam in wts:
        for b in range(1, n):  # α_b = ε_b - ε_{b+1} as a weight difference
            ab = rs.simple_eps[b - 1]
            lhs = f_function(rs, R, lam, eps(rs, b)) / f_function(rs, R, lam, eps(rs, b + 1))
            assert lhs == weight_pairing(rs, R, ab, lam).inv()
            lhs = f_function(rs, R, eps(rs, b), lam) / f_function(rs, R, eps(rs, b + 1), lam)
            assert lhs == weight_pairing(rs, R, lam, ab).inv()


def test_weyl_dimension_closed_forms():
    for n in (2, 3, 4):
        b = rsys("B", n)
        assert weyl_dimension(b, eps(b, 1)) == 2 * n + 1
        two_eps1 = tuple(2 * x for x in eps(b, 1))
        assert weyl_dimension(b, two_eps1) == n * (2 * n + 3)
        e12 = tuple(x + y for x, y in zip(eps(b, 1), eps(b, 2)))
        assert weyl_dimension(b, e12) == n * (2 * n + 1)
        c = rsys("C", n)
        e12 = tuple(x + y for x, y in zip(eps(c, 1), eps(c, 2)))
        assert weyl_dimension(c, e12) == (2 * n + 1) * (n - 1)
        assert weyl_dimension(c, tuple(2 * x for x in eps(c, 1))) == n * (2 * n + 1)
    for n in (3, 4):
        d = rsys("D", n)
        assert weyl_dimension(d, tuple(2 * x for x in eps(d, 1))) == (2 * n - 1) * (n + 1)
        e12 = tuple(x + y for x, y in zip(eps(d, 1), eps(d, 2)))
        assert weyl_dimension(d, e12) == n * (2 * n - 1)


def test_weyl_dimension_trivial_and_errors():
    b = rsys("B", 2)
    zero = tuple(Fraction(0) for _ in range(2))
    assert weyl_dimension(b, zero) == 1
    with pytest.raises(ValueError):
        weyl_dimension(b, eps(b, 2))  # ε_2 alone is not dominant... ε_2 < ε_1


def test_dimension_sums():
    for fam, ranks, N_of in (
        ("B", (2, 3, 4), lambda n: 2 * n + 1),
        ("C", (2, 3, 4), lambda n: 2 * n),
        ("D", (3, 4), lambda n: 2 * n),
    ):
        for n in ranks:
            rs = rsys(fam, n)
            two_eps1 = tuple(2 * x for x in eps(rs, 1))
            e12 = tuple(x + y for x, y in zip(eps(rs, 1), eps(rs, 2)))
            total = weyl_dimension(rs, two_eps1) + weyl_dimension(rs, e12) + 1
            assert total == N_of(n) ** 2


# -- affine structural constants vs the printed per-type lists ---------------


def _omega_expect(R, spec: str):
    table = {
        "1": R.one,
        "r": R.mono(r=1),
        "r-1": R.mono(r=-1),
        "s": R.mono(s=1),
        "s-1": R.mono(s=-1),
        "rs": R.mono(r=1, s=1),
        "rs-1": R.mono(r=1, s=-1),
        "r-1s-1": R.mono(r=-1, s=-1),
        "r2s-2": R.mono(r=2, s=-2),
        "r-2s-2": R.mono(r=-2, s=-2),
        "r-2": R.mono(r=-2),
        "r2s2": R.mono(r=2, s=2),
        "s2": R.mono(s=2),
    }
    return table[spec]


@pytest.mark.parametrize(
    "family,rank,omega_specs,cartan_specs",
    [
        (
            "A",
            3,
            {(0, 0): "rs-1", (0, 1): "r-1", (0, 3): "s", (1, 0): "s", (3, 0): "r-1", (0, 2): "1", (2, 0): "1"},
            {(0, 1): -1, (0, 3): -1, (1, 0): -1, (3, 0): -1, (0, 2): 0, (2, 0): 0},
        ),
        (
            "B",
            3,
            {(0, 0): "r2s-2", (0, 1): "r-2s-2", (0, 2): "r-2", (0, 3): "r2s2", (1, 0): "r2s2", (2, 0): "s2", (3, 0): "r-2s-2"},
            {(0, 2): -1, (2, 0): -1, (0, 1): 0, (1, 0): 0, (0, 3): 0, (3, 0): 0},
        ),
        (
            "B",
            4,
            {(0, 4): "r2s2", (4, 0): "r-2s-2", (0, 3): "1", (3, 0): "1"},
            {(0, 4): 0, (4, 0): 0},
        ),
        (
            "C",
            3,
            {(0, 0): "r2s-2", (0, 1): "r-2", (0, 3): "r2s2", (1, 0): "s2", (3, 0): "r-2s-2", (0, 2): "1", (2, 0): "1"},
            {(0, 1): -1, (1, 0): -2, (0, 2): 0, (2, 0): 0, (0, 3): 0, (3, 0): 0},
        ),
        (
            "D",
            4,
            {(0, 0): "rs-1", (0, 1): "r-1s-1", (0, 2): "r-1", (0, 4): "r2s2", (1, 0): "rs", (2, 0): "s", (4, 0): "r-2s-2", (0, 3): "1", (3, 0): "1"},
            {(0, 2): -1, (2, 0): -1, (0, 1): 0, (1, 0): 0, (0, 4): 0, (4, 0): 0},
        ),
    ],
)
def test_affine_tables(family, rank, omega_specs, cartan_specs):
    R = ring()
    aff = affine_data(rsys(family, rank), R)
    for key, spec in omega_specs.items():
        assert aff.omega[key] == _omega_expect(R, spec), f"Omega{key}"
    for key, val in cartan_specs.items():
        assert aff.cartan_ext[key] == val, f"c{key}"


def test_affine_data_consistency():
    R = ring()
    for family, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        rs = rsys(family, rank)
        aff = affine_data(rs, R)
        # restriction to 1..n is the finite pairing table
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                assert aff.omega[(i, j)] == omega_pairing(
                    rs, R, rs.simple[i - 1].alpha, rs.simple[j - 1].alpha
                )
        assert aff.cartan_ext[(0, 0)] == 2
        # highest root is dominance-maximal
        for rt in rs.positive:
            assert all(x <= y for x, y in zip(rt.alpha, aff.theta.alpha))


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]
)
def test_affine_presentation_restricts_to_the_finite_one(family, rank):
    """On the nodes 1..n the affine Ω and Cartan tables are the finite ones,
    and the Serre twist Ω_ji s^{d_i c_ij} is (rs)^{⟨α_j,α_i⟩}; the finite and
    affine relation checks rely on both."""
    R = ring()
    rs = rsys(family, rank)
    aff = affine_data(rs, R)
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            ai, aj = rs.simple[i - 1].alpha, rs.simple[j - 1].alpha
            assert aff.omega[(i, j)] == omega_pairing(rs, R, ai, aj)
            assert aff.cartan_ext[(i, j)] == rs.cartan[i - 1][j - 1]
            twist = aff.omega[(j, i)] * R.mono(s=rs.d[i - 1] * rs.cartan[i - 1][j - 1])
            ji = rs.ringel_form(aj, ai)
            assert twist == R.mono(r=ji, s=ji)


def test_affine_rank_guards():
    R = ring()
    with pytest.raises(ValueError):
        affine_data(rsys("D", 2), R)
