"""Finite R-matrices: printed entries, the ordered-product route against the
printed closed forms for the full local product, eigenvalues, inverses,
braid, minimal polynomial, and one-parameter specialization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import DESK, case, order, rep, ring, rvm
from rsqg.matrices import PairAction, SMatrix, flip_map, kron, scalar_of
from rsqg.pairing import PairingContext
from rsqg.report import transpose_reflection
from rsqg.rmatrix import (
    CoefficientTables,
    check_braid,
    check_eigenvalues,
    check_intertwining,
    check_inverse,
    check_min_poly,
    check_route_equivalence,
    check_weight_preservation,
    eigenvalues,
    ftilde,
    local_theta_factor,
    rbar_inverse_exchanged,
    rbar_inverse_printed,
    rhat_explicit,
    rhat_factorized,
    specialize_and_compare,
    theta_product,
    verify_tables,
)

ROUTE_CASES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]


def units(R, N):
    def unit(i, j):
        return SMatrix.from_entries(R, N, N, [(i - 1, j - 1, R.one)])

    return unit


def test_explicit_entries():
    R = ring()
    b = rep("B", 2)
    rh = rhat_explicit(b)
    N, n = b.N, b.n
    # coefficient of E_{n+1,n+1} ⊗ E_{n+1,n+1} is 1
    mid = (n + 1 - 1) * N + (n + 1 - 1)
    assert rh.get(mid, mid).is_one()
    # diagonal E_{ii} ⊗ E_{ii} coefficient is r^{-1}s away from the middle
    idx = 0 * N + 0
    assert rh.get(idx, idx) == R.mono(r=-1, s=1)
    tab = CoefficientTables(b)
    assert tab.a(1, 2) == R.mono(r=-1, s=-1)
    assert tab.sigma(n + 1) == 0
    rha = rhat_explicit(rep("A", 2))
    assert rha.get(0, 0).is_one()


def test_tables():
    for family, rank in ROUTE_CASES:
        out = verify_tables(case(family, rank).rep, case(family, rank).rhat)
        assert out.ok(), [it.witness for it in out.items]


@pytest.mark.parametrize("family,rank", ROUTE_CASES)
def test_route_equivalence(family, rank):
    c = case(family, rank)
    out = check_route_equivalence(rep(family, rank), c.rhat, c.theta)
    assert out.ok(), [it.witness for it in out.items]


# -- the printed closed forms for the full local product ----------------------


def theta_closed_form(r, R, k=1):
    """The printed expansion of the ordered product over the blocks ≥ k."""
    N, n = r.N, r.n
    unit = units(R, N)
    pr = r.prime
    acc = SMatrix.identity(R, N * N)
    fam = r.family
    if fam == "A":
        c = R.mono(s=1) - R.mono(r=1)
        for i in range(k, N + 1):
            for j in range(i + 1, N + 1):
                acc = acc + kron(unit(j, i), unit(i, j)).scale(c)
        return acc
    if fam == "B":
        c = (R.mono(s=2) - R.mono(r=2)) * R.mono(r=-1, s=-1)
        for i in range(k, n + 1):
            acc = acc + kron(unit(pr(i), i), unit(i, pr(i))).scale(
                c * (R.mono(r=-1, s=1) - R.mono(r=2 * (n - i), s=2 * (i - n)))
            )
            acc = acc + kron(unit(n + 1, i), unit(i, n + 1)).scale(c)
            acc = acc + kron(unit(n + 1, i), unit(n + 1, pr(i))).scale(-c * R.mono(r=2 * (n - i)))
            acc = acc + kron(unit(pr(i), n + 1), unit(i, n + 1)).scale(-c * R.mono(s=-2 * (n - i)))
            acc = acc + kron(unit(pr(i), n + 1), unit(n + 1, pr(i))).scale(c)
        for i in range(k, n + 1):
            for j in range(i + 1, n + 1):
                acc = acc + kron(unit(j, i), unit(i, j)).scale(c * R.mono(r=1, s=1))
                acc = acc + kron(unit(j, i), unit(pr(j), pr(i))).scale(
                    -c * R.mono(r=2 * (j - i) - 1, s=1)
                )
                acc = acc + kron(unit(pr(i), pr(j)), unit(i, j)).scale(
                    -c * R.mono(r=-1, s=2 * (i - j) + 1)
                )
                acc = acc + kron(unit(pr(i), pr(j)), unit(pr(j), pr(i))).scale(
                    c * R.mono(r=-1, s=-1)
                )
                acc = acc + kron(unit(pr(j), i), unit(i, pr(j))).scale(c * R.mono(r=-1, s=-1))
                acc = acc + kron(unit(pr(j), i), unit(j, pr(i))).scale(
                    -c * R.mono(r=2 * (n - i), s=2 * (j - n))
                )
                acc = acc + kron(unit(pr(i), j), unit(i, pr(j))).scale(
                    -c * R.mono(r=2 * (n - j), s=2 * (i - n))
                )
                acc = acc + kron(unit(pr(i), j), unit(j, pr(i))).scale(c * R.mono(r=1, s=1))
        return acc
    c = (R.mono(s=1) - R.mono(r=1)) * R.mono(r=-1, s=-1)
    for i in range(k, n + 1):
        if fam == "C":
            diag = R.mono(r=n - i + 1, s=i - n) + R.mono(s=1)
        else:
            diag = R.mono(s=1) - R.mono(r=n - i, s=i + 1 - n)
        acc = acc + kron(unit(pr(i), i), unit(i, pr(i))).scale(c * diag)
    for i in range(k, n + 1):
        for j in range(i + 1, n + 1):
            acc = acc + kron(unit(j, i), unit(i, j)).scale(c * R.mono(r=1, s=1))
            acc = acc + kron(unit(j, i), unit(pr(j), pr(i))).scale(-c * R.mono(r=j - i, s=1))
            acc = acc + kron(unit(pr(i), pr(j)), unit(i, j)).scale(-c * R.mono(s=i - j + 1))
            acc = acc + kron(unit(pr(i), pr(j)), unit(pr(j), pr(i))).scale(c)
            acc = acc + kron(unit(pr(j), i), unit(i, pr(j))).scale(c)
            acc = acc + kron(unit(pr(i), j), unit(j, pr(i))).scale(c * R.mono(r=1, s=1))
            if fam == "C":
                acc = acc + kron(unit(pr(j), i), unit(j, pr(i))).scale(
                    c * R.mono(r=n + 1 - i, s=j - n)
                )
                acc = acc + kron(unit(pr(i), j), unit(i, pr(j))).scale(
                    c * R.mono(r=n - j + 1, s=i - n)
                )
            else:
                acc = acc + kron(unit(pr(j), i), unit(j, pr(i))).scale(
                    -c * R.mono(r=n - i, s=j + 1 - n)
                )
                acc = acc + kron(unit(pr(i), j), unit(i, pr(j))).scale(
                    -c * R.mono(r=n - j, s=i + 1 - n)
                )
    return acc


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)])
def test_theta_closed_form(family, rank):
    r = rep(family, rank)
    got = theta_product(r, order(family, rank), rvm(family, rank))
    assert got == theta_closed_form(r, ring())


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4), ("A", 3)])
def test_theta_partial_products(family, rank):
    """Every truncation of the ordered product matches the printed block
    recursion formulas, not just the full product."""
    r = rep(family, rank)
    o = order(family, rank)
    v = rvm(family, rank)
    top = rank if family != "D" else rank - 1
    for k in range(1, top + 1):
        got = theta_product(r, o, v, from_block=k)
        assert got == theta_closed_form(r, ring(), k=k), f"block {k}"


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_theta_product_is_the_ordered_product_of_local_factors(family, rank):
    """The unipotent updates acc + acc·N_γ give the ordered product of the
    Θ_γ, for the full product and every block truncation."""
    r, o, v = rep(family, rank), order(family, rank), rvm(family, rank)
    pc = PairingContext(o, r.ring)
    for k in range(1, rank + 1):
        want = SMatrix.identity(r.ring, r.N * r.N)
        for gamma in o.decreasing():
            if gamma.i >= k:
                want = want @ local_theta_factor(v, gamma, pc.pairing_from_c)
        assert theta_product(r, o, v, from_block=k, context=pc) == want, f"block {k}"


def test_local_factor_term_count():
    """Two terms when the square vanishes, three when the cube does."""
    from rsqg.pairing import c_gamma, root_d
    from rsqg.scalars import rs_factorial

    r = rep("B", 2)
    R = r.ring
    o = order("B", 2)
    v = rvm("B", 2)

    def pairing_fn(gamma, m):
        d = root_d(r.rs, gamma)
        return (
            R.mono(s=-Fraction(d * m * (m - 1), 2))
            * c_gamma(o, gamma, R) ** m
            * rs_factorial(R, m, d=d)
        )

    b12 = r.rs.by_label[("b", 1, 2)]
    g12 = r.rs.by_label[("g", 1, 2)]
    f_b = local_theta_factor(v, b12, pairing_fn)
    f_g = local_theta_factor(v, g12, pairing_fn)
    ident = SMatrix.identity(R, r.N * r.N)
    assert (f_b - ident).nnz() == v.f_of(b12).nnz() * v.e_of(b12).nnz()
    # the short-chain root has a nonvanishing square: strictly more terms
    assert (f_g - ident).nnz() > v.f_of(g12).nnz() * v.e_of(g12).nnz()


@pytest.mark.parametrize("family,rank", ROUTE_CASES)
def test_eigenvalues_and_min_poly(family, rank):
    r = rep(family, rank)
    assert check_eigenvalues(r, case(family, rank).rhat).ok()
    assert check_min_poly(r, case(family, rank).rhat).ok()


def test_eigenvalue_scalars():
    R = ring()
    assert eigenvalues(rep("B", 2))[2] == R.mono(r=4, s=-4)
    lam = eigenvalues(rep("C", 2))
    assert lam[2] == -R.mono(r=Fraction(5, 2), s=-Fraction(5, 2))
    assert eigenvalues(rep("D", 3))[2] == R.mono(r=Fraction(5, 2), s=-Fraction(5, 2))
    assert eigenvalues(rep("A", 2)) == [R.one, -R.mono(r=1, s=-1)]


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3), ("A", 2)])
def test_inverse(family, rank):
    c = case(family, rank)
    out = check_inverse(rep(family, rank), c.rhat, c.rbar, c.theta)
    assert out.ok(), [it.witness for it in out.items]


def test_inverse_printed_entries():
    R = ring()
    b = rep("B", 2)
    rb = rbar_inverse_printed(b)
    # first term: r s^{-1} Σ_{i≠n+1} E_ii ⊗ E_ii
    assert rb.get(0, 0) == R.mono(r=1, s=-1)
    mid = (b.n + 1 - 1) * b.N + (b.n + 1 - 1)
    assert rb.get(mid, mid).is_one()


def test_exchange_route_on_sample_entry():
    """The parameter exchange acts entrywise: r^k s^l E_ij ↦ r^l s^k E_ij."""
    R = ring()
    m = SMatrix.from_entries(R, 2, 2, [(0, 1, R.mono(r=2, s=-1))])
    assert m.exchanged_params() == SMatrix.from_entries(R, 2, 2, [(0, 1, R.mono(r=-1, s=2))])
    assert rbar_inverse_exchanged(rep("C", 2), case("C", 2).theta) == rbar_inverse_printed(rep("C", 2))


@pytest.mark.parametrize("family,rank", DESK)
def test_factorized_routes_are_the_products_they_stand_for(family, rank):
    """Θ∘f̃∘flip and flip∘f̃⁻¹∘Θ', formed by moving and scaling entries, are
    the matrix products, also for a Θ that is not the certified one."""
    r = rep(family, rank)
    flip, twist = flip_map(r.ring, r.N), ftilde(r)
    theta = case(family, rank).theta
    for t in (theta, theta + kron(r.e[1], r.f[1]).scale(r.ring.mono(r=1))):
        assert rhat_factorized(r, t) == t @ twist @ flip
        assert rbar_inverse_exchanged(r, t) == flip @ twist.diagonal_inv() @ t.exchanged_params()


@pytest.mark.parametrize("family,rank", DESK)
def test_intertwining(family, rank):
    assert check_intertwining(rep(family, rank), case(family, rank).rhat).ok()


@pytest.mark.parametrize("family,rank", DESK)
def test_weight_preservation(family, rank):
    assert check_weight_preservation(rep(family, rank), case(family, rank).rhat).ok()


@pytest.mark.parametrize("family,rank", DESK)
def test_braid(family, rank):
    assert check_braid(rep(family, rank), case(family, rank).rhat).ok()


def _basis3(k: int, N: int) -> str:
    a, bc = divmod(k, N * N)
    return f"v_{a + 1}⊗v_{bc // N + 1}⊗v_{bc % N + 1}"


def _matrix_form_braid_witness(rhat: SMatrix, N: int) -> str:
    """The braid relation in matrix form: both sides as V⊗³ matrices from
    kron and an identity, and the witness the columnwise check must give for
    them: the smallest column whose sides differ, at its smallest differing
    row, with both values there."""
    ident = SMatrix.identity(rhat.ring, N)
    r12, r23 = kron(rhat, ident), kron(ident, rhat)
    lhs, rhs = r12 @ r23 @ r12, r23 @ r12 @ r23
    for col in range(N**3):
        for row in range(N**3):
            if lhs.get(row, col) != rhs.get(row, col):
                where = f"column {_basis3(col, N)}, row {_basis3(row, N)}"
                return f"{where}: LHS {lhs.get(row, col)} vs RHS {rhs.get(row, col)}"
    return ""


def _stored_entry_times_r(m: SMatrix, index: int) -> SMatrix:
    i, j, v = m.entries()[index]
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v * (m.ring.mono(r=1) - m.ring.one))])


@pytest.mark.parametrize("change", ["none", "first entry times r", "last entry times r"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_columnwise_braid_matches_the_matrix_form(family, rank, change):
    """The columnwise check gives the verdict and the witness that the V⊗³
    matrix products give, on R̂ and with its first or last stored entry
    times r."""
    c = case(family, rank)
    rhat = c.rhat
    if change != "none":
        rhat = _stored_entry_times_r(rhat, 0 if change.startswith("first") else -1)
    (item,) = check_braid(c.rep, rhat).items
    assert item.witness == _matrix_form_braid_witness(rhat, c.rep.N)
    assert item.ok == (change == "none")
    if (family, rank, change) == ("B", 2, "first entry times r"):
        assert item.witness.startswith("column v_1⊗v_2⊗v_4, row v_5⊗v_1⊗v_1: LHS ")


def _braid_lhs_columns(rhat: SMatrix, N: int, left: bool) -> list[dict]:
    """Every column of R̂₁₂R̂₂₃R̂₁₂ (or, not ``left``, R̂₂₃R̂₁₂R̂₂₃) on V⊗³."""
    r12, r23 = PairAction(rhat, N, (1, 2)), PairAction(rhat, N, (2, 3))
    sides = (r12, r23, r12) if left else (r23, r12, r23)
    out = []
    for col in range(N**3):
        vec = sides[-1].column(col)
        for op in sides[-2::-1]:
            vec = op(vec)
        out.append({row: scalar_of(rhat.ring, v) for row, v in vec.items()})
    return out


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3), ("D", 4), ("B", 5)])
def test_reflected_braid_left_side_is_the_right_side(family, rank):
    """Where R̂ has a transpose reflection D (P·R̂ᵀ·P = Π·G·R̂·G⁻¹·Π), the
    right side R̂₂₃R̂₁₂R̂₂₃ is the reflected left side, column by column:
    RHS[u, v] = LHS[τv, τu]·g(v)/g(u), with τ(a, b, c) = (Jc, Jb, Ja) and
    g = d⊗d⊗d."""
    c = case(family, rank)
    N = c.rep.N
    d = transpose_reflection((c.rhat,), flip=True)
    assert d is not None

    def tau(k):
        a, b, e = k // (N * N), k // N % N, k % N
        return ((N - 1 - e) * N + N - 1 - b) * N + N - 1 - a

    g = lambda k: d[k // (N * N)] * d[k // N % N] * d[k % N]
    reflected: list[dict] = [{} for _ in range(N**3)]
    for col, column in enumerate(_braid_lhs_columns(c.rhat, N, left=True)):
        for row, v in column.items():
            reflected[tau(row)][tau(col)] = v * g(tau(row)) * g(tau(col)).inv()
    assert reflected == _braid_lhs_columns(c.rhat, N, left=False)


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3)])
def test_lemma_preserving_braid_perturbation_fails_with_the_matrix_form_witness(family, rank):
    """The first stored entry of R̂ and its reflection partner, (k, l) ↦
    (PΠl, PΠk), times r: the transpose reflection still holds with the same
    D, so the one-sided loop runs; it finds the braid relation broken, and
    the witness is the matrix form's."""
    c = case(family, rank)
    N = c.rep.N
    sigma = lambda k: (N - 1 - k % N) * N + N - 1 - k // N
    i, j, _ = c.rhat.entries()[0]
    changed = {(i, j), (sigma(j), sigma(i))}
    r = c.rhat.ring
    rhat = c.rhat + SMatrix.from_entries(r, N * N, N * N, [(a, b, c.rhat.get(a, b) * (r.mono(r=1) - r.one)) for a, b in changed])
    assert transpose_reflection((rhat,), flip=True) == transpose_reflection((c.rhat,), flip=True) is not None
    (item,) = check_braid(c.rep, rhat).items
    assert not item.ok
    assert item.witness == _matrix_form_braid_witness(rhat, N)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_specialization(family, rank):
    c = case(family, rank)
    out = specialize_and_compare(c.rep, c.rhat, c.rz)
    assert out.ok(), [it.line() for it in out.items if not it.ok]
