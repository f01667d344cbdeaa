"""Shared cached builders so expensive objects are constructed once, and
the shared draw of scalar denominators."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from hypothesis import strategies as st

from rsqg.catalogue import CaseContext
from rsqg.lyndon import bracket_tower, lalonde_ram
from rsqg.matrices import SMatrix, kron, pair_actions
from rsqg.pairing import PairingOracle, WordSum
from rsqg.report import first_column_mismatch
from rsqg.rep import build_evaluation, build_fundamental
from rsqg.rmatrix import theta_nilpotent
from rsqg.rootdata import build_root_system, omega_pairing
from rsqg.rootvec import build_root_vector_matrices
from rsqg.scalars import _packed_exp_range, rs_ring


@lru_cache(maxsize=None)
def ring():
    return rs_ring()


@lru_cache(maxsize=None)
def rsys(family, rank):
    return build_root_system(family, rank)


@lru_cache(maxsize=None)
def rep(family, rank):
    return build_fundamental(family, rank)


@lru_cache(maxsize=None)
def order(family, rank):
    return lalonde_ram(rsys(family, rank))


@lru_cache(maxsize=None)
def erep(family, rank):
    return build_evaluation(family, rank)


@lru_cache(maxsize=None)
def rvm(family, rank):
    return build_root_vector_matrices(rep(family, rank), order(family, rank))


@lru_cache(maxsize=None)
def case(family, rank):
    """The shared per-case operators (R̂, R̄, Θ, R̂(z), ...) the checks take."""
    return CaseContext(family, rank)


DESK = [("A", 2), ("B", 2), ("C", 2), ("D", 3)]


def flip_map(ring, n: int) -> SMatrix:
    """The flip v_i ⊗ v_j ↦ v_j ⊗ v_i on V ⊗ V, as a matrix."""
    return SMatrix(ring, n * n, n * n, {j * n + i: {i * n + j: ring.one} for i in range(n) for j in range(n)})


def r_of(rhat: SMatrix) -> SMatrix:
    """R = R̂∘τ, τ the flip, as a matrix product (its own inverse: R̂ = R∘τ)."""
    return rhat @ flip_map(rhat.ring, isqrt(rhat.nrows))


def spectral_factors(rz: SMatrix) -> tuple[SMatrix, SMatrix, SMatrix]:
    """R(x), R(y) and R(xy) over (r, s, x, y) for R(z) = R̂(z)∘τ, from
    ``rz`` = R̂(z) over (r, s, z): R(z) as a matrix product, then z ↦ x, y,
    xy."""
    ring = rs_ring("x", "y")
    x, y = ring.atom("x"), ring.atom("y")
    r = r_of(rz)
    return tuple(r.substituted({"z": z}, ring=ring) for z in (x, y, x * y))


def v3_sides(r12: SMatrix, r13: SMatrix, r23: SMatrix) -> tuple[SMatrix, SMatrix]:
    """R₁₂R₁₃R₂₃ and R₂₃R₁₃R₁₂ on V⊗V⊗V as V⊗³ matrices, from kron and the
    flip of factors 2 and 3, for operators on V⊗V placed on those
    factors."""
    ring, N = r12.ring, isqrt(r12.nrows)
    ident = SMatrix.identity(ring, N)
    mid_flip = kron(ident, flip_map(ring, N))
    a12, a23 = kron(r12, ident), kron(ident, r23)
    a13 = mid_flip @ kron(r13, ident) @ mid_flip
    return a12 @ a13 @ a23, a23 @ a13 @ a12


def reversal(ring, N: int) -> SMatrix:
    """S: v_a⊗v_b⊗v_c ↦ v_c⊗v_b⊗v_a on V⊗V⊗V, as a matrix."""
    reverse = lambda k: (k % N * N + k // N % N) * N + k // (N * N)
    return SMatrix(ring, N**3, N**3, {reverse(k): {k: ring.one} for k in range(N**3)})


def coproduct3(rep, kind: str, i: int) -> SMatrix:
    """Δ⁽²⁾(g) = (Δ⊗1)Δ(g) on V⊗V⊗V for the generator ``kind``_i, built with
    kron from the tables of V and of V⊗V; asserted to be (1⊗Δ)Δ(g) too."""
    sq, N = rep.square, rep.N
    one, one2 = SMatrix.identity(rep.ring, N), SMatrix.identity(rep.ring, N * N)
    if kind == "e":
        out, other = kron(sq.e[i], one) + kron(sq.omega[i], rep.e[i]), kron(rep.e[i], one2) + kron(rep.omega[i], sq.e[i])
    elif kind == "f":
        out, other = kron(one2, rep.f[i]) + kron(sq.f[i], rep.omega_prime[i]), kron(one, sq.f[i]) + kron(rep.f[i], sq.omega_prime[i])
    else:
        out, other = kron(sq.table(kind)[i], rep.table(kind)[i]), kron(rep.table(kind)[i], sq.table(kind)[i])
    assert out == other
    return out


def generating_columns(N: int) -> range:
    """The flattened indices of the N² columns v_N⊗v_b⊗v_c of V⊗V⊗V."""
    return range((N - 1) * N * N, N**3)


def matrix_form_witness(lhs: SMatrix, rhs: SMatrix, columns) -> str:
    """The witness the Yang–Baxter decider must give for the V⊗³ matrices
    ``lhs`` and ``rhs`` on ``columns``: the first of them whose sides
    differ, at its smallest differing row, with both values there."""
    N = round(lhs.nrows ** (1 / 3))
    assert N**3 == lhs.nrows
    basis3 = lambda k: f"v_{k // (N * N) + 1}⊗v_{k // N % N + 1}⊗v_{k % N + 1}"
    for col in columns:
        for row in range(N**3):
            if lhs.get(row, col) != rhs.get(row, col):
                return f"column {basis3(col)}, row {basis3(row)}: LHS {lhs.get(row, col)} vs RHS {rhs.get(row, col)}"
    return ""


def full_reference_witness(r12: SMatrix, r13: SMatrix, r23: SMatrix) -> str:
    """The two-sided reference of the Yang–Baxter equation on all N³
    columns: R₁₂R₁₃R₂₃ against R₂₃R₁₃R₁₂, both computed, one column at a
    time, by ``first_column_mismatch`` over ``range(N**3)``."""
    N = isqrt(r12.nrows)
    chain = pair_actions(N, ((r12, (1, 2)), (r13, (1, 3)), (r23, (2, 3))))
    return first_column_mismatch(chain, range(N**3))


def local_theta_factor(rvm, gamma, pairing_fn) -> SMatrix:
    """Θ_γ = Σ_m (f_γ^m, e_γ^m)^{-1} ρ(f_γ)^m ⊗ ρ(e_γ)^m, truncated at matrix
    nilpotency: the identity plus ``rmatrix.theta_nilpotent``."""
    rep = rvm.rep
    return SMatrix.identity(rep.ring, rep.N * rep.N) + theta_nilpotent(rvm, gamma, pairing_fn)


# -- the free-algebra words of the root vectors, for the term-by-term reference --


def concatenate(x: WordSum, y: WordSum) -> WordSum:
    out = WordSum()
    for v, cx in x.items():
        for w, cy in y.items():
            out.add(v + w, cx * cy)
    return out


@lru_cache(maxsize=None)
def free_tower(family, rank, side):
    """e_γ (``side`` "e") or f_γ ("f") of every positive root as words in
    the free algebra, keyed by ``root.alpha``: ``lyndon.bracket_tower`` with
    concatenation as the product."""
    rs, R = rsys(family, rank), ring()
    letters = {i: WordSum({(i,): R.one}) for i in range(1, rank + 1)}
    return bracket_tower(order(family, rank), letters, lambda lam, mu: omega_pairing(rs, R, lam, mu), concatenate, side)


def free_monomial(family, rank, exps, side) -> WordSum:
    """The ordered monomial of exponents ``exps`` over ``order.decreasing()``
    as free-algebra words."""
    out = WordSum({(): ring().one})
    for rt, m in zip(order(family, rank).decreasing(), exps):
        for _ in range(m):
            out = concatenate(out, free_tower(family, rank, side)[rt.alpha])
    return out


@lru_cache(maxsize=None)
def oracle(family, rank) -> PairingOracle:
    return PairingOracle(rsys(family, rank), ring())


def reference_pairing(family, rank, fexps, eexps):
    """The pairing of two ordered monomials, term by term on their words."""
    y, x = free_monomial(family, rank, fexps, "f"), free_monomial(family, rank, eexps, "e")
    return oracle(family, rank).hopf_pair(y, x)


def z_range(v, name: str) -> tuple[int, int]:
    """Smallest and largest exponent of the named variable in the numerator
    of the scalar v ((0, 0) for 0)."""
    if not v._num:
        return 0, 0
    i = v.ring.index[name]
    return _packed_exp_range(v._num, i)


# -- the denominators the scalar kernel accepts ---------------------------------

# Φ_k(t) for k ≤ 6, coefficients from degree 0 up
CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1), 6: (1, -1, 1)}
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def tuple_mul(a: dict, b: dict) -> dict:
    """Product of term dicts keyed by exponent tuples."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@st.composite
def denominators(draw, ring, forms=(0, 2), ks=tuple(CYCLOTOMIC), exps=(-1, 1), variables=None, coeffs=COEFFS):
    """A denominator the kernel accepts, as a term dict keyed by internal
    exponent tuples: a constant from ``coeffs``, times a monomial with
    exponents in the range ``exps``, times a number in the range ``forms``
    of cyclotomic forms Φ_k(u) and Φ_k(u, v) = v^φ(k)·Φ_k(u/v), k in
    ``ks``.  The variables of a form are one of the name tuples in
    ``variables``, by default any variable and any pair.  Built from the
    table of Φ_k by tuple arithmetic, not by the kernel."""
    nv = ring.nvars
    if variables is None:
        variables = [(u,) for u in ring.names] + [(u, v) for u in ring.names for v in ring.names if u != v]
    mono = draw(st.tuples(*[st.integers(*exps)] * nv))
    out = {mono: draw(st.sampled_from(coeffs))}
    for _ in range(draw(st.integers(*forms))):
        phi = CYCLOTOMIC[draw(st.sampled_from(ks))]
        names = draw(st.sampled_from(variables))
        form = {}
        for d, c in enumerate(phi):
            e = [0] * nv
            e[ring.index[names[0]]] += d
            if len(names) == 2:
                e[ring.index[names[1]]] += len(phi) - 1 - d
            if c:
                form[tuple(e)] = c
        out = tuple_mul(out, form)
    return out
