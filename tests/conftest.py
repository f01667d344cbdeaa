"""Shared cached builders so expensive objects are constructed once, and
the shared draw of scalar denominators."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from hypothesis import strategies as st

from rsqg.catalogue import CaseContext
from rsqg.lyndon import bracket_tower, lalonde_ram
from rsqg.matrices import SMatrix, flip_map
from rsqg.pairing import PairingOracle, WordSum
from rsqg.rep import build_evaluation, build_fundamental
from rsqg.rmatrix import theta_nilpotent
from rsqg.rootdata import build_root_system, omega_pairing
from rsqg.rootvec import build_root_vector_matrices
from rsqg.scalars import _packed_exp_ranges, rs_ring


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


def r_of(rhat: SMatrix) -> SMatrix:
    """R = R̂∘τ, τ the flip, as a matrix product (its own inverse: R̂ = R∘τ)."""
    return rhat @ flip_map(rhat.ring, isqrt(rhat.nrows))


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
    return _packed_exp_ranges(v._num, i, i)[0]


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
