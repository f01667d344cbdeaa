"""First fundamental matrix representations of the two-parameter quantum
groups of classical type, their evaluation extensions to the quantum affine
algebra, and mechanical verification of all defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from fractions import Fraction

from .matrices import SMatrix, kron, mat_vec
from .report import Report, first_mismatch, product_mismatch
from .rootdata import (
    MIN_AFFINE_RANK,
    AffineData,
    RootSystem,
    affine_data,
    build_root_system,
    fundamental_weights,
    presentation,
    weight_pairing,
)
from .scalars import Scalar, ScalarRing, rs_binomial, rs_ring


KINDS = ("e", "f", "omega", "omega-prime")


class _Module:
    """What a module offers over its generator tables e, f, omega and
    omega_prime: the table of one generator kind, and the tensor square."""

    def table(self, kind: str) -> dict[int, SMatrix]:
        """The generator table of ``kind``, one of ``KINDS``."""
        if kind not in KINDS:
            raise KeyError(kind)
        return getattr(self, kind.replace("-", "_"))

    @cached_property
    def square(self) -> TensorProduct:
        """V⊗V for this module V, made on first use and kept: every check
        on V⊗V reads this one."""
        return TensorProduct(self, self)


@dataclass
class Representation(_Module):
    """Per-generator matrices of the first fundamental module, with the
    ε-coordinate weight of each basis vector."""

    rs: RootSystem
    ring: ScalarRing
    N: int
    e: dict[int, SMatrix]
    f: dict[int, SMatrix]
    omega: dict[int, SMatrix]
    omega_prime: dict[int, SMatrix]
    weights: list[tuple[Fraction, ...]]

    @property
    def family(self) -> str:
        return self.rs.family

    @property
    def n(self) -> int:
        return self.rs.n

    def prime(self, i: int) -> int:
        return self.N + 1 - i

    def omega_of(self, alpha) -> SMatrix:
        """ω_μ for μ over the simple roots (integer coefficients)."""
        return self._cartan_of(self.omega, alpha)

    def omega_prime_of(self, alpha) -> SMatrix:
        """ω'_μ for μ over the simple roots (integer coefficients)."""
        return self._cartan_of(self.omega_prime, alpha)

    def _cartan_of(self, table: dict[int, SMatrix], alpha) -> SMatrix:
        out = SMatrix.identity(self.ring, self.N)
        for k, c in enumerate(alpha):
            m = table[k + 1] if c >= 0 else table[k + 1].diagonal_inv()
            for _ in range(abs(c)):
                out = out @ m
        return out


def _diag(ring: ScalarRing, N: int, listed: dict[int, Scalar]) -> SMatrix:
    """The N×N diagonal matrix with the ``listed`` entries (1-based) and 1
    elsewhere."""
    return SMatrix.from_entries(ring, N, N, [(j - 1, j - 1, listed.get(j, ring.one)) for j in range(1, N + 1)])


def _rs_pairs(ring: ScalarRing, N: int, js, d: int) -> dict[int, Scalar]:
    """(rs)^{-d} at each j in ``js`` and (rs)^d at its partner j' = N+1-j."""
    lo, hi = ring.mono(r=-d, s=-d), ring.mono(r=d, s=d)
    return {**{j: lo for j in js}, **{N + 1 - j: hi for j in js}}


def build_fundamental(family: str, rank: int, ring: ScalarRing | None = None) -> Representation:
    """The N-dimensional module: N = n+1 (A), 2n+1 (B), 2n (C and D).

    On a vector of weight λ, ω_i acts by (ω'_λ, ω_i) and ω'_i by
    (ω'_i, ω_λ)^{-1}.  As (ω'_λ, ω_μ) = r^⟨λ,μ⟩ s^{-⟨μ,λ⟩}, the second is the
    first under the exchange r ↔ s, so each ω'_i is built as the exchanged
    ω_i."""
    rs = build_root_system(family, rank)
    ring = ring if ring is not None else rs_ring()
    n, N = rs.n, rs.N
    R = lambda **p: ring.mono(**p)
    one = ring.one

    def mat(*terms):
        return SMatrix.from_entries(ring, N, N, [(i - 1, j - 1, c) for (i, j, c) in terms])

    diag = lambda listed: _diag(ring, N, listed)
    pr = lambda i: N + 1 - i
    e: dict[int, SMatrix] = {}
    f: dict[int, SMatrix] = {}
    om: dict[int, SMatrix] = {}

    if family == "A":
        for i in range(1, n + 1):
            e[i] = mat((i, i + 1, one))
            f[i] = mat((i + 1, i, one))
            om[i] = diag({i: R(r=1), i + 1: R(s=1)})
    else:
        # below node n the three types agree up to d = d_i
        for i in range(1, n):
            d = rs.d[i - 1]
            e[i] = mat((i, i + 1, one), (pr(i + 1), pr(i), -one))
            f[i] = mat((i + 1, i, one), (pr(i), pr(i + 1), -R(r=-d, s=-d)))
            om[i] = diag({i: R(r=d), i + 1: R(s=d), pr(i): R(r=-d), pr(i + 1): R(s=-d)})
        # ω_n is (rs)^{∓1} on the v_j and v_j' below its own entries
        if family == "B":
            e[n] = mat((n, n + 1, one), (n + 1, pr(n), -one))
            coeff = R(r=-1) + R(s=-1)
            f[n] = mat((n + 1, n, coeff), (pr(n), n + 1, -coeff))
            om[n] = diag({**_rs_pairs(ring, N, range(1, n), 1), n: R(r=1, s=-1), pr(n): R(r=-1, s=1)})
        elif family == "C":
            e[n] = mat((n, pr(n), one))
            f[n] = mat((pr(n), n, R(r=-1, s=-1)))
            om[n] = diag({**_rs_pairs(ring, N, range(1, n), 1), n: R(r=1, s=-1), pr(n): R(r=-1, s=1)})
        else:
            e[n] = mat((n - 1, pr(n), R(r=-1, s=-1)), (n, pr(n - 1), -one))
            f[n] = mat((pr(n), n - 1, one), (pr(n - 1), n, -one))
            om[n] = diag({**_rs_pairs(ring, N, range(1, n - 1), 1), n - 1: R(s=-1), n: R(r=1), pr(n - 1): R(s=1), pr(n): R(r=-1)})

    omp = {i: m.exchanged_params() for i, m in om.items()}
    return Representation(rs, ring, N, e, f, om, omp, fundamental_weights(rs))


# ---------------------------------------------------------------------------
# defining relations, on the nodes of any module
# ---------------------------------------------------------------------------
#
# A module is anything with a ring, a dimension N and generator tables e, f,
# omega, omega_prime keyed by node in ascending order: the fundamental module
# on the nodes 1..n, the evaluation module on 0..n.  Both algebras have the
# same presentation over their nodes, given by Ω_ij = (ω'_i, ω_j), the Cartan
# matrix and the symmetrizer d, which ``rootdata.presentation`` builds for
# both.  The one-parameter U_q is the case Ω_ij = q^{(α_i,α_j)} with
# ω'_i = ω_i^{-1}, its own gaps q_i - q_i^{-1} and Serre coefficients
# [m k]_{q_i}; ``embed`` checks it through these helpers, on the same
# ``presentation`` at that pairing.


def _cartan_commute(mod) -> str:
    """The ω_i and ω'_j commute pairwise and each is invertible: each is
    diagonal, with every diagonal entry a unit of the Laurent ring, a
    nonzero constant times a monomial, and diagonal matrices commute."""
    w = ""
    for i in mod.omega:
        for name, m in ((f"omega[{i}]", mod.omega[i]), (f"omega'[{i}]", mod.omega_prime[i])):
            w = w or _not_a_unit_diagonal(name, m, mod.N)
    return w


def _not_a_unit_diagonal(name: str, m: SMatrix, N: int) -> str:
    """"" when ``m`` is diagonal with a Laurent unit at every diagonal
    entry, else the first entry that is not."""
    for a, row in sorted(m.rows.items()):
        for b in sorted(row):
            if b != a:
                return f"{name} has an entry off the diagonal at row v_{a + 1}, column v_{b + 1}"
    for a in range(N):
        v = m.get(a, a)
        if not v.is_monomial():
            return f"{name} on v_{a + 1} is {v}, not a unit of the Laurent ring"
    return ""


def _cartan_conj(mod, Om: dict, prime: bool) -> str:
    """ω_i e_j = Ω_ji e_j ω_i and ω_i f_j = Ω_ji^{-1} f_j ω_i; with ``prime``,
    ω'_i e_j = Ω_ij^{-1} e_j ω'_i and ω'_i f_j = Ω_ij f_j ω'_i; each is decided
    on the support of e_j or f_j (``product_mismatch``)."""
    gens = mod.omega_prime if prime else mod.omega
    w = ""
    for i in mod.e:
        for j in mod.e:
            c = Om[(i, j)].inv() if prime else Om[(j, i)]
            w = w or product_mismatch((gens[i], mod.e[j]), (mod.e[j], gens[i]), mod.N, c)
            w = w or product_mismatch((gens[i], mod.f[j]), (mod.f[j], gens[i]), mod.N, c.inv())
    return w


def _rs_gaps(ring: ScalarRing, d: dict) -> dict:
    """r^{d_i} - s^{d_i} at each node i of ``d``."""
    return {i: ring.mono(r=di) - ring.mono(s=di) for i, di in d.items()}


def _ef_commutator(mod, gaps: dict) -> str:
    """[e_i, f_j] = δ_ij (ω_i - ω'_i)/gaps[i], with the gap r^{d_i} - s^{d_i}
    of U_{r,s}, or q_i - q_i^{-1} of U_q where ω'_i is ω_i^{-1}."""
    zero = SMatrix.zero(mod.ring, mod.N, mod.N)
    w = ""
    for i in mod.e:
        for j in mod.e:
            comm = mod.e[i] @ mod.f[j] - mod.f[j] @ mod.e[i]
            if i != j:
                w = w or first_mismatch(comm, zero, mod.N)
            else:
                w = w or first_mismatch(comm, (mod.omega[i] - mod.omega_prime[i]).scale(gaps[i].inv()), mod.N)
    return w


def serre_sum(x: dict[int, SMatrix], i: int, j: int, m: int, coeff) -> SMatrix:
    """Σ_k (-1)^k coeff(k) x_i^{m-k} x_j x_i^k over k = 0..m, from the
    products x_i^t x_j (t ≤ m) and the powers x_i^k (k ≥ 1): 3m − 1
    matrix products, none by the identity."""
    xi = x[i]
    left = [x[j]]  # left[t] = x_i^t x_j
    for _ in range(m):
        left.append(xi @ left[-1])
    acc = left[m].scale(coeff(0))
    power = xi
    for k in range(1, m + 1):
        if k > 1:
            power = power @ xi
        c = coeff(k)
        acc = acc + (left[m - k] @ power).scale(-c if k % 2 else c)
    return acc


def _rs_serre_coefficients(ring: ScalarRing, Om: dict, cartan: dict, d: dict):
    """The coefficient factory of the two-parameter Serre sums: for (tag, i,
    j) with m = 1 - c_ij, k ↦ [m k]_{r_i,s_i} (r_i s_i)^{k(k-1)/2} t^k, where
    the twist t is Ω_ji s^{d_i c_ij} on the e side and its transpose
    Ω_ij s^{d_i c_ij} on the f side; on the finite nodes this is
    (rs)^{⟨α_j,α_i⟩}, resp. (rs)^{⟨α_i,α_j⟩} (only type D separates the two)."""
    binomial = cache(lambda m, k, di: rs_binomial(ring, m, k, d=di))

    def coefficients(tag: str, i: int, j: int):
        m, di = 1 - cartan[(i, j)], d[i]
        ri_si = ring.mono(r=di, s=di)
        twist = (Om[(j, i)] if tag == "e" else Om[(i, j)]) * ring.mono(s=di * cartan[(i, j)])
        return lambda k: binomial(m, k, di) * ri_si ** (k * (k - 1) // 2) * twist**k

    return coefficients


def _serre(mod, cartan: dict, coefficients, square) -> str:
    """For i ≠ j and m = 1 - c_ij, the Serre sums
    Σ_k (-1)^k c(k) x_i^{m-k} x_j x_i^k vanish for x = e and x = f, with
    c = ``coefficients(tag, i, j)`` ("e" or "f").

    The sums are checked on V and, when they vanish there, on V⊗V, whose e
    and f tables ``square()`` returns as a pair.  On V every term
    x_i^{m-k} x_j x_i^k of a sum with m ≥ 2 is zero by itself, so only V⊗V
    sees the coefficients."""

    def first_nonzero(gens: dict, where: str) -> str:
        w = ""
        for i in mod.e:
            for j in mod.e:
                if i == j:
                    continue
                m = 1 - cartan[(i, j)]
                for tag in ("e", "f"):
                    sm = serre_sum(gens[tag], i, j, m, coefficients(tag, i, j))
                    if not sm.is_zero():
                        zero = SMatrix.zero(mod.ring, sm.nrows, sm.ncols)
                        w = w or f"serre {tag} ({i},{j}){where}: {first_mismatch(sm, zero, mod.N)}"
        return w

    return first_nonzero({"e": mod.e, "f": mod.f}, "") or first_nonzero(dict(zip("ef", square())), " on V⊗V")


def verify_finite_relations(rep: Representation) -> Report:
    """Check the defining relations of the two-parameter quantum group as
    exact matrix identities on the fundamental module."""
    rs, ring, n = rep.rs, rep.ring, rep.n
    out = Report()
    fam = rep.family
    Om, cartan, d = presentation(rs, ring)

    with out.timed("cartan-commute", fam, n) as it:
        it.witness = _cartan_commute(rep)

    with out.timed("cartan-conj-e-f", fam, n) as it:
        it.witness = _cartan_conj(rep, Om, prime=False)

    with out.timed("cartan-prime-conj-e-f", fam, n) as it:
        it.witness = _cartan_conj(rep, Om, prime=True)

    with out.timed("e-f-commutator", fam, n) as it:
        it.witness = _ef_commutator(rep, _rs_gaps(ring, d))

    with out.timed("serre", fam, n) as it:
        it.witness = _serre(rep, cartan, _rs_serre_coefficients(ring, Om, cartan, d), lambda: (rep.square.e, rep.square.f))

    with out.timed("weight-labels", fam, n) as it:
        # ω_i acts on v_k by (ω'_λ, ω_i) and ω'_i by (ω'_i, ω_λ)^{-1}, λ = wt(v_k)
        w = ""
        for k, lam in enumerate(rep.weights):
            for i, alpha in enumerate(rs.simple_eps, 1):
                for name, table, want in (
                    (f"omega[{i}]", rep.omega, weight_pairing(rs, ring, lam, alpha)),
                    (f"omega'[{i}]", rep.omega_prime, weight_pairing(rs, ring, alpha, lam).inv()),
                ):
                    got = table[i].get(k, k)
                    if got != want:
                        w = w or f"{name} on v_{k + 1}: module {got} vs weight pairing {want}"
        it.witness = w

    return out


# ---------------------------------------------------------------------------
# highest weight vectors of V ⊗ V
# ---------------------------------------------------------------------------


@dataclass
class HighestWeightTriple:
    """Coordinate vectors (flattened V ⊗ V) of the highest weight vectors of
    the tensor square; A-type has only the first two."""

    vectors: list[dict[int, Scalar]]


def highest_weight_vectors(rep: Representation) -> HighestWeightTriple:
    ring, n, N = rep.ring, rep.n, rep.N
    fam = rep.family

    def unit(i: int, j: int, c: Scalar) -> tuple[int, Scalar]:
        return ((i - 1) * N + (j - 1), c)

    pr = rep.prime
    w1 = dict([unit(1, 1, ring.one)])
    # w2 = v1 ⊗ v2 - (ω'_{ε1}, ω_1) v2 ⊗ v1, uniformly across types and ranks
    pair11 = weight_pairing(rep.rs, ring, rep.weights[0], rep.rs.simple_eps[0])
    w2 = dict([unit(1, 2, ring.one), unit(2, 1, -pair11)])
    vectors = [w1, w2]
    if fam != "A":
        if fam == "B":
            w3 = dict(
                [unit(i, pr(i), ring.mono(r=2 * (i - 1))) for i in range(1, n + 1)]
                + [unit(n + 1, n + 1, ring.mono(r=2 * n - 1, s=-1))]
                + [unit(pr(i), i, ring.mono(r=2 * n - 1, s=2 * (i - n) - 1)) for i in range(1, n + 1)]
            )
        elif fam == "C":
            w3 = dict(
                [unit(i, pr(i), ring.mono(r=i - 1)) for i in range(1, n + 1)]
                + [unit(pr(i), i, -ring.mono(r=n, s=i - n - 1)) for i in range(1, n + 1)]
            )
        else:
            w3 = dict(
                [unit(i, pr(i), ring.mono(r=i - 1)) for i in range(1, n + 1)]
                + [unit(pr(i), i, ring.mono(r=n - 1, s=i - n)) for i in range(1, n + 1)]
            )
        vectors.append(w3)
    return HighestWeightTriple(vectors)


def coproduct(left, right, kind: str, i: int) -> SMatrix:
    """The generator ``kind``_i ("e", "f", "omega" or "omega-prime") acting on
    left ⊗ right through Δ(e_i) = e_i⊗1 + ω_i⊗e_i, Δ(f_i) = 1⊗f_i + f_i⊗ω'_i,
    Δ(ω_i) = ω_i⊗ω_i and Δ(ω'_i) = ω'_i⊗ω'_i; left and right are modules of
    the same dimension with generator tables over the same nodes.  Called
    only by ``TensorProduct``."""
    if kind in ("omega", "omega-prime"):
        return kron(left.table(kind)[i], right.table(kind)[i])
    ident = SMatrix.identity(left.ring, left.N)
    if kind == "e":
        return kron(left.e[i], ident) + kron(left.omega[i], right.e[i])
    if kind == "f":
        return kron(ident, right.f[i]) + kron(left.f[i], right.omega_prime[i])
    raise ValueError(f"unknown generator kind {kind!r}")


class TensorProduct(_Module):
    """left ⊗ right as a module over the same nodes, the one builder of
    tensor-product generator tables: every generator of ``KINDS`` acts
    through ``coproduct``, and the table of each kind is built, at every
    node, on its first read and kept, so a check that reads Δ(e_i) and
    Δ(ω_i) only builds no other table."""

    def __init__(self, left, right):
        self.rs, self.ring, self.N = left.rs, left.ring, left.N * right.N
        # shallow copies, sharing the tables: a module keeps its square, and a
        # square that referred to its module would make a cycle that keeps
        # both alive past the case, until the cyclic garbage collector runs
        self.left = replace(left)
        self.right = self.left if right is left else replace(right)

    def _coproducts(self, kind: str) -> dict[int, SMatrix]:
        return {i: coproduct(self.left, self.right, kind, i) for i in self.left.e}

    e = cached_property(lambda self: self._coproducts("e"))
    f = cached_property(lambda self: self._coproducts("f"))
    omega = cached_property(lambda self: self._coproducts("omega"))
    omega_prime = cached_property(lambda self: self._coproducts("omega-prime"))


def verify_highest_weight(rep: Representation) -> Report:
    """Each candidate vector is annihilated by every Δ(e_i) on the module's
    tensor square."""
    out = Report()
    with out.timed("highest-weight-annihilation", rep.family, rep.n) as it:
        hwt = highest_weight_vectors(rep)
        w = ""
        for k, vec in enumerate(hwt.vectors):
            for i in range(1, rep.n + 1):
                img = mat_vec(rep.square.e[i], vec)
                if img:
                    w = w or f"Δ(e_{i}) does not kill w{k + 1}"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# evaluation representations of the quantum affine algebra
# ---------------------------------------------------------------------------


@dataclass
class EvaluationRep(_Module):
    """Finite representation extended by the affine node: e_0, f_0 carry the
    spectral variable, and the products ω_0 ω_θ and ω'_0 ω'_θ act by the
    central scalar c.  The generator tables are keyed by node 0..n; nodes
    1..n hold the finite module's own matrices."""

    fin: Representation
    aff: AffineData
    e: dict[int, SMatrix]
    f: dict[int, SMatrix]
    omega: dict[int, SMatrix]
    omega_prime: dict[int, SMatrix]
    gamma: SMatrix
    gamma_prime: SMatrix
    c: Scalar
    a: Scalar
    b: Scalar
    spectral: str
    kappa: int  # constraint exponent: intertwiners need a·b = (rs)^{-kappa}

    @property
    def ring(self) -> ScalarRing:
        return self.fin.ring

    @property
    def N(self) -> int:
        return self.fin.N

    @property
    def rs(self) -> RootSystem:
        return self.fin.rs


KAPPA = {"A": 1, "B": 2, "C": 1, "D": 1}


def check_affine_rank(family: str, rank: int) -> None:
    if rank < MIN_AFFINE_RANK[family]:
        raise ValueError(f"type {family} evaluation module needs rank ≥ {MIN_AFFINE_RANK[family]}")


def build_evaluation(
    family: str,
    rank: int,
    ring: ScalarRing | None = None,
    spectral: str = "x",
    a: Scalar | None = None,
    b: Scalar | None = None,
) -> EvaluationRep:
    """Extend the fundamental module to the affine algebra at evaluation
    parameters (a, b).  The ring defaults to r, s, the spectral variable, a
    and b; a and b each default, independently, to the ring variables of
    those names.
    """
    check_affine_rank(family, rank)
    if ring is None:
        ring = rs_ring(spectral, "a", "b")
    a = a if a is not None else ring.atom("a")
    b = b if b is not None else ring.atom("b")
    rep = build_fundamental(family, rank, ring)
    return _evaluation(rep, affine_data(rep.rs, ring), spectral, a, b)


def _evaluation(rep: Representation, aff: AffineData, spectral: str, a: Scalar, b: Scalar) -> EvaluationRep:
    """The evaluation module of the fundamental module ``rep`` in the
    variable ``spectral`` at parameters (a, b), with ``aff`` the affine data
    of rep's root system over rep's ring.  Modules in several spectral
    variables over one ring share ``rep`` and ``aff``."""
    ring, family = rep.ring, rep.family
    kappa = KAPPA[family]
    n, N = rep.n, rep.N
    c = ring.mono(r=kappa, s=kappa) * a * b
    u = ring.atom(spectral)
    au, bu = a * u, b * u.inv()
    R = lambda **p: ring.mono(**p)

    def mat(*terms):
        return SMatrix.from_entries(ring, N, N, [(i - 1, j - 1, v) for (i, j, v) in terms])

    diag = lambda listed: _diag(ring, N, listed)
    pr = rep.prime
    # ω_0 is c times the c-free diagonal P, and ω'_0 is c times P under r ↔ s;
    # c is applied after the exchange, since a and b need not be symmetric in r, s
    if family == "A":
        e0 = mat((N, 1, au))
        f0 = mat((1, N, bu))
        P = diag({1: R(r=-1), N: R(s=-1), **{i: R(r=-1, s=-1) for i in range(2, N)}})
    elif family == "C":
        e0 = mat((pr(1), 1, au))
        f0 = mat((1, pr(1), bu))
        P = diag({1: R(r=-1, s=1), pr(1): R(r=1, s=-1), **_rs_pairs(ring, N, range(2, n + 1), 1)})
    else:
        d = aff.d[0]  # B and D
        e0 = mat((pr(1), 2, au), (pr(2), 1, -au * R(r=d, s=d)))
        f0 = mat((2, pr(1), bu), (1, pr(2), -bu))
        P = diag({1: R(s=d), 2: R(r=-d), pr(2): R(r=d), pr(1): R(s=-d), **_rs_pairs(ring, N, range(3, n + 1), d)})
    om0 = P.scale(c)
    omp0 = P.exchanged_params().scale(c)

    gamma = om0 @ rep.omega_of(aff.theta.alpha)
    gamma_prime = omp0 @ rep.omega_prime_of(aff.theta.alpha)
    return EvaluationRep(
        rep, aff, {0: e0, **rep.e}, {0: f0, **rep.f}, {0: om0, **rep.omega}, {0: omp0, **rep.omega_prime},
        gamma, gamma_prime, c, a, b, spectral, kappa,
    )


def verify_affine_relations(erep: EvaluationRep) -> Report:
    """Check the defining relations of the quantum affine algebra (including
    the degree-generator conjugations, realized as spectral substitutions) as
    exact matrix identities on the evaluation module."""
    ring, rs, n = erep.ring, erep.fin.rs, erep.fin.n
    fam = rs.family
    aff = erep.aff
    out = Report()

    with out.timed("affine-cartan-commute", fam, n) as it:
        it.witness = _cartan_commute(erep)

    with out.timed("affine-central", fam, n) as it:
        # γ = γ′ = c·Id commute with every generator, so that is all there is to check
        c_id = SMatrix.identity(ring, erep.N).scale(erep.c)
        it.witness = first_mismatch(erep.gamma, c_id, erep.N) or first_mismatch(erep.gamma_prime, c_id, erep.N)

    with out.timed("affine-cartan-conj", fam, n) as it:
        it.witness = _cartan_conj(erep, aff.omega, prime=False) or _cartan_conj(erep, aff.omega, prime=True)

    with out.timed("affine-e-f-commutator", fam, n) as it:
        it.witness = _ef_commutator(erep, _rs_gaps(ring, aff.d))

    with out.timed("affine-serre", fam, n) as it:
        coefficients = _rs_serre_coefficients(ring, aff.omega, aff.cartan_ext, aff.d)
        it.witness = _serre(erep, aff.cartan_ext, coefficients, lambda: (erep.square.e, erep.square.f))

    with out.timed("degree-conjugation", fam, n) as it:
        w = ""
        x = erep.spectral
        for scale_var in (ring.mono(r=aff.d[0]), ring.mono(s=aff.d[0])):
            sub = {x: scale_var * ring.atom(x)}
            for i in erep.e:
                expect = scale_var if i == 0 else ring.one
                w = w or first_mismatch(erep.e[i].substituted(sub), erep.e[i].scale(expect), erep.N)
                w = w or first_mismatch(erep.f[i].substituted(sub), erep.f[i].scale(expect.inv()), erep.N)
                w = w or first_mismatch(erep.omega[i].substituted(sub), erep.omega[i], erep.N)
                w = w or first_mismatch(erep.omega_prime[i].substituted(sub), erep.omega_prime[i], erep.N)
        it.witness = w

    return out
