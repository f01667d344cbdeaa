"""First fundamental matrix representations of the two-parameter quantum
groups of classical type, their evaluation extensions to the quantum affine
algebra, and mechanical verification of all defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import SMatrix, kron
from .report import Report, first_mismatch
from .rootdata import (
    AffineData,
    RootSystem,
    affine_data,
    build_root_system,
    fundamental_weights,
    omega_on_weight,
    omega_prime_on_weight,
)
from .scalars import Scalar, ScalarRing, rs_binomial, rs_ring


@dataclass
class Representation:
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
        out = SMatrix.identity(self.ring, self.N)
        for k, c in enumerate(alpha):
            m = self.omega[k + 1] if c >= 0 else self.omega[k + 1].diagonal_inv()
            for _ in range(abs(c)):
                out = out @ m
        return out

    def omega_prime_of(self, alpha) -> SMatrix:
        out = SMatrix.identity(self.ring, self.N)
        for k, c in enumerate(alpha):
            m = self.omega_prime[k + 1] if c >= 0 else self.omega_prime[k + 1].diagonal_inv()
            for _ in range(abs(c)):
                out = out @ m
        return out


def build_fundamental(family: str, rank: int, ring: ScalarRing | None = None) -> Representation:
    """The N-dimensional module: N = n+1 (A), 2n+1 (B), 2n (C and D)."""
    rs = build_root_system(family, rank)
    ring = ring if ring is not None else rs_ring()
    n, N = rs.n, rs.N
    R = lambda **p: ring.mono(**p)
    one = ring.one

    def mat(*terms):
        return SMatrix.from_entries(ring, N, N, [(i - 1, j - 1, c) for (i, j, c) in terms])

    pr = lambda i: N + 1 - i
    e: dict[int, SMatrix] = {}
    f: dict[int, SMatrix] = {}
    om: dict[int, SMatrix] = {}
    omp: dict[int, SMatrix] = {}

    if family == "A":
        for i in range(1, n + 1):
            e[i] = mat((i, i + 1, one))
            f[i] = mat((i + 1, i, one))
            om[i] = mat(
                (i, i, R(r=1)),
                (i + 1, i + 1, R(s=1)),
                *[(j, j, one) for j in range(1, N + 1) if j not in (i, i + 1)],
            )
            omp[i] = mat(
                (i, i, R(s=1)),
                (i + 1, i + 1, R(r=1)),
                *[(j, j, one) for j in range(1, N + 1) if j not in (i, i + 1)],
            )
    elif family == "B":
        for i in range(1, n + 1):
            e[i] = mat((i, i + 1, one), (pr(i + 1), pr(i), -one))
        for i in range(1, n):
            f[i] = mat((i + 1, i, one), (pr(i), pr(i + 1), -R(r=-2, s=-2)))
        coeff = R(r=-1) + R(s=-1)
        f[n] = mat((n + 1, n, coeff), (pr(n), n + 1, -coeff))
        for i in range(1, n):
            om[i] = mat(
                (i, i, R(r=2)),
                (i + 1, i + 1, R(s=2)),
                (pr(i), pr(i), R(r=-2)),
                (pr(i + 1), pr(i + 1), R(s=-2)),
                (n + 1, n + 1, one),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
            omp[i] = mat(
                (i, i, R(s=2)),
                (i + 1, i + 1, R(r=2)),
                (pr(i), pr(i), R(s=-2)),
                (pr(i + 1), pr(i + 1), R(r=-2)),
                (n + 1, n + 1, one),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
        om[n] = mat(
            (n, n, R(r=1, s=-1)),
            (n + 1, n + 1, one),
            (pr(n), pr(n), R(r=-1, s=1)),
            *[t for j in range(1, n) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )
        omp[n] = mat(
            (n, n, R(r=-1, s=1)),
            (n + 1, n + 1, one),
            (pr(n), pr(n), R(r=1, s=-1)),
            *[t for j in range(1, n) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )
    elif family == "C":
        for i in range(1, n):
            e[i] = mat((i, i + 1, one), (pr(i + 1), pr(i), -one))
            f[i] = mat((i + 1, i, one), (pr(i), pr(i + 1), -R(r=-1, s=-1)))
        e[n] = mat((n, pr(n), one))
        f[n] = mat((pr(n), n, R(r=-1, s=-1)))
        for i in range(1, n):
            om[i] = mat(
                (i, i, R(r=1)),
                (i + 1, i + 1, R(s=1)),
                (pr(i), pr(i), R(r=-1)),
                (pr(i + 1), pr(i + 1), R(s=-1)),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
            omp[i] = mat(
                (i, i, R(s=1)),
                (i + 1, i + 1, R(r=1)),
                (pr(i), pr(i), R(s=-1)),
                (pr(i + 1), pr(i + 1), R(r=-1)),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
        om[n] = mat(
            (n, n, R(r=1, s=-1)),
            (pr(n), pr(n), R(r=-1, s=1)),
            *[t for j in range(1, n) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )
        omp[n] = mat(
            (n, n, R(r=-1, s=1)),
            (pr(n), pr(n), R(r=1, s=-1)),
            *[t for j in range(1, n) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )
    else:
        for i in range(1, n):
            e[i] = mat((i, i + 1, one), (pr(i + 1), pr(i), -one))
            f[i] = mat((i + 1, i, one), (pr(i), pr(i + 1), -R(r=-1, s=-1)))
        e[n] = mat((n - 1, pr(n), R(r=-1, s=-1)), (n, pr(n - 1), -one))
        f[n] = mat((pr(n), n - 1, one), (pr(n - 1), n, -one))
        for i in range(1, n):
            om[i] = mat(
                (i, i, R(r=1)),
                (i + 1, i + 1, R(s=1)),
                (pr(i), pr(i), R(r=-1)),
                (pr(i + 1), pr(i + 1), R(s=-1)),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
            omp[i] = mat(
                (i, i, R(s=1)),
                (i + 1, i + 1, R(r=1)),
                (pr(i), pr(i), R(s=-1)),
                (pr(i + 1), pr(i + 1), R(r=-1)),
                *[t for j in range(1, n + 1) if j not in (i, i + 1) for t in ((j, j, one), (pr(j), pr(j), one))],
            )
        om[n] = mat(
            (n - 1, n - 1, R(s=-1)),
            (n, n, R(r=1)),
            (pr(n - 1), pr(n - 1), R(s=1)),
            (pr(n), pr(n), R(r=-1)),
            *[t for j in range(1, n - 1) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )
        omp[n] = mat(
            (n - 1, n - 1, R(r=-1)),
            (n, n, R(s=1)),
            (pr(n - 1), pr(n - 1), R(r=1)),
            (pr(n), pr(n), R(s=-1)),
            *[t for j in range(1, n - 1) for t in ((j, j, R(r=-1, s=-1)), (pr(j), pr(j), R(r=1, s=1)))],
        )

    return Representation(rs, ring, N, e, f, om, omp, fundamental_weights(rs))


# ---------------------------------------------------------------------------
# relation verification (finite)
# ---------------------------------------------------------------------------


def _scalar_conj_check(
    big: SMatrix, small: SMatrix, scalar: Scalar
) -> str:
    """Witness for big·small == scalar · small·big."""
    lhs = big @ small
    rhs = (small @ big).scale(scalar)
    return first_mismatch(lhs, rhs)


def serre_sum(
    rep_x: dict[int, SMatrix],
    i: int,
    j: int,
    cij: int,
    ring: ScalarRing,
    di: int,
    twist: Scalar,
) -> SMatrix:
    """Σ_k (-1)^k [m k]_{r_i,s_i} (r_i s_i)^{k(k-1)/2} twist^k X_i^{m-k} X_j X_i^k
    with m = 1 - c_ij."""
    m = 1 - cij
    n = rep_x[i].nrows
    acc = SMatrix.zero(ring, n, n)
    xi_pows = [SMatrix.identity(ring, n)]
    for _ in range(m):
        xi_pows.append(xi_pows[-1] @ rep_x[i])
    for k in range(m + 1):
        c = rs_binomial(ring, m, k, d=di) * ring.mono(r=Fraction(di * k * (k - 1), 2), s=Fraction(di * k * (k - 1), 2)) * twist**k
        if k % 2:
            c = -c
        acc = acc + (xi_pows[m - k] @ rep_x[j] @ xi_pows[k]).scale(c)
    return acc


def verify_finite_relations(rep: Representation) -> Report:
    """Check the defining relations of the two-parameter quantum group as
    exact matrix identities on the fundamental module."""
    rs, ring, n = rep.rs, rep.ring, rep.n
    out = Report()
    fam = rep.family

    with out.timed("cartan-commute", fam, n) as it:
        zero = SMatrix.zero(ring, rep.N, rep.N)
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for a, b in ((rep.omega[i], rep.omega[j]), (rep.omega[i], rep.omega_prime[j]), (rep.omega_prime[i], rep.omega_prime[j])):
                    w = w or first_mismatch(a @ b, b @ a)
            ident = SMatrix.identity(ring, rep.N)
            w = w or first_mismatch(rep.omega[i] @ rep.omega[i].diagonal_inv(), ident)
            w = w or first_mismatch(rep.omega_prime[i] @ rep.omega_prime[i].diagonal_inv(), ident)
        it.witness = w

    with out.timed("cartan-conj-e-f", fam, n) as it:
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                aj = rs.simple[j - 1].alpha
                ai = rs.simple[i - 1].alpha
                cj = ring.mono(r=rs.ringel_form(aj, ai), s=-rs.ringel_form(ai, aj))
                w = w or _scalar_conj_check(rep.omega[i], rep.e[j], cj)
                w = w or _scalar_conj_check(rep.omega[i], rep.f[j], cj.inv())
        it.witness = w

    with out.timed("cartan-prime-conj-e-f", fam, n) as it:
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                aj = rs.simple[j - 1].alpha
                ai = rs.simple[i - 1].alpha
                cj = ring.mono(r=-rs.ringel_form(ai, aj), s=rs.ringel_form(aj, ai))
                w = w or _scalar_conj_check(rep.omega_prime[i], rep.e[j], cj)
                w = w or _scalar_conj_check(rep.omega_prime[i], rep.f[j], cj.inv())
        it.witness = w

    with out.timed("e-f-commutator", fam, n) as it:
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                comm = rep.e[i] @ rep.f[j] - rep.f[j] @ rep.e[i]
                if i != j:
                    w = w or first_mismatch(comm, zero)
                else:
                    di = rs.d[i - 1]
                    denom = ring.mono(r=di) - ring.mono(s=di)
                    rhs = (rep.omega[i] - rep.omega_prime[i]).scale(denom.inv())
                    w = w or first_mismatch(comm, rhs)
        it.witness = w

    with out.timed("serre", fam, n) as it:
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                cij = rs.cartan[i - 1][j - 1]
                ai, aj = rs.simple[i - 1].alpha, rs.simple[j - 1].alpha
                # the (rs)-exponent is the Ringel pairing ⟨α_j, α_i⟩ on the e side
                # and its transpose on the f side (the two sums are exchanged by
                # the antiautomorphism e_i ↔ f_i, r ↔ s; only type D separates them)
                rf = rs.ringel_form(aj, ai)
                rf_t = rs.ringel_form(ai, aj)
                for mats, tag, expo in ((rep.e, "e", rf), (rep.f, "f", rf_t)):
                    sm = serre_sum(mats, i, j, cij, ring, rs.d[i - 1], ring.mono(r=expo, s=expo))
                    if not sm.is_zero():
                        w = w or f"serre {tag} ({i},{j}): {first_mismatch(sm, zero)}"
        it.witness = w

    with out.timed("weight-labels", fam, n) as it:
        w = ""
        for k in range(rep.N):
            lam = rep.weights[k]
            for i in range(1, n + 1):
                ev = rep.omega[i].get(k, k)
                if ev != omega_on_weight(rs, ring, lam, i):
                    w = w or f"omega[{i}] eigenvalue on v_{k + 1}"
                evp = rep.omega_prime[i].get(k, k)
                if evp != omega_prime_on_weight(rs, ring, i, lam).inv():
                    w = w or f"omega'[{i}] eigenvalue on v_{k + 1}"
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
    weights_eps: list[tuple]


def highest_weight_vectors(rep: Representation) -> HighestWeightTriple:
    ring, n, N = rep.ring, rep.n, rep.N
    fam = rep.family

    def unit(i: int, j: int, c: Scalar) -> tuple[int, Scalar]:
        return ((i - 1) * N + (j - 1), c)

    pr = rep.prime
    w1 = dict([unit(1, 1, ring.one)])
    # w2 = v1 ⊗ v2 - (ω'_{ε1}, ω_1) v2 ⊗ v1, uniformly across types and ranks
    pair11 = omega_on_weight(rep.rs, ring, rep.weights[0], 1)
    w2 = dict([unit(1, 2, ring.one), unit(2, 1, -pair11)])
    vectors = [w1, w2]
    dim = rep.rs.eps_dim
    eps1 = tuple(Fraction(1) if t == 0 else Fraction(0) for t in range(dim))
    w_eps = [
        tuple(2 * x for x in eps1),
        tuple(x + y for x, y in zip(rep.weights[0], rep.weights[1])),
    ]
    if fam != "A":
        zero_eps = tuple(Fraction(0) for _ in range(dim))
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
        w_eps.append(zero_eps)
    return HighestWeightTriple(vectors, w_eps)


def coproduct_e(rep: Representation, i: int, e0: SMatrix | None = None, om0: SMatrix | None = None) -> SMatrix:
    """Δ(e_i) = e_i ⊗ 1 + ω_i ⊗ e_i on V ⊗ V."""
    e = e0 if i == 0 else rep.e[i]
    om = om0 if i == 0 else rep.omega[i]
    ident = SMatrix.identity(rep.ring, rep.N)
    return kron(e, ident) + kron(om, e)


def coproduct_f(rep: Representation, i: int, f0: SMatrix | None = None, omp0: SMatrix | None = None) -> SMatrix:
    """Δ(f_i) = 1 ⊗ f_i + f_i ⊗ ω'_i on V ⊗ V."""
    f = f0 if i == 0 else rep.f[i]
    omp = omp0 if i == 0 else rep.omega_prime[i]
    ident = SMatrix.identity(rep.ring, rep.N)
    return kron(ident, f) + kron(f, omp)


def verify_highest_weight(rep: Representation) -> Report:
    """Each candidate vector is annihilated by every Δ(e_i)."""
    from .matrices import mat_vec

    out = Report()
    with out.timed("highest-weight-annihilation", rep.family, rep.n) as it:
        hwt = highest_weight_vectors(rep)
        w = ""
        for k, vec in enumerate(hwt.vectors):
            for i in range(1, rep.n + 1):
                img = mat_vec(coproduct_e(rep, i), vec)
                if img:
                    w = w or f"Δ(e_{i}) does not kill w{k + 1}"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# evaluation representations of the quantum affine algebra
# ---------------------------------------------------------------------------


@dataclass
class EvaluationRep:
    """Finite representation extended by the affine node: e_0, f_0 carry the
    spectral variable, and the products ω_0 ω_θ and ω'_0 ω'_θ act by the
    central scalar c."""

    fin: Representation
    aff: AffineData
    e0: SMatrix
    f0: SMatrix
    omega0: SMatrix
    omega_prime0: SMatrix
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

    def e_at(self, i: int) -> SMatrix:
        return self.e0 if i == 0 else self.fin.e[i]

    def f_at(self, i: int) -> SMatrix:
        return self.f0 if i == 0 else self.fin.f[i]

    def omega_at(self, i: int) -> SMatrix:
        return self.omega0 if i == 0 else self.fin.omega[i]

    def omega_prime_at(self, i: int) -> SMatrix:
        return self.omega_prime0 if i == 0 else self.fin.omega_prime[i]


KAPPA = {"A": 1, "B": 2, "C": 1, "D": 1}
MIN_AFFINE_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def check_affine_rank(family: str, rank: int) -> None:
    if rank < MIN_AFFINE_RANK[family]:
        raise ValueError(f"type {family} evaluation module needs rank ≥ {MIN_AFFINE_RANK[family]}")


def build_evaluation(
    family: str,
    rank: int,
    mode: str = "symbolic-a",
    ring: ScalarRing | None = None,
    spectral: str = "x",
    a: Scalar | None = None,
    b: Scalar | None = None,
) -> EvaluationRep:
    """Extend the fundamental module to the affine algebra at evaluation
    parameters (a, b).

    mode "symbolic-a" keeps a and b as free ring variables; "fixed-a1" sets
    a = 1 and b = (rs)^{-κ} so that the central scalar c is 1.  Explicit
    Scalars for a and b override the mode.
    """
    check_affine_rank(family, rank)
    kappa = KAPPA[family]
    if ring is None:
        ring = rs_ring(spectral, "a", "b") if mode == "symbolic-a" else rs_ring(spectral)
    if a is None or b is None:
        if mode == "symbolic-a":
            a, b = ring.atom("a"), ring.atom("b")
        elif mode == "fixed-a1":
            a, b = ring.one, ring.mono(r=-kappa, s=-kappa)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    rep = build_fundamental(family, rank, ring)
    rs = rep.rs
    n, N = rank, rep.N
    aff = affine_data(rs, ring)
    c = ring.mono(r=kappa, s=kappa) * a * b
    u = ring.atom(spectral)
    au, bu = a * u, b * u.inv()
    R = lambda **p: ring.mono(**p)

    def mat(*terms):
        return SMatrix.from_entries(ring, N, N, [(i - 1, j - 1, v) for (i, j, v) in terms])

    pr = rep.prime
    if family == "A":
        e0 = mat((N, 1, au))
        f0 = mat((1, N, bu))
        om0 = mat(
            (1, 1, c * R(r=-1)),
            (N, N, c * R(s=-1)),
            *[(i, i, c * R(r=-1, s=-1)) for i in range(2, N)],
        )
        omp0 = mat(
            (1, 1, c * R(s=-1)),
            (N, N, c * R(r=-1)),
            *[(i, i, c * R(r=-1, s=-1)) for i in range(2, N)],
        )
    elif family == "B":
        e0 = mat((pr(1), 2, au), (pr(2), 1, -au * R(r=2, s=2)))
        f0 = mat((2, pr(1), bu), (1, pr(2), -bu))
        om0 = mat(
            (1, 1, c * R(s=2)),
            (2, 2, c * R(r=-2)),
            (pr(2), pr(2), c * R(r=2)),
            (pr(1), pr(1), c * R(s=-2)),
            (n + 1, n + 1, c),
            *[t for i in range(3, n + 1) for t in ((i, i, c * R(r=-2, s=-2)), (pr(i), pr(i), c * R(r=2, s=2)))],
        )
        omp0 = mat(
            (1, 1, c * R(r=2)),
            (2, 2, c * R(s=-2)),
            (pr(2), pr(2), c * R(s=2)),
            (pr(1), pr(1), c * R(r=-2)),
            (n + 1, n + 1, c),
            *[t for i in range(3, n + 1) for t in ((i, i, c * R(r=-2, s=-2)), (pr(i), pr(i), c * R(r=2, s=2)))],
        )
    elif family == "C":
        e0 = mat((pr(1), 1, au))
        f0 = mat((1, pr(1), bu))
        om0 = mat(
            (1, 1, c * R(r=-1, s=1)),
            (pr(1), pr(1), c * R(r=1, s=-1)),
            *[t for i in range(2, n + 1) for t in ((i, i, c * R(r=-1, s=-1)), (pr(i), pr(i), c * R(r=1, s=1)))],
        )
        omp0 = mat(
            (1, 1, c * R(r=1, s=-1)),
            (pr(1), pr(1), c * R(r=-1, s=1)),
            *[t for i in range(2, n + 1) for t in ((i, i, c * R(r=-1, s=-1)), (pr(i), pr(i), c * R(r=1, s=1)))],
        )
    else:
        e0 = mat((pr(1), 2, au), (pr(2), 1, -au * R(r=1, s=1)))
        f0 = mat((2, pr(1), bu), (1, pr(2), -bu))
        om0 = mat(
            (1, 1, c * R(s=1)),
            (2, 2, c * R(r=-1)),
            (pr(2), pr(2), c * R(r=1)),
            (pr(1), pr(1), c * R(s=-1)),
            *[t for i in range(3, n + 1) for t in ((i, i, c * R(r=-1, s=-1)), (pr(i), pr(i), c * R(r=1, s=1)))],
        )
        omp0 = mat(
            (1, 1, c * R(r=1)),
            (2, 2, c * R(s=-1)),
            (pr(2), pr(2), c * R(s=1)),
            (pr(1), pr(1), c * R(r=-1)),
            *[t for i in range(3, n + 1) for t in ((i, i, c * R(r=-1, s=-1)), (pr(i), pr(i), c * R(r=1, s=1)))],
        )

    ident = SMatrix.identity(ring, N)
    gamma = om0 @ rep.omega_of(aff.theta.alpha)
    gamma_prime = omp0 @ rep.omega_prime_of(aff.theta.alpha)
    return EvaluationRep(rep, aff, e0, f0, om0, omp0, gamma, gamma_prime, c, a, b, spectral, kappa)


def verify_affine_relations(erep: EvaluationRep) -> Report:
    """Check the defining relations of the quantum affine algebra (including
    the degree-generator conjugations, realized as spectral substitutions) as
    exact matrix identities on the evaluation module."""
    rep, ring = erep.fin, erep.ring
    rs, n, N = rep.rs, rep.n, rep.N
    fam = rep.family
    out = Report()
    Om = erep.aff.omega
    cext = erep.aff.cartan_ext
    d_ext = {0: erep.aff.d0, **{i: rs.d[i - 1] for i in range(1, n + 1)}}

    with out.timed("affine-cartan-commute", fam, n) as it:
        zero = SMatrix.zero(ring, N, N)
        ident = SMatrix.identity(ring, N)
        omes = {i: erep.omega_at(i) for i in range(n + 1)}
        omps = {i: erep.omega_prime_at(i) for i in range(n + 1)}
        es = {i: erep.e_at(i) for i in range(n + 1)}
        fs = {i: erep.f_at(i) for i in range(n + 1)}
        w = ""
        for i in range(n + 1):
            for j in range(n + 1):
                for x, y in ((omes[i], omes[j]), (omes[i], omps[j]), (omps[i], omps[j])):
                    w = w or first_mismatch(x @ y, y @ x)
            w = w or first_mismatch(omes[i] @ omes[i].diagonal_inv(), ident)
            w = w or first_mismatch(omps[i] @ omps[i].diagonal_inv(), ident)
        it.witness = w

    with out.timed("affine-central", fam, n) as it:
        w = ""
        c_id = ident.scale(erep.c)
        w = w or first_mismatch(erep.gamma, c_id)
        w = w or first_mismatch(erep.gamma_prime, c_id)
        for g in list(es.values()) + list(fs.values()):
            w = w or first_mismatch(erep.gamma @ g, g @ erep.gamma)
            w = w or first_mismatch(erep.gamma_prime @ g, g @ erep.gamma_prime)
        it.witness = w

    with out.timed("affine-cartan-conj", fam, n) as it:
        w = ""
        for i in range(n + 1):
            for j in range(n + 1):
                w = w or _scalar_conj_check(omes[i], es[j], Om[(j, i)])
                w = w or _scalar_conj_check(omes[i], fs[j], Om[(j, i)].inv())
                w = w or _scalar_conj_check(omps[i], es[j], Om[(i, j)].inv())
                w = w or _scalar_conj_check(omps[i], fs[j], Om[(i, j)])
        it.witness = w

    with out.timed("affine-e-f-commutator", fam, n) as it:
        w = ""
        for i in range(n + 1):
            for j in range(n + 1):
                comm = es[i] @ fs[j] - fs[j] @ es[i]
                if i != j:
                    w = w or first_mismatch(comm, zero)
                else:
                    denom = ring.mono(r=d_ext[i]) - ring.mono(s=d_ext[i])
                    w = w or first_mismatch(comm, (omes[i] - omps[i]).scale(denom.inv()))
        it.witness = w

    with out.timed("affine-serre", fam, n) as it:
        w = ""
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    continue
                cij = cext[(i, j)]
                si_c = ring.mono(s=d_ext[i] * cij)
                # e side uses Ω_{ji}, f side its transpose Ω_{ij} (cf. the finite case)
                for mats, tag, om_fac in ((es, "e", Om[(j, i)]), (fs, "f", Om[(i, j)])):
                    sm = serre_sum(mats, i, j, cij, ring, d_ext[i], om_fac * si_c)
                    if not sm.is_zero():
                        w = w or f"affine serre {tag} ({i},{j})"
        it.witness = w

    with out.timed("degree-conjugation", fam, n) as it:
        w = ""
        x = erep.spectral
        for scale_var, name in ((erep.aff.r0, "degree-r"), (erep.aff.s0, "degree-s")):
            sub = {x: scale_var * ring.atom(x)}
            for i in range(n + 1):
                expect = scale_var if i == 0 else ring.one
                w = w or first_mismatch(es[i].substituted(sub), es[i].scale(expect))
                w = w or first_mismatch(fs[i].substituted(sub), fs[i].scale(expect.inv()))
                w = w or first_mismatch(omes[i].substituted(sub), omes[i])
                w = w or first_mismatch(omps[i].substituted(sub), omps[i])
        it.witness = w

    return out
