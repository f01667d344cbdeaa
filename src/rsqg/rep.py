"""First fundamental matrix representations of the two-parameter quantum
groups of classical type, their evaluation extensions to the quantum affine
algebra, and mechanical verification of all defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .matrices import SMatrix, kron
from .report import Report, first_mismatch, product_mismatch
from .rootdata import (
    MIN_AFFINE_RANK,
    AffineData,
    RootSystem,
    affine_data,
    build_root_system,
    fundamental_weights,
    omega_on_weight,
    omega_pairing,
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
# matrix and the symmetrizer d.


def _finite_presentation(rs: RootSystem, ring: ScalarRing):
    """(Ω, Cartan, d) of U_{r,s}(g) on the nodes 1..n."""
    nodes = range(1, rs.n + 1)
    alpha = {i: rs.simple[i - 1].alpha for i in nodes}
    Om = {(i, j): omega_pairing(rs, ring, alpha[i], alpha[j]) for i in nodes for j in nodes}
    cartan = {(i, j): rs.cartan[i - 1][j - 1] for i in nodes for j in nodes}
    return Om, cartan, {i: rs.d[i - 1] for i in nodes}


def _cartan_commute(mod) -> str:
    """The ω_i and ω'_j commute pairwise (decided on their diagonals by
    ``product_mismatch``), and each is invertible: diagonal, with every
    diagonal entry a unit of the Laurent ring, a nonzero constant times a
    monomial."""
    w = ""
    for i in mod.omega:
        for j in mod.omega:
            for a, b in ((mod.omega[i], mod.omega[j]), (mod.omega[i], mod.omega_prime[j]), (mod.omega_prime[i], mod.omega_prime[j])):
                w = w or product_mismatch((a, b), (b, a), mod.N)
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


def _ef_commutator(mod, d: dict) -> str:
    """[e_i, f_j] = δ_ij (ω_i - ω'_i)/(r^{d_i} - s^{d_i})."""
    ring = mod.ring
    zero = SMatrix.zero(ring, mod.N, mod.N)
    w = ""
    for i in mod.e:
        for j in mod.e:
            comm = mod.e[i] @ mod.f[j] - mod.f[j] @ mod.e[i]
            if i != j:
                w = w or first_mismatch(comm, zero, mod.N)
            else:
                denom = ring.mono(r=d[i]) - ring.mono(s=d[i])
                w = w or first_mismatch(comm, (mod.omega[i] - mod.omega_prime[i]).scale(denom.inv()), mod.N)
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


def _serre(mod, Om: dict, cartan: dict, d: dict) -> str:
    """For i ≠ j and m = 1 - c_ij, the Serre sums with coefficients
    [m k]_{r_i,s_i} (r_i s_i)^{k(k-1)/2} t^k vanish, where the twist t is
    Ω_ji s^{d_i c_ij} on the e side and its transpose Ω_ij s^{d_i c_ij} on the
    f side; on the finite nodes this is (rs)^{⟨α_j,α_i⟩}, resp.
    (rs)^{⟨α_i,α_j⟩} (only type D separates the two).

    The sums are checked on V and, when they vanish there, on V⊗V, where the
    generators act through ``coproduct``.  On V every term
    x_i^{m-k} x_j x_i^k of a sum with m ≥ 2 is zero by itself, so only V⊗V
    sees the coefficients."""
    ring = mod.ring
    binomial = cache(lambda m, k, di: rs_binomial(ring, m, k, d=di))

    def first_nonzero(gens: dict, where: str) -> str:
        w = ""
        for i in mod.e:
            for j in mod.e:
                if i == j:
                    continue
                m, di = 1 - cartan[(i, j)], d[i]
                ri_si = ring.mono(r=di, s=di)
                s_c = ring.mono(s=di * cartan[(i, j)])
                for tag, twist in (("e", Om[(j, i)] * s_c), ("f", Om[(i, j)] * s_c)):
                    sm = serre_sum(
                        gens[tag], i, j, m, lambda k: binomial(m, k, di) * ri_si ** (k * (k - 1) // 2) * twist**k
                    )
                    if not sm.is_zero():
                        zero = SMatrix.zero(ring, sm.nrows, sm.ncols)
                        w = w or f"serre {tag} ({i},{j}){where}: {first_mismatch(sm, zero, mod.N)}"
        return w

    return first_nonzero({"e": mod.e, "f": mod.f}, "") or first_nonzero(
        {tag: {i: coproduct(mod, mod, tag, i) for i in mod.e} for tag in ("e", "f")}, " on V⊗V"
    )


def verify_finite_relations(rep: Representation) -> Report:
    """Check the defining relations of the two-parameter quantum group as
    exact matrix identities on the fundamental module."""
    rs, ring, n = rep.rs, rep.ring, rep.n
    out = Report()
    fam = rep.family
    Om, cartan, d = _finite_presentation(rs, ring)

    with out.timed("cartan-commute", fam, n) as it:
        it.witness = _cartan_commute(rep)

    with out.timed("cartan-conj-e-f", fam, n) as it:
        it.witness = _cartan_conj(rep, Om, prime=False)

    with out.timed("cartan-prime-conj-e-f", fam, n) as it:
        it.witness = _cartan_conj(rep, Om, prime=True)

    with out.timed("e-f-commutator", fam, n) as it:
        it.witness = _ef_commutator(rep, d)

    with out.timed("serre", fam, n) as it:
        it.witness = _serre(rep, Om, cartan, d)

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


def coproduct(left, right, kind: str, i: int) -> SMatrix:
    """The generator ``kind``_i ("e", "f", "omega" or "omega-prime") acting on
    left ⊗ right through Δ(e_i) = e_i⊗1 + ω_i⊗e_i, Δ(f_i) = 1⊗f_i + f_i⊗ω'_i,
    Δ(ω_i) = ω_i⊗ω_i and Δ(ω'_i) = ω'_i⊗ω'_i; left and right are modules of
    the same dimension with generator tables over the same nodes."""
    if kind == "omega":
        return kron(left.omega[i], right.omega[i])
    if kind == "omega-prime":
        return kron(left.omega_prime[i], right.omega_prime[i])
    ident = SMatrix.identity(left.ring, left.N)
    if kind == "e":
        return kron(left.e[i], ident) + kron(left.omega[i], right.e[i])
    if kind == "f":
        return kron(ident, right.f[i]) + kron(left.f[i], right.omega_prime[i])
    raise ValueError(f"unknown generator kind {kind!r}")


def tensor_square(rep: Representation) -> Representation:
    """V⊗V as a module over the same nodes: every generator acts through
    ``coproduct``, and v_a⊗v_b has weight wt(v_a) + wt(v_b)."""
    table = {kind: {i: coproduct(rep, rep, kind, i) for i in rep.e} for kind in ("e", "f", "omega", "omega-prime")}
    weights = [tuple(x + y for x, y in zip(a, b)) for a in rep.weights for b in rep.weights]
    return Representation(
        rep.rs, rep.ring, rep.N**2, table["e"], table["f"], table["omega"], table["omega-prime"], weights
    )


def verify_highest_weight(rep: Representation) -> Report:
    """Each candidate vector is annihilated by every Δ(e_i)."""
    from .matrices import mat_vec

    out = Report()
    with out.timed("highest-weight-annihilation", rep.family, rep.n) as it:
        hwt = highest_weight_vectors(rep)
        w = ""
        for k, vec in enumerate(hwt.vectors):
            for i in range(1, rep.n + 1):
                img = mat_vec(coproduct(rep, rep, "e", i), vec)
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
        d = aff.d0  # B and D
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
    d = {0: aff.d0, **{i: rs.d[i - 1] for i in range(1, n + 1)}}
    out = Report()

    with out.timed("affine-cartan-commute", fam, n) as it:
        it.witness = _cartan_commute(erep)

    with out.timed("affine-central", fam, n) as it:
        c_id = SMatrix.identity(ring, erep.N).scale(erep.c)
        w = first_mismatch(erep.gamma, c_id, erep.N) or first_mismatch(erep.gamma_prime, c_id, erep.N)
        for g in [*erep.e.values(), *erep.f.values()]:
            w = w or product_mismatch((erep.gamma, g), (g, erep.gamma), erep.N)
            w = w or product_mismatch((erep.gamma_prime, g), (g, erep.gamma_prime), erep.N)
        it.witness = w

    with out.timed("affine-cartan-conj", fam, n) as it:
        it.witness = _cartan_conj(erep, aff.omega, prime=False) or _cartan_conj(erep, aff.omega, prime=True)

    with out.timed("affine-e-f-commutator", fam, n) as it:
        it.witness = _ef_commutator(erep, d)

    with out.timed("affine-serre", fam, n) as it:
        it.witness = _serre(erep, aff.omega, aff.cartan_ext, d)

    with out.timed("degree-conjugation", fam, n) as it:
        w = ""
        x = erep.spectral
        for scale_var in (aff.r0, aff.s0):
            sub = {x: scale_var * ring.atom(x)}
            for i in erep.e:
                expect = scale_var if i == 0 else ring.one
                w = w or first_mismatch(erep.e[i].substituted(sub), erep.e[i].scale(expect), erep.N)
                w = w or first_mismatch(erep.f[i].substituted(sub), erep.f[i].scale(expect.inv()), erep.N)
                w = w or first_mismatch(erep.omega[i].substituted(sub), erep.omega[i], erep.N)
                w = w or first_mismatch(erep.omega_prime[i].substituted(sub), erep.omega_prime[i], erep.N)
        it.witness = w

    return out
