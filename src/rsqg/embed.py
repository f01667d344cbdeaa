"""One-parameter structures inside the two-parameter quantum group, as
executable certificates on the fundamental modules.

The modified generators ẽ_i = e_i ω_i^{-1/2}, f̃_i = s_i f_i (ω'_i)^{-1/2},
ω̃_i = ω_i^{1/2} (ω'_i)^{-1/2} satisfy the standard one-parameter relations
at q = r^{1/2} s^{-1/2}, and the rescaled root vectors match the q-bracketed
ones through per-root monomials κ_γ.  The diagonal-twist comparison with the
one-parameter R-matrix works in type A and provably fails in type B; both
facts are certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lyndon import ConvexOrder, minimal_pair
from .matrices import SMatrix, flip_map
from .rep import Representation, serre_sum, tensor_square
from .report import Report, first_mismatch, product_mismatch
from .rmatrix import CoefficientTables
from .rootdata import Root, omega_pairing
from .rootvec import RootVectorMatrices
from .scalars import (
    Scalar,
    ScalarRing,
    Variable,
    q_binomial,
    q_scalar,
    substitute,
)


@dataclass
class ModifiedGenerators:
    rep: Representation
    e: dict[int, SMatrix]
    f: dict[int, SMatrix]
    omega: dict[int, SMatrix]  # ω̃_i, diagonal


def modified_generators(rep: Representation) -> ModifiedGenerators:
    """ẽ_i = e_i ω_i^{-1/2}, f̃_i = s_i f_i (ω'_i)^{-1/2},
    ω̃_i = ω_i^{1/2}(ω'_i)^{-1/2}; the diagonal square roots exist in the
    half-power ring because every ω-eigenvalue is a monomial with integer
    r, s exponents."""
    ring = rep.ring
    e, f, om = {}, {}, {}
    for i in range(1, rep.n + 1):
        om_half_inv = rep.omega[i].diagonal_sqrt().diagonal_inv()
        omp_half_inv = rep.omega_prime[i].diagonal_sqrt().diagonal_inv()
        e[i] = rep.e[i] @ om_half_inv
        f[i] = (rep.f[i] @ omp_half_inv).scale(ring.mono(s=rep.rs.d[i - 1]))
        om[i] = rep.omega[i].diagonal_sqrt() @ omp_half_inv
    return ModifiedGenerators(rep, e, f, om)


def verify_dj_relations(rep: Representation, mg: ModifiedGenerators) -> Report:
    """The modified generators ``mg`` of ``rep`` satisfy the one-parameter
    defining relations at q = r^{1/2} s^{-1/2}: Cartan conjugations by
    q^{(α_i,α_j)}, the commutator identity with
    (ω̃_i - ω̃_i^{-1})/(q_i - q_i^{-1}), and the q-Serre sums, on V and on
    V⊗V (the modified generators of ``tensor_square(rep)``)."""
    ring, rs, n, N = rep.ring, rep.rs, rep.n, rep.N
    out = Report()

    with out.timed("dj-cartan", rep.family, n) as it:
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                w = w or product_mismatch((mg.omega[i], mg.omega[j]), (mg.omega[j], mg.omega[i]), N)
                aij = rs.sym_form(rs.simple[i - 1].alpha, rs.simple[j - 1].alpha)
                qf = q_scalar(ring) ** int(aij)
                w = w or product_mismatch((mg.omega[i], mg.e[j]), (mg.e[j], mg.omega[i]), N, qf)
                w = w or product_mismatch((mg.omega[i], mg.f[j]), (mg.f[j], mg.omega[i]), N, qf.inv())
        it.witness = w

    with out.timed("dj-commutator", rep.family, n) as it:
        zero = SMatrix.zero(ring, N, N)
        w = ""
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                comm = mg.e[i] @ mg.f[j] - mg.f[j] @ mg.e[i]
                if i != j:
                    w = w or first_mismatch(comm, zero, N)
                else:
                    qi = q_scalar(ring, rs.d[i - 1])
                    rhs = (mg.omega[i] - mg.omega[i].diagonal_inv()).scale((qi - qi.inv()).inv())
                    w = w or first_mismatch(comm, rhs, N)
        it.witness = w

    with out.timed("dj-serre", rep.family, n) as it:
        # on V every term of a q-Serre sum with m ≥ 2 is zero by itself, so
        # the sums are also checked on V⊗V, which sees the coefficients
        it.witness = _q_serre(mg, "") or _q_serre(modified_generators(tensor_square(rep)), " on V⊗V")
    return out


def _q_serre(mg: ModifiedGenerators, where: str) -> str:
    """The first nonvanishing q-Serre sum Σ_k (-1)^k [m k]_{q_i} x_i^{m-k}
    x_j x_i^k, m = 1 - a_ij, over the modified generators ``mg``."""
    ring, rs, n = mg.rep.ring, mg.rep.rs, mg.rep.n
    w = ""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            m = 1 - rs.cartan[i - 1][j - 1]
            for mats, tag in ((mg.e, "e"), (mg.f, "f")):
                acc = serre_sum(mats, i, j, m, lambda k: q_binomial(ring, m, k, d=rs.d[i - 1]))
                if not acc.is_zero():
                    w = w or f"q-serre {tag} ({i},{j}){where}"
    return w


# ---------------------------------------------------------------------------
# κ constants and root-vector matching
# ---------------------------------------------------------------------------


def kappa_constants(rep: Representation, gamma: Root) -> Scalar:
    """Per-root rescaling monomial relating the two root-vector towers."""
    ring, n = rep.ring, rep.n
    fam = rep.family
    i, j = gamma.i, gamma.j
    half = Fraction(1, 2)
    if fam == "A":
        return ring.mono(s=half * (j - i))
    if fam == "B":
        if gamma.kind == "g":
            return ring.mono(s=j - i)
        return ring.mono(r=half + j - n, s=n + half - i)
    if fam == "C":
        if gamma.kind == "g":
            if j < n:
                return ring.mono(s=half * (j - i))
            return ring.mono(s=half * (n + 1 - i - (1 if i == n else 0)))
        if i == j:
            return ring.mono(r=half, s=n - i + half)
        return ring.mono(r=half * (j - n), s=half * (n + 1 - i))
    if gamma.kind == "g":
        return ring.mono(s=half * (j - i))
    return ring.mono(r=half * (j - n), s=half * (n - 1 - i))


def d_gamma(rep: Representation, gamma: Root) -> Scalar:
    """Π_i s_i^{k_i} over the simple-root decomposition γ = Σ k_i α_i."""
    e = sum(rep.rs.d[k] * c for k, c in enumerate(gamma.alpha))
    return rep.ring.mono(s=e)


def verify_kappa_recursion(rep: Representation, order: ConvexOrder) -> Report:
    """κ_{α+β} = κ_α κ_β (ω'_β, ω_α)^{1/2} over minimal pairs reproduces the
    closed tables, and κ is 1 on simple roots."""
    ring, rs = rep.ring, rep.rs
    out = Report()
    with out.timed("kappa-recursion", rep.family, rep.n) as it:
        w = ""
        for gamma in rs.positive:
            if gamma.is_simple():
                if not kappa_constants(rep, gamma).is_one():
                    w = w or f"kappa({gamma.label()}) != 1"
                continue
            a, b = minimal_pair(order, gamma)
            rec = (
                kappa_constants(rep, a)
                * kappa_constants(rep, b)
                * omega_pairing(rs, ring, b.alpha, a.alpha).sqrt_monomial()
            )
            if rec != kappa_constants(rep, gamma):
                w = w or f"kappa recursion fails at {gamma.label()}"
        it.witness = w
    return out


def verify_root_vector_embedding(rvm: RootVectorMatrices, mg: ModifiedGenerators) -> Report:
    """The q-bracketed root vectors of the modified generators ``mg`` coincide
    with the rescaled two-parameter ones ``rvm``:
    ẽ_γ = κ_γ^{-1} e_γ ω_γ^{-1/2} and f̃_γ = d_γ κ_γ^{-1} f_γ (ω'_γ)^{-1/2}."""
    rep, order = rvm.rep, rvm.order
    ring, rs = rep.ring, rep.rs
    out = Report()
    with out.timed("root-vector-embedding", rep.family, rep.n) as it:
        w = ""
        e_one: dict[tuple, SMatrix] = {}
        f_one: dict[tuple, SMatrix] = {}
        for rt in sorted(rs.positive, key=lambda r: r.height):
            if rt.is_simple():
                idx = rt.alpha.index(1) + 1
                e_one[rt.alpha] = mg.e[idx]
                f_one[rt.alpha] = mg.f[idx]
            else:
                a, b = minimal_pair(order, rt)
                qf = q_scalar(ring) ** int(rs.sym_form(a.alpha, b.alpha))
                e_one[rt.alpha] = e_one[a.alpha] @ e_one[b.alpha] - (e_one[b.alpha] @ e_one[a.alpha]).scale(qf)
                f_one[rt.alpha] = f_one[b.alpha] @ f_one[a.alpha] - (f_one[a.alpha] @ f_one[b.alpha]).scale(qf.inv())
            kap = kappa_constants(rep, rt)
            om_half_inv = rep.omega_of(rt.alpha).diagonal_sqrt().diagonal_inv()
            omp_half_inv = rep.omega_prime_of(rt.alpha).diagonal_sqrt().diagonal_inv()
            ww = first_mismatch(e_one[rt.alpha], (rvm.e_of(rt) @ om_half_inv).scale(kap.inv()), rep.N)
            if ww:
                w = w or f"e-tower at {rt.label()}: {ww}"
            ww = first_mismatch(
                f_one[rt.alpha], (rvm.f_of(rt) @ omp_half_inv).scale(d_gamma(rep, rt) * kap.inv()), rep.N
            )
            if ww:
                w = w or f"f-tower at {rt.label()}: {ww}"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# the diagonal twist: match in type A, obstruction in type B
# ---------------------------------------------------------------------------


def quarter_ring(*extra: str) -> ScalarRing:
    """Ring in w = (rs)^{1/4} and q = r^{1/2}s^{-1/2}, where r = w²q and
    s = w²q^{-1} are integral."""
    return ScalarRing([Variable("w", 1), Variable("q", 2), *extra])


def _to_quarter_ring(x: Scalar, target: ScalarRing) -> Scalar:
    """Exact image of an r,s scalar under r^{1/2} ↦ w q^{1/2},
    s^{1/2} ↦ w q^{-1/2}."""
    w = target.atom("w")
    qh = target.atom("q")
    binds = {"r": w * qh, "s": w * qh.inv()}
    for name in x.ring.names:
        if name not in ("r", "s"):
            binds[name] = target.atom(name)
    return substitute(x, binds, ring=target)


def verify_twist_A(rep: Representation, rhat: SMatrix) -> Report:
    """R = F^{-1} R̄ F^{-1} for the diagonal F with entries (rs)^{±1/4}: the
    two-parameter operator ``rhat``∘τ on the type-A module ``rep`` is a
    diagonal twist of its one-parameter specialization.  The form is spectral
    when the ring of ``rep`` carries z (``rhat`` is then R̂(z)), else finite."""
    form = "affine" if "z" in rep.ring.names else "finite"
    rank, N = rep.n, rep.N
    out = Report()
    with out.timed(f"twist-A-{form}", "A", rank) as it:
        ring = quarter_ring(*(("z",) if form == "affine" else ()))
        qh = ring.atom("q")
        r_two_rs = rhat @ flip_map(rep.ring, N)
        r_two = r_two_rs.map_entries(lambda v: _to_quarter_ring(v, ring), ring=ring)
        if form == "finite":
            r_one = r_two_rs.substituted({"r": qh, "s": qh.inv()}, ring=ring)
        else:
            from .affine import one_param_r_affine_A

            r_one = one_param_r_affine_A(rank, ring)

        # F(v_i ⊗ v_j) = w^{±1} v_i ⊗ v_j with w = (rs)^{1/4}; the orientation
        # (+1 on i < j) is the one that makes the identity true — the text fixes
        # only exp(2φ_ij) up to the skew orientation
        rows = {}
        for i in range(N):
            for j in range(N):
                idx = i * N + j
                e = 0 if i == j else (-1 if i > j else 1)
                rows[idx] = {idx: ring.mono(w=e)}
        f_inv = SMatrix(ring, N * N, N * N, rows).diagonal_inv()
        it.witness = first_mismatch(r_two, f_inv @ r_one @ f_inv, N)
    return out


def b_type_obstruction(rep: Representation, rhat: SMatrix) -> Report:
    """No diagonal twist relates the B-type operator to its one-parameter
    specialization: for the explicit operator ``rhat`` on the type-B module
    ``rep``, the matching conditions on the first five summand families force
    the twist uniquely, and the residual on the E_{i'j'} ⊗ E_{ij} family is
    then nonzero.  Both facts are asserted."""
    out = Report()
    with out.timed("twist-B-obstruction", "B", rep.n) as it:
        N, n = rep.N, rep.n
        tab = CoefficientTables(rep)
        pr = rep.prime
        ring = quarter_ring()
        qh = ring.atom("q")

        r_two_rs = rhat @ flip_map(rep.ring, N)
        r_two = r_two_rs.map_entries(lambda v: _to_quarter_ring(v, ring), ring=ring)
        r_one = r_two_rs.substituted({"r": qh, "s": qh.inv()}, ring=ring)

        # forced twist: exp(2φ_ii) = 1, exp(2φ_{ii'}) = 1, exp(2φ_ij) = a_ij^{-1};
        # skew-symmetry fixes the rest (consistent because a_ij a_ji = 1)
        def exp_phi(i, j):
            if j == i or j == pr(i):
                return ring.one
            return _to_quarter_ring(tab.a(i, j).inv(), ring).sqrt_monomial()

        rows = {}
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                idx = (i - 1) * N + (j - 1)
                rows[idx] = {idx: exp_phi(i, j)}
        f_inv = SMatrix(ring, N * N, N * N, rows).diagonal_inv()
        diff = r_two - f_inv @ r_one @ f_inv

        w = ""
        last_family = []
        for ii, row in diff.rows.items():
            p, q = ii // N + 1, ii % N + 1  # output pair (v_p ⊗ v_q)
            for jj, val in row.items():
                p2, q2 = jj // N + 1, jj % N + 1  # input pair
                if p == pr(q) and p2 == pr(q2) and q < q2 and q2 != pr(q):
                    last_family.append(((ii, jj), val))
                    continue  # the E_{i'j'} ⊗ E_{ij} family, allowed to differ
                w = w or f"unexpected residual at (({p},{q}),({p2},{q2}))"
        # the five constrained families matched; the last family must not
        if not last_family:
            w = w or "twist unexpectedly matches in type B"
        it.ok = not w
        if not w:
            (ii, jj), val = last_family[0]
            w = f"nonzero residual at entry ({ii},{jj}): {val}"
        it.witness = w
    return out


def run_embed_checks(family: str, rank: int, checks: list[str]) -> Report:
    """The named embed checks of the catalogue, over one shared case context."""
    from .catalogue import run_group

    return run_group("embed", family, rank, checks)
