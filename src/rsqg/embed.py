"""One-parameter structures inside the two-parameter quantum group, as
executable certificates on the fundamental modules.

The modified generators ẽ_i = e_i ω_i^{-1/2}, f̃_i = s_i f_i (ω'_i)^{-1/2},
ω̃_i = ω_i^{1/2} (ω'_i)^{-1/2} satisfy the standard one-parameter relations
at q = r^{1/2} s^{-1/2}, and the rescaled root vectors match the q-bracketed
ones through per-root monomials κ_γ.  The skew diagonal twist relating R to
its one-parameter specialization is solved (``gauge``) and must be unique:
it holds in type A; in type B, solved off E_{i'j'} ⊗ E_{ij}, it fails there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .affine import one_param_r_affine_A
from .gauge import Inconsistent, monomial_gauge
from .lyndon import ConvexOrder, minimal_pair
from .matrices import SMatrix, flip_map
from .rep import Representation, serre_sum, tensor_square
from .report import Report, basis_vector, first_mismatch, product_mismatch
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
    """R = F⁻¹·R₁·F⁻¹ for a unique skew diagonal twist F (``_skew_twist``):
    the two-parameter R = ``rhat``∘τ on the type-A module ``rep`` is a
    diagonal twist of its one-parameter specialization R₁, finite or, when
    the ring of ``rep`` carries z (``rhat`` is then R̂(z)), spectral."""
    form = "affine" if "z" in rep.ring.names else "finite"
    return _skew_twist(f"twist-A-{form}", rep, rhat)


def b_type_obstruction(rep: Representation, rhat: SMatrix) -> Report:
    """No skew diagonal twist relates the B-type R = ``rhat``∘τ on ``rep``
    to its one-parameter specialization (``_skew_twist``): the entries off
    the E_{i'j'} ⊗ E_{ij} family determine the twist uniquely, and its
    residual on that family is nonzero.  Both facts are computed."""

    def family(k: int, l: int) -> bool:
        # v_a ⊗ v_b ← v_c ⊗ v_d (0-based) with b = a', d = c', b < d, d ≠ a
        (a, b), (c, d) = divmod(k, rep.N), divmod(l, rep.N)
        return a + b == c + d == rep.N - 1 and b < d and d != a

    return _skew_twist("twist-B-obstruction", rep, rhat, family)


def _skew_twist(name: str, rep: Representation, rhat: SMatrix, obstructed=None) -> Report:
    """The twist F = w^{u(a,b)} on v_a ⊗ v_b, u(b, a) = −u(a, b), with
    R = F⁻¹·R₁·F⁻¹ over the quarter ring, for R = ``rhat``∘τ and R₁ = R at
    r ↦ q, s ↦ q⁻¹ (over z, the printed spectral type-A R₁): a monomial gauge,
    R₁[k, l] = R[k, l]·w^{u(k)+u(l)}, solved from the entries outside
    ``obstructed`` and required to be unique.  With ``obstructed``, the item
    passes when R − F⁻¹·R₁·F⁻¹ is nonzero there and names the first such
    entry.  A failing witness names the first entry (v_a ⊗ v_b) that admits
    no twist, with both values, or the number of free unknowns."""
    N = rep.N
    out = Report()
    with out.timed(name, rep.family, rep.n) as it:
        ring = quarter_ring(*(("z",) if "z" in rep.ring.names else ()))
        r_two_rs = rhat @ flip_map(rep.ring, N)
        r_two = r_two_rs.map_entries(lambda v: _to_quarter_ring(v, ring), ring=ring)
        if "z" in ring.names:
            r_one = one_param_r_affine_A(rep.n, ring)
        else:
            r_one = r_two_rs.substituted({"r": ring.atom("q"), "s": ring.atom("q").inv()}, ring=ring)
        unknown = {ab: x for x, ab in enumerate(combinations(range(N), 2))}  # u(a, b), a < b

        def u(k: int) -> tuple:
            a, b = divmod(k, N)
            return ((unknown[a, b], 1),) if a < b else ((unknown[b, a], -1),) if a > b else ()

        entries = sorted({(k, l) for m in (r_two, r_one) for k, row in m.rows.items() for l in row})
        solved = [(k, l) for k, l in entries if not (obstructed and obstructed(k, l))]
        triples = [(u(k) + u(l), r_two.get(k, l), r_one.get(k, l)) for k, l in solved]
        try:
            exps, free = monomial_gauge(triples, len(unknown), ("w",))
        except Inconsistent as exc:
            (k, l), (_, value, partner) = solved[exc.args[0]], triples[exc.args[0]]
            where = f"row {basis_vector(k, N, 2)}, column {basis_vector(l, N, 2)}"
            it.witness = f"{where}: R {value} vs R₁ {partner} admit no skew twist"
        else:
            if free:
                it.witness = f"the skew twist is not unique: {free} free unknown(s)"
            elif obstructed:
                it.witness = "twist unexpectedly matches in type B"
                for k, l in filter(lambda kl: obstructed(*kl), entries):
                    twist = ring.mono(w=-sum(c * exps[x][0] for x, c in u(k) + u(l)))
                    val = r_two.get(k, l) - r_one.get(k, l) * twist
                    if not val.is_zero():
                        it.ok, it.witness = True, f"nonzero residual at entry ({k},{l}): {val}"
                        break
    return out


def run_embed_checks(family: str, rank: int, checks: list[str]) -> Report:
    """The named embed checks of the catalogue, over one shared case context."""
    from .catalogue import run_group

    return run_group("embed", family, rank, checks)
