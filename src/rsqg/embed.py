"""One-parameter structures inside the two-parameter quantum group, as
executable certificates on the fundamental modules.

U_q is the case of U_{r,s} where the pairing Ω becomes the symmetric
q^{(α_i,α_j)}, q = r^{1/2} s^{-1/2}, and this module runs the two-parameter
code at that pairing rather than a copy of it.  The modified generators
ẽ_i = e_i ω_i^{-1/2}, f̃_i = s_i f_i (ω'_i)^{-1/2}, ω̃_i = ω_i^{1/2} (ω'_i)^{-1/2}
form a module (``modified_generators``) on which the relation checks of
``rep`` certify the standard one-parameter relations: Cartan conjugations,
the commutator with gap q_i - q_i^{-1}, and the Serre sums with
coefficients [m k]_{q_i} on V and on V⊗V.  The root vectors bracketed by
``lyndon.bracket_tower`` at the pairing q^{(λ,μ)} match the rescaled
two-parameter ones through per-root monomials κ_γ.  The skew diagonal twist
relating R to its one-parameter specialization is solved (``gauge``) and
must be unique: it holds in type A; in type B, solved off
E_{i'j'} ⊗ E_{ij}, it fails there.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations

from .affine import one_param_r_affine_A
from .gauge import Inconsistent, monomial_gauge
from .lyndon import ConvexOrder, bracket_tower, minimal_pair
from .matrices import SMatrix, compose_flip
from .rep import Representation, _cartan_commute, _cartan_conj, _ef_commutator, _serre
from .report import Report, basis_vector, first_mismatch
from .rootdata import Root, RootSystem, omega_pairing, presentation
from .rootvec import RootVectorMatrices
from .scalars import (
    Scalar,
    ScalarRing,
    Variable,
    q_binomial,
    q_scalar,
    substitute,
)


def _modified_e_f(mod: Representation) -> tuple[dict, dict]:
    """The tables ẽ_i = e_i ω_i^{-1/2} and f̃_i = s_i f_i (ω'_i)^{-1/2} of the
    module ``mod``: on V⊗V, Δ(e_i)Δ(ω_i)^{-1/2} and s_i Δ(f_i)Δ(ω'_i)^{-1/2}."""
    s_i = {i: mod.ring.mono(s=mod.rs.d[i - 1]) for i in mod.e}
    e = {i: mod.e[i] @ mod.omega[i].diagonal_sqrt().diagonal_inv() for i in mod.e}
    f = {i: (mod.f[i] @ mod.omega_prime[i].diagonal_sqrt().diagonal_inv()).scale(s_i[i]) for i in mod.e}
    return e, f


def modified_generators(rep: Representation) -> Representation:
    """The module ``rep`` on the modified generators ẽ_i = e_i ω_i^{-1/2},
    f̃_i = s_i f_i (ω'_i)^{-1/2} and ω̃_i = ω_i^{1/2}(ω'_i)^{-1/2}, with ω̃_i^{-1}
    in place of ω'_i: a module of U_q at q = r^{1/2} s^{-1/2} in the
    presentation that the relation checks of ``rep`` read.  The diagonal
    square roots exist in the half-power ring because every ω-eigenvalue is
    a monomial with integer r, s exponents."""
    e, f = _modified_e_f(rep)
    om = {i: rep.omega[i].diagonal_sqrt() @ rep.omega_prime[i].diagonal_sqrt().diagonal_inv() for i in rep.e}
    om_inv = {i: m.diagonal_inv() for i, m in om.items()}
    return Representation(rep.rs, rep.ring, rep.N, e, f, om, om_inv, rep.weights)


def _q_pairing(rs: RootSystem, ring: ScalarRing):
    """(λ, μ) ↦ q^{(λ,μ)} on simple-root coordinates, the U_q value of the
    pairing (ω'_λ, ω_μ)."""
    q = q_scalar(ring)
    return lambda lam, mu: q ** int(rs.sym_form(lam, mu))


def verify_dj_relations(rep: Representation, mg: Representation) -> Report:
    """The modified generators ``mg`` of ``rep`` satisfy the one-parameter
    defining relations at q = r^{1/2} s^{-1/2}, checked by the relation checks
    of ``rep`` at Ω_ij = q^{(α_i,α_j)}: the Cartan conjugations, the
    commutator identity with (ω̃_i - ω̃_i^{-1})/(q_i - q_i^{-1}), and the Serre
    sums with coefficients [m k]_{q_i}, on V and on V⊗V, where only ẽ_i and
    f̃_i are formed, from the tables of ``rep.square``."""
    ring, rs, n = rep.ring, rep.rs, rep.n
    Om, cartan, d = presentation(rs, ring, pairing=_q_pairing(rs, ring))
    out = Report()

    with out.timed("dj-cartan", rep.family, n) as it:
        it.witness = _cartan_commute(mg) or _cartan_conj(mg, Om, prime=False)

    with out.timed("dj-commutator", rep.family, n) as it:
        q = {i: q_scalar(ring, di) for i, di in d.items()}
        it.witness = _ef_commutator(mg, {i: qi - qi.inv() for i, qi in q.items()})

    with out.timed("dj-serre", rep.family, n) as it:

        def coefficients(tag: str, i: int, j: int):
            return lambda k: q_binomial(ring, 1 - cartan[(i, j)], k, d=d[i])

        it.witness = _serre(mg, cartan, coefficients, lambda: _modified_e_f(rep.square))
    return out


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


def verify_root_vector_embedding(rvm: RootVectorMatrices, mg: Representation) -> Report:
    """The q-bracketed root vectors of the modified generators ``mg``
    (``lyndon.bracket_tower`` with the pairing q^{(λ,μ)}) coincide with the
    rescaled two-parameter ones ``rvm``:
    ẽ_γ = κ_γ^{-1} e_γ ω_γ^{-1/2} and f̃_γ = d_γ κ_γ^{-1} f_γ (ω'_γ)^{-1/2}."""
    rep = rvm.rep
    out = Report()
    with out.timed("root-vector-embedding", rep.family, rep.n) as it:
        w = ""
        q_pairing = _q_pairing(rep.rs, rep.ring)
        e_one = bracket_tower(rvm.order, mg.e, q_pairing, operator.matmul, "e")
        f_one = bracket_tower(rvm.order, mg.f, q_pairing, operator.matmul, "f")
        for rt in sorted(rep.rs.positive, key=lambda r: r.height):
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
        r_two_rs = compose_flip(rhat)
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


def run_embed_checks(family: str, rank: int, checks: list[str], ctx=None) -> Report:
    """The named embed checks of the catalogue, over ``ctx``, the case's
    shared context, or a fresh one."""
    from .catalogue import CaseContext, run_group

    return run_group("embed", ctx if ctx is not None else CaseContext(family, rank), checks)
