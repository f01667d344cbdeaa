"""Spectral-parameter R-matrices: the explicit degree-≤2 operators R̂(z),
their derivation as z-dependent linear combinations of the finite operator,
its inverse and the identity (Yang-Baxterization), the intertwining
certificates for tensor products of evaluation modules, and the Yang-Baxter
equation with a spectral parameter.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .matrices import SMatrix, act_12, act_13, act_23, flip_map, tensor_units
from .rep import KAPPA, EvaluationRep, Representation, build_evaluation, build_fundamental, coproduct
from .report import Report, first_mismatch
from .rmatrix import CoefficientTables, eigenvalues
from .scalars import Scalar, ScalarRing, rs_ring


def xi_constant(family: str, rank: int, ring: ScalarRing) -> Scalar:
    """The second root of the diagonal scalar factors of R̂(z)."""
    n = rank
    if family == "A":
        raise ValueError("type A has no crossing constant")
    if family == "B":
        return ring.mono(r=-2 * n + 1, s=2 * n - 1)
    if family == "C":
        return ring.mono(r=-n - 1, s=n + 1)
    return ring.mono(r=-n + 1, s=n - 1)


def affine_rhat(rep: Representation, z: Scalar | None = None) -> SMatrix:
    """The explicit spectral operator on the fundamental module ``rep``,
    polynomial in z of degree ≤ 1 (A) or ≤ 2 (B/C/D); z defaults to the ring
    variable z."""
    ring, family, n, N = rep.ring, rep.family, rep.n, rep.N
    z = z if z is not None else ring.atom("z")
    one = ring.one
    R = lambda **p: ring.mono(**p)
    ent: list[tuple[int, int, int, int, Scalar]] = []
    if family == "A":
        lam = R(r=1, s=-1)
        for i in range(1, N + 1):
            ent.append((i, i, i, i, one - z * lam))
            for j in range(1, N + 1):
                if i == j:
                    continue
                if i > j:
                    ent.append((i, j, j, i, (one - z) * R(r=1)))
                    ent.append((i, i, j, j, one - lam))
                else:
                    ent.append((i, j, j, i, (one - z) * R(s=-1)))
                    ent.append((i, i, j, j, (one - lam) * z))
        return tensor_units(ring, N, ent)

    tab = CoefficientTables(rep)
    xi = xi_constant(family, n, ring)
    pr = rep.prime
    if family == "B":
        lam0 = R(r=-2, s=2)
        amid = R(r=-1, s=1)
    else:
        lam0 = R(r=-1, s=1)
        amid = R(r=-Fraction(1, 2), s=Fraction(1, 2))

    def a_z(i, j):
        return amid * (z - one) * (z - xi) * tab.a(i, j)

    def b_z(i, j):
        delt = one if j == pr(i) else ring.zero
        if i == j:
            if family == "B" and i == n + 1:
                return amid * (z - one) * (z - xi) + (lam0 - one) * (xi - one) * z
            return (lam0 * z - xi) * (z - one)
        if i < j:
            return (lam0 - one) * (xi * tab.t(i) * tab.t(j).inv() * (z - one) - delt * (z - xi))
        return (lam0 - one) * z * (tab.t(i) * tab.t(j).inv() * (z - one) - delt * (z - xi))

    for i in range(1, N + 1):
        if not (family == "B" and i == n + 1):
            ent.append((i, i, i, i, (z - lam0) * (z - xi)))
        for j in range(1, N + 1):
            if j not in (i, pr(i)):
                ent.append((i, j, j, i, a_z(i, j)))
                if i > j:
                    ent.append((i, i, j, j, (one - lam0) * (z - xi)))
                else:
                    ent.append((i, i, j, j, (one - lam0) * z * (z - xi)))
            ent.append((pr(i), j, i, pr(j), b_z(i, j)))
    return tensor_units(ring, N, ent)


def build_affine_rhat(family: str, rank: int, ring: ScalarRing | None = None) -> SMatrix:
    return affine_rhat(build_fundamental(family, rank, ring if ring is not None else rs_ring("z")))


def one_param_r_affine_A(rank: int, ring: ScalarRing) -> SMatrix:
    """Printed one-parameter spectral R = R̂(z)∘τ for type A in the q ring."""
    N = rank + 1
    one = ring.one
    z = ring.atom("z")
    Q = lambda k: ring.mono(q=k)
    ent: list[tuple[int, int, int, int, Scalar]] = []
    for i in range(1, N + 1):
        ent.append((i, i, i, i, one - z * Q(2)))
        for j in range(1, N + 1):
            if i == j:
                continue
            ent.append((i, i, j, j, (one - z) * Q(1)))
            if i > j:
                ent.append((i, j, j, i, one - Q(2)))
            else:
                ent.append((i, j, j, i, (one - Q(2)) * z))
    return tensor_units(ring, N, ent)


# ---------------------------------------------------------------------------
# Yang-Baxterization
# ---------------------------------------------------------------------------


def baxterize(
    rhat: SMatrix,
    rbar: SMatrix,
    lam: list[Scalar],
    scheme: str,
    z: Scalar,
) -> SMatrix:
    """z-dependent linear combination of the finite operator, its inverse and
    the identity.

    "two-eigen" needs [λ₁, λ₂] ordered as (symmetric, antisymmetric) highest
    weight eigenvalues; the three-eigenvalue schemes take [λ₁, λ₂, λ₃] in the
    highest-weight order used throughout.
    """
    ring = rhat.ring
    ident = SMatrix.identity(ring, rhat.nrows)
    one = ring.one
    if scheme == "two-eigen":
        if len(lam) != 2:
            raise ValueError("two-eigen scheme needs exactly two eigenvalues")
        l_sym, l_alt = lam
        return rhat.scale(l_sym.inv()) + rbar.scale(z * l_alt)
    if len(lam) != 3:
        raise ValueError(f"scheme {scheme!r} needs exactly three eigenvalues")
    l1, l2, l3 = lam
    if scheme == "three-eigen-a":
        mid = one + l1 / l2 + l1 / l3 + l2 / l3
        return rbar.scale(l1 * z * (z - one)) + ident.scale(mid * z) - rhat.scale(l3.inv() * (z - one))
    if scheme == "three-eigen-b":
        mid = one + l1 / l2 + l1 / l3 + l1 * l1 / (l2 * l3)
        return rbar.scale(l1 * z * (z - one)) + ident.scale(mid * z) - rhat.scale(l1 / (l2 * l3) * (z - one))
    raise ValueError(f"unknown scheme {scheme!r}")


def baxterize_bullet(rep: Representation, rhat: SMatrix, rbar: SMatrix, z: Scalar) -> SMatrix:
    """The per-type combination of R̂ and R̄ = R̂^{-1} on ``rep`` stated
    alongside the derivation: coefficients written out with the crossing
    constant ξ."""
    ring, family, n = rep.ring, rep.family, rep.n
    one = ring.one
    R = lambda **p: ring.mono(**p)
    ident = SMatrix.identity(ring, rep.N * rep.N)
    if family == "A":
        return rhat + rbar.scale(-z * R(r=1, s=-1))
    xi = xi_constant(family, n, ring)
    half = Fraction(1, 2)
    if family == "B":
        return (
            rbar.scale(R(r=-1, s=1) * z * (z - one))
            + ident.scale((one - xi) * (one - R(r=-2, s=2)) * z)
            - rhat.scale(R(r=-2 * n, s=2 * n) * (z - one))
        )
    if family == "C":
        # R̂-coefficient sign follows the general three-eigenvalue scheme
        # -λ1/(λ2λ3); with it the combination reproduces the explicit operator
        return (
            rbar.scale(R(r=-half, s=half) * z * (z - one))
            + ident.scale((one - xi) * (one - R(r=-1, s=1)) * z)
            - rhat.scale(R(r=-n - Fraction(3, 2), s=n + Fraction(3, 2)) * (z - one))
        )
    return (
        rbar.scale(R(r=-half, s=half) * z * (z - one))
        + ident.scale((one - xi) * (one - R(r=-1, s=1)) * z)
        - rhat.scale(R(r=-n + half, s=n - half) * (z - one))
    )


def check_baxterize_match(rep: Representation, rz: SMatrix, rhat: SMatrix, rbar: SMatrix) -> Report:
    """The per-type combination of ``rhat`` and ``rbar`` (R̂ and R̄ on ``rep``,
    over the z ring) reproduces the explicit spectral operator ``rz``
    entrywise; also reports which generic scheme produces it."""
    ring, family, rank = rep.ring, rep.family, rep.n
    z = ring.atom("z")
    out = Report()
    with out.timed("baxterize-match", family, rank) as it:
        it.witness = first_mismatch(baxterize_bullet(rep, rhat, rbar, z), rz)

    with out.timed("baxterize-scheme", family, rank) as it:
        lam = eigenvalues(rep)
        if family == "A":
            scheme_used, ok = "two-eigen", baxterize(rhat, rbar, [lam[0], lam[1]], "two-eigen", z) == rz
        else:
            match_a = baxterize(rhat, rbar, lam, "three-eigen-a", z) == rz
            match_b = baxterize(rhat, rbar, lam, "three-eigen-b", z) == rz
            scheme_used = "three-eigen-a" if match_a else ("three-eigen-b" if match_b else "none")
            ok = match_a or match_b
        it.ok = ok
        it.witness = f"scheme={scheme_used}" if ok else "no generic scheme reproduces the explicit operator"
    return out


# ---------------------------------------------------------------------------
# intertwining with evaluation modules
# ---------------------------------------------------------------------------


def intertwiner_operators(family: str, rank: int) -> tuple[EvaluationRep, EvaluationRep, SMatrix]:
    """V(x), V(y) and R̂(x/y) over (r, s, x, y, a), with b = (rs)^{-κ}a^{-1}."""
    ring = rs_ring("x", "y", "a")
    a = ring.atom("a")
    b = ring.mono(r=-KAPPA[family], s=-KAPPA[family]) * a.inv()
    ev_x = build_evaluation(family, rank, ring=ring, spectral="x", a=a, b=b)
    ev_y = build_evaluation(family, rank, ring=ring, spectral="y", a=a, b=b)
    return ev_x, ev_y, affine_rhat(ev_x.fin, z=ring.atom("x") * ring.atom("y").inv())


def check_affine_intertwiner(family: str, rank: int, operators: tuple | None = None) -> Report:
    """R̂(x/y) intertwines V(x)⊗V(y) → V(y)⊗V(x) for every generator.  The
    ``operators`` (V(x), V(y), R̂(x/y)) are the case's, or else built by
    ``intertwiner_operators`` on the clock of the first generator kind."""
    out = Report()
    for kind in ("e", "f", "omega", "omega-prime"):
        with out.timed(f"affine-intertwiner-{kind}", family, rank) as it:
            if kind == "e":
                ev_x, ev_y, rz = operators or intertwiner_operators(family, rank)
            w = ""
            for i in range(rank + 1):
                lhs = rz @ coproduct(ev_x, ev_y, kind, i)
                rhs = coproduct(ev_y, ev_x, kind, i) @ rz
                ww = first_mismatch(lhs, rhs)
                if ww:
                    w = w or f"{kind}_{i}: {ww}"
            it.witness = w
    return out


# ---------------------------------------------------------------------------
# spectral Yang-Baxter equation
# ---------------------------------------------------------------------------


def spectral_ybe_operators(family: str, rank: int) -> tuple[SMatrix, SMatrix, SMatrix]:
    """R(x), R(y) and R(xy) over (r, s, x, y), for R(z) = R̂(z)∘τ."""
    ring = rs_ring("x", "y")
    rep = build_fundamental(family, rank, ring)
    tau = flip_map(ring, rep.N)
    x, y = ring.atom("x"), ring.atom("y")
    return tuple(affine_rhat(rep, z=z) @ tau for z in (x, y, x * y))


def check_spectral_ybe(family: str, rank: int, operators: tuple | None = None) -> Report:
    """R₁₂(x) R₁₃(xy) R₂₃(y) = R₂₃(y) R₁₃(xy) R₁₂(x) on V⊗V⊗V with two
    independent ratio variables.  The ``operators`` (R(x), R(y), R(xy)) are
    the case's, or else built by ``spectral_ybe_operators`` on its clock."""
    out = Report()
    with out.timed("spectral-ybe", family, rank) as it:
        r_x, r_y, r_xy = operators or spectral_ybe_operators(family, rank)
        N = isqrt(r_x.nrows)
        r12, r23, r13 = act_12(r_x, N), act_23(r_y, N), act_13(r_xy, N)
        lhs = r12 @ r13 @ r23
        w = first_mismatch(lhs, r23 @ r13 @ r12)
        # degree sanity: three factors of z-degree ≤ 2 each
        if not w:
            bound = 2 if family == "A" else 4
            for i, row in lhs.rows.items():
                for j, v in row.items():
                    if v.z_degree("x") > bound or v.z_degree("y") > bound:
                        w = w or f"entry ({i},{j}) exceeds the spectral degree bound"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# structural sanity certificates
# ---------------------------------------------------------------------------


def check_degree_bounds(rep: Representation, rz: SMatrix) -> Report:
    """Entrywise polynomial degree in z of the spectral operator ``rz`` on
    ``rep`` stays ≤ 1 (A) or ≤ 2 (B/C/D)."""
    bound = 1 if rep.family == "A" else 2
    out = Report()
    with out.timed("z-degree-bound", rep.family, rep.n) as it:
        w = ""
        for i, row in rz.rows.items():
            for j, v in row.items():
                if not v.den_is_one():
                    w = w or f"entry ({i},{j}) is not polynomial in z"
                elif v.z_degree("z") > bound:
                    w = w or f"entry ({i},{j}) has z-degree {v.z_degree('z')}"
        it.witness = w
    return out


def check_unit_point(rep: Representation, rz: SMatrix) -> Report:
    """At z = 1 the spectral operator ``rz`` on ``rep`` collapses to the
    scalar (1-λ₀)(1-ξ) times the identity (type A: (1 - rs^{-1}) Id)."""
    ring, family, rank = rep.ring, rep.family, rep.n
    out = Report()
    with out.timed("unit-point", family, rank) as it:
        at_one = rz.substituted({"z": ring.one})
        if family == "A":
            c = ring.one - ring.mono(r=1, s=-1)
        else:
            lam0 = ring.mono(r=-2, s=2) if family == "B" else ring.mono(r=-1, s=1)
            c = (ring.one - lam0) * (ring.one - xi_constant(family, rank, ring))
        it.witness = first_mismatch(at_one, SMatrix.identity(ring, rep.N * rep.N).scale(c))
    return out


def run_affine_checks(family: str, rank: int, checks: list[str]) -> Report:
    """The named affine checks of the catalogue, over one shared case context."""
    from .catalogue import run_group

    return run_group("affine", family, rank, checks)
