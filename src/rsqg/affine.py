"""Spectral-parameter R-matrices: the explicit degree-≤2 operators R̂(z),
their derivation as z-dependent linear combinations of the finite operator,
its inverse and the identity (Yang-Baxterization), the intertwining
certificates for tensor products of evaluation modules, and the Yang-Baxter
equation with a spectral parameter.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .matrices import PairAction, SMatrix, flip_map, tensor_units
from .rep import KAPPA, EvaluationRep, Representation, _evaluation, build_evaluation, build_fundamental, coproduct
from .report import (
    Report,
    first_column_mismatch,
    first_mismatch,
    product_mismatch,
    reflected_column_pairs,
    transpose_reflection,
)
from .rmatrix import CoefficientTables, eigenvalues
from .rootdata import build_root_system, fundamental_weights
from .scalars import Scalar, ScalarRing, _packed_exp_ranges, rs_ring


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
    # every z-polynomial is built once, and the (i, j) entries share it or
    # scale it by a monomial
    if family == "A":
        lam = R(r=1, s=-1)
        diag, low, high = one - z * lam, (one - z) * R(r=1), (one - z) * R(s=-1)
        fill, fill_z = one - lam, (one - lam) * z
        for i in range(1, N + 1):
            ent.append((i, i, i, i, diag))
            for j in range(1, N + 1):
                if i > j:
                    ent.append((i, j, j, i, low))
                    ent.append((i, i, j, j, fill))
                elif i < j:
                    ent.append((i, j, j, i, high))
                    ent.append((i, i, j, j, fill_z))
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
    diag = (z - lam0) * (z - xi)  # (z−λ₀)(z−ξ)
    swap = amid * (z - one) * (z - xi)  # amid·(z−1)(z−ξ), times a_ij
    low = (one - lam0) * (z - xi)  # (1−λ₀)(z−ξ)
    high = low * z
    shift = (lam0 - one) * (z - one)  # (λ₀−1)(z−1)
    prime_diag = (lam0 * z - xi) * (z - one)
    middle = swap + (lam0 - one) * (xi - one) * z  # B's v_{n+1} ⊗ v_{n+1}

    def b_z(i, j):
        # (λ₀−1)(ξ t_i/t_j (z−1) − δ_{j,i'}(z−ξ)) for i < j, and z times
        # (λ₀−1)(t_i/t_j (z−1) − δ_{j,i'}(z−ξ)) for i > j
        if i == j:
            return middle if family == "B" and i == n + 1 else prime_diag
        tt = tab.t(i) * tab.t(j).inv()
        if i < j:
            got = xi * tt * shift
            return got + low if j == pr(i) else got
        got = tt * z * shift
        return got + high if j == pr(i) else got

    for i in range(1, N + 1):
        if not (family == "B" and i == n + 1):
            ent.append((i, i, i, i, diag))
        for j in range(1, N + 1):
            if j not in (i, pr(i)):
                ent.append((i, j, j, i, swap * tab.a(i, j)))
                ent.append((i, i, j, j, low if i > j else high))
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
        it.witness = first_mismatch(baxterize_bullet(rep, rhat, rbar, z), rz, rep.N)

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
    """V(x), V(y) and R̂(x/y) over (r, s, x, y, a), with b = (rs)^{-κ}a^{-1}.
    V(y) shares V(x)'s fundamental module and affine data."""
    ring = rs_ring("x", "y", "a")
    a = ring.atom("a")
    b = ring.mono(r=-KAPPA[family], s=-KAPPA[family]) * a.inv()
    ev_x = build_evaluation(family, rank, ring=ring, spectral="x", a=a, b=b)
    ev_y = _evaluation(ev_x.fin, ev_x.aff, "y", a, b)
    return ev_x, ev_y, affine_rhat(ev_x.fin, z=ring.atom("x") * ring.atom("y").inv())


def check_affine_intertwiner(family: str, rank: int, operators: tuple | None = None) -> Report:
    """R̂(x/y) intertwines V(x)⊗V(y) → V(y)⊗V(x) for every generator; the
    diagonal ω_i and ω′_i are checked on the support of R̂(x/y)
    (``product_mismatch``).  The ``operators`` (V(x), V(y), R̂(x/y)) are the
    case's, or else built by ``intertwiner_operators`` on the clock of the
    first generator kind."""
    out = Report()
    for kind in ("e", "f", "omega", "omega-prime"):
        with out.timed(f"affine-intertwiner-{kind}", family, rank) as it:
            if kind == "e":
                ev_x, ev_y, rz = operators or intertwiner_operators(family, rank)
            w = ""
            for i in range(rank + 1):
                lhs, rhs = (rz, coproduct(ev_x, ev_y, kind, i)), (coproduct(ev_y, ev_x, kind, i), rz)
                ww = product_mismatch(lhs, rhs, ev_x.fin.N)
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
    independent ratio variables, and every entry of the left side a
    polynomial in x and y (0 ≤ exponent ≤ the spectral degree bound).  The
    ``operators`` (R(x), R(y), R(xy)) are the case's, or else built by
    ``spectral_ybe_operators`` on its clock.

    Where ``transpose_reflection`` certifies R(z)ᵀ = Π·G·R(z)·G⁻¹·Π for all
    three operators (types B, C and D), the right side is G₃⁻¹·Π₃·LHSᵀ·Π₃·G₃,
    since transposing reverses the product and Π₃G₃ conjugates each factor
    to its transpose; only the left side is computed, and checked against
    its own reflection (``reflected_column_pairs``).  Otherwise, and for the
    witness of any failure, both sides are compared one column at a time
    (``first_column_mismatch``), and a failure names its column and row as
    basis vectors."""
    out = Report()
    with out.timed("spectral-ybe", family, rank) as it:
        r_x, r_y, r_xy = operators or spectral_ybe_operators(family, rank)
        N = isqrt(r_x.nrows)
        r12, r13, r23 = PairAction(r_x, N, (1, 2)), PairAction(r_xy, N, (1, 3)), PairAction(r_y, N, (2, 3))
        # three factors of z-degree ≤ 1 (A) or ≤ 2 (B/C/D), two of them in x and two in y
        bound = 2 if family == "A" else 4
        ix, iy = r_x.ring.index["x"], r_x.ring.index["y"]

        def over_bound(lhs: dict) -> tuple[int, str] | None:
            # the left side's column holds kernel values: a Laurent entry is
            # its term dict, whose x and y exponents are read off its digits
            for row in sorted(lhs):
                v = lhs[row]
                if type(v) is not dict:
                    return row, "LHS entry has a denominator"
                (lx, dx), (ly, dy) = _packed_exp_ranges(v, ix, iy)
                if lx < 0 or ly < 0:
                    return row, f"LHS entry of lowest x-power {lx} and y-power {ly} is not polynomial in x and y"
                if dx > bound or dy > bound:
                    return row, f"LHS entry of x-degree {dx} and y-degree {dy} exceeds the spectral degree bound {bound}"
            return None

        lhs, rhs = (r12, r13, r23), (r23, r13, r12)
        d = transpose_reflection((r_x, r_y, r_xy))
        weights = fundamental_weights(build_root_system(family, rank))
        if d is None or reflected_column_pairs(lhs, d, weights, column_bound=over_bound) is None:
            it.witness = first_column_mismatch(lhs, rhs, over_bound)
    return out


# ---------------------------------------------------------------------------
# structural sanity certificates
# ---------------------------------------------------------------------------


def check_degree_bounds(rep: Representation, rz: SMatrix) -> Report:
    """Every entry of the spectral operator ``rz`` on ``rep`` is a polynomial
    in z (a Laurent polynomial in r, s with no negative power of z) of
    degree ≤ 1 (A) or ≤ 2 (B/C/D)."""
    bound = 1 if rep.family == "A" else 2
    out = Report()
    with out.timed("z-degree-bound", rep.family, rep.n) as it:
        w = ""
        for i, row in rz.rows.items():
            for j, v in row.items():
                lowest, degree = v.z_range("z")
                if not v.den_is_one() or lowest < 0:
                    w = w or f"entry ({i},{j}) is not polynomial in z"
                elif degree > bound:
                    w = w or f"entry ({i},{j}) has z-degree {degree}"
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
        it.witness = first_mismatch(at_one, SMatrix.identity(ring, rep.N * rep.N).scale(c), rep.N)
    return out


def run_affine_checks(family: str, rank: int, checks: list[str]) -> Report:
    """The named affine checks of the catalogue, over one shared case context."""
    from .catalogue import run_group

    return run_group("affine", family, rank, checks)
