"""Spectral-parameter R-matrices: the explicit degree-≤2 operators R̂(z),
their derivation as z-dependent linear combinations of the finite operator,
its inverse and the identity (Yang-Baxterization), the intertwining
certificates for tensor products of evaluation modules, and the Yang-Baxter
equation with a spectral parameter.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .matrices import SMatrix, compose_flip, tensor_units
from .rep import KAPPA, KINDS, EvaluationRep, Representation, TensorProduct, _evaluation, build_evaluation, build_fundamental
from .report import Report, basis_vector, first_mismatch, product_mismatch, yang_baxter_witness
from .rmatrix import CoefficientTables, eigenvalues
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
    first generator kind; each kind's tables of the two tensor products
    (``TensorProduct``) are built on the clock of that kind."""
    out = Report()
    for kind in KINDS:
        with out.timed(f"affine-intertwiner-{kind}", family, rank) as it:
            if kind == "e":
                ev_x, ev_y, rz = operators or intertwiner_operators(family, rank)
                xy, yx = TensorProduct(ev_x, ev_y), TensorProduct(ev_y, ev_x)
            w = ""
            for i in range(rank + 1):
                lhs, rhs = (rz, xy.table(kind)[i]), (yx.table(kind)[i], rz)
                ww = product_mismatch(lhs, rhs, ev_x.fin.N)
                if ww:
                    w = w or f"{kind}_{i}: {ww}"
            it.witness = w
    return out


# ---------------------------------------------------------------------------
# spectral Yang-Baxter equation
# ---------------------------------------------------------------------------


def check_spectral_ybe(family: str, rank: int, rep: Representation | None = None, rz: SMatrix | None = None) -> Report:
    """R₁₂(x) R₁₃(xy) R₂₃(y) = R₂₃(y) R₁₃(xy) R₁₂(x) on V⊗V⊗V with two
    independent ratio variables, for R(z) = R̂(z)∘τ, and every entry of the
    left side a polynomial in x and y (0 ≤ exponent ≤ the spectral degree
    bound).  ``rep`` is the fundamental module over (r, s, z) and ``rz`` =
    R̂(z) on it, the case's, or else built on its clock.

    The degree bound is proved on R(z), on V⊗V: where every entry is a
    polynomial in z of degree ≤ b (b = 1 in type A, 2 otherwise), every
    entry of R(x) is a polynomial in x of degree ≤ b and free of y, of R(y)
    the same with x and y exchanged, and of R(xy) a polynomial of degree
    ≤ b in each; each left-side entry is a sum of products of one entry of
    each, so a polynomial of x- and y-degree ≤ 2b.  An entry out of the
    bound fails the check, and the identity is not run: the witness names
    it ("R(z): row …, column … has z-degree d").  Otherwise the identity is
    decided by ``yang_baxter_witness``, the one decider it shares with the
    braid relation, which checks its premise on R̂(z) once, clears and packs
    R(z) once, and forms the actions of R(x), R(xy) and R(y) by moving each
    packed key's z-digit k to x^k, (xy)^k and y^k: the images are monomials
    with coefficient 1, so the substitutions keep every coefficient, power
    of s and column norm, and no entry is substituted."""
    out = Report()
    with out.timed("spectral-ybe", family, rank) as it:
        if rep is None:
            rep = build_fundamental(family, rank, rs_ring("z"))
        if rz is None:
            rz = affine_rhat(rep)
        excess = _degree_excess(compose_flip(rz), {"z": 1 if family == "A" else 2})
        if excess:
            it.witness = f"R(z): {excess}"
        else:
            ring = rs_ring("x", "y")
            x, y = ring.atom("x"), ring.atom("y")
            it.witness = yang_baxter_witness(rep, rz, (x, x * y, y))
    return out


# ---------------------------------------------------------------------------
# structural sanity certificates
# ---------------------------------------------------------------------------


def _degree_excess(m: SMatrix, limits: dict[str, int]) -> str:
    """The first entry of ``m`` (in storage order), an operator on V⊗V, that
    is not a polynomial in each of the one or two named variables of degree
    ≤ its limit: a denominator or a negative power gives "row v_a⊗v_b,
    column v_c⊗v_d is not polynomial in z", a degree above the limit "row
    v_a⊗v_b, column v_c⊗v_d has z-degree d"; "" when every entry is within
    its limits.  Both variables' exponents are read off each numerator's
    digits in one pass."""
    names = list(limits)
    if not 1 <= len(names) <= 2:
        raise ValueError(f"one or two variables, not {names}")
    x, y = names[0], names[-1]
    ix, iy = m.ring.index[x], m.ring.index[y]
    N = isqrt(m.nrows)
    for i, row in m.rows.items():
        for j, v in row.items():
            spans = _packed_exp_ranges(v._num, ix, iy) if v._num else ((0, 0), (0, 0))
            for name, (lowest, degree) in zip((x, y), spans):
                if not v.den_is_one() or lowest < 0:
                    fault = f"is not polynomial in {name}"
                elif degree > limits[name]:
                    fault = f"has {name}-degree {degree}"
                else:
                    continue
                return f"row {basis_vector(i, N, 2)}, column {basis_vector(j, N, 2)} {fault}"
    return ""


def check_degree_bounds(rep: Representation, rz: SMatrix) -> Report:
    """Every entry of the spectral operator ``rz`` on ``rep`` is a polynomial
    in z (a Laurent polynomial in r, s with no negative power of z) of
    degree ≤ 1 (A) or ≤ 2 (B/C/D)."""
    out = Report()
    with out.timed("z-degree-bound", rep.family, rep.n) as it:
        it.witness = _degree_excess(rz, {"z": 1 if rep.family == "A" else 2})
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


def run_affine_checks(family: str, rank: int, checks: list[str], ctx=None) -> Report:
    """The named affine checks of the catalogue, over ``ctx``, the case's
    shared context, or a fresh one."""
    from .catalogue import CaseContext, run_group

    return run_group("affine", ctx if ctx is not None else CaseContext(family, rank), checks)
