"""Finite R-matrices on V ⊗ V by three routes — explicit coefficient tables,
the ordered product of per-root local factors composed with the diagonal
weight twist and the flip, and the parameter-exchanged inverse — together
with the eigenvalue, intertwining, braid, minimal-polynomial, inverse, and
one-parameter specialization certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lyndon import ConvexOrder, lalonde_ram
from .matrices import SMatrix, compose_flip, flipped, kron, mat_vec, tensor_units, vec_scale
from .pairing import PairingContext
from .rep import Representation, build_fundamental, highest_weight_vectors
from .report import Report, basis_vector, commutation_witness, first_mismatch, yang_baxter_witness
from .rootdata import f_function
from .rootvec import RootVectorMatrices, build_root_vector_matrices
from .scalars import Scalar, ScalarRing, Variable, _memoized

# ---------------------------------------------------------------------------
# per-type coefficient tables
# ---------------------------------------------------------------------------


@dataclass
class CoefficientTables:
    """σ_i signs, t_i monomials and a_ij monomials entering the explicit
    R-matrix displays (types B, C, D); each t_i and a_ij is computed once
    per process for each (family, rank, ring variable set), in the memo of
    ``scalars._memoized``, and shared by every table of that case."""

    rep: Representation

    def sigma(self, i: int) -> int:
        n = self.rep.n
        if self.rep.family == "B":
            return -1 if i < n + 1 else (0 if i == n + 1 else 1)
        return 1 if i <= n else -1

    def t(self, i: int) -> Scalar:
        return _memoized(self.rep.ring, ("coefficient_t", self.rep.family, self.rep.n, i), lambda: self._t_of(i))

    def a(self, i: int, j: int) -> Scalar:
        return _memoized(self.rep.ring, ("coefficient_a", self.rep.family, self.rep.n, i, j), lambda: self._a_of(i, j))

    def _t_of(self, i: int) -> Scalar:
        ring, n = self.rep.ring, self.rep.n
        fam = self.rep.family
        if fam == "B":
            if i < n + 1:
                return ring.mono(s=2 * (i - n) - 1)
            if i == n + 1:
                return ring.mono(s=-1)
            return ring.mono(r=2 * (n + 1 - i) + 1)
        if fam == "C":
            return ring.mono(s=i - n - 1) if i <= n else -ring.mono(r=n - i)
        return ring.mono(s=i - n) if i <= n else ring.mono(r=n + 1 - i)

    def _a_of(self, i: int, j: int) -> Scalar:
        ring = self.rep.ring
        jp = self.rep.prime(j)
        half = 1 if self.rep.family == "B" else Fraction(1, 2)
        e = -half * self.sigma(i) * self.sigma(j)
        if (j < i < jp) or (jp < i < j):
            e = -e
        elif not (i < min(j, jp) or i > max(j, jp)):
            raise ValueError(f"a_({i},{j}) undefined (j = i or j = i')")
        return ring.mono(r=e, s=e)


def verify_tables(rep: Representation, rhat: SMatrix) -> Report:
    """Away from j = i, i' (type A: j ≠ i), the coefficient of v_i ⊗ v_j in
    ``rhat``(v_j ⊗ v_i) is f(ε_i, ε_j); for B/C/D also a_ij · a_ji = 1 and
    a_ij = f(ε_i, ε_j)."""
    N = rep.N
    out = Report()
    with out.timed("coefficient-tables", rep.family, rep.n) as it:
        tab = CoefficientTables(rep)
        ring = rep.ring
        w = ""
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if j == i or (rep.family != "A" and j == rep.prime(i)):
                    continue
                fv = f_function(rep.rs, ring, rep.weights[i - 1], rep.weights[j - 1])
                if rep.family != "A":
                    if not (tab.a(i, j) * tab.a(j, i)).is_one():
                        w = w or f"a_({i},{j}) a_({j},{i}) != 1"
                    if tab.a(i, j) != fv:
                        w = w or f"a_({i},{j}) != f(eps_{i},eps_{j})"
                got = rhat.get((i - 1) * N + j - 1, (j - 1) * N + i - 1)
                if got != fv:
                    w = w or f"swap coefficient of v_{i}⊗v_{j} in R̂(v_{j}⊗v_{i}): R̂ {got} vs f(eps_{i},eps_{j}) {fv}"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# route one: explicit displays
# ---------------------------------------------------------------------------


def _bcd_head(rep: Representation) -> tuple[Scalar, Scalar]:
    """λ₁ = r^{-h} s^h and c = (r^{2h} - s^{2h})(rs)^{-h} of the B/C/D
    displays of R̂ and R̄, with h = 1 (B) or ½ (C, D)."""
    R = rep.ring.mono
    h = 1 if rep.family == "B" else Fraction(1, 2)
    return R(r=-h, s=h), (R(r=2 * h) - R(s=2 * h)) * R(r=-h, s=-h)


def _bcd_diagonal(rep: Representation, lam: Scalar) -> list[tuple[int, int, int, int, Scalar]]:
    """lam on E_ii⊗E_ii and lam^{-1} on E_ii'⊗E_i'i, except 1 on B's middle
    E_{n+1,n+1}⊗E_{n+1,n+1}."""
    n, pr = rep.n, rep.prime
    ent = []
    for i in range(1, rep.N + 1):
        if rep.family == "B" and i == n + 1:
            ent.append((i, i, i, i, rep.ring.one))
        else:
            ent.append((i, i, i, i, lam))
            ent.append((i, pr(i), pr(i), i, lam.inv()))
    return ent


def rhat_explicit(rep: Representation) -> SMatrix:
    ring, n, N = rep.ring, rep.n, rep.N
    fam = rep.family
    R = lambda **p: ring.mono(**p)
    one = ring.one
    pr = rep.prime
    ent: list[tuple[int, int, int, int, Scalar]] = []  # (i, j, k, l, c) meaning c·E_ij⊗E_kl

    if fam == "A":
        for i in range(1, N + 1):
            ent.append((i, i, i, i, one))
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                ent.append((j, i, i, j, R(r=1)))
                ent.append((i, j, j, i, R(s=-1)))
                ent.append((j, j, i, i, one - R(r=1, s=-1)))
    else:
        tab = CoefficientTables(rep)
        lam1, c = _bcd_head(rep)
        ent += _bcd_diagonal(rep, lam1)
        for i in range(1, n + 1):
            if fam == "B":
                factor = c * (R(r=2 * (n - i) + 1, s=2 * (i - n) - 1) - one)
            elif fam == "C":
                factor = -c * (R(r=n + 1 - i, s=i - n - 1) + one)
            else:
                factor = -c * (one - R(r=n - i, s=i - n))
            ent.append((pr(i), pr(i), i, i, factor))
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if j in (i, pr(i)):
                    continue
                ent.append((i, j, j, i, tab.a(i, j)))
                if i > j:
                    ent.append((i, i, j, j, -c))
                else:
                    ent.append((pr(i), j, i, pr(j), c * tab.t(i) * tab.t(j).inv()))

    return tensor_units(ring, N, ent)


def build_rhat_explicit(family: str, rank: int, ring: ScalarRing | None = None) -> SMatrix:
    return rhat_explicit(build_fundamental(family, rank, ring))


# ---------------------------------------------------------------------------
# route two: ordered product of local factors
# ---------------------------------------------------------------------------


def ftilde(rep: Representation) -> SMatrix:
    """Diagonal operator v_a ⊗ v_b ↦ f(weight_a, weight_b) · v_a ⊗ v_b."""
    ring, N = rep.ring, rep.N
    rows = {}
    for a in range(N):
        for b in range(N):
            idx = a * N + b
            rows[idx] = {idx: f_function(rep.rs, ring, rep.weights[a], rep.weights[b])}
    return SMatrix(ring, N * N, N * N, rows)


def theta_nilpotent(rvm: RootVectorMatrices, gamma, pairing_fn) -> SMatrix:
    """N_γ = Θ_γ − 1 = Σ_{m ≥ 1} (f_γ^m, e_γ^m)^{-1} ρ(f_γ)^m ⊗ ρ(e_γ)^m,
    truncated at matrix nilpotency."""
    rep = rvm.rep
    acc = SMatrix.zero(rep.ring, rep.N * rep.N)
    fpow = rvm.f_of(gamma)
    epow = rvm.e_of(gamma)
    m = 1
    while not fpow.is_zero() and not epow.is_zero():
        const = pairing_fn(gamma, m)
        if const.is_zero():
            raise ArithmeticError(f"vanishing pairing constant for {gamma.label()} at m={m}")
        acc = acc + kron(fpow, epow).scale(const.inv())
        m += 1
        fpow = fpow @ rvm.f_of(gamma)
        epow = epow @ rvm.e_of(gamma)
    return acc


def theta_product(
    rep: Representation,
    order: ConvexOrder,
    rvm: RootVectorMatrices,
    from_block: int = 1,
    context: PairingContext | None = None,
) -> SMatrix:
    """Ordered product of the local factors, largest root leftmost (the
    convex order read decreasingly), with the pairing constants of the
    recursion route, taken from the case's pairing ``context`` or a fresh
    one.  ``from_block`` truncates to the roots whose leading simple-root
    index is ≥ that value, giving the partial products of the block
    recursion.

    Each factor is the identity plus its nilpotent part N_γ, so a step is
    the unipotent update acc + acc·N_γ: no entry of acc passes through a
    product with an identity entry."""
    pc = context or PairingContext(order, rep.ring)
    acc = SMatrix.identity(rep.ring, rep.N * rep.N)
    for gamma in order.decreasing():
        if gamma.i < from_block:
            continue
        acc = acc + acc @ theta_nilpotent(rvm, gamma, pc.pairing_from_c)
    return acc


def build_theta(
    rep: Representation,
    order: ConvexOrder,
    rvm: RootVectorMatrices,
    context: PairingContext | None = None,
) -> SMatrix:
    """The full ordered product of local factors."""
    return theta_product(rep, order, rvm, context=context)


def rhat_factorized(rep: Representation, theta: SMatrix) -> SMatrix:
    """Θ ∘ (weight twist) ∘ flip, for the ordered product Θ.  The twist is
    diagonal and the flip permutes the basis, so no product is formed: column
    j of Θ, times the twist at j, is column flip(j) of the result
    (``compose_flip``)."""
    twist = ftilde(rep).rows
    return compose_flip(theta, [twist[j][j] for j in range(rep.N * rep.N)])


def build_rhat_factorized(family: str, rank: int, ring: ScalarRing | None = None) -> SMatrix:
    rep = build_fundamental(family, rank, ring)
    order = lalonde_ram(rep.rs)
    return rhat_factorized(rep, build_theta(rep, order, build_root_vector_matrices(rep, order)))


# ---------------------------------------------------------------------------
# route three: the inverse, from the parameter exchange r ↔ s
# ---------------------------------------------------------------------------


def eigenvalues(rep: Representation) -> list[Scalar]:
    """Eigenvalues of the explicit operator on the highest weight vectors of
    V ⊗ V (two for type A, three otherwise)."""
    ring, n = rep.ring, rep.n
    fam = rep.family
    if fam == "A":
        return [ring.one, -ring.mono(r=1, s=-1)]
    if fam == "B":
        return [ring.mono(r=-1, s=1), -ring.mono(r=1, s=-1), ring.mono(r=2 * n, s=-2 * n)]
    half = Fraction(1, 2)
    if fam == "C":
        return [
            ring.mono(r=-half, s=half),
            -ring.mono(r=half, s=-half),
            -ring.mono(r=n + half, s=-n - half),
        ]
    return [
        ring.mono(r=-half, s=half),
        -ring.mono(r=half, s=-half),
        ring.mono(r=n - half, s=-n + half),
    ]


def rbar_inverse_printed(rep: Representation) -> SMatrix:
    """The displayed inverse R̄ = R̂^{-1}, written out entrywise in every type."""
    ring, n, N = rep.ring, rep.n, rep.N
    fam = rep.family
    R = lambda **p: ring.mono(**p)
    one = ring.one
    pr = rep.prime
    tab = CoefficientTables(rep)
    ent: list[tuple[int, int, int, int, Scalar]] = []

    if fam == "A":
        for i in range(1, N + 1):
            ent.append((i, i, i, i, one))
            for j in range(i + 1, N + 1):
                ent.append((j, i, i, j, R(s=1)))
                ent.append((i, j, j, i, R(r=-1)))
                ent.append((i, i, j, j, one - R(r=-1, s=1)))
    else:
        lam1, c = _bcd_head(rep)
        ent += _bcd_diagonal(rep, lam1.inv())
        for i in range(1, n + 1):
            if fam == "B":
                factor = -c * (R(r=2 * (i - n) - 1, s=2 * (n - i) + 1) - one)
            elif fam == "C":
                factor = c * (R(r=i - n - 1, s=n + 1 - i) + one)
            else:
                factor = c * (one - R(r=i - n, s=n - i))
            ent.append((i, i, pr(i), pr(i), factor))
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if j in (i, pr(i)):
                    continue
                ent.append((i, j, j, i, tab.a(i, j)))
                if i < j:
                    ent.append((i, i, j, j, c))
                else:
                    ent.append((pr(i), j, i, pr(j), -c * tab.t(i) * tab.t(j).inv()))

    return tensor_units(ring, N, ent)


def rbar_inverse_exchanged(rep: Representation, theta: SMatrix) -> SMatrix:
    """Independent route, valid in every type: flip ∘ (inverse weight twist)
    ∘ (parameter-exchanged Θ), using the entrywise r ↔ s exchange.  As in
    ``rhat_factorized``, no product is formed: row j of the exchanged Θ,
    divided by the twist at j, is row flip(j) of the result."""
    N, twist = rep.N, ftilde(rep).diagonal_inv().rows
    rows = {
        flipped(N, j): {k: v * twist[j][j] for k, v in row.items()} for j, row in theta.exchanged_params().rows.items()
    }
    return SMatrix(rep.ring, N * N, N * N, rows)


def build_rbar_inverse(family: str, rank: int, ring: ScalarRing | None = None) -> SMatrix:
    return rbar_inverse_printed(build_fundamental(family, rank, ring))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def check_route_equivalence(rep: Representation, rhat: SMatrix, theta: SMatrix) -> Report:
    out = Report()
    with out.timed("route-equivalence", rep.family, rep.n) as it:
        it.witness = first_mismatch(rhat, rhat_factorized(rep, theta), rep.N)
    return out


def check_eigenvalues(rep: Representation, rhat: SMatrix) -> Report:
    out = Report()
    with out.timed("eigenvalues", rep.family, rep.n) as it:
        hwt = highest_weight_vectors(rep)
        lam = eigenvalues(rep)
        w = ""
        for k, vec in enumerate(hwt.vectors):
            got = mat_vec(rhat, vec)
            want = vec_scale(vec, lam[k])
            if got != want:
                w = w or f"w{k + 1} is not an eigenvector with value {lam[k]}"
        # the first eigenvalue is the weight twist at the highest weight
        if lam[0] != f_function(rep.rs, rep.ring, rep.weights[0], rep.weights[0]):
            w = w or "lambda_1 != f(eps_1, eps_1)"
        it.witness = w
    return out


def check_intertwining(rep: Representation, rhat: SMatrix) -> Report:
    """R̂ commutes with the action of every generator on V ⊗ V, read from
    the module's tensor square; the diagonal ω_i and ω′_i are checked on the
    support of R̂ (``commutation_witness``, whose loop the Yang–Baxter
    decider runs for its premise)."""
    out = Report()
    with out.timed("intertwining", rep.family, rep.n) as it:
        it.witness = commutation_witness(rep, rhat, ("f", "e", "omega", "omega-prime"))
    return out


def check_braid(rep: Representation, rhat: SMatrix) -> Report:
    """R̂₁₂ R̂₂₃ R̂₁₂ = R̂₂₃ R̂₁₂ R̂₂₃ on V ⊗ V ⊗ V, decided as the constant
    Yang–Baxter equation of R = R̂∘τ, τ the flip.

    With S the reversal v_a⊗v_b⊗v_c ↦ v_c⊗v_b⊗v_a, R̂₁₂R̂₂₃R̂₁₂ =
    (R₁₂R₁₃R₂₃)·S and R̂₂₃R̂₁₂R̂₂₃ = (R₂₃R₁₃R₁₂)·S, so the braid relation holds
    iff R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂, which ``yang_baxter_witness`` decides; a
    failure names a column and row of these products (column c of the braid
    sides is column S(c) of them), or the premise on V⊗V that fails."""
    out = Report()
    with out.timed("braid", rep.family, rep.n) as it:
        it.witness = yang_baxter_witness(rep, rhat)
    return out


def check_min_poly(rep: Representation, rhat: SMatrix) -> Report:
    ring, N = rep.ring, rep.N
    out = Report()
    with out.timed("min-poly", rep.family, rep.n) as it:
        acc = SMatrix.identity(ring, N * N)
        ident = SMatrix.identity(ring, N * N)
        for lam in eigenvalues(rep):
            acc = acc @ (rhat - ident.scale(lam))
        it.witness = "" if acc.is_zero() else first_mismatch(acc, SMatrix.zero(ring, N * N, N * N), N)
    return out


def check_inverse(rep: Representation, rhat: SMatrix, rbar: SMatrix, theta: SMatrix) -> Report:
    """Explicit operator times the displayed inverse is the identity, and the
    parameter-exchange route reproduces the display.  One product decides
    invertibility: for square matrices over a field, R̂·R̄ = Id implies
    R̄·R̂ = Id, so the product in the other order could never fail first."""
    out = Report()
    with out.timed("inverse", rep.family, rep.n) as it:
        w = first_mismatch(rhat @ rbar, SMatrix.identity(rep.ring, rep.N * rep.N), rep.N)
        if not w:
            w = first_mismatch(rbar, rbar_inverse_exchanged(rep, theta), rep.N)
            if w:
                w = f"exchange route differs from display: {w}"
        it.witness = w
    return out


def check_weight_preservation(rep: Representation, rhat: SMatrix) -> Report:
    out = Report()
    with out.timed("weight-preservation", rep.family, rep.n) as it:
        w = ""
        weights = [tuple(a + b for a, b in zip(wa, wb)) for wa in rep.weights for wb in rep.weights]
        text = lambda k: f"{basis_vector(k, rep.N, 2)} of weight ({', '.join(map(str, weights[k]))})"
        for ii, row in rhat.rows.items():
            for jj in row:
                if weights[ii] != weights[jj]:
                    w = w or f"row {text(ii)}, column {text(jj)}: different weights"
        it.witness = w
    return out


# ---------------------------------------------------------------------------
# one-parameter specialization (types A and B)
# ---------------------------------------------------------------------------


def q_ring(*extra: str) -> ScalarRing:
    """Ring in q (the image of r, with s ↦ q^{-1}) and the ``extra`` variables."""
    return ScalarRing([Variable("q", 2), *extra])


def one_param_r_finite(rep: Representation, ring: ScalarRing) -> SMatrix:
    """Printed one-parameter R = R̂∘τ after r ↦ q, s ↦ q^{-1}, in ``ring``;
    ``rep`` gives only the type and the indexing."""
    family, n, N = rep.family, rep.n, rep.N
    one = ring.one
    Q = lambda k: ring.mono(q=k)
    ent: list[tuple[int, int, int, int, Scalar]] = []
    if family == "A":
        for i in range(1, N + 1):
            ent.append((i, i, i, i, one))
            for j in range(1, N + 1):
                if i == j:
                    continue
                ent.append((i, i, j, j, Q(1)))
                if i > j:
                    ent.append((i, j, j, i, one - Q(2)))
        return tensor_units(ring, N, ent)
    if family != "B":
        raise ValueError("printed one-parameter display available for A and B only")
    pr = lambda i: N + 1 - i

    def tbar(i):
        # specialization of the B-type t_i
        if i < n + 1:
            return Q(-(2 * (i - n) - 1))
        if i == n + 1:
            return Q(1)
        return Q(2 * (n + 1 - i) + 1)

    c = Q(2) - Q(-2)
    for i in range(1, N + 1):
        if i == n + 1:
            ent.append((i, i, i, i, one))
        else:
            ent.append((i, i, i, i, Q(-2)))
            ent.append((i, i, pr(i), pr(i), Q(2)))
    for i in range(1, n + 1):
        ent.append((pr(i), i, i, pr(i), c * (Q(2 * (2 * n - 2 * i + 1)) - one)))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if j in (i, pr(i)):
                continue
            ent.append((i, i, j, j, one))
            if i > j:
                ent.append((i, j, j, i, -c))
            else:
                ent.append((pr(i), pr(j), i, j, c * tbar(i) * tbar(j).inv()))
    return tensor_units(ring, N, ent)


def specialize_and_compare(rep: Representation, rhat: SMatrix, rz: SMatrix | None) -> Report:
    """r ↦ q, s ↦ q^{-1} on the two-parameter R = R̂∘τ equals the printed
    one-parameter operator; for A also the spectral version R̂(z)∘τ and its
    z → 0 limit (``rz`` is read for type A only)."""
    family, rank = rep.family, rep.n
    if family not in ("A", "B"):
        raise ValueError("specialization displays exist for types A and B")
    out = Report()
    with out.timed("specialize-finite", family, rank) as it:
        qr = q_ring()
        r_two = compose_flip(rhat)
        qhalf = qr.atom("q")
        r_spec = r_two.substituted({"r": qhalf, "s": qhalf.inv()}, ring=qr)
        it.witness = first_mismatch(r_spec, one_param_r_finite(rep, qr), rep.N)

    if family == "A":
        from .affine import one_param_r_affine_A

        with out.timed("specialize-affine", family, rank) as it:
            zr = rz.ring
            rz_two = compose_flip(rz)
            qz = q_ring("z")
            qhalf2 = qz.atom("q")
            rz_spec = rz_two.substituted({"r": qhalf2, "s": qhalf2.inv(), "z": qz.atom("z")}, ring=qz)
            it.witness = first_mismatch(rz_spec, one_param_r_affine_A(rank, qz), rep.N)

        with out.timed("affine-z0-limit", family, rank) as it:
            it.witness = first_mismatch(rz_two.substituted({"z": zr.zero}), r_two.substituted({}, ring=zr), rep.N)
    return out


def run_rmatrix_checks(family: str, rank: int, checks: list[str], ctx=None) -> Report:
    """The named rmatrix checks of the catalogue, over ``ctx``, the case's
    shared context, or a fresh one."""
    from .catalogue import CaseContext, run_group

    return run_group("rmatrix", ctx if ctx is not None else CaseContext(family, rank), checks)
