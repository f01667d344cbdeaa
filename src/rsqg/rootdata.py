"""Classical root systems A/B/C/D: positive roots in simple-root and
ε-coordinates, the (non-symmetric) Ringel form driving all r/s exponents,
Cartan pairing tables on weights, Weyl dimensions, and the structural
constants of the untwisted affinization.

Roots carry the classical two-family labeling used throughout: kind "g"
for the roots γ_{ij} (ε_i - ε_{j+1} chains, plus the short/long tail) and
kind "b" for the β_{ij} family (ε_i + ε_j type roots).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .scalars import Scalar, ScalarRing, _cdiv, _memoized

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 2}
MIN_AFFINE_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class Root:
    """A positive root with both coordinate systems and its family label."""

    kind: str  # "g" or "b"
    i: int
    j: int
    alpha: tuple[int, ...]
    eps: tuple[Fraction, ...]

    @property
    def height(self) -> int:
        return sum(self.alpha)

    def is_simple(self) -> bool:
        return self.height == 1

    def label(self) -> str:
        return f"{'gamma' if self.kind == 'g' else 'beta'}[{self.i},{self.j}]"


class RootSystem:
    """Root data of one classical family at a fixed rank."""

    def __init__(self, family: str, n: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if n < _MIN_RANK[family]:
            raise ValueError(f"rank {n} below minimum {_MIN_RANK[family]} for type {family}")
        self.family = family
        self.n = n
        self.eps_dim = n + 1 if family == "A" else n
        # square lengths: short roots have length 2, so the B-type ε basis is
        # orthogonal with (ε_i, ε_i) = 2 and orthonormal otherwise
        self.eps_gram = 2 if family == "B" else 1
        self.N = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[family]

        self.simple_eps = self._build_simple_eps()
        self.d = tuple(self._eps_inner(a, a) / 2 for a in self.simple_eps)
        if any(x.denominator != 1 for x in self.d):
            raise AssertionError("non-integer symmetrizer")
        self.d = tuple(int(x) for x in self.d)
        self.cartan = tuple(
            tuple(
                int(2 * self._eps_inner(self.simple_eps[i], self.simple_eps[j]) / self._eps_inner(self.simple_eps[i], self.simple_eps[i]))
                for j in range(n)
            )
            for i in range(n)
        )
        self.ringel = self._build_ringel()
        self.positive = self._build_positive_roots()
        self.by_alpha = {rt.alpha: rt for rt in self.positive}
        self.by_label = {(rt.kind, rt.i, rt.j): rt for rt in self.positive}
        self._alpha_set = set(self.by_alpha)
        self.simple = [self.by_alpha[tuple(1 if k == i else 0 for k in range(n))] for i in range(n)]

    # -- construction ---------------------------------------------------------

    def _build_simple_eps(self) -> list[tuple[Fraction, ...]]:
        n, fam, dim = self.n, self.family, self.eps_dim

        def vec(**coords) -> tuple[Fraction, ...]:
            out = [Fraction(0)] * dim
            for k, v in coords.items():
                out[int(k[1:]) - 1] = Fraction(v)
            return tuple(out)

        simple = [vec(**{f"e{i}": 1, f"e{i + 1}": -1}) for i in range(1, n)]
        if fam == "A":
            simple.append(vec(**{f"e{n}": 1, f"e{n + 1}": -1}))
        elif fam == "B":
            simple.append(vec(**{f"e{n}": 1}))
        elif fam == "C":
            simple.append(vec(**{f"e{n}": 2}))
        else:
            simple.append(vec(**{f"e{n - 1}": 1, f"e{n}": 1}))
        return simple

    def _build_ringel(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < j:
                    m[i][j] = self.d[i] * self.cartan[i][j]
                elif i == j:
                    m[i][j] = self.d[i]
        if self.family == "D":
            # ⟨ε_{n-1}-ε_n, ε_{n-1}+ε_n⟩ = -1, ⟨ε_{n-1}+ε_n, ε_{n-1}-ε_n⟩ = 1
            m[n - 2][n - 1] = -1
            m[n - 1][n - 2] = 1
        return tuple(tuple(row) for row in m)

    def _build_positive_roots(self) -> list[Root]:
        n, fam = self.n, self.family
        roots: list[Root] = []

        def alpha_range(lo: int, hi: int, coeff: int = 1) -> list[int]:
            return [coeff if lo <= k + 1 <= hi else 0 for k in range(n)]

        def mk(kind, i, j, alpha):
            eps = self.alpha_to_eps(alpha)
            return Root(kind, i, j, tuple(alpha), eps)

        if fam == "A":
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    roots.append(mk("g", i, j, alpha_range(i, j)))
        elif fam == "B":
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    roots.append(mk("g", i, j, alpha_range(i, j)))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    a = [x + y for x, y in zip(alpha_range(i, j - 1), alpha_range(j, n, 2))]
                    roots.append(mk("b", i, j, a))
        elif fam == "C":
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    roots.append(mk("g", i, j, alpha_range(i, j)))
            for i in range(1, n):
                for j in range(i, n):
                    a = [
                        x + y + z
                        for x, y, z in zip(
                            alpha_range(i, j - 1),
                            alpha_range(j, n - 1, 2),
                            alpha_range(n, n),
                        )
                    ]
                    roots.append(mk("b", i, j, a))
        else:
            for i in range(1, n):
                for j in range(i, n):
                    roots.append(mk("g", i, j, alpha_range(i, j)))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if j == n:
                        a = [x + y for x, y in zip(alpha_range(i, n - 2), alpha_range(n, n))]
                    elif j == n - 1:
                        a = alpha_range(i, n)
                    else:
                        a = [
                            x + y + z + w
                            for x, y, z, w in zip(
                                alpha_range(i, j - 1),
                                alpha_range(j, n - 2, 2),
                                alpha_range(n - 1, n - 1),
                                alpha_range(n, n),
                            )
                        ]
                    roots.append(mk("b", i, j, a))
        expected = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[fam]
        if len(roots) != len({rt.alpha for rt in roots}) or len(roots) != expected:
            raise AssertionError("positive root enumeration is inconsistent")
        return roots

    # -- coordinates and forms -------------------------------------------------

    def alpha_to_eps(self, alpha) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.eps_dim
        for k, c in enumerate(alpha):
            if c:
                for t in range(self.eps_dim):
                    out[t] += Fraction(c) * self.simple_eps[k][t]
        return tuple(out)

    def eps_to_alpha(self, eps) -> tuple[Fraction, ...]:
        """Solve eps = Σ a_k · α_k exactly; raises if eps is outside the span."""
        rows = [{k: self.simple_eps[k][t] for k in range(self.n)} for t in range(self.eps_dim)]
        sol = _solve_exact(rows, [(x,) for x in eps], self.n)
        if sol is None:
            raise ValueError(f"{eps} is not in the span of the simple roots")
        return tuple(Fraction(x) for (x,) in sol)

    def _eps_inner(self, x, y) -> Fraction:
        return self.eps_gram * sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))

    def eps_inner(self, x, y) -> Fraction:
        """The invariant symmetric form on ε-coordinate vectors."""
        return self._eps_inner(x, y)

    def sym_form(self, a, b) -> Fraction:
        """(·,·) on simple-root coordinate vectors."""
        return sum(
            (Fraction(a[i]) * Fraction(b[j]) * (self.ringel[i][j] + self.ringel[j][i])
             for i in range(self.n) for j in range(self.n) if a[i] and b[j]),
            Fraction(0),
        )

    def ringel_form(self, a, b) -> Fraction:
        """⟨·,·⟩ on simple-root coordinate vectors."""
        return sum(
            (Fraction(a[i]) * Fraction(b[j]) * self.ringel[i][j]
             for i in range(self.n) for j in range(self.n) if a[i] and b[j]),
            Fraction(0),
        )

    # -- root set queries -------------------------------------------------------

    def is_root(self, alpha) -> bool:
        t = tuple(alpha)
        return t in self._alpha_set or tuple(-x for x in t) in self._alpha_set

    def root_sum(self, a: Root, b: Root) -> Root | None:
        s = tuple(x + y for x, y in zip(a.alpha, b.alpha))
        return self.by_alpha.get(s)

    def highest_root(self) -> Root:
        best = max(self.positive, key=lambda rt: rt.height)
        for rt in self.positive:
            if any(x > y for x, y in zip(rt.alpha, best.alpha)):
                raise AssertionError("no dominance-maximal positive root")
        return best

    def __repr__(self) -> str:
        return f"RootSystem({self.family}{self.n})"


@cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of one (family, rank), built once per process; a
    RootSystem is not changed after construction."""
    return RootSystem(family, rank)


def _solve_exact(rows: Sequence[Mapping[int, Fraction | int]], rhs: Sequence[Sequence], n: int) -> list[tuple] | None:
    """One solution over ℚ of Σ_a rows[i][a]·x_a = rhs[i] for every i, with
    n unknowns and one or more right-hand sides (rhs[i] holds one value per
    side): x_a as a tuple of one value per side, free unknowns 0; None when
    the system is inconsistent.  Rows are sparse ({unknown: coefficient}) and
    are taken one at a time into a reduced row echelon form: a pivot row has
    no entry in another pivot's column, so one pass over its pivot columns
    reduces a new row, and only a row that reduces to zero is read as a check
    of its right side."""
    pivots: dict[int, tuple[dict, list]] = {}
    for row, sides in zip(rows, rhs):
        coeffs = {a: c for a, c in row.items() if c}
        sides = list(sides)
        for p in [a for a in coeffs if a in pivots]:
            f = coeffs.pop(p)
            prow, psides = pivots[p]
            for a, c in prow.items():
                v = coeffs.get(a, 0) - f * c
                if v:
                    coeffs[a] = v
                else:
                    coeffs.pop(a, None)
            sides = [x - f * y for x, y in zip(sides, psides)]
        if not coeffs:
            if any(sides):
                return None
            continue
        p = min(coeffs)
        f = coeffs.pop(p)
        new = {a: _cdiv(c, f) for a, c in coeffs.items()}
        new_sides = [_cdiv(x, f) for x in sides]
        for qrow, qsides in pivots.values():
            g = qrow.pop(p, 0)
            if g:
                for a, c in new.items():
                    v = qrow.get(a, 0) - g * c
                    if v:
                        qrow[a] = v
                    else:
                        qrow.pop(a, None)
                qsides[:] = [x - g * y for x, y in zip(qsides, new_sides)]
        pivots[p] = (new, new_sides)
    width = len(rhs[0]) if rhs else 0
    sol = [(0,) * width] * n
    for p, (_, sides) in pivots.items():
        sol[p] = tuple(sides)
    return sol


# ---------------------------------------------------------------------------
# Cartan pairings
# ---------------------------------------------------------------------------


def omega_pairing(rs: RootSystem, ring: ScalarRing, lam, mu) -> Scalar:
    """(ω'_λ, ω_μ) = r^⟨λ,μ⟩ s^(-⟨μ,λ⟩) for λ, μ given over the simple roots
    (half-integer coefficients allowed).  Built once per process for each
    ring variable set, (family, rank), λ and μ."""
    lam, mu = tuple(lam), tuple(mu)
    return _memoized(
        ring,
        ("omega_pairing", rs.family, rs.n, lam, mu),
        lambda: ring.mono(r=rs.ringel_form(lam, mu), s=-rs.ringel_form(mu, lam)),
    )


def omega_on_weight(rs: RootSystem, ring: ScalarRing, lam_eps, i: int) -> Scalar:
    """(ω'_λ, ω_i) for a weight λ in ε-coordinates; this is the ω_i-eigenvalue
    on a weight-λ vector."""
    n, fam = rs.n, rs.family
    ip = rs.eps_inner

    def eps_basis(k):
        return tuple(Fraction(1) if t == k - 1 else Fraction(0) for t in range(rs.eps_dim))

    if fam == "A" or i < n:
        return ring.mono(r=ip(eps_basis(i), lam_eps), s=ip(eps_basis(i + 1), lam_eps))
    lam_alpha = rs.eps_to_alpha(lam_eps)
    if fam == "B":
        ln = lam_alpha[n - 1]
        return ring.mono(r=ip(eps_basis(n), lam_eps) - ln, s=-ln)
    if fam == "C":
        ln = lam_alpha[n - 1]
        return ring.mono(r=2 * ip(eps_basis(n), lam_eps) - 2 * ln, s=-2 * ln)
    ln = lam_alpha[n - 2]
    return ring.mono(
        r=ip(eps_basis(n - 1), lam_eps) - 2 * ln,
        s=-ip(eps_basis(n), lam_eps) - 2 * ln,
    )


def omega_prime_on_weight(rs: RootSystem, ring: ScalarRing, i: int, lam_eps) -> Scalar:
    """(ω'_i, ω_λ); the ω'_i-eigenvalue on a weight-λ vector is its inverse."""
    n, fam = rs.n, rs.family
    ip = rs.eps_inner

    def eps_basis(k):
        return tuple(Fraction(1) if t == k - 1 else Fraction(0) for t in range(rs.eps_dim))

    if fam == "A" or i < n:
        return ring.mono(r=-ip(eps_basis(i + 1), lam_eps), s=-ip(eps_basis(i), lam_eps))
    lam_alpha = rs.eps_to_alpha(lam_eps)
    if fam == "B":
        ln = lam_alpha[n - 1]
        return ring.mono(r=ln, s=-ip(eps_basis(n), lam_eps) + ln)
    if fam == "C":
        ln = lam_alpha[n - 1]
        return ring.mono(r=2 * ln, s=-2 * ip(eps_basis(n), lam_eps) + 2 * ln)
    ln = lam_alpha[n - 2]
    return ring.mono(
        r=ip(eps_basis(n), lam_eps) + 2 * ln,
        s=-ip(eps_basis(n - 1), lam_eps) + 2 * ln,
    )


# ---------------------------------------------------------------------------
# the diagonal-twist function f on first-fundamental weights
# ---------------------------------------------------------------------------


def _classify_weight(rs: RootSystem, lam_eps) -> tuple[int, int] | None:
    """Return (index, sign) for ±ε_index, or None for the zero weight."""
    nz = [(k + 1, c) for k, c in enumerate(lam_eps) if c != 0]
    if not nz:
        return None
    if len(nz) != 1 or abs(nz[0][1]) != 1:
        raise ValueError(f"{lam_eps} is not a first-fundamental weight")
    return nz[0][0], int(nz[0][1])


def f_function(rs: RootSystem, ring: ScalarRing, lam_eps, mu_eps) -> Scalar:
    """Bimultiplicative twist f(λ, μ) on weights of the first fundamental
    module (0 or ±ε_i), normalized so that (ρ ⊗ ρ)-intertwiners compose from
    it: f(λ, α_i) = (ω'_i, ω_λ)^{-1} and f(α_i, μ) = (ω'_μ, ω_i)^{-1}."""
    a = _classify_weight(rs, lam_eps)
    b = _classify_weight(rs, mu_eps)
    if a is None or b is None:
        return ring.one
    (i, si), (j, sj) = a, b
    fam = rs.family
    if fam == "A":
        if si != 1 or sj != 1:
            raise ValueError("A-type first-fundamental weights are +ε_i only")
        if i < j:
            return ring.mono(s=-1)
        if i == j:
            return ring.one
        return ring.mono(r=1)
    if fam == "B":
        base = {True: ring.mono(r=-1, s=-1), False: ring.mono(r=1, s=1)}
        val = ring.mono(r=-1, s=1) if i == j else base[i < j]
    else:
        half = Fraction(1, 2)
        if i < j:
            val = ring.mono(r=-half, s=-half)
        elif i == j:
            val = ring.mono(r=-half, s=half)
        else:
            val = ring.mono(r=half, s=half)
    return val if si * sj == 1 else val.inv()


# ---------------------------------------------------------------------------
# Weyl dimension formula
# ---------------------------------------------------------------------------


def weyl_dimension(rs: RootSystem, lam_eps) -> int:
    """dim of the irreducible with dominant highest weight λ (ε-coordinates)."""
    rho = [Fraction(0)] * rs.eps_dim
    for rt in rs.positive:
        for t in range(rs.eps_dim):
            rho[t] += Fraction(rt.eps[t], 2)
    num = Fraction(1)
    den = Fraction(1)
    for rt in rs.positive:
        lr = rs.eps_inner([l + r for l, r in zip(lam_eps, rho)], rt.eps)
        rr = rs.eps_inner(rho, rt.eps)
        if lr < rr:
            raise ValueError(f"weight {lam_eps} is not dominant")
        num *= lr
        den *= rr
    dim = num / den
    if dim.denominator != 1:
        raise AssertionError("Weyl dimension did not come out integral")
    return int(dim)


# ---------------------------------------------------------------------------
# affine structural data
# ---------------------------------------------------------------------------


@dataclass
class AffineData:
    theta: Root
    omega: dict[tuple[int, int], Scalar]  # Ω_{ij}, 0 ≤ i,j ≤ n
    cartan_ext: dict[tuple[int, int], int]  # extended Cartan matrix
    d0: int
    r0: Scalar
    s0: Scalar


def affine_data(rs: RootSystem, ring: ScalarRing) -> AffineData:
    """Structural constants of the affinization: Ω_{ij} with the 0-th row and
    column built from the negated highest root, the extended Cartan matrix,
    and the 0-node symmetrizer."""
    if rs.n < MIN_AFFINE_RANK[rs.family]:
        raise ValueError(
            f"type {rs.family} affine data needs rank ≥ {MIN_AFFINE_RANK[rs.family]}"
        )
    n = rs.n
    theta = rs.highest_root()
    a0 = tuple(-x for x in theta.alpha)

    def coords(i):
        if i == 0:
            return a0
        return tuple(1 if k == i - 1 else 0 for k in range(n))

    omega = {}
    for i in range(n + 1):
        for j in range(n + 1):
            omega[(i, j)] = omega_pairing(rs, ring, coords(i), coords(j))
    cext = {}
    for i in range(n + 1):
        for j in range(n + 1):
            num = 2 * rs.sym_form(coords(i), coords(j))
            den = rs.sym_form(coords(i), coords(i))
            c = num / den
            if c.denominator != 1:
                raise AssertionError("extended Cartan entry is not an integer")
            cext[(i, j)] = int(c)
    d0f = rs.sym_form(a0, a0) / 2
    d0 = int(d0f)
    return AffineData(
        theta=theta,
        omega=omega,
        cartan_ext=cext,
        d0=d0,
        r0=ring.mono(r=d0),
        s0=ring.mono(s=d0),
    )


# ---------------------------------------------------------------------------
# weights of the first fundamental module
# ---------------------------------------------------------------------------


def fundamental_weights(rs: RootSystem) -> list[tuple[Fraction, ...]]:
    """ε-coordinate weight of each basis vector v_1 .. v_N."""
    dim = rs.eps_dim

    def e(k, sign=1):
        return tuple(Fraction(sign) if t == k - 1 else Fraction(0) for t in range(dim))

    zero = tuple(Fraction(0) for _ in range(dim))
    fam, n, N = rs.family, rs.n, rs.N
    if fam == "A":
        return [e(i) for i in range(1, N + 1)]
    out = []
    for k in range(1, N + 1):
        if k <= n:
            out.append(e(k))
        elif fam == "B" and k == n + 1:
            out.append(zero)
        else:
            out.append(e(N + 1 - k, -1))
    return out
