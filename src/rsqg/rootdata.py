"""Classical root systems A/B/C/D: positive roots in simple-root and
ε-coordinates, the (non-symmetric) Ringel form driving all r/s exponents,
on the simple roots and on the ε-lattice of weights, the Cartan pairings
and the twist f that it gives, the presentation data (Ω, Cartan, d) of the
finite and affine relations, and Weyl dimensions.

Roots carry the classical two-family labeling used throughout: kind "g"
for the roots γ_{ij} (ε_i - ε_{j+1} chains, plus the short/long tail) and
kind "b" for the β_{ij} family (ε_i + ε_j type roots).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .gauge import Inconsistent, solve_exact
from .scalars import Scalar, ScalarRing, _memoized

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


def _exact(x: int | Fraction) -> int | Fraction:
    """``x`` as an int when it is integral, since int arithmetic is many
    times faster than Fraction's."""
    return x.numerator if x.denominator == 1 else x


def _half(x: int | Fraction) -> int | Fraction:
    """x / 2, as an int when it is integral."""
    return x // 2 if type(x) is int and not x & 1 else _exact(Fraction(x, 2))


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
        self.d = tuple(self.eps_inner(a, a) / 2 for a in self.simple_eps)
        if any(x.denominator != 1 for x in self.d):
            raise AssertionError("non-integer symmetrizer")
        self.d = tuple(int(x) for x in self.d)
        self.cartan = tuple(
            tuple(
                int(2 * self.eps_inner(self.simple_eps[i], self.simple_eps[j]) / self.eps_inner(self.simple_eps[i], self.simple_eps[i]))
                for j in range(n)
            )
            for i in range(n)
        )
        self.ringel = self._build_ringel()
        self.eps_ringel = self._stated_eps_ringel()
        for i, x in enumerate(self.simple_eps):
            for j, y in enumerate(self.simple_eps):
                if self.eps_forms(x, y)[0] != self.ringel[i][j]:
                    raise AssertionError("the ε-lattice form does not restrict to the Ringel form")
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

    def _stated_eps_ringel(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """⟨ε_a, ε_b⟩, the Ringel form on the ε-lattice of weights, stated per
        type: δ_ab + [a > b] in A; in B, 1 on and below the diagonal and -1
        above it; in C and D, ½ and -½.  In B, C and D the simple roots span
        the ε-lattice over ℚ, so the construction's comparison with
        ``ringel`` on ``simple_eps`` certifies the stated form; the weights
        of type A's V span a lattice one larger, on which it is a choice."""
        dim = self.eps_dim
        if self.family == "A":
            return tuple(tuple(int(a >= b) for b in range(dim)) for a in range(dim))
        unit = 1 if self.family == "B" else Fraction(1, 2)
        return tuple(tuple(unit if a >= b else -unit for b in range(dim)) for a in range(dim))

    @property
    def eps_ringel(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """⟨ε_a, ε_b⟩ on the ε-lattice; ``eps_forms`` reads it doubled."""
        return self._eps_ringel

    @eps_ringel.setter
    def eps_ringel(self, form) -> None:
        self._eps_ringel = form
        # in units of 1/2 every stated entry is an int
        self._eps_ringel_twice = tuple(tuple(_exact(2 * x) for x in row) for row in form)

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
        try:
            sol, _ = solve_exact(rows, [(x,) for x in eps], self.n)
        except Inconsistent:
            raise ValueError(f"{eps} is not in the span of the simple roots") from None
        return tuple(Fraction(x) for (x,) in sol)

    def eps_inner(self, x, y) -> Fraction:
        """The invariant symmetric form on ε-coordinate vectors."""
        return self.eps_gram * sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))

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

    def eps_forms(self, lam, mu) -> tuple[int | Fraction, int | Fraction, int | Fraction]:
        """(⟨λ,μ⟩, ⟨μ,λ⟩, (λ,μ)) for ε-coordinate vectors λ, μ, under
        ``eps_ringel`` and ``eps_inner``, in one pass over their nonzero
        coordinates.  The Ringel sums run on ``eps_ringel`` doubled, on ints
        for integral λ and μ, and are halved once; each value is an int when
        it is integral."""
        form = self._eps_ringel_twice
        nz = [(b, _exact(y)) for b, y in enumerate(mu) if y]
        lm = ml = dot = 0
        for a, x in enumerate(lam):
            if x:
                x, row = _exact(x), form[a]
                for b, y in nz:
                    xy = x * y
                    lm += xy * row[b]
                    ml += xy * form[b][a]
                    if a == b:
                        dot += xy
        return _half(lm), _half(ml), self.eps_gram * dot

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


def weight_pairing(rs: RootSystem, ring: ScalarRing, lam, mu) -> Scalar:
    """(ω'_λ, ω_μ) = r^⟨λ,μ⟩ s^(-⟨μ,λ⟩) for weights λ, μ in ε-coordinates,
    under the Ringel form on the ε-lattice.  On a vector of weight λ, ω_μ
    acts by (ω'_λ, ω_μ) and ω'_μ by (ω'_μ, ω_λ)^{-1}."""
    lm, ml, _ = rs.eps_forms(lam, mu)
    return ring.mono(r=lm, s=-ml)


def _eps_unit(rs: RootSystem, k: int, sign: int = 1) -> tuple[Fraction, ...]:
    """±ε_k (1-indexed) in ε-coordinates."""
    return tuple(Fraction(sign) if t == k - 1 else Fraction(0) for t in range(rs.eps_dim))


# ---------------------------------------------------------------------------
# the diagonal-twist function f on weights
# ---------------------------------------------------------------------------


def f_function(rs: RootSystem, ring: ScalarRing, lam_eps, mu_eps) -> Scalar:
    """The bimultiplicative twist f(λ, μ) = (ω'_λ, ω_μ)(r/s)^{-(λ,μ)}
    = r^{⟨λ,μ⟩-(λ,μ)} s^{(λ,μ)-⟨μ,λ⟩} on weights in ε-coordinates, from the
    Ringel form on the ε-lattice.  As ⟨·,·⟩ symmetrizes to (·,·) against a
    root, f(λ, α_i) = (ω'_i, ω_λ)^{-1} and f(α_i, μ) = (ω'_μ, ω_i)^{-1}: the
    normalization from which the (ρ ⊗ ρ)-intertwiners compose."""
    lm, ml, ip = rs.eps_forms(lam_eps, mu_eps)
    return ring.mono(r=lm - ip, s=ip - ml)


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
# presentation data of the finite and affine relations
# ---------------------------------------------------------------------------


def presentation(rs: RootSystem, ring: ScalarRing, affine: bool = False, pairing=None):
    """(Ω, Cartan, d) of the relations on the nodes 1..n, or on 0..n with
    α_0 = -θ when ``affine``: Ω_ij = pairing(α_i, α_j) over the simple-root
    coordinates, by default (ω'_i, ω_j) (``omega_pairing``), and
    c_ij = 2(α_i,α_j)/(α_i,α_i), d_i = (α_i,α_i)/2, each an integer."""
    if pairing is None:
        pairing = lambda lam, mu: omega_pairing(rs, ring, lam, mu)
    alpha = {0: tuple(-x for x in rs.highest_root().alpha)} if affine else {}
    alpha.update((i, rt.alpha) for i, rt in enumerate(rs.simple, 1))
    pairs = [(i, j) for i in alpha for j in alpha]
    omega = {(i, j): pairing(alpha[i], alpha[j]) for i, j in pairs}
    d = {i: rs.sym_form(ai, ai) / 2 for i, ai in alpha.items()}
    cartan = {(i, j): rs.sym_form(alpha[i], alpha[j]) / d[i] for i, j in pairs}
    if any(x.denominator != 1 for x in [*cartan.values(), *d.values()]):
        raise AssertionError("a Cartan entry or symmetrizer is not an integer")
    return omega, {k: int(c) for k, c in cartan.items()}, {i: int(x) for i, x in d.items()}


@dataclass
class AffineData:
    theta: Root
    omega: dict[tuple[int, int], Scalar]  # Ω_{ij}, 0 ≤ i,j ≤ n
    cartan_ext: dict[tuple[int, int], int]  # extended Cartan matrix
    d: dict[int, int]  # symmetrizer d_i, 0 ≤ i ≤ n


def affine_data(rs: RootSystem, ring: ScalarRing) -> AffineData:
    """Structural constants of the affinization: the presentation on the
    nodes 0..n, α_0 being the negated highest root θ."""
    if rs.n < MIN_AFFINE_RANK[rs.family]:
        raise ValueError(
            f"type {rs.family} affine data needs rank ≥ {MIN_AFFINE_RANK[rs.family]}"
        )
    return AffineData(rs.highest_root(), *presentation(rs, ring, affine=True))


# ---------------------------------------------------------------------------
# weights of the first fundamental module
# ---------------------------------------------------------------------------


def fundamental_weights(rs: RootSystem) -> list[tuple[Fraction, ...]]:
    """ε-coordinate weight of each basis vector v_1 .. v_N."""
    zero = tuple(Fraction(0) for _ in range(rs.eps_dim))
    fam, n, N = rs.family, rs.n, rs.N
    if fam == "A":
        return [_eps_unit(rs, i) for i in range(1, N + 1)]
    out = []
    for k in range(1, N + 1):
        if k <= n:
            out.append(_eps_unit(rs, k))
        elif fam == "B" and k == n + 1:
            out.append(zero)
        else:
            out.append(_eps_unit(rs, N + 1 - k, -1))
    return out
