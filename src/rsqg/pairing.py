"""Brute-force Hopf-pairing engine on the free halves of the quantum group.

Elements are linear combinations of (word in the e_i or f_i, Cartan monomial)
terms; no Serre relations are imposed.  The pairing is computed by peeling
one letter at a time through the coproduct, which is well defined because
the coproduct of a generator only involves generators and Cartan elements.
This gives a relation-independent oracle for root-vector pairing constants
and the orthogonality of ordered monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lyndon import ConvexOrder, minimal_pair
from .report import Report
from .rootdata import Root, RootSystem, omega_pairing
from .scalars import Scalar, ScalarRing, rs_factorial, rs_integer

Word = tuple[int, ...]
Cartan = tuple[int, ...]


@dataclass
class HalfElement:
    """Linear combination of word × Cartan-monomial terms in one half.

    side "plus": words in e_i, Cartan monomials ω_μ; side "minus": words in
    f_i, Cartan monomials ω'_μ.  Terms are keyed by (word, cartan exponent
    vector); coefficients are Scalars.
    """

    side: str
    rs: RootSystem
    ring: ScalarRing
    terms: dict[tuple[Word, Cartan], Scalar]

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")

    @classmethod
    def letter(cls, side: str, rs: RootSystem, ring: ScalarRing, i: int) -> "HalfElement":
        if not 1 <= i <= rs.n:
            raise ValueError(f"letter {i} outside alphabet 1..{rs.n}")
        zero_c = (0,) * rs.n
        return cls(side, rs, ring, {((i,), zero_c): ring.one})

    @classmethod
    def cartan(cls, side: str, rs: RootSystem, ring: ScalarRing, mu: Cartan) -> "HalfElement":
        return cls(side, rs, ring, {((), tuple(mu)): ring.one})

    @classmethod
    def unit(cls, side: str, rs: RootSystem, ring: ScalarRing) -> "HalfElement":
        return cls.cartan(side, rs, ring, (0,) * rs.n)

    def _word_degree(self, w: Word) -> tuple[int, ...]:
        deg = [0] * self.rs.n
        for letter in w:
            deg[letter - 1] += 1
        return tuple(deg)

    def scale(self, c: Scalar) -> "HalfElement":
        if c.is_zero():
            return HalfElement(self.side, self.rs, self.ring, {})
        return HalfElement(
            self.side, self.rs, self.ring, {k: v * c for k, v in self.terms.items()}
        )

    def __add__(self, other: "HalfElement") -> "HalfElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            nv = out[k] + v if k in out else v
            if nv.is_zero():
                out.pop(k, None)
            else:
                out[k] = nv
        return HalfElement(self.side, self.rs, self.ring, out)

    def __sub__(self, other: "HalfElement") -> "HalfElement":
        return self + other.scale(-self.ring.one)

    def __mul__(self, other: "HalfElement") -> "HalfElement":
        """Product in the smash normal form (words first, Cartan last):
        moving a Cartan monomial past a word costs the pairing of the
        monomial with the word's degree."""
        if self.side != other.side:
            raise ValueError("cannot multiply elements of opposite halves")
        out: dict[tuple[Word, Cartan], Scalar] = {}
        for (w1, k1), c1 in self.terms.items():
            for (w2, k2), c2 in other.terms.items():
                mu2 = self._word_degree(w2)
                if self.side == "plus":
                    # ω_κ · x = (ω'_μ, ω_κ) x ω_κ for x of degree μ
                    fac = omega_pairing(self.rs, self.ring, mu2, k1)
                else:
                    # ω'_κ · y = (ω'_κ, ω_μ) y ω'_κ for y of degree -μ
                    fac = omega_pairing(self.rs, self.ring, k1, mu2)
                key = (w1 + w2, tuple(a + b for a, b in zip(k1, k2)))
                v = c1 * c2 * fac
                nv = out[key] + v if key in out else v
                if nv.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = nv
        return HalfElement(self.side, self.rs, self.ring, out)

    def power(self, m: int) -> "HalfElement":
        out = HalfElement.unit(self.side, self.rs, self.ring)
        for _ in range(m):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms


class PairingOracle:
    """Memoized evaluator of the bilinear pairing between the two halves.

    The generator values 1/(s_i - r_i) are factored out of the recursion: a
    word pairing of degree Σ k_i α_i is (Laurent polynomial)·Π(s_i - r_i)^{-k_i},
    so the inner recursion is fraction-free.  ``hopf_pair`` keeps it so: it
    sums the scaled word pairings of each degree (letter multiset) and
    divides each sum once by its Π(s_i - r_i)^{k_i}.
    """

    def __init__(self, rs: RootSystem, ring: ScalarRing):
        self.rs = rs
        self.ring = ring
        self._cache: dict[tuple[Word, Word], Scalar] = {}
        self._suffix_cache: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        self._gen_denom = {
            i: ring.mono(s=rs.d[i - 1]) - ring.mono(r=rs.d[i - 1])
            for i in range(1, rs.n + 1)
        }

    def _degree_denom(self, letters: Word) -> Scalar:
        """Π(s_i - r_i) over the letters of a word."""
        denom = self.ring.one
        for letter in letters:
            denom = denom * self._gen_denom[letter]
        return denom

    def _suffix_factor(self, j: int, suffix: Word) -> Scalar:
        """(ω'_j, ω_μ) for μ the degree of the remaining letters the Cartan
        element is pushed past."""
        deg = [0] * self.rs.n
        for letter in suffix:
            deg[letter - 1] += 1
        key = (j, tuple(deg))
        got = self._suffix_cache.get(key)
        if got is None:
            aj = tuple(1 if k == j - 1 else 0 for k in range(self.rs.n))
            got = omega_pairing(self.rs, self.ring, aj, tuple(deg))
            self._suffix_cache[key] = got
        return got

    def _pair_scaled(self, fword: Word, eword: Word) -> Scalar:
        """Π(s_i - r_i)^{k_i} · (fword, eword); always a Laurent polynomial."""
        if not fword:
            return self.ring.one
        key = (fword, eword)
        got = self._cache.get(key)
        if got is not None:
            return got
        j = eword[-1]
        erest = eword[:-1]
        acc = self.ring.zero
        for a, letter in enumerate(fword):
            if letter != j:
                continue
            sub = self._pair_scaled(fword[:a] + fword[a + 1 :], erest)
            if sub.is_zero():
                continue
            acc = acc + self._suffix_factor(j, fword[a + 1 :]) * sub
        self._cache[key] = acc
        return acc

    def pair_words(self, fword: Word, eword: Word) -> Scalar:
        """Pairing of a pure f-word against a pure e-word."""
        if sorted(fword) != sorted(eword):
            return self.ring.zero
        return self._pair_scaled(fword, eword) / self._degree_denom(fword)

    def hopf_pair(self, y: HalfElement, x: HalfElement) -> Scalar:
        """Full pairing (y, x) for y in the minus half, x in the plus half.

        Σ cy·cx·(ω'_κ, ω_ν)·(scaled word pairing) is summed per degree
        without any division; each degree's sum is then divided once."""
        if y.side != "minus" or x.side != "plus":
            raise ValueError("hopf_pair takes (minus element, plus element)")
        x_by_degree: dict[Word, list] = {}
        for (ew, nu), cx in x.terms.items():
            x_by_degree.setdefault(tuple(sorted(ew)), []).append((ew, nu, cx))
        sums: dict[Word, Scalar] = {}
        for (fw, kap), cy in y.terms.items():
            deg = tuple(sorted(fw))
            for ew, nu, cx in x_by_degree.get(deg, ()):
                pw = self._pair_scaled(fw, ew)
                if pw.is_zero():
                    continue
                term = cy * cx * omega_pairing(self.rs, self.ring, kap, nu) * pw
                sums[deg] = sums[deg] + term if deg in sums else term
        acc = self.ring.zero
        for deg, total in sums.items():
            acc = acc + total / self._degree_denom(deg)
        return acc


# ---------------------------------------------------------------------------
# abstract quantum root vectors
# ---------------------------------------------------------------------------


@dataclass
class AbstractRootVector:
    root: Root
    e: HalfElement
    f: HalfElement


def abstract_root_vector(
    order: ConvexOrder, gamma: Root, ring: ScalarRing
) -> AbstractRootVector:
    """Expand e_γ and f_γ as word combinations by iterated bracketing over
    minimal pairs: e_γ = e_α e_β - (ω'_β, ω_α) e_β e_α and
    f_γ = f_β f_α - (ω'_α, ω_β)^{-1} f_α f_β."""
    rs = order.rs

    def build(rt: Root) -> tuple[HalfElement, HalfElement]:
        if rt.is_simple():
            i = rt.alpha.index(1) + 1
            return (
                HalfElement.letter("plus", rs, ring, i),
                HalfElement.letter("minus", rs, ring, i),
            )
        a, b = minimal_pair(order, rt)
        ea, fa = build(a)
        eb, fb = build(b)
        pair_ba = omega_pairing(rs, ring, b.alpha, a.alpha)
        pair_ab = omega_pairing(rs, ring, a.alpha, b.alpha)
        e = ea * eb - (eb * ea).scale(pair_ba)
        f = fb * fa - (fa * fb).scale(pair_ab.inv())
        return e, f

    e, f = build(gamma)
    return AbstractRootVector(gamma, e, f)


def check_oracle_range(m: int, height: int) -> None:
    """The oracle's word expansion is exponential in m·height; inputs beyond
    the supported desk range (m ≤ 3 and m·height ≤ 9) are rejected rather
    than truncated."""
    if m > 3 or m * height > 9:
        raise ValueError(f"pairing power out of the supported range: m={m}, height={height}")


def pairing_power(
    oracle: PairingOracle, order: ConvexOrder, gamma: Root, m: int
) -> Scalar:
    """(f_γ^m, e_γ^m) computed by the oracle on fully expanded words, within
    the range ``check_oracle_range`` accepts."""
    if m == 0:
        return oracle.ring.one
    check_oracle_range(m, gamma.height)
    rv = abstract_root_vector(order, gamma, oracle.ring)
    return oracle.hopf_pair(rv.f.power(m), rv.e.power(m))


# ---------------------------------------------------------------------------
# the closed recursion for the degree-one constants
# ---------------------------------------------------------------------------


def p_max(rs: RootSystem, alpha: Root, beta: Root) -> int:
    """max{k ≥ 0 : α - kβ is a root}."""
    k = 0
    while True:
        cand = tuple(x - (k + 1) * y for x, y in zip(alpha.alpha, beta.alpha))
        if not rs.is_root(cand):
            return k
        k += 1


def root_d(rs: RootSystem, gamma: Root) -> int:
    """Half square length (γ,γ)/2, the exponent for r_γ = r^{d_γ}."""
    v = rs.sym_form(gamma.alpha, gamma.alpha) / 2
    if v.denominator != 1:
        raise AssertionError("non-integer half square length")
    return int(v)


def c_gamma(order: ConvexOrder, gamma: Root, ring: ScalarRing) -> Scalar:
    """Degree-one pairing constant c_γ = (f_γ, e_γ) by the minimal-pair
    recursion; for a simple root it is 1/(s_i - r_i)."""
    rs = order.rs
    if gamma.is_simple():
        i = gamma.alpha.index(1) + 1
        d = rs.d[i - 1]
        return (ring.mono(s=d) - ring.mono(r=d)).inv()
    a, b = minimal_pair(order, gamma)
    da, db, dg = root_d(rs, a), root_d(rs, b), root_d(rs, gamma)
    p = p_max(rs, a, b)
    sa_ra = ring.mono(s=da) - ring.mono(r=da)
    sb_rb = ring.mono(s=db) - ring.mono(r=db)
    sg_rg = ring.mono(s=dg) - ring.mono(r=dg)
    bracket = ring.num(p) * rs_integer(ring, p + 1, d=da) ** 2 * sa_ra * sb_rb / sg_rg
    bracket = bracket + omega_pairing(rs, ring, b.alpha, a.alpha)
    bracket = bracket - omega_pairing(rs, ring, a.alpha, b.alpha).inv()
    return bracket * c_gamma(order, a, ring) * c_gamma(order, b, ring)


def pairing_from_c(
    order: ConvexOrder, gamma: Root, m: int, ring: ScalarRing
) -> Scalar:
    """(f_γ^m, e_γ^m) = s_γ^{-m(m-1)/2} c_γ^m [m]_{r_γ,s_γ}!."""
    d = root_d(order.rs, gamma)
    pre = ring.mono(s=-Fraction(d * m * (m - 1), 2))
    return pre * c_gamma(order, gamma, ring) ** m * rs_factorial(ring, m, d=d)


def closed_form_pairing(rs: RootSystem, ring: ScalarRing, gamma: Root, m: int) -> Scalar:
    """The printed per-type closed form for (f_γ^m, e_γ^m)."""
    n = rs.n
    sign = ring.num((-1) ** m)

    def short_form() -> Scalar:
        return (
            sign
            * ring.mono(s=-Fraction(m * (m - 1), 2))
            * rs_factorial(ring, m, d=1)
            / (ring.mono(r=1) - ring.mono(s=1)) ** m
        )

    def long_form() -> Scalar:
        return (
            sign
            * ring.mono(s=-m * (m - 1))
            * rs_factorial(ring, m, d=2)
            / (ring.mono(r=2) - ring.mono(s=2)) ** m
        )

    fam, kind, i, j = rs.family, gamma.kind, gamma.i, gamma.j
    two = rs_integer(ring, 2, d=1)
    if fam == "A":
        return short_form()
    if fam == "B":
        if kind == "g" and j < n:
            return long_form()
        if kind == "g":
            return short_form()
        return two ** (2 * m) * ring.mono(r=-2 * m * (n - j), s=-2 * m * (n - j)) * long_form()
    if fam == "C":
        if kind == "g" and (i, j) != (n, n):
            return short_form()
        if kind == "g":
            return long_form()
        if i == j:
            return two ** (2 * m) * long_form()
        return ring.mono(r=-m * (n - j), s=-m * (n - j)) * short_form()
    if kind == "g":
        return short_form()
    return ring.mono(r=-m * (n - j), s=-m * (n - j)) * short_form()


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def verify_pairing_constants(
    rs: RootSystem, ring: ScalarRing, order: ConvexOrder, max_m: int = 2
) -> Report:
    """Oracle vs closed form vs recursion for every positive root, m ≤ max_m
    (lowered per root where the word expansion would leave the supported
    degree range)."""
    out = Report()
    with out.timed("pairing-constants", rs.family, rs.n) as it:
        oracle = PairingOracle(rs, ring)
        w = ""
        for gamma in order.roots:
            mm = max_m
            while mm > 1 and mm * gamma.height > 6:
                mm -= 1
            for m in range(mm + 1):
                via_oracle = pairing_power(oracle, order, gamma, m)
                via_closed = closed_form_pairing(rs, ring, gamma, m)
                via_c = pairing_from_c(order, gamma, m, ring)
                if via_oracle != via_closed:
                    w = w or f"{gamma.label()} m={m}: oracle {via_oracle} vs closed {via_closed}"
                if via_oracle != via_c:
                    w = w or f"{gamma.label()} m={m}: oracle {via_oracle} vs recursion {via_c}"
        it.witness = w
    return out


def pbw_monomials(order: ConvexOrder, max_height: int):
    """Exponent vectors m_γ ≥ 0 with Σ m_γ·height(γ) ≤ max_height, excluding
    the empty monomial."""
    roots = order.decreasing()
    heights = [rt.height for rt in roots]

    def rec(idx: int, budget: int):
        if idx == len(roots):
            yield ()
            return
        for k in range(budget // heights[idx] + 1):
            for rest in rec(idx + 1, budget - k * heights[idx]):
                yield (k,) + rest

    for exps in rec(0, max_height):
        if any(exps):
            yield exps


def expand_monomial(
    order: ConvexOrder, exps: tuple[int, ...], side: str, ring: ScalarRing
) -> HalfElement:
    """Ordered product over the decreasing convex order with the given
    exponents."""
    rs = order.rs
    out = HalfElement.unit(side, rs, ring)
    for rt, m in zip(order.decreasing(), exps):
        if not m:
            continue
        rv = abstract_root_vector(order, rt, ring)
        out = out * (rv.e if side == "plus" else rv.f).power(m)
    return out


def verify_pbw_orthogonality(
    rs: RootSystem, ring: ScalarRing, order: ConvexOrder, max_height: int
) -> Report:
    """Pairing of ordered monomials vanishes unless the exponents agree, and
    the diagonal values factor into the per-root constants."""
    out = Report()
    with out.timed(f"pbw-orthogonality-h{max_height}", rs.family, rs.n) as it:
        oracle = PairingOracle(rs, ring)
        w = ""
        monos = list(pbw_monomials(order, max_height))
        roots_dec = order.decreasing()

        def q_degree(exps):
            deg = [0] * rs.n
            for rt, m in zip(roots_dec, exps):
                for k in range(rs.n):
                    deg[k] += m * rt.alpha[k]
            return tuple(deg)

        degrees = [q_degree(e) for e in monos]
        f_elems = [expand_monomial(order, e, "minus", ring) for e in monos]
        e_elems = [expand_monomial(order, e, "plus", ring) for e in monos]
        for a, ma in enumerate(monos):
            for b, mb in enumerate(monos):
                if degrees[a] != degrees[b]:
                    continue  # vanishes by degree reasons; nothing to compute
                val = oracle.hopf_pair(f_elems[a], e_elems[b])
                if ma != mb:
                    if not val.is_zero():
                        w = w or f"off-diagonal {ma} vs {mb} paired to {val}"
                else:
                    expect = ring.one
                    for rt, m in zip(roots_dec, ma):
                        if m:
                            expect = expect * pairing_power(oracle, order, rt, m)
                    if val != expect:
                        w = w or f"diagonal {ma} paired to {val}, expected {expect}"
        it.witness = w
    return out
