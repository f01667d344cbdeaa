"""Brute-force Hopf-pairing engine on the free halves of the quantum group.

Elements are linear combinations of (word in the e_i or f_i, Cartan monomial)
terms; no Serre relations are imposed.  The pairing is computed by peeling
one letter at a time through the coproduct, which is well defined because
the coproduct of a generator only involves generators and Cartan elements.
This gives a relation-independent oracle for root-vector pairing constants
and the orthogonality of ordered monomials.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .lyndon import ConvexOrder, bracket_tower, minimal_pair
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
    """Evaluator of the bilinear pairing between the two halves.

    The generator values 1/(s_i - r_i) are factored out of the recursion: a
    word pairing of degree Σ k_i α_i is (Laurent polynomial)·Π(s_i - r_i)^{-k_i},
    so the inner recursion is fraction-free.  ``hopf_pair`` keeps it so: it
    sums the scaled word pairings of each degree (letter multiset) and
    divides each sum once by its Π(s_i - r_i)^{k_i}.

    ``hopf_pair`` pairs whole elements by suffix aggregation: its state is
    (f-subword, e-suffix), and each stripping step is taken once for all
    the e-words that share the suffix (``_pair_aggregated``).  ``pair_words``
    and its memoized ``_pair_scaled`` pair one f-word with one e-word; they
    are the term-by-term reference the tests compare ``hopf_pair`` with.
    The caches live as long as the oracle, which a case's ``PairingContext``
    owns; the inputs it accepts are bounded by ``check_oracle_range``.
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

    def _pair_aggregated(self, fwords: dict[Word, Scalar], ewords: dict[Word, Scalar]) -> Scalar:
        """Σ cf·ce·``_pair_scaled``(fw, ew) over the f-words and e-words of
        one degree, summed over shared e-suffixes.

        Level k maps each e-suffix s of length k that some e-word ends in to
        the f-side left once s is stripped: Σ (coefficient)·(f-subword).
        Stripping one more e-letter j and the f-letter at a position a with
        fw[a] = j multiplies by ``_suffix_factor(j, fw[a+1:])``, the step of
        ``_pair_scaled``; it is taken once for every e-word ending in j·s.
        A full e-word leaves the empty f-word, whose coefficient is the
        scaled pairing summed over the f-words."""
        length = len(next(iter(ewords)))
        level: dict[Word, dict[Word, Scalar]] = {(): fwords}
        for k in range(1, length + 1):
            nxt: dict[Word, dict[Word, Scalar]] = {}
            for suffix in {ew[length - k :] for ew in ewords}:
                side = level.get(suffix[1:])
                if side is None:
                    continue
                j = suffix[0]
                out: dict[Word, Scalar] = {}
                for fw, c in side.items():
                    for a, letter in enumerate(fw):
                        if letter != j:
                            continue
                        sub = fw[:a] + fw[a + 1 :]
                        v = self._suffix_factor(j, fw[a + 1 :]) * c
                        out[sub] = out[sub] + v if sub in out else v
                out = {w: v for w, v in out.items() if not v.is_zero()}
                if out:
                    nxt[suffix] = out
            level = nxt
        acc = self.ring.zero
        for ew, ce in ewords.items():
            side = level.get(ew)
            if side is not None:
                acc = acc + ce * side[()]
        return acc

    def hopf_pair(self, y: HalfElement, x: HalfElement) -> Scalar:
        """Full pairing (y, x) for y in the minus half, x in the plus half.

        Both elements are grouped by degree; the f-words by Cartan part κ,
        and the e-words with (ω'_κ, ω_ν) folded into their coefficients.
        Each group is paired by ``_pair_aggregated``, fraction-free, and each
        degree's sum is divided once by its Π(s_i - r_i)^{k_i}."""
        if y.side != "minus" or x.side != "plus":
            raise ValueError("hopf_pair takes (minus element, plus element)")
        x_by_degree: dict[Word, list] = {}
        for (ew, nu), cx in x.terms.items():
            x_by_degree.setdefault(tuple(sorted(ew)), []).append((ew, nu, cx))
        y_groups: dict[tuple[Word, Cartan], dict[Word, Scalar]] = {}
        for (fw, kap), cy in y.terms.items():
            y_groups.setdefault((tuple(sorted(fw)), kap), {})[fw] = cy
        sums: dict[Word, Scalar] = {}
        for (deg, kap), fwords in y_groups.items():
            ewords: dict[Word, Scalar] = {}
            for ew, nu, cx in x_by_degree.get(deg, ()):
                v = cx * omega_pairing(self.rs, self.ring, kap, nu)
                ewords[ew] = ewords[ew] + v if ew in ewords else v
            ewords = {ew: v for ew, v in ewords.items() if not v.is_zero()}
            if not ewords:
                continue
            total = self._pair_aggregated(fwords, ewords)
            sums[deg] = sums[deg] + total if deg in sums else total
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
    return PairingContext(order, ring).root_vector(gamma)


def check_oracle_range(m: int, height: int) -> None:
    """The oracle's word expansion is exponential in m·height; inputs beyond
    the supported range (1 ≤ m ≤ 3 and m·height ≤ 11) are rejected rather
    than truncated.  m = 0 is the unit pairing, which the callers return
    before they get here, so m < 1 is a caller's range that pairs nothing.

    The bound is measured: a sweep of (f_γ^m, e_γ^m) over every root of
    A2–A12, B2–B6, C2–C6 and D3–D7 with m ≤ 3 (Python 3.11, one core of a
    shared 2-vCPU machine) took at most 1.5 s in range (D7 β[1,2], m = 1,
    height 11).  Past it, the A12 highest root (m·height = 12) took 2.4 s
    and the B7 highest root (13) took 14 s."""
    if not 1 <= m <= 3 or m * height > 11:
        raise ValueError(f"pairing power out of the supported range: m={m}, height={height}")


def pairing_power(
    oracle: PairingOracle, order: ConvexOrder, gamma: Root, m: int
) -> Scalar:
    """(f_γ^m, e_γ^m) computed by the oracle on fully expanded words, within
    the range ``check_oracle_range`` accepts.  Nothing is kept between
    calls; the tests compare ``PairingContext.power_pairing`` with it."""
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


@cache
def root_d(rs: RootSystem, gamma: Root) -> int:
    """Half square length (γ,γ)/2, the exponent for r_γ = r^{d_γ}; computed
    once per (root system, root)."""
    v = rs.sym_form(gamma.alpha, gamma.alpha) / 2
    if v.denominator != 1:
        raise AssertionError("non-integer half square length")
    return int(v)


def c_gamma(order: ConvexOrder, gamma: Root, ring: ScalarRing) -> Scalar:
    """Degree-one pairing constant c_γ = (f_γ, e_γ) by the minimal-pair
    recursion; for a simple root it is 1/(s_i - r_i)."""
    return PairingContext(order, ring).c_gamma(gamma)


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
# the pairing data of one case
# ---------------------------------------------------------------------------


class PairingContext:
    """The pairing data of one convex order over one ring, each piece
    computed on first use and kept for the life of the context: the abstract
    root vectors (the whole tower at once), the powers of e_γ and f_γ, the
    ordered monomials, the oracle's pairings of monomials (so each
    (f_γ^m, e_γ^m) once), the closed forms of (f_γ^m, e_γ^m), and c_γ from the minimal-pair recursion
    (each root once, sub-roots included).

    A case owns one, and its caches are dropped with the case.  Monomials
    are exponent vectors over ``order.decreasing()``."""

    def __init__(self, order: ConvexOrder, ring: ScalarRing):
        self.order = order
        self.ring = ring
        self.oracle = PairingOracle(order.rs, ring)
        self._roots = order.decreasing()
        self._powers: dict[tuple[Root, int, str], HalfElement] = {}
        self._monomials: dict[tuple[tuple[int, ...], str], HalfElement] = {}
        self._pairings: dict[tuple[tuple[int, ...], tuple[int, ...]], Scalar] = {}
        self._closed: dict[tuple[Root, int], Scalar] = {}
        self._c: dict[Root, Scalar] = {}

    def root_vector(self, gamma: Root) -> AbstractRootVector:
        return self._vectors[gamma.alpha]

    @cached_property
    def _vectors(self) -> dict[tuple[int, ...], AbstractRootVector]:
        """Every root's e_γ and f_γ, by ``lyndon.bracket_tower`` over the
        letters."""
        rs, ring = self.order.rs, self.ring
        letter = lambda side: {i: HalfElement.letter(side, rs, ring, i) for i in range(1, rs.n + 1)}
        pairing = lambda lam, mu: omega_pairing(rs, ring, lam, mu)
        e, f = bracket_tower(self.order, letter("plus"), letter("minus"), pairing, operator.mul)
        return {rt.alpha: AbstractRootVector(rt, e[rt.alpha], f[rt.alpha]) for rt in rs.positive}

    def power(self, gamma: Root, m: int, side: str) -> HalfElement:
        """e_γ^m ("plus") or f_γ^m ("minus") for m ≥ 1."""
        key = (gamma, m, side)
        got = self._powers.get(key)
        if got is None:
            rv = self.root_vector(gamma)
            x = rv.e if side == "plus" else rv.f
            got = x if m == 1 else self.power(gamma, m - 1, side) * x
            self._powers[key] = got
        return got

    def monomial(self, exps: tuple[int, ...], side: str) -> HalfElement:
        """The ordered product of the powers, largest root leftmost."""
        key = (exps, side)
        got = self._monomials.get(key)
        if got is None:
            for rt, m in zip(self._roots, exps):
                if m:
                    p = self.power(rt, m, side)
                    got = p if got is None else got * p
            if got is None:
                got = HalfElement.unit(side, self.order.rs, self.ring)
            self._monomials[key] = got
        return got

    def pair_monomials(self, fexps: tuple[int, ...], eexps: tuple[int, ...]) -> Scalar:
        """The oracle's pairing of two ordered monomials."""
        key = (fexps, eexps)
        got = self._pairings.get(key)
        if got is None:
            got = self.oracle.hopf_pair(self.monomial(fexps, "minus"), self.monomial(eexps, "plus"))
            self._pairings[key] = got
        return got

    def power_pairing(self, gamma: Root, m: int) -> Scalar:
        """(f_γ^m, e_γ^m) by the oracle, within ``check_oracle_range``."""
        if m == 0:
            return self.ring.one
        check_oracle_range(m, gamma.height)
        exps = tuple(m if rt == gamma else 0 for rt in self._roots)
        return self.pair_monomials(exps, exps)

    def closed_form(self, gamma: Root, m: int) -> Scalar:
        """(f_γ^m, e_γ^m) by ``closed_form_pairing``."""
        key = (gamma, m)
        got = self._closed.get(key)
        if got is None:
            got = self._closed[key] = closed_form_pairing(self.order.rs, self.ring, gamma, m)
        return got

    def c_gamma(self, gamma: Root) -> Scalar:
        """c_γ by the minimal-pair recursion (see ``c_gamma``)."""
        got = self._c.get(gamma)
        if got is not None:
            return got
        rs, ring = self.order.rs, self.ring
        if gamma.is_simple():
            d = rs.d[gamma.alpha.index(1)]
            got = (ring.mono(s=d) - ring.mono(r=d)).inv()
        else:
            a, b = minimal_pair(self.order, gamma)
            da, db, dg = root_d(rs, a), root_d(rs, b), root_d(rs, gamma)
            p = p_max(rs, a, b)
            sa_ra = ring.mono(s=da) - ring.mono(r=da)
            sb_rb = ring.mono(s=db) - ring.mono(r=db)
            sg_rg = ring.mono(s=dg) - ring.mono(r=dg)
            bracket = ring.num(p) * rs_integer(ring, p + 1, d=da) ** 2 * sa_ra * sb_rb / sg_rg
            bracket = bracket + omega_pairing(rs, ring, b.alpha, a.alpha)
            bracket = bracket - omega_pairing(rs, ring, a.alpha, b.alpha).inv()
            got = bracket * self.c_gamma(a) * self.c_gamma(b)
        self._c[gamma] = got
        return got

    def pairing_from_c(self, gamma: Root, m: int) -> Scalar:
        """(f_γ^m, e_γ^m) = s_γ^{-m(m-1)/2} c_γ^m [m]_{r_γ,s_γ}!."""
        d = root_d(self.order.rs, gamma)
        pre = self.ring.mono(s=-Fraction(d * m * (m - 1), 2))
        return pre * self.c_gamma(gamma) ** m * rs_factorial(self.ring, m, d=d)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def verify_pairing_constants(
    rs: RootSystem,
    ring: ScalarRing,
    order: ConvexOrder,
    max_m: int = 2,
    context: PairingContext | None = None,
) -> Report:
    """Oracle vs closed form vs recursion for every positive root, m ≤ max_m
    (lowered to m = 1 per root where m·height > 6), over the case's pairing
    ``context`` or a fresh one."""
    out = Report()
    with out.timed("pairing-constants", rs.family, rs.n) as it:
        pc = context or PairingContext(order, ring)
        w = ""
        for gamma in order.roots:
            mm = max_m
            while mm > 1 and mm * gamma.height > 6:
                mm -= 1
            for m in range(mm + 1):
                via_oracle = pc.power_pairing(gamma, m)
                via_closed = pc.closed_form(gamma, m)
                via_c = pc.pairing_from_c(gamma, m)
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


def verify_pbw_orthogonality(
    rs: RootSystem,
    ring: ScalarRing,
    order: ConvexOrder,
    max_height: int,
    context: PairingContext | None = None,
) -> Report:
    """Pairing of ordered monomials vanishes unless the exponents agree, and
    the diagonal values factor into the per-root closed forms
    Π_γ ``closed_form_pairing``(γ, m_γ); over the case's pairing
    ``context`` or a fresh one.  The closed form, not the oracle's own
    (f_γ^m, e_γ^m), is the reference, so a one-root monomial is not compared
    with itself."""
    out = Report()
    with out.timed(f"pbw-orthogonality-h{max_height}", rs.family, rs.n) as it:
        pc = context or PairingContext(order, ring)
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
        for a, ma in enumerate(monos):
            for b, mb in enumerate(monos):
                if degrees[a] != degrees[b]:
                    continue  # vanishes by degree reasons; nothing to compute
                val = pc.pair_monomials(ma, mb)
                if ma != mb:
                    if not val.is_zero():
                        w = w or f"off-diagonal {ma} vs {mb} paired to {val}"
                else:
                    expect = ring.one
                    for rt, m in zip(roots_dec, ma):
                        if m:
                            expect = expect * pc.closed_form(rt, m)
                    if val != expect:
                        w = w or f"diagonal {ma} paired to {val}, expected {expect}"
        it.witness = w
    return out
