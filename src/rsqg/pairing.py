"""The Hopf pairing between the two halves of the quantum group, computed on
the quantum-shuffle image of U⁺ (Rosso, Invent. Math. 1998; Leclerc, *Dual
canonical bases, quantum shuffles and q-characters*, Math. Z. 2004), and the
closed forms and minimal-pair recursion it is certified against.

For x of degree Σ k_i α_i, the image Φ(x)[u] = Π(s_i − r_i)^{k_i}·(f_u, x)
is a combination of words u in the letters 1..n, and Φ(e_i) = [i].  Φ turns
products into twisted shuffles: when the words of y are interleaved into
those of x, each letter b of y placed before a letter a of x contributes
(ω′_b, ω_a).  A pairing (y, x) is then Σ_u y[u]·Φ(x)[u] over the f-words u
of y, divided once by Π(s_i − r_i)^{k_i}.  Only the e side is expanded, as a
shuffle image; f_γ's coefficient at a word comes from the concatenation
recursion over minimal pairs, word by word.  Neither side imposes a Serre
relation.

``PairingOracle`` is the term-by-term reference, which peels one letter at a
time off an f-word and an e-word through the coproduct.  Nothing in the
package calls it; the tests compare the engine with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from .lyndon import ConvexOrder, bracket_tower, minimal_pair
from .report import Report
from .rootdata import Root, RootSystem, omega_pairing
from .scalars import Scalar, ScalarRing, rs_factorial, rs_integer

Word = tuple[int, ...]


class PairingOracle:
    """The pairing of f-words with e-words, term by term.

    ``_pair_scaled`` strips the last e-letter j against each f-letter j in
    turn, passing the Cartan part of Δ(e_j) over the f-letters after it.  The
    generator values 1/(s_i − r_i) are factored out, so the recursion is
    fraction-free, and ``pair_words`` divides once.  Its memo lives as long
    as the oracle."""

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

    def hopf_pair(self, y: dict[Word, Scalar], x: dict[Word, Scalar]) -> Scalar:
        """(y, x) for y = Σ y[u]·f_u and x = Σ x[w]·e_w, summed term pair by
        term pair through ``pair_words``."""
        acc = self.ring.zero
        for fw, cy in y.items():
            for ew, cx in x.items():
                acc = acc + cy * cx * self.pair_words(fw, ew)
        return acc


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
# the pairing engine of one case
# ---------------------------------------------------------------------------


# the greatest height of γ at which the engine pairs (f_γ^m, e_γ^m), by
# family, for m = 1, 2, 3; see check_oracle_range
ENGINE_HEIGHTS = {"A": (12, 9, 5), "B": (23, 9, 5), "C": (19, 7, 3), "D": (21, 9, 3)}


def check_oracle_range(family: str, m: int, height: int) -> None:
    """The engine pairs (f_γ^m, e_γ^m) for 1 ≤ m ≤ 3 and γ of height at most
    ``ENGINE_HEIGHTS[family][m - 1]``; other inputs are rejected rather than
    truncated.  m = 0 is the unit pairing, which the callers return before
    they get here, so m < 1 is a caller's range that pairs nothing.

    At m = 1 the bound is the highest root of A12, B12, C10 and D12.  It is
    measured (Python 3.11, one core of a shared 2-vCPU machine): at the
    bound, ``rsqg pairing constants`` took at most 3.4 s (C10 at m = 1,
    133 MiB; D6 at m = 2 took 2.7 s).  Past it, A10 at m = 2 took 2.1 s and
    the highest root of D4 alone took 8.2 s at m = 3; in C the shuffle image
    of the highest root has Catalan(n − 1) words."""
    if not 1 <= m <= 3 or height > ENGINE_HEIGHTS[family][m - 1]:
        raise ValueError(f"pairing power out of the supported range: {family}, m={m}, height={height}")


class WordSum(dict):
    """A linear combination {word: Scalar} of words.  The product is given
    apart: ``PairingContext.shuffle`` on the e side, concatenation in the
    term-by-term reference of the tests."""

    def add(self, word: Word, value: Scalar) -> None:
        total = self[word] + value if word in self else value
        if total.is_zero():
            self.pop(word, None)
        else:
            self[word] = total

    def scale(self, c: Scalar) -> "WordSum":
        return WordSum({w: v * c for w, v in self.items()})

    def __sub__(self, other: "WordSum") -> "WordSum":
        out = WordSum(self)
        for w, v in other.items():
            out.add(w, -v)
        return out


class PairingContext:
    """The pairing data of one convex order over one ring, each piece
    computed on first use and kept for the life of the context: the shuffle
    images Φ(e_γ) (the whole e tower at once), their shuffle powers and the
    images of ordered monomials, f_γ's coefficient at each word asked for,
    the pairings of monomials (so each (f_γ^m, e_γ^m) once), the closed
    forms of (f_γ^m, e_γ^m), and c_γ from the minimal-pair recursion (each
    root once, sub-roots included).  Θ reads c_γ only, so it builds no
    shuffle image.

    A case owns one, and its caches are dropped with the case.  Monomials
    are exponent vectors over ``order.decreasing()``."""

    def __init__(self, order: ConvexOrder, ring: ScalarRing):
        self.order = order
        self.ring = ring
        rs = order.rs
        self._roots = order.decreasing()
        self._gen_denom = {i: ring.mono(s=rs.d[i - 1]) - ring.mono(r=rs.d[i - 1]) for i in range(1, rs.n + 1)}
        self._powers: dict[tuple[Root, int], WordSum] = {}
        self._images: dict[tuple[int, ...], WordSum] = {}
        self._f: dict[tuple[tuple[int, ...], Word], Scalar] = {}
        self._pairings: dict[tuple[tuple[int, ...], tuple[int, ...]], Scalar] = {}
        self._closed: dict[tuple[Root, int], Scalar] = {}
        self._c: dict[Root, Scalar] = {}

    @cached_property
    def _twist(self) -> dict[tuple[int, int], Scalar]:
        """(ω′_b, ω_a) by letters (b, a): the factor of the shuffle for a
        letter b of the right word placed before a letter a of the left."""
        rs, n = self.order.rs, self.order.rs.n
        unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        return {
            (b, a): omega_pairing(rs, self.ring, unit[b - 1], unit[a - 1])
            for b in range(1, n + 1)
            for a in range(1, n + 1)
        }

    def shuffle_words(self, v: Word, w: Word) -> WordSum:
        """Φ(e_v e_w): every interleaving of w into v, with (ω′_b, ω_a) for
        each letter b of w placed before a letter a of v.  Built from the
        back: ``tail[j]`` interleaves w[j:] into the part of v done so far,
        and ``past[b]`` is b's factor for being placed before all of it."""
        one, twist = self.ring.one, self._twist
        tail = [WordSum({w[j:]: one}) for j in range(len(w) + 1)]
        past = {b: one for b in set(w)}
        for i in range(len(v) - 1, -1, -1):
            a = v[i]
            past = {b: twist[(b, a)] * t for b, t in past.items()}
            row = [WordSum() for _ in w] + [WordSum({v[i:]: one})]
            for j in range(len(w) - 1, -1, -1):
                out = row[j]
                for u, c in tail[j].items():
                    out[(a,) + u] = c
                b = w[j]
                for u, c in row[j + 1].items():
                    out.add((b,) + u, c * past[b])
            tail = row
        return tail[0]

    def shuffle(self, x: WordSum, y: WordSum) -> WordSum:
        """The twisted shuffle product Φ(x)⧢Φ(y) = Φ(x·y)."""
        out = WordSum()
        for v, cx in x.items():
            for w, cy in y.items():
                c = cx * cy
                for u, t in self.shuffle_words(v, w).items():
                    out.add(u, c * t)
        return out

    @cached_property
    def _tower(self) -> dict[tuple[int, ...], WordSum]:
        """Φ(e_γ) for every positive root, keyed by ``root.alpha``: the e side
        of ``lyndon.bracket_tower`` with the twisted shuffle as product."""
        rs, ring = self.order.rs, self.ring
        letters = {i: WordSum({(i,): ring.one}) for i in range(1, rs.n + 1)}
        pairing = lambda lam, mu: omega_pairing(rs, ring, lam, mu)
        return bracket_tower(self.order, letters, pairing, self.shuffle, "e")

    def power(self, gamma: Root, m: int) -> WordSum:
        """Φ(e_γ^m), the m-th shuffle power of Φ(e_γ), for m ≥ 1."""
        key = (gamma, m)
        got = self._powers.get(key)
        if got is None:
            x = self._tower[gamma.alpha]
            got = x if m == 1 else self.shuffle(self.power(gamma, m - 1), x)
            self._powers[key] = got
        return got

    def _image(self, exps: tuple[int, ...]) -> WordSum:
        """Φ of the ordered monomial: the shuffle product of its powers,
        largest root leftmost."""
        got = self._images.get(exps)
        if got is None:
            for rt, m in zip(self._roots, exps):
                if m:
                    p = self.power(rt, m)
                    got = p if got is None else self.shuffle(got, p)
            if got is None:
                got = WordSum({(): self.ring.one})
            self._images[exps] = got
        return got

    @cached_property
    def _f_pairs(self) -> dict[tuple[int, ...], tuple[Root, Root, Scalar]]:
        """(α, β, (ω′_α, ω_β)⁻¹) for the minimal pair (α, β) of every
        non-simple root, keyed by ``root.alpha``."""
        rs, ring = self.order.rs, self.ring
        out = {}
        for rt in rs.positive:
            if not rt.is_simple():
                a, b = minimal_pair(self.order, rt)
                out[rt.alpha] = (a, b, omega_pairing(rs, ring, a.alpha, b.alpha).inv())
        return out

    def f_coefficient(self, gamma: Root, u: Word) -> Scalar:
        """f_γ's coefficient at the f-word u, by the concatenation recursion
        f_γ = f_β f_α − (ω′_α, ω_β)⁻¹·f_α f_β over the minimal pair (α, β)
        of γ, which splits u after |β| or |α| letters; memoized on (γ, u)."""
        key = (gamma.alpha, u)
        got = self._f.get(key)
        if got is None:
            deg = [0] * len(gamma.alpha)
            for letter in u:
                deg[letter - 1] += 1
            if tuple(deg) != gamma.alpha:
                got = self.ring.zero
            elif gamma.is_simple():
                got = self.ring.one
            else:
                a, b, c = self._f_pairs[gamma.alpha]
                got = self._split(b, a, u) - c * self._split(a, b, u)
            self._f[key] = got
        return got

    def _split(self, first: Root, second: Root, u: Word) -> Scalar:
        """The coefficient of f_first·f_second at u."""
        head = self.f_coefficient(first, u[: first.height])
        return head * self.f_coefficient(second, u[first.height :]) if head else head

    def degree(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """Σ m_γ·γ over the simple roots, for the monomial of exponents
        ``exps``."""
        deg = [0] * self.order.rs.n
        for rt, m in zip(self._roots, exps):
            for k, c in enumerate(rt.alpha):
                deg[k] += m * c
        return tuple(deg)

    def pair_monomials(self, fexps: tuple[int, ...], eexps: tuple[int, ...]) -> Scalar:
        """The pairing of two ordered monomials: Σ_u (Π f_γ at the
        consecutive blocks of u)·Φ(e-monomial)[u], divided once by
        Π(s_i − r_i)^{k_i}; 0 between different degrees."""
        key = (fexps, eexps)
        got = self._pairings.get(key)
        if got is None:
            deg = self.degree(eexps)
            got = self.ring.zero
            if self.degree(fexps) == deg:
                blocks = [rt for rt, m in zip(self._roots, fexps) for _ in range(m)]
                for u, c in self._image(eexps).items():
                    k = 0
                    for rt in blocks:
                        c = c * self.f_coefficient(rt, u[k : k + rt.height])
                        k += rt.height
                        if c.is_zero():
                            break
                    got = got + c
                denom = self.ring.one
                for i, k in enumerate(deg, start=1):
                    denom = denom * self._gen_denom[i] ** k
                got = got / denom
            self._pairings[key] = got
        return got

    def power_pairing(self, gamma: Root, m: int) -> Scalar:
        """(f_γ^m, e_γ^m) by the engine, within ``check_oracle_range``."""
        if m == 0:
            return self.ring.one
        check_oracle_range(self.order.rs.family, m, gamma.height)
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
    """The engine's (f_γ^m, e_γ^m), which the witness calls the oracle's, vs
    the closed form vs the recursion for every positive root, m ≤ max_m
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
                via_engine = pc.power_pairing(gamma, m)
                via_closed = pc.closed_form(gamma, m)
                via_c = pc.pairing_from_c(gamma, m)
                if via_engine != via_closed:
                    w = w or f"{gamma.label()} m={m}: oracle {via_engine} vs closed {via_closed}"
                if via_engine != via_c:
                    w = w or f"{gamma.label()} m={m}: oracle {via_engine} vs recursion {via_c}"
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
    ``context`` or a fresh one.  The closed form, not the engine's own
    (f_γ^m, e_γ^m), is the reference, so a one-root monomial is not compared
    with itself."""
    out = Report()
    with out.timed(f"pbw-orthogonality-h{max_height}", rs.family, rs.n) as it:
        pc = context or PairingContext(order, ring)
        w = ""
        monos = list(pbw_monomials(order, max_height))
        roots_dec = order.decreasing()

        degrees = [pc.degree(e) for e in monos]
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
