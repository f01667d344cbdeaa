"""Exact coefficient arithmetic: multivariate Laurent polynomials over ℚ and
their quotients by cyclotomic denominators (see ``_make``).

The two deformation parameters r and s are carried through half-power
generators: a variable declared with granularity 2 internally stores the
exponent of r^(1/2), so every half-integer power of r or s has an integer
internal exponent.  Coefficients are exact rationals, held as ``int`` when
integral and as ``Fraction`` otherwise: the constructors, parsing, JSON and
every coefficient division (all through ``_cdiv``) give an ``int`` for an
integral value.  A sum or product of ``Fraction`` coefficients is left as
Python computes it and may be an integral ``Fraction``; since
``3 == Fraction(3)`` and their hashes and ``str`` agree, the canonical form,
the text form and the JSON do not depend on which one is stored.  ``int /
int`` is never used: its result is inexact.

Exponent vectors are packed.  The vector (e_0, …, e_{k-1}) is stored as the
one int Σ e_i·2^(32i), its digits in balanced base 2^32 (the packed
monomials of Monagan and Pearce, CASC 2007).  Packing is additive, so a
monomial product is one int add, and every term dict, a Scalar's included,
is keyed by these ints.  Every stored exponent satisfies |e| < 2^20.  A
product of two stored values then has exponents below 2^21 in size, far
inside a 32-bit digit, so the int sum is exact and its digits read back.
Each operation whose result can leave the range checks every term it stores
with O(1) int operations (``_check``) and raises ValueError, so no key is
ever aliased: products and powers, the inverse of a monomial, ``_make``,
``substitute``, the constructors, ``parse`` and ``scalar_from_json``.
Exponent tuples appear only where exponents are read one by one: the text
form, parsing, JSON, and the graded-lex order that picks the canonical
denominator's leading coefficient.

Every value is held in canonical form, and ``_make`` is the one function
that puts a raw fraction into it.  A denominator must be a constant times a
monomial times cyclotomic forms Φ_k(u) and Φ_k(u, v) of the internal
variables, as every denominator of the R-matrices is; ``_make`` factors it
into these forms (once per distinct denominator) and divides each form out
of the numerator as often as both allow, and raises ValueError for any other
denominator, so no value is built on one.  Four operations skip it, because
their result is canonical as computed: a product or sum of two Laurent
polynomials (denominator 1; the product of nonzero ones is nonzero), a
product with a Laurent monomial of denominator 1, and the inverse of such a
monomial.  A monomial is a unit of the Laurent ring, so the other factor's
numerator and monic denominator stay coprime and its denominator is kept as
it is.  All Laurent polynomials of a ring share the ring's one
unit-denominator dict, which is how these paths recognise them, and there
is one ring object per variable tuple, so values from rings built apart
share it too.

Two more skip it.  ``substitute`` takes only monomial and zero images
(r^(1/2) ↦ w q^(1/2), r^(1/2) ↦ q^(1/2), z ↦ 1, z ↦ 0), so each term of a
Laurent polynomial maps to one term and only a value with a denominator is
canonicalized.  The (r,s)-combinatorics (``rs_integer``, ``rs_factorial``
and the Gaussian binomials ``rs_binomial`` and ``q_binomial``) are Laurent
polynomials, built from closed forms, products and Pascal rules with no
division.  They, ``rootdata.omega_pairing`` and the t_i and a_ij monomials
of ``rmatrix.CoefficientTables`` are each built once per process and per
ring variable set, on first use (nothing is computed at import), in one
module-level memo of raw term dicts (``_MEMO``).
A value is handed out bound to the caller's ring object, on that ring's
shared unit denominator, and its term dict is shared and never changed, like
every Scalar's.

Sparse matrix products and mat-vecs skip it too: they run one kernel,
``matrices._combine_columns``.  Each output entry sums its Laurent products
in place on one raw term dict, with ``_paddto`` and the term-pair product
loop ``_pmuladd``; a unit factor passes the other factor's terms through,
with no exponent adds.  A sum of Laurent polynomials is canonical, so the
nonzero dict becomes a Scalar as it is once its terms pass the range check.
That saves a Scalar, a dict and an accumulator copy per product, which is
where matmul time went.  ``_pmuladd`` is the one term-pair product loop:
Scalar products, powers, the sparse kernel and exact division all run it,
and so does the Yang–Baxter decider, on values that ``matrices`` packs
along s (keys are packed exponents and coefficients are ints, so the loop
reads them as it reads term dicts).

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping

Exps = tuple  # an exponent vector read out of its packed int, one slot per ring variable


@dataclass(frozen=True)
class Variable:
    """A ring variable.  ``denom`` is the exponent granularity: an internal
    exponent e prints as name^(e/denom), e.g. r with denom 2 stores half
    powers of r."""

    name: str
    denom: int = 1


_RINGS: dict[tuple[Variable, ...], "ScalarRing"] = {}  # the one ring of each variable tuple


class ScalarRing:
    """Context object fixing an ordered variable set.

    There is one ring per variable tuple: constructing, copying or
    unpickling a ring with the same variables gives the ring built first, so
    rings are equal exactly when they are the same object.  All Scalars hold
    a reference to their ring; mixing rings raises.
    """

    variables: tuple[Variable, ...]
    names: tuple[str, ...]
    index: dict[str, int]

    def __new__(cls, variables: Iterable[Variable | str]):
        vs = tuple(Variable(v) if isinstance(v, str) else v for v in variables)
        ring = _RINGS.get(vs)
        if ring is not None:
            return ring
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable name in {names}")
        ring = super().__new__(cls)
        ring.variables = vs
        ring.names = tuple(names)
        ring.index = {n: i for i, n in enumerate(names)}
        ring.nvars = nv = len(vs)
        # the digit masks of ``_check``
        ring._bias = _spread(_LIMIT, nv)
        ring._high = _spread(_MASK ^ (2 * _LIMIT - 1), nv)
        # the one unit denominator every Laurent polynomial of this ring shares
        # (the zero exponent vector packs to 0)
        ring._one_den = {0: 1}
        ring.zero = Scalar(ring, {}, ring._one_den, _raw=True)
        ring.one = Scalar(ring, {0: 1}, ring._one_den, _raw=True)
        return _RINGS.setdefault(vs, ring)

    def __reduce__(self):
        return ScalarRing, (self.variables,)

    def __repr__(self) -> str:
        return f"ScalarRing({', '.join(self.names)})"

    # -- constructors ------------------------------------------------------

    def num(self, value) -> Scalar:
        """Constant scalar from an int or Fraction."""
        c = _coeff(value)
        if c == 0:
            return self.zero
        return Scalar(self, {0: c}, self._one_den, _raw=True)

    def mono(self, coeff=1, **powers) -> Scalar:
        """Monomial from printed-unit powers, e.g. ``ring.mono(r=2, s=-1)``.

        Powers may be ints or Fractions; they must land on the variable's
        granularity (r accepts half-integers, z only integers).
        """
        c = _coeff(coeff)
        if c == 0:
            return self.zero
        packed = 0
        for name, p in powers.items():
            if name not in self.index:
                raise KeyError(f"unknown variable {name!r} in {self.names}")
            i = self.index[name]
            denom = self.variables[i].denom
            if isinstance(p, int):
                e = p * denom
            else:
                e = Fraction(p) * denom
                if e.denominator != 1:
                    raise ValueError(f"power {p} of {name} is not a multiple of 1/{denom}")
                e = int(e)
            packed += _pack_exps((e,)) << (_BITS * i)
        return Scalar(self, {packed: c}, self._one_den, _raw=True)

    def atom(self, name: str, power: int = 1) -> Scalar:
        """Generator at internal granularity: ``atom('r')`` is r^(1/2) when r
        has denom 2."""
        return Scalar(self, {_pack_exps((power,)) << (_BITS * self.index[name]): 1}, self._one_den, _raw=True)

    def poly(self, terms: Mapping[Exps, int | Fraction]) -> Scalar:
        """Scalar from a raw map of internal exponent tuples to coefficients
        (used by parse/JSON)."""
        return _make(self, {_pack_vector(self, e): _coeff(c) for e, c in terms.items() if c}, self._one_den)


def ring_create(names: Iterable[Variable | str]) -> ScalarRing:
    """Create a coefficient ring with the given ordered variables."""
    return ScalarRing(names)


def rs_ring(*extra: str) -> ScalarRing:
    """The standard ring in r, s (half-power granularity) plus optional
    plain spectral/evaluation variables."""
    return ScalarRing([Variable("r", 2), Variable("s", 2), *extra])


# ---------------------------------------------------------------------------
# coefficients: int when integral, Fraction otherwise
# ---------------------------------------------------------------------------


def _cdiv(a, b):
    """Exact coefficient quotient a / b: an int when b divides a, else a
    Fraction.  Every coefficient division in this module goes through here."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _coeff(value):
    """Coefficient from an int, a Fraction or a rational string.  A string
    of ASCII digits with an optional minus sign, as JSON writes an integer,
    is read by ``int``; ``Fraction`` reads any other."""
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    c = Fraction(value)
    return _cdiv(c.numerator, c.denominator)


# ---------------------------------------------------------------------------
# packed exponents: one int per exponent vector
# ---------------------------------------------------------------------------

# An exponent vector (e_0, …, e_{k-1}) packs to the int Σ e_i·2^(32i): its
# digits in balanced base 2^32, so packing is additive and a monomial product
# costs one int add.  A stored exponent has |e| < 2^20; a digit overflows only
# past 2^31, so a product of two stored values is exact, and so is any sum of
# fewer than 2^11 stored exponents.
_BITS = 32
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)
_LIMIT = 1 << 20


def _spread(digit: int, nv: int) -> int:
    """The packed int whose nv digits all equal ``digit``."""
    return digit * (((1 << (_BITS * nv)) - 1) // _MASK)


def _pack_exps(e: Iterable[int]) -> int:
    """The packed int of an exponent vector; ValueError for |e_i| ≥ 2^20."""
    p = 0
    for x in reversed(e):
        if not -_LIMIT < x < _LIMIT:
            raise ValueError(f"exponent {x} out of the packed range |e| < 2^20")
        p = (p << _BITS) + x
    return p


def _unpack_exps(p: int, nv: int) -> Exps:
    """Inverse of ``_pack_exps`` for a vector of nv slots."""
    out = []
    for _ in range(nv):
        d = p & _MASK
        if d >= _HALF:
            d -= 1 << _BITS
        out.append(d)
        p = (p - d) >> _BITS
    return tuple(out)


def _pack_vector(ring: ScalarRing, e) -> int:
    """The packed int of an exponent vector read from outside (``poly``,
    JSON), which must have one slot per ring variable."""
    if len(e) != ring.nvars:
        raise ValueError(f"exponent vector {e} does not have {ring.nvars} slots")
    return _pack_exps(e)


def _check(terms: dict, ring: ScalarRing) -> dict:
    """``terms``, after checking that every exponent of every key has
    |e| < 2^20; ValueError otherwise.  Biased up and down by 2^20, each digit
    must stay in [0, 2^21), so no bit of ``ring._high`` may be set.  Sound
    for keys whose digits are below 2^31 − 2^20 in size, as every product of
    two stored values is: a digit out of range then sets a high bit of its
    own or borrows through its neighbour and sets bit 31."""
    bias, high = ring._bias, ring._high
    for p in terms:
        if (p + bias | bias - p) & high:
            raise ValueError("exponent out of the packed range |e| < 2^20")
    return terms


def _packed_exp_ranges(a: dict, i: int, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Smallest and largest exponents of variable slots i and j over the
    nonempty packed term dict a, read off its digits in one pass: biasing
    digits 0…max(i, j) by 2^31 makes each one nonnegative, so no borrow
    crosses between them."""
    bias = _spread(_HALF, max(i, j) + 1)
    si, sj = _BITS * i, _BITS * j
    lo_i = lo_j = _MASK
    hi_i = hi_j = 0
    for p in a:
        p += bias
        d = p >> si & _MASK
        if d < lo_i:
            lo_i = d
        if d > hi_i:
            hi_i = d
        d = p >> sj & _MASK
        if d < lo_j:
            lo_j = d
        if d > hi_j:
            hi_j = d
    return (lo_i - _HALF, hi_i - _HALF), (lo_j - _HALF, hi_j - _HALF)


def _min_exps(a: dict, nv: int) -> int:
    """The packed vector of the per-variable smallest exponents over the
    nonempty term dict a, read off its digits like ``_packed_exp_ranges``."""
    bias = _spread(_HALF, nv)
    shifts = range(0, _BITS * nv, _BITS)
    lo = [_MASK] * nv
    for p in a:
        p += bias
        for i, s in enumerate(shifts):
            d = p >> s & _MASK
            if d < lo[i]:
                lo[i] = d
    return sum((d - _HALF) << s for d, s in zip(lo, shifts))


# ---------------------------------------------------------------------------
# raw Laurent-term-dict helpers (hot path; no zero coefficients stored)
# ---------------------------------------------------------------------------


def _paddto(out: dict, b: dict) -> None:
    """out += b in place."""
    get = out.get
    for e, c in b.items():
        nc = get(e, 0) + c
        if nc:
            out[e] = nc
        else:
            del out[e]  # c is nonzero, so a zero sum means e was in out


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    _paddto(out, b)
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _pdivc(a: dict, c) -> dict:
    """Divide every coefficient by the nonzero constant c."""
    return {e: _cdiv(cc, c) for e, cc in a.items()}


def _pshift(a: dict, m: int) -> dict:
    """a times the monomial of packed exponent m."""
    return {e + m: c for e, c in a.items()} if m else a


def _pquotient_exp(a: dict, b: dict) -> int | None:
    """The packed exponent m with a = b times the monomial of exponent m and
    coefficient 1, for nonempty a and b; None when a is no such shift of b.
    A shift keeps the order of the keys, so m is the difference of the
    smallest ones."""
    if len(a) != len(b):
        return None
    m = min(a) - min(b)
    get = a.get
    for e, c in b.items():
        if get(e + m) != c:
            return None
    return m


def _pmuladd(out: dict, a: dict, b: dict) -> None:
    """out += a·b in place: each term pair adds its coefficient product at
    the exponent sum, one int add, and a coefficient that cancels to zero is
    deleted on the spot.  The one term-pair product loop; the caller checks
    the range of what it stores."""
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            nc = get(e, 0) + ca * cb
            if nc:
                out[e] = nc
            else:
                del out[e]  # ca·cb is nonzero, so a zero sum means e was in out


def _pmul(a: dict, b: dict) -> dict:
    """a·b, unchecked."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # monomial × polynomial: distinct exponents stay distinct and no
        # product of nonzero coefficients is zero, so nothing cancels
        ((ea, ca),) = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    out: dict = {}
    _pmuladd(out, a, b)
    return out


def _ppow(a: dict, n: int, ring: ScalarRing) -> dict:
    """a^n by squaring, each product range-checked (``_check``).  The
    extreme exponents of each variable scale with the power, so every
    intermediate lies within the range of the result and none raises
    unless the result would."""
    out = {0: 1}
    base = a
    while n:
        if n & 1:
            out = _check(_pmul(out, base), ring)
        n >>= 1
        if n:
            base = _check(_pmul(base, base), ring)
    return out


# ---------------------------------------------------------------------------
# denominators: products of cyclotomic forms, cancelled by trial division
# ---------------------------------------------------------------------------

# Every denominator of the R-matrices comes from (r,s)-integers, factorials
# and the pairing's Π(s_i − r_i): in the internal variables, a constant times
# a monomial times cyclotomic forms Φ_k(u) and Φ_k(u, v) = v^φ(k)·Φ_k(u/v)
# (r − s is Φ_1·Φ_2 and r + s is Φ_4 in r^(1/2), s^(1/2)).  The forms are
# irreducible and pairwise coprime, so the gcd of a numerator with such a
# denominator is the product of the forms that divide the numerator, each at
# most as often as the denominator, and ``_make`` finds it by trial division.

_CYCLOTOMIC: dict[int, dict] = {}  # Φ_k(t) by k, a term dict in one variable
_FACTORS: dict[frozenset, tuple] = {}  # a denominator's forms, by the denominator with leading coefficient 1


def _pdivexact(a: dict, b: dict, nv: int) -> dict:
    """Exact division a / b of true polynomials; raises ArithmeticError if
    inexact.  A leading exponent divides another when no digit of their
    difference is negative: with bit 31 of every digit of the dividend set
    first, each digit subtracts without a borrow and keeps bit 31 exactly
    then."""
    guard = _spread(_HALF, nv)
    q: dict = {}
    rem = dict(a)
    eb = max(b)
    cb = b[eb]
    while rem:
        er = max(rem)
        if (er + guard - eb) & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        eq = er - eb
        q[eq] = cq = _cdiv(rem[er], cb)
        _pmuladd(rem, {eq: -cq}, b)
    return q


def _cyclotomic(k: int) -> dict:
    """Φ_k(t): t^k − 1 divided by Φ_d for every proper divisor d of k."""
    phi = _CYCLOTOMIC.get(k)
    if phi is None:
        phi = {k: 1, 0: -1}
        for d in range(1, k):
            if k % d == 0:
                phi = _pdivexact(phi, _cyclotomic(d), 1)
        _CYCLOTOMIC[k] = phi
    return phi


def _totient(k: int) -> int:
    """φ(k), the degree of Φ_k."""
    out, n, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def _form(k: int, i: int, j: int | None) -> dict:
    """Φ_k(u), or Φ_k(u, v) for a slot j; u and v are the variables of slots i, j."""
    phi = _cyclotomic(k)
    u, v = 1 << _BITS * i, (1 << _BITS * j if j is not None else 0)
    return {e * u + (max(phi) - e) * v: c for e, c in phi.items()}


def _form_divides(a: dict, k: int, i: int, j: int | None) -> bool:
    """Whether ``_form(k, i, j)`` divides the Laurent term dict a, without a
    long division.  The form is homogeneous in u and v and free of the other
    variables, so it divides a exactly when it divides each part of a with
    one exponent in every other variable and one degree in u, v.  Such a
    part is a monomial times h(u/v) (h(u) for Φ_k(u)), and Φ_k(t) divides h
    exactly when it divides h mod t^k − 1: each exponent of u is taken mod k."""
    si = _BITS * i
    bias = _spread(_HALF, i + 1)
    move = (1 << _BITS * j if j is not None else 0) - (1 << si)  # u^d ↦ v^d
    parts: dict = {}
    for e, c in a.items():
        d = ((e + bias) >> si & _MASK) - _HALF
        h = parts.setdefault(e + d * move, {})
        h[d % k] = h.get(d % k, 0) + c
    phi = _cyclotomic(k)
    try:
        for h in parts.values():
            _pdivexact({e: c for e, c in h.items() if c}, phi, 1)
    except ArithmeticError:
        return False
    return True


def _factors(ring: ScalarRing, den: dict) -> tuple:
    """The forms of the true polynomial den, which no variable divides, as
    (form, k, i, j, multiplicity) with the arguments of ``_form``: den is
    their product times a constant.  ValueError for any other den."""
    lead = den[max(den)]
    key = frozenset((den if lead == 1 else _pdivc(den, lead)).items())
    found = _FACTORS.get(key)
    if found is not None:
        return found
    nv = ring.nvars
    refused = lambda: ValueError(f"denominator {_text(ring, den)} is not a product of cyclotomic forms Φ_k(u), Φ_k(u, v)")
    # Φ_k(u) and Φ_k(u, v) are each ± their own reflection x^deg·D(1/x), every
    # variable reflected in its own degree, and so is any product of them:
    # a den that is not is refused before any Φ_k is built
    degs = [max(d) for d in zip(*(_unpack_exps(e, nv) for e in den))]
    mirror = {_pack_exps(degs) - e: c for e, c in den.items()}
    if mirror != den and mirror != _pneg(den):
        raise refused()
    rest, out, k = den, [], 0
    while len(rest) > 1:  # a true polynomial no variable divides: one term is a constant
        k += 1
        degs = [max(d) for d in zip(*(_unpack_exps(e, nv) for e in rest))]
        top = max(degs)
        # φ(k) ≥ k/(log2(k) + 1), so a form of degree at most top has k ≤ top·(2·bits(top) + 2)
        if k > top * (2 * top.bit_length() + 2):
            raise refused()
        slots = [i for i in range(nv) if degs[i] >= _totient(k)]
        for a, i in enumerate(slots):
            for j in (None, *slots[a + 1 :]):
                mult = 0
                while _form_divides(rest, k, i, j):
                    rest = _pdivexact(rest, _form(k, i, j), nv)
                    mult += 1
                if mult:
                    out.append((_form(k, i, j), k, i, j, mult))
    return _FACTORS.setdefault(key, tuple(out))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


def _grlex_key(e: Exps):
    return (sum(e), e)


def _make(ring: ScalarRing, num: dict, den: dict) -> "Scalar":
    """Canonicalize a raw fraction of Laurent term dicts, whose exponents are
    those of stored values or of products of two of them.

    Canonical form: numerator and denominator coprime, denominator a true
    polynomial (no negative exponents, not divisible by any variable) and
    monic under graded lex; all monomial content lives in the numerator.
    """
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ring.zero
    nv = ring.nvars
    if len(den) == 1:
        # a monomial denominator moves into the numerator
        ((m, c),) = den.items()
        num = _pshift(num, -m)
        if c != 1:
            num = _pdivc(num, c)
        return Scalar(ring, _check(num, ring), ring._one_den, _raw=True)
    # set both monomial parts aside (the denominator's moves into the
    # numerator), and cancel each form of the denominator that divides the
    # numerator, as often as it divides both
    m, mnum = _min_exps(den, nv), _min_exps(num, nv)
    den, num = _pshift(den, -m), _pshift(num, -mnum)
    for form, k, i, j, mult in _factors(ring, den):
        for _ in range(mult):
            if not _form_divides(num, k, i, j):
                break
            num = _pdivexact(num, form, nv)
            den = _pdivexact(den, form, nv)
    num = _pshift(num, mnum - m)
    if len(den) == 1:
        return Scalar(ring, _check(_pdivc(num, den[0]), ring), ring._one_den, _raw=True)
    lc = den[max(den, key=lambda e: _grlex_key(_unpack_exps(e, nv)))]
    if lc != 1:
        num = _pdivc(num, lc)
        den = _pdivc(den, lc)
    return Scalar(ring, _check(num, ring), _check(den, ring), _raw=True)


class Scalar:
    """Element of the fraction field of the Laurent polynomial ring.

    Always held in canonical form, so ``==`` is a complete zero/equality
    test.  Arithmetic is exact.
    """

    __slots__ = ("ring", "_num", "_den")

    def __init__(self, ring: ScalarRing, num: dict, den: dict, _raw: bool = False):
        if not _raw:
            canon = _make(ring, num, den)
            num, den = canon._num, canon._den
        self.ring = ring
        self._num = num
        self._den = den

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self.den_is_one() and self._num == self._den

    def den_is_one(self) -> bool:
        return len(self._den) == 1 and self._den.get(0) == 1

    def is_monomial(self) -> bool:
        return self.den_is_one() and len(self._num) == 1

    def monomial_parts(self) -> tuple[int, int | Fraction]:
        """The packed exponent and the coefficient of a monomial."""
        if not self.is_monomial():
            raise ValueError(f"not a monomial: {self}")
        ((e, c),) = self._num.items()
        return e, c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.num(other)
        return (
            isinstance(other, Scalar)
            and self.ring is other.ring
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        return hash(
            (self.ring, frozenset(self._num.items()), frozenset(self._den.items()))
        )

    def __reduce__(self):
        return _unpickled, (self.ring, self._num, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring is not self.ring:
                raise ValueError("mixing scalars from different rings")
            return other
        return self.ring.num(other)

    # __add__ and __mul__ skip _make where the result is canonical already;
    # the module docstring says where and why.

    def __add__(self, other) -> "Scalar":
        o = self._coerce(other)
        ring = self.ring
        if self._den is ring._one_den and o._den is ring._one_den:
            num = _padd(self._num, o._num)
            return Scalar(ring, num, ring._one_den, _raw=True) if num else ring.zero
        if self._den == o._den:
            return _make(ring, _padd(self._num, o._num), self._den)
        return _make(
            ring,
            _padd(_pmul(self._num, o._den), _pmul(o._num, self._den)),
            _pmul(self._den, o._den),
        )

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.ring, _pneg(self._num), self._den, _raw=True)

    def __sub__(self, other) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        o = self._coerce(other)
        ring = self.ring
        one = ring._one_den
        if self._den is one and (o._den is one or len(self._num) == 1):
            den = o._den
        elif o._den is one and len(o._num) == 1:
            den = self._den
        else:
            return _make(ring, _pmul(self._num, o._num), _pmul(self._den, o._den))
        num = _check(_pmul(self._num, o._num), ring)
        return Scalar(ring, num, den, _raw=True) if num else ring.zero

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if not o._num:
            raise ZeroDivisionError("scalar division by zero")
        return _make(
            self.ring, _pmul(self._num, o._den), _pmul(self._den, o._num)
        )

    def __rtruediv__(self, other) -> "Scalar":
        return self._coerce(other) / self

    def inv(self) -> "Scalar":
        if not self._num:
            raise ZeroDivisionError("inverting zero scalar")
        if self._den is self.ring._one_den and len(self._num) == 1:
            # a monomial's inverse is the monomial of negated exponents
            ((e, c),) = self._num.items()
            return Scalar(self.ring, {-e: _cdiv(1, c)}, self._den, _raw=True)
        return _make(self.ring, self._den, self._num)

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return self.ring.one
        if n < 0:
            return self.inv() ** (-n)
        ring = self.ring
        den = self._den
        if den is not ring._one_den:
            den = _ppow(den, n, ring)
        return Scalar(ring, _ppow(self._num, n, ring), den, _raw=True)

    # -- structure ----------------------------------------------------------

    def sqrt_monomial(self) -> "Scalar":
        """Square root of a monomial with even internal exponents and a
        rational square coefficient."""
        e, c = self.monomial_parts()
        # biased digits are nonnegative, and the bias is even: bit 32i is
        # the parity of exponent i
        if (e + self.ring._bias) & _spread(1, self.ring.nvars):
            raise ValueError(f"odd exponent, no square root in this ring: {self}")
        rn = _int_sqrt_exact(c.numerator)
        rd = _int_sqrt_exact(c.denominator)
        if rn is None or rd is None or c < 0:
            raise ValueError(f"coefficient {c} is not a rational square")
        return Scalar(self.ring, {e >> 1: _cdiv(rn, rd)}, self.ring._one_den, _raw=True)

    def exchange_vars(self, name1: str, name2: str) -> "Scalar":
        """Swap the exponents of two variables (e.g. r <-> s).  A value the
        swap fixes is returned as itself, so ``ring.one`` stays the shared
        unit that ``matrices.kron`` recognises by identity."""
        ring = self.ring
        i = ring.index[name1]
        j = ring.index[name2]
        if ring.variables[i].denom != ring.variables[j].denom:
            raise ValueError("variables have different granularity")
        si, sj, bias = _BITS * i, _BITS * j, ring._bias

        def sw(terms):
            out = {}
            for e, c in terms.items():
                b = e + bias  # nonnegative digits
                d = (b >> sj & _MASK) - (b >> si & _MASK)  # e_j - e_i
                out[e + (d << si) - (d << sj)] = c
            return out

        num, den = sw(self._num), sw(self._den)
        if num == self._num and den == self._den:
            return self
        return _make(ring, num, den)

    def __repr__(self) -> str:
        return text_form(self)


def _unpickled(ring: ScalarRing, num: dict, den: dict) -> Scalar:
    """A pickled Scalar, on its ring's shared unit denominator when it is a
    Laurent polynomial."""
    return Scalar(ring, num, ring._one_den if den == ring._one_den else den, _raw=True)


def _int_sqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def substitute(
    x: Scalar,
    bindings: Mapping[str, Scalar],
    ring: ScalarRing | None = None,
) -> Scalar:
    """Ring homomorphism sending each bound variable's atomic generator
    (r ↦ binding means the image of r^(1/2) when r has granularity 2) to the
    given Scalar; unbound variables map to themselves in the target ring.

    Every image must be a monomial or zero, so each term maps to one term
    (``_substitute_terms``) and only a value with a denominator is
    canonicalized.  Any other image raises ValueError naming its variable.

    Substituting zero into a variable that occurs with a negative exponent
    raises ZeroDivisionError; an image exponent out of the packed range
    raises ValueError.
    """
    target = ring if ring is not None else x.ring
    monos = []
    for v in x.ring.variables:
        if v.name not in bindings:
            monos.append(target.atom(v.name).monomial_parts())
            continue
        img = bindings[v.name]
        if img.ring != target:
            raise ValueError(f"binding for {v.name} lives in the wrong ring")
        if not (img.is_zero() or img.is_monomial()):
            raise ValueError(f"the image of {v.name} is neither a monomial nor zero: {img}")
        monos.append(img.monomial_parts() if img._num else None)
    num = _substitute_terms(x._num, monos, x.ring, target)
    if x.den_is_one():
        return Scalar(target, num, target._one_den, _raw=True) if num else target.zero
    den = _substitute_terms(x._den, monos, x.ring, target)
    if not den:
        raise ZeroDivisionError("scalar division by zero")
    return _make(target, num, den)


def _substitute_terms(terms: dict, monos: list, source: ScalarRing, target: ScalarRing) -> dict:
    """Image of a raw term dict when variable i maps to the monomial
    ``monos[i]`` = (packed exponent, coefficient), or to zero when it is
    None: the term c·Π x_i^{k_i} goes to exponent Σ k_i·e_i, one int
    multiply-add per variable, and coefficient c·Π c_i^{k_i}, and is dropped
    when a zero image has k_i > 0.  Images of distinct terms may share an
    exponent, so coefficients are summed.

    Σ |k_i|·(largest image exponent size) bounds every exponent of the
    image; below 2^20 it is in range, and otherwise the exponent is summed
    one variable at a time (``_image_exps``) before it is trusted."""
    nv = source.nvars
    bias = source._bias
    shifts = range(0, _BITS * nv, _BITS)
    sizes = [max(map(abs, _unpack_exps(m[0], target.nvars))) if m else 0 for m in monos]
    out: dict = {}
    get = out.get
    for e, c in terms.items():
        b = e + bias  # nonnegative digits
        t = 0
        bound = 0
        dropped = False
        for i, s in enumerate(shifts):
            k = (b >> s & _MASK) - _LIMIT
            if not k:
                continue
            mono = monos[i]
            if mono is None:
                if k < 0:
                    raise ZeroDivisionError(f"substituting zero into negative power of {source.names[i]}")
                dropped = True
                continue
            me, mc = mono
            t += k * me
            bound += abs(k) * sizes[i]
            if mc != 1:
                c = c * mc**k if k > 0 else _cdiv(c, mc**-k)
        if dropped:
            continue
        if bound >= _LIMIT:
            t = _image_exps(e, monos, source, target)
        nc = get(t, 0) + c
        if nc:
            out[t] = nc
        else:
            del out[t]
    return out


def _image_exps(e: int, monos: list, source: ScalarRing, target: ScalarRing) -> int:
    """The packed image exponent Σ k_i·e_i of the term of exponent e, summed
    one target variable at a time; ValueError when it leaves the packed
    range."""
    exps = [0] * target.nvars
    for k, mono in zip(_unpack_exps(e, source.nvars), monos):
        if k and mono is not None:
            for j, x in enumerate(_unpack_exps(mono[0], target.nvars)):
                exps[j] += k * x
    return _pack_exps(exps)


# ---------------------------------------------------------------------------
# (r,s)-combinatorics: closed forms, no division, computed once per process
# ---------------------------------------------------------------------------

# Laurent term dicts keyed by (ring.variables, name, integer arguments), filled
# on first use.  A stored dict is shared by every Scalar handed out for its
# key and is never changed: Scalar operations build new dicts.
_MEMO: dict[tuple, dict] = {}


def _memoized(ring: ScalarRing, key: tuple, build) -> Scalar:
    """The Laurent polynomial ``build()`` names by ``key``, built once per
    ring variable set and returned bound to ``ring`` itself, on its shared
    unit denominator."""
    k = (ring.variables, key)
    terms = _MEMO.get(k)
    if terms is None:
        terms = _MEMO[k] = build()._num
    return Scalar(ring, terms, ring._one_den, _raw=True) if terms else ring.zero


def rs_integer(ring: ScalarRing, m: int, d: int = 1) -> Scalar:
    """Two-parameter quantum integer [m]_{r_d,s_d} = (r_d^m − s_d^m)/(r_d − s_d)
    with r_d = r^d, s_d = s^d, written as Σ_{k<m} r_d^{m−1−k} s_d^k."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _memoized(
        ring,
        ("rs_integer", m, d),
        lambda: sum((ring.mono(r=d * (m - 1 - k), s=d * k) for k in range(m)), ring.zero),
    )


def rs_factorial(ring: ScalarRing, m: int, d: int = 1) -> Scalar:
    """[m]_{r_d,s_d}! = [1]·[2]···[m], a product of Laurent polynomials."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m < 2:
        return ring.one
    return _memoized(ring, ("rs_factorial", m, d), lambda: rs_factorial(ring, m - 1, d) * rs_integer(ring, m, d))


def rs_binomial(ring: ScalarRing, m: int, k: int, d: int = 1) -> Scalar:
    """Two-parameter Gaussian binomial [m k]_{r_d,s_d} = [m]!/([k]![m−k]!),
    by the Pascal rule B(m, k) = r_d^k B(m−1, k) + s_d^{m−k} B(m−1, k−1) with
    B(m, 0) = B(m, m) = 1; always a Laurent polynomial."""
    if not 0 <= k <= m:
        raise ValueError(f"binomial requires 0 <= k <= m, got ({m}, {k})")
    if k == 0 or k == m:
        return ring.one
    return _memoized(
        ring,
        ("rs_binomial", m, k, d),
        lambda: ring.mono(r=d * k) * rs_binomial(ring, m - 1, k, d)
        + ring.mono(s=d * (m - k)) * rs_binomial(ring, m - 1, k - 1, d),
    )


def q_scalar(ring: ScalarRing, d: int = 1) -> Scalar:
    """q_d = (r^(1/2) s^(-1/2))^d inside an r,s ring."""
    return ring.mono(r=Fraction(d, 2), s=-Fraction(d, 2))


def q_binomial(ring: ScalarRing, m: int, k: int, d: int = 1) -> Scalar:
    """One-parameter Gaussian binomial [m k]_{q_d}, by the Pascal rule
    [m k] = q_d^k [m−1 k] + q_d^{−(m−k)} [m−1 k−1] with [m 0] = [m m] = 1."""
    if not 0 <= k <= m:
        raise ValueError(f"binomial requires 0 <= k <= m, got ({m}, {k})")
    if k == 0 or k == m:
        return ring.one
    return _memoized(
        ring,
        ("q_binomial", m, k, d),
        lambda: q_scalar(ring, d * k) * q_binomial(ring, m - 1, k, d)
        + q_scalar(ring, -d * (m - k)) * q_binomial(ring, m - 1, k - 1, d),
    )


# ---------------------------------------------------------------------------
# canonical text form (bit-exact round trip) and JSON terms
# ---------------------------------------------------------------------------


def _fmt_exp(e: int, denom: int) -> str:
    f = Fraction(e, denom)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _descending(ring: ScalarRing, terms: dict) -> list[tuple[Exps, int | Fraction]]:
    """The terms as (exponent tuple, coefficient), highest first under graded
    lex.  A stored key biased by 2^20 has nonnegative digits, read by shifts."""
    bias, shifts = ring._bias, range(0, _BITS * ring.nvars, _BITS)
    out = []
    for e, c in terms.items():
        b = e + bias
        out.append((tuple([(b >> s & _MASK) - _LIMIT for s in shifts]), c))
    out.sort(key=lambda t: _grlex_key(t[0]), reverse=True)
    return out


def _text(ring: ScalarRing, terms: dict) -> str:
    if not terms:
        return "0"
    parts = []
    for e, c in _descending(ring, terms):
        factors = [str(c)]
        for i, k in enumerate(e):
            if k:
                factors.append(f"{ring.names[i]}^{_fmt_exp(k, ring.variables[i].denom)}")
        parts.append(" * ".join(factors))
    return " + ".join(parts)


def text_form(x: Scalar) -> str:
    """Canonical text form; ``parse(ring, text_form(x)) == x`` bit-exactly."""
    if x.den_is_one():
        return _text(x.ring, x._num)
    return f"({_text(x.ring, x._num)}) / ({_text(x.ring, x._den)})"


_TERM_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\^(-?\d+(?:/\d+)?)$")


def _parse_terms(ring: ScalarRing, s: str) -> dict:
    s = s.strip()
    if s == "0":
        return {}
    terms: dict = {}
    for part in s.split(" + "):
        factors = part.split(" * ")
        c = _coeff(factors[0])
        exps = [0] * ring.nvars
        for fac in factors[1:]:
            m = _TERM_FACTOR.match(fac.strip())
            if not m:
                raise ValueError(f"cannot parse factor {fac!r}")
            name, p = m.group(1), Fraction(m.group(2))
            i = ring.index[name]
            e = p * ring.variables[i].denom
            if e.denominator != 1:
                raise ValueError(f"exponent {p} too fine for variable {name}")
            exps[i] = int(e)
        t = _pack_exps(exps)
        terms[t] = terms.get(t, 0) + c
    return {e: c for e, c in terms.items() if c}


def parse(ring: ScalarRing, s: str) -> Scalar:
    """Inverse of text_form."""
    s = s.strip()
    if s.startswith("(") and ") / (" in s:
        left, right = s.split(") / (")
        num = _parse_terms(ring, left[1:])
        den = _parse_terms(ring, right[:-1])
        return _make(ring, num, den)
    return _make(ring, _parse_terms(ring, s), ring._one_den)


def terms_to_json(ring: ScalarRing, terms: dict) -> list[dict]:
    return [{"coeff": str(c), "exps": list(e)} for e, c in _descending(ring, terms)]


def scalar_to_json(x: Scalar) -> dict:
    return {
        "num": terms_to_json(x.ring, x._num),
        "den": terms_to_json(x.ring, x._den),
    }


def scalar_from_json(ring: ScalarRing, obj: dict) -> Scalar:
    def load(terms):
        # a zero coefficient is dropped, as ``ScalarRing.poly`` does
        out = {}
        for t in terms:
            c = _coeff(t["coeff"])
            if c:
                out[_pack_vector(ring, t["exps"])] = c
        return out

    return _make(ring, load(obj["num"]), load(obj["den"]))
