"""Exact coefficient arithmetic: multivariate Laurent polynomials over ℚ and
their fraction field.

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

Every value is held in canonical form, and ``_make`` is the one function
that puts a raw fraction into it.  Four operations skip it, because their
result is canonical as computed: a product or sum of two Laurent polynomials
(denominator 1; the product of nonzero ones is nonzero), a product with a
Laurent monomial of denominator 1, and the inverse of such a monomial.  A
monomial is a unit of the Laurent ring, so the other factor's numerator and
monic denominator stay coprime and its denominator is kept as it is.  All Laurent polynomials of a ring share
the ring's one unit-denominator dict, which is how these paths recognise
them.

Two more skip it.  ``substitute`` maps each term of a Laurent polynomial
to one term when every image is a monomial or zero (r^(1/2) ↦ w q^(1/2),
r^(1/2) ↦ q^(1/2), z ↦ 1, z ↦ 0), so only a value with a denominator is
canonicalized; polynomial images are raised to powers and summed.  The
(r,s)-combinatorics (``rs_integer``, ``q_integer``, their factorials and
Gaussian binomials) are Laurent polynomials, built from closed forms, products
and Pascal rules with no division.  Each of them, and
``rootdata.omega_pairing``, is built once per process and per ring variable
set, on first use (nothing is computed at import), in one module-level memo
of raw term dicts (``_MEMO``).  A value is handed out bound to the caller's
ring object, on that ring's shared unit denominator, and its term dict is
shared and never changed, like every Scalar's.

Sparse matrix products and mat-vecs skip it too
(``matrices.SMatrix.__matmul__`` and ``matrices._combine_columns``).  Each
output entry sums its Laurent products in place on one raw term dict, with
``_paddto`` and a term-pair product loop; a unit factor passes the other
factor's terms through, with no exponent adds.  A sum of Laurent
polynomials is canonical, so the nonzero dict becomes a Scalar as it is.
That saves a Scalar, a dict and an accumulator copy per product, which is
where matmul time went.

The term-pair loop comes in two forms.  ``_pmuladd`` works on the tuple
exponents that Scalars store; ``_pmul`` and ``__matmul__`` use it, since a
matrix product reads each entry for a few products only and packing it on
every call costs more than it saves.  ``_ppmuladd`` works on packed
exponents (``_pack_exps``: one int per exponent vector, so a monomial
product is one int add), and the mat-vec kernel on V⊗³ runs on it: an
operator's columns are packed once, and a column check multiplies each of
them tens of thousands of times.  Scalar storage stays in tuples.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isqrt
from operator import add
from typing import Iterable, Mapping

Exps = tuple  # integer exponent vector, one slot per ring variable


@dataclass(frozen=True)
class Variable:
    """A ring variable.  ``denom`` is the exponent granularity: an internal
    exponent e prints as name^(e/denom), e.g. r with denom 2 stores half
    powers of r."""

    name: str
    denom: int = 1


class ScalarRing:
    """Context object fixing an ordered variable set.

    All Scalars hold a reference to their ring; mixing rings raises.
    """

    def __init__(self, variables: Iterable[Variable | str]):
        vs = []
        for v in variables:
            vs.append(Variable(v) if isinstance(v, str) else v)
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable name in {names}")
        self.variables: tuple[Variable, ...] = tuple(vs)
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(names)}
        self.nvars = len(vs)
        self._zero_exps: Exps = (0,) * self.nvars
        # the one unit denominator every Laurent polynomial of this ring shares
        self._one_den: dict = {self._zero_exps: 1}
        self.zero = Scalar(self, {}, self._one_den, _raw=True)
        self.one = Scalar(self, {self._zero_exps: 1}, self._one_den, _raw=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"ScalarRing({', '.join(self.names)})"

    # -- constructors ------------------------------------------------------

    def num(self, value) -> Scalar:
        """Constant scalar from an int or Fraction."""
        c = _coeff(value)
        if c == 0:
            return self.zero
        return Scalar(self, {self._zero_exps: c}, self._one_den, _raw=True)

    def mono(self, coeff=1, **powers) -> Scalar:
        """Monomial from printed-unit powers, e.g. ``ring.mono(r=2, s=-1)``.

        Powers may be ints or Fractions; they must land on the variable's
        granularity (r accepts half-integers, z only integers).
        """
        c = _coeff(coeff)
        if c == 0:
            return self.zero
        exps = [0] * self.nvars
        for name, p in powers.items():
            if name not in self.index:
                raise KeyError(f"unknown variable {name!r} in {self.names}")
            i = self.index[name]
            denom = self.variables[i].denom
            if isinstance(p, int):
                exps[i] = p * denom
                continue
            e = Fraction(p) * denom
            if e.denominator != 1:
                raise ValueError(f"power {p} of {name} is not a multiple of 1/{denom}")
            exps[i] = int(e)
        return Scalar(self, {tuple(exps): c}, self._one_den, _raw=True)

    def atom(self, name: str, power: int = 1) -> Scalar:
        """Generator at internal granularity: ``atom('r')`` is r^(1/2) when r
        has denom 2."""
        i = self.index[name]
        exps = [0] * self.nvars
        exps[i] = power
        return Scalar(self, {tuple(exps): 1}, self._one_den, _raw=True)

    def poly(self, terms: Mapping[Exps, int | Fraction]) -> Scalar:
        """Scalar from a raw internal-exponent term map (used by parse/JSON)."""
        return _make(self, {e: _coeff(c) for e, c in terms.items() if c}, self._one_den)


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
    """Coefficient from an int, a Fraction or a rational string."""
    if isinstance(value, int):
        return value
    c = Fraction(value)
    return _cdiv(c.numerator, c.denominator)


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


def _pmuladd(out: dict, a: dict, b: dict) -> None:
    """out += a·b in place: each term pair adds its coefficient product at
    the exponent sum, and a coefficient that cancels to zero is deleted on
    the spot.  The polynomial-product loop on tuple exponents; the V⊗³
    column kernel runs its packed sibling ``_ppmuladd``."""
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            nc = get(e, 0) + ca * cb
            if nc:
                out[e] = nc
            else:
                del out[e]  # ca·cb is nonzero, so a zero sum means e was in out


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # monomial × polynomial: distinct exponents stay distinct and no
        # product of nonzero coefficients is zero, so nothing cancels
        ((ea, ca),) = a.items()
        return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}
    out: dict = {}
    _pmuladd(out, a, b)
    return out


def _ppow(a: dict, n: int, nv: int) -> dict:
    out = {(0,) * nv: 1}
    base = a
    while n:
        if n & 1:
            out = _pmul(out, base)
        n >>= 1
        if n:
            base = _pmul(base, base)
    return out


def _pshift(a: dict, shift: Exps) -> dict:
    if not any(shift):
        return dict(a)
    return {tuple(map(add, e, shift)): c for e, c in a.items()}


def _pminexps(a: dict, nv: int) -> Exps:
    its = iter(a)
    first = next(its)
    m = list(first)
    for e in its:
        for i in range(nv):
            if e[i] < m[i]:
                m[i] = e[i]
    return tuple(m)


def _grlex_key(e: Exps):
    return (sum(e), e)


def _plead(a: dict) -> tuple[Exps, int | Fraction]:
    e = max(a, key=_grlex_key)
    return e, a[e]


def _is_const(a: dict) -> bool:
    return len(a) == 1 and not any(next(iter(a)))


# ---------------------------------------------------------------------------
# packed exponents: one int per exponent vector (V⊗³ column kernel only)
# ---------------------------------------------------------------------------

# An exponent vector (e_0, …, e_{k-1}) packs to the int Σ e_i·2^(32i): its
# digits in balanced base 2^32, so packing is additive and a monomial product
# costs one int add.  Packing takes |e_i| < 2^20; a digit overflows only past
# 2^31, so no sum of fewer than 2^11 packed exponents can carry into its
# neighbour, and packed values compare as the vectors they stand for.
_PACK_BITS = 32
_PACK_MASK = (1 << _PACK_BITS) - 1
_PACK_HALF = 1 << (_PACK_BITS - 1)
_PACK_LIMIT = 1 << 20


def _pack_exps(e: Exps) -> int:
    """The packed int of an exponent vector; ValueError for |e_i| ≥ 2^20."""
    p = 0
    for x in reversed(e):
        if not -_PACK_LIMIT < x < _PACK_LIMIT:
            raise ValueError(f"exponent {x} out of the packed range |e| < 2^20")
        p = (p << _PACK_BITS) + x
    return p


def _unpack_exps(p: int, nv: int) -> Exps:
    """Inverse of ``_pack_exps`` for a vector of nv slots."""
    out = []
    for _ in range(nv):
        d = p & _PACK_MASK
        if d >= _PACK_HALF:
            d -= 1 << _PACK_BITS
        out.append(d)
        p = (p - d) >> _PACK_BITS
    return tuple(out)


def _pack(a: dict) -> dict:
    return {_pack_exps(e): c for e, c in a.items()}


def _unpack(a: dict, nv: int) -> dict:
    return {_unpack_exps(p, nv): c for p, c in a.items()}


def _ppmuladd(out: dict, a: dict, b: dict) -> None:
    """``_pmuladd`` on packed term dicts: the exponent sum is one int add."""
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            nc = get(e, 0) + ca * cb
            if nc:
                out[e] = nc
            else:
                del out[e]  # ca·cb is nonzero, so a zero sum means e was in out


def _packed_exp_ranges(a: dict, i: int, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Smallest and largest exponents of variable slots i and j over the
    nonempty packed term dict a, read off its digits in one pass: biasing
    digits 0…max(i, j) by 2^31 makes each one nonnegative, so no borrow
    crosses between them."""
    bias = _PACK_HALF * ((1 << _PACK_BITS * (max(i, j) + 1)) - 1) // _PACK_MASK
    si, sj = _PACK_BITS * i, _PACK_BITS * j
    lo_i = lo_j = _PACK_MASK
    hi_i = hi_j = 0
    for p in a:
        p += bias
        d = p >> si & _PACK_MASK
        if d < lo_i:
            lo_i = d
        if d > hi_i:
            hi_i = d
        d = p >> sj & _PACK_MASK
        if d < lo_j:
            lo_j = d
        if d > hi_j:
            hi_j = d
    return (lo_i - _PACK_HALF, hi_i - _PACK_HALF), (lo_j - _PACK_HALF, hi_j - _PACK_HALF)


def pack_value(x: "Scalar"):
    """A vector entry of the packed kernel: the packed numerator of a Laurent
    polynomial, or the Scalar itself when it has a denominator."""
    return _pack(x._num) if x.den_is_one() else x


def unpack_value(ring: "ScalarRing", v) -> "Scalar":
    """Inverse of ``pack_value``."""
    if isinstance(v, Scalar):
        return v
    return Scalar(ring, _unpack(v, ring.nvars), ring._one_den, _raw=True) if v else ring.zero


# ---------------------------------------------------------------------------
# polynomial gcd over ℚ via recursive subresultant PRS
# ---------------------------------------------------------------------------


def _int_normalize(a: dict) -> dict:
    """Scale to integer coefficients, content 1, positive leading coeff."""
    if not a:
        return a
    den_lcm = 1
    for c in a.values():
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in a.values():
        num_gcd = int_gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
    if a[max(a, key=_grlex_key)] < 0:
        num_gcd = -num_gcd
    if den_lcm == 1 and num_gcd == 1:
        return a
    return {e: _cdiv(c.numerator * (den_lcm // c.denominator), num_gcd) for e, c in a.items()}


def _degs(a: dict, nv: int) -> list[int]:
    d = [0] * nv
    for e in a:
        for i in range(nv):
            if e[i] > d[i]:
                d[i] = e[i]
    return d


def _deg_in(a: dict, v: int) -> int:
    return max(e[v] for e in a)


def _coeff_of(a: dict, v: int, k: int) -> dict:
    """Coefficient of (main var)^k: full-width dict with slot v zeroed."""
    out = {}
    for e, c in a.items():
        if e[v] == k:
            ez = list(e)
            ez[v] = 0
            out[tuple(ez)] = c
    return out


def _mul_var_pow(a: dict, v: int, k: int) -> dict:
    if k == 0:
        return a
    out = {}
    for e, c in a.items():
        ez = list(e)
        ez[v] += k
        out[tuple(ez)] = c
    return out


def _pdivexact(a: dict, b: dict, nv: int) -> dict:
    """Exact multivariate division a / b; raises ArithmeticError if inexact."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    if _is_const(b):
        return _pdivc(a, next(iter(b.values())))
    q: dict = {}
    rem = dict(a)
    eb, cb = _plead(b)
    while rem:
        er, cr = _plead(rem)
        eq = tuple(x - y for x, y in zip(er, eb))
        if any(x < 0 for x in eq):
            raise ArithmeticError("inexact polynomial division")
        cq = _cdiv(cr, cb)
        q[eq] = q.get(eq, 0) + cq
        rem = _padd(rem, _pneg(_pmul({eq: cq}, b)))
    return {e: c for e, c in q.items() if c}


def _content_wrt(a: dict, v: int, nv: int) -> dict:
    """gcd of the coefficients of a viewed as a polynomial in variable v."""
    g: dict = {}
    for k in sorted({e[v] for e in a}):
        g = _pgcd(g, _coeff_of(a, v, k), nv)
        if _is_const(g):
            break
    return g


def _prem(a: dict, b: dict, v: int, nv: int) -> dict:
    """Pseudo-remainder of a by b in the main variable v:
    lc(b)^(deg a - deg b + 1) * a  mod  b."""
    db = _deg_in(b, v)
    lb = _coeff_of(b, v, db)
    r = a
    e = _deg_in(a, v) - db + 1
    while r and (dr := _deg_in(r, v)) >= db:
        lr = _coeff_of(r, v, dr)
        r = _padd(_pmul(r, lb), _pneg(_mul_var_pow(_pmul(lr, b), v, dr - db)))
        e -= 1
    if e > 0:
        r = _pmul(r, _ppow(lb, e, nv))
    return r


def _pgcd(a: dict, b: dict, nv: int) -> dict:
    """Multivariate gcd over ℚ (integer-primitive output, positive lead).

    Content/primitive-part recursion over a chosen main variable with a
    subresultant polynomial remainder sequence in between.
    """
    if not a:
        return _int_normalize(b)
    if not b:
        return _int_normalize(a)
    one = {(0,) * nv: 1}
    if _is_const(a) or _is_const(b):
        return one
    da, db = _degs(a, nv), _degs(b, nv)
    common = [i for i in range(nv) if da[i] > 0 and db[i] > 0]
    if not common:
        return one
    v = min(common, key=lambda i: min(da[i], db[i]))

    ca = _content_wrt(a, v, nv)
    cb = _content_wrt(b, v, nv)
    f = _pdivexact(a, ca, nv)
    g = _pdivexact(b, cb, nv)
    cont = _pgcd(ca, cb, nv)

    if _deg_in(f, v) < _deg_in(g, v):
        f, g = g, f
    # subresultant PRS bookkeeping (Collins): divisors gpsi keep coefficients small
    gprev = one
    hprev = one
    while True:
        delta = _deg_in(f, v) - _deg_in(g, v)
        r = _prem(f, g, v, nv)
        if not r:
            break
        if _deg_in(r, v) == 0:
            return cont
        divisor = _pmul(gprev, _ppow(hprev, delta, nv))
        f, g = g, _pdivexact(r, divisor, nv)
        gprev = _coeff_of(f, v, _deg_in(f, v))
        if delta == 0:
            # hprev unchanged
            pass
        elif delta == 1:
            hprev = gprev
        else:
            hprev = _pdivexact(_ppow(gprev, delta, nv), _ppow(hprev, delta - 1, nv), nv)
    gc = _content_wrt(g, v, nv)
    return _int_normalize(_pmul(cont, _pdivexact(g, gc, nv)))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


def _make(ring: ScalarRing, num: dict, den: dict) -> "Scalar":
    """Canonicalize a raw fraction of Laurent term dicts.

    Canonical form: numerator and denominator coprime, denominator a true
    polynomial (no negative exponents, not divisible by any variable) and
    monic under graded lex; all monomial content lives in the numerator.
    """
    if not den:
        raise ZeroDivisionError("zero denominator")
    nv = ring.nvars
    if not num:
        return ring.zero
    # move the denominator's monomial part into the numerator
    mden = _pminexps(den, nv)
    if any(mden):
        den = _pshift(den, tuple(-x for x in mden))
        num = _pshift(num, tuple(-x for x in mden))
    if len(den) == 1:
        c = next(iter(den.values()))
        if c != 1:
            num = _pdivc(num, c)
        return Scalar(ring, num, ring._one_den, _raw=True)
    # reduce: strip numerator monomial, cancel gcd, re-attach
    mnum = _pminexps(num, nv)
    num0 = _pshift(num, tuple(-x for x in mnum))
    g = _pgcd(num0, den, nv)
    if not _is_const(g):
        num0 = _pdivexact(num0, g, nv)
        den = _pdivexact(den, g, nv)
        if len(den) == 1:
            num0 = _pdivc(num0, next(iter(den.values())))
            return Scalar(ring, _pshift(num0, mnum), ring._one_den, _raw=True)
    _, lc = _plead(den)
    if lc != 1:
        num0 = _pdivc(num0, lc)
        den = _pdivc(den, lc)
    return Scalar(ring, _pshift(num0, mnum), den, _raw=True)


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
        return len(self._den) == 1 and self._den.get(self.ring._zero_exps) == 1

    def is_monomial(self) -> bool:
        return self.den_is_one() and len(self._num) == 1

    def monomial_parts(self) -> tuple[Exps, int | Fraction]:
        if not self.is_monomial():
            raise ValueError(f"not a monomial: {self}")
        ((e, c),) = self._num.items()
        return e, c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.num(other)
        return (
            isinstance(other, Scalar)
            and (self.ring is other.ring or self.ring == other.ring)
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        return hash(
            (self.ring, frozenset(self._num.items()), frozenset(self._den.items()))
        )

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring is not self.ring and other.ring != self.ring:
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
        num = _pmul(self._num, o._num)
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
            return Scalar(self.ring, {tuple(-x for x in e): _cdiv(1, c)}, self._den, _raw=True)
        return _make(self.ring, self._den, self._num)

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return self.ring.one
        if n < 0:
            return self.inv() ** (-n)
        nv = self.ring.nvars
        den = self._den
        if den is not self.ring._one_den:
            den = _ppow(den, n, nv)
        return Scalar(self.ring, _ppow(self._num, n, nv), den, _raw=True)

    # -- structure ----------------------------------------------------------

    def sqrt_monomial(self) -> "Scalar":
        """Square root of a monomial with even internal exponents and a
        rational square coefficient."""
        e, c = self.monomial_parts()
        if any(x % 2 for x in e):
            raise ValueError(f"odd exponent, no square root in this ring: {self}")
        rn = _int_sqrt_exact(c.numerator)
        rd = _int_sqrt_exact(c.denominator)
        if rn is None or rd is None or c < 0:
            raise ValueError(f"coefficient {c} is not a rational square")
        half = tuple(x // 2 for x in e)
        return Scalar(self.ring, {half: _cdiv(rn, rd)}, self.ring._one_den, _raw=True)

    def exchange_vars(self, name1: str, name2: str) -> "Scalar":
        """Swap the exponents of two variables (e.g. r <-> s).  A value the
        swap fixes is returned as itself, so ``ring.one`` stays the shared
        unit that ``matrices.kron`` recognises by identity."""
        i = self.ring.index[name1]
        j = self.ring.index[name2]
        if self.ring.variables[i].denom != self.ring.variables[j].denom:
            raise ValueError("variables have different granularity")

        def sw(terms):
            out = {}
            for e, c in terms.items():
                ez = list(e)
                ez[i], ez[j] = ez[j], ez[i]
                out[tuple(ez)] = c
            return out

        num, den = sw(self._num), sw(self._den)
        if num == self._num and den == self._den:
            return self
        return _make(self.ring, num, den)

    def z_degree(self, name: str) -> int:
        """Largest exponent of the named variable in the numerator (0 for 0)."""
        return self.z_range(name)[1]

    def z_range(self, name: str) -> tuple[int, int]:
        """Smallest and largest exponent of the named variable in the
        numerator ((0, 0) for 0)."""
        if not self._num:
            return 0, 0
        i = self.ring.index[name]
        exps = [e[i] for e in self._num]
        return min(exps), max(exps)

    def __repr__(self) -> str:
        return text_form(self)


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

    When every image is a monomial or zero, each term maps to one term
    (``_substitute_terms``), and only a value with a denominator is
    canonicalized; a polynomial image is raised to powers and summed.

    Substituting zero into a variable that occurs with a negative exponent
    raises ZeroDivisionError.
    """
    target = ring if ring is not None else x.ring
    images: list[Scalar] = []
    for v in x.ring.variables:
        if v.name in bindings:
            img = bindings[v.name]
            if img.ring != target:
                raise ValueError(f"binding for {v.name} lives in the wrong ring")
            images.append(img)
        else:
            images.append(target.atom(v.name))

    if all(img.is_zero() or img.is_monomial() for img in images):
        monos = [img.monomial_parts() if img._num else None for img in images]
        num = _substitute_terms(x._num, monos, x.ring.names, target.nvars)
        if x.den_is_one():
            return Scalar(target, num, target._one_den, _raw=True) if num else target.zero
        den = _substitute_terms(x._den, monos, x.ring.names, target.nvars)
        if not den:
            raise ZeroDivisionError("scalar division by zero")
        return _make(target, num, den)

    powcache: list[dict[int, Scalar]] = [dict() for _ in range(x.ring.nvars)]

    def image_pow(i: int, e: int) -> Scalar:
        cache = powcache[i]
        if e not in cache:
            if e < 0 and images[i].is_zero():
                raise ZeroDivisionError(
                    f"substituting zero into negative power of {x.ring.names[i]}"
                )
            cache[e] = images[i] ** e
        return cache[e]

    def eval_terms(terms: dict) -> Scalar:
        acc = target.zero
        for e, c in terms.items():
            t = target.num(c)
            for i, k in enumerate(e):
                if k:
                    t = t * image_pow(i, k)
            acc = acc + t
        return acc

    evn = eval_terms(x._num)
    evd = eval_terms(x._den)
    return evn / evd


def _substitute_terms(terms: dict, monos: list, names: tuple, nv: int) -> dict:
    """Image of a raw term dict when variable i maps to the monomial
    ``monos[i]`` = (exponents, coefficient), or to zero when it is None: the
    term c·Π x_i^{k_i} goes to exponent Σ k_i·e_i and coefficient
    c·Π c_i^{k_i}, and is dropped when a zero image has k_i > 0.  Images of
    distinct terms may share an exponent, so coefficients are summed."""
    out: dict = {}
    get = out.get
    for e, c in terms.items():
        exps = [0] * nv
        dropped = False
        for i, k in enumerate(e):
            if not k:
                continue
            mono = monos[i]
            if mono is None:
                if k < 0:
                    raise ZeroDivisionError(f"substituting zero into negative power of {names[i]}")
                dropped = True
                continue
            me, mc = mono
            for j, x in enumerate(me):
                if x:
                    exps[j] += k * x
            if mc != 1:
                c = c * mc**k if k > 0 else _cdiv(c, mc**-k)
        if dropped:
            continue
        t = tuple(exps)
        nc = get(t, 0) + c
        if nc:
            out[t] = nc
        else:
            del out[t]
    return out


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


def q_integer(ring: ScalarRing, m: int, d: int = 1) -> Scalar:
    """One-parameter quantum integer [m] = (q_d^m − q_d^{−m})/(q_d − q_d^{−1})
    at q_d = (r/s)^(d/2), written as Σ_{k<m} q_d^{m−1−2k}; [−m] = −[m]."""
    if m < 0:
        return -q_integer(ring, -m, d)
    return _memoized(
        ring,
        ("q_integer", m, d),
        lambda: sum((q_scalar(ring, d * (m - 1 - 2 * k)) for k in range(m)), ring.zero),
    )


def q_factorial(ring: ScalarRing, m: int, d: int = 1) -> Scalar:
    """[m]_{q_d}! = [1]·[2]···[m] (1 for m < 2)."""
    if m < 2:
        return ring.one
    return _memoized(ring, ("q_factorial", m, d), lambda: q_factorial(ring, m - 1, d) * q_integer(ring, m, d))


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


def _text(ring: ScalarRing, terms: dict) -> str:
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_grlex_key, reverse=True):
        c = terms[e]
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
        t = tuple(exps)
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
    return [
        {"coeff": str(terms[e]), "exps": list(e)}
        for e in sorted(terms, key=_grlex_key, reverse=True)
    ]


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
                out[tuple(t["exps"])] = c
        return out

    return _make(ring, load(obj["num"]), load(obj["den"]))
