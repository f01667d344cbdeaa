"""Exact arithmetic: canonical form, gcd reduction, quantum integers,
substitution, and the text round trip."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsqg.matrices import SMatrix
from rsqg.report import first_mismatch
from rsqg import cli, scalars
from rsqg.embed import _to_quarter_ring, quarter_ring
from rsqg.rootdata import build_root_system, omega_pairing
from rsqg.scalars import (
    Scalar,
    ScalarRing,
    parse,
    q_binomial,
    q_factorial,
    q_integer,
    ring_create,
    rs_binomial,
    rs_factorial,
    rs_integer,
    rs_ring,
    scalar_from_json,
    scalar_to_json,
    substitute,
    text_form,
)
from rsqg.scalars import _make, _pack_exps, _packed_exp_ranges, _unpack_exps


# -- independent dense-polynomial oracle (two variables, for derived values) --


def dense_mul(a, b):
    """a, b: dicts (i, j) -> int coefficients in plain r, s powers."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def dense_divide(num, den):
    """Long division in r; exact or raises."""
    num = dict(num)
    out = {}
    dlead = max(den, key=lambda k: k[0])
    while num:
        nlead = max(num, key=lambda k: k[0])
        q = (nlead[0] - dlead[0], nlead[1] - dlead[1])
        c = num[nlead] // den[dlead]
        assert c * den[dlead] == num[nlead]
        out[q] = out.get(q, 0) + c
        for k, v in dense_mul({q: c}, den).items():
            num[k] = num.get(k, 0) - v
            if not num[k]:
                del num[k]
    return out


def to_scalar(ring, dense):
    acc = ring.zero
    for (i, j), c in dense.items():
        acc = acc + ring.mono(c, r=i, s=j)
    return acc


@pytest.fixture(scope="module")
def R():
    return rs_ring()


def test_ring_create_slots():
    assert ring_create(["u", "v"]).nvars == 2
    assert ring_create(["u", "v", "x", "y"]).nvars == 4
    with pytest.raises(ValueError):
        ring_create(["u", "u"])


def test_self_division(R):
    r, s = R.mono(r=1), R.mono(s=1)
    assert ((r - s) / (r - s)).is_one()


def test_difference_of_squares(R):
    r, s = R.mono(r=1), R.mono(s=1)
    got = (r**2 - s**2) / (r - s)
    expect = to_scalar(R, dense_divide({(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): -1}))
    assert got == expect == r + s


def test_half_powers_compose(R):
    u = R.mono(r=Fraction(1, 2))
    assert u * u == R.mono(r=1)


def test_rs_integer_two(R):
    assert rs_integer(R, 2) == R.mono(r=1) + R.mono(s=1)


def test_rs_binomial_trivial(R):
    for m in range(7):
        assert rs_binomial(R, m, m).is_one()
        assert rs_binomial(R, m, 0).is_one()


def test_rs_binomial_three_one(R):
    expect = to_scalar(
        R, dense_divide({(3, 0): 1, (0, 3): -1}, {(1, 0): 1, (0, 1): -1})
    )
    assert rs_binomial(R, 3, 1) == expect


def test_rs_binomial_is_polynomial(R):
    for m in range(7):
        for k in range(m + 1):
            assert rs_binomial(R, m, k).den_is_one()
    with pytest.raises(ValueError):
        rs_binomial(R, 2, 3)


def test_q_integers(R):
    q = R.mono(r=Fraction(1, 2), s=-Fraction(1, 2))
    assert q_integer(R, 2) == q + q.inv()
    assert q_binomial(R, 3, 1) == q**2 + R.one + q**-2


def test_division_by_zero(R):
    with pytest.raises(ZeroDivisionError):
        R.one / R.zero
    with pytest.raises(ZeroDivisionError):
        R.zero.inv()


def test_substitution_root_of_factor():
    R = rs_ring("z")
    z = R.atom("z")
    xi = R.mono(r=-3, s=3)
    poly = (z - R.one) * (z - xi)
    assert substitute(poly, {"z": R.one}).is_zero()


def test_substitution_scaling():
    R = rs_ring("x")
    x = R.atom("x")
    r0 = R.mono(r=2)
    for k in (1, 3, -2):
        assert substitute(x**k, {"x": r0 * x}) == r0**k * x**k


def test_substitute_zero_into_negative_power():
    R = rs_ring("z")
    z = R.atom("z")
    with pytest.raises(ZeroDivisionError):
        substitute(z.inv(), {"z": R.zero})


# -- (r,s)-combinatorics against their division definitions -------------------

# The closed forms and Pascal rules are checked against the quotients the
# paper defines them by, computed in the fraction field (so through the GCD):
# [m] = (a^m − b^m)/(a − b) with (a, b) = (r^d, s^d) or (q_d, q_d^{-1}), the
# factorial as a product, and [m k] = [m]!/([k]![m−k]!).
_COMBINATORICS = {
    "rs": (rs_integer, rs_factorial, rs_binomial),
    "q": (q_integer, q_factorial, q_binomial),
}


def _integer_by_division(ring, kind, m, d):
    if kind == "rs":
        a, b = ring.mono(r=d), ring.mono(s=d)
    else:
        a = ring.mono(r=Fraction(d, 2), s=-Fraction(d, 2))
        b = a.inv()
    return ring.zero if m == 0 else (a**m - b**m) / (a - b)


def _combinatorics_by_division(ring, kind, d, top=10):
    integers = [_integer_by_division(ring, kind, m, d) for m in range(top + 1)]
    factorials = [ring.one]
    for m in range(1, top + 1):
        factorials.append(factorials[-1] * integers[m])
    binomials = {
        (m, k): factorials[m] / (factorials[k] * factorials[m - k]) for m in range(top + 1) for k in range(m + 1)
    }
    return integers, factorials, binomials


def _assert_laurent_in(x, ring):
    assert x.ring is ring
    assert x._den is ring._one_den


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["rs", "q"])
@pytest.mark.parametrize("rings", ["r,s", "r,s,z", "two equal r,s"])
def test_combinatorics_equal_their_division_definitions(monkeypatch, rings, kind, d):
    """Every value is a Laurent polynomial bound to the caller's ring.  In
    two equal but distinct ring objects, on an emptied memo, the values
    first built in one are handed to the other bound to that one."""
    if rings == "two equal r,s":
        monkeypatch.setattr(scalars, "_MEMO", {})
        targets = (rs_ring(), rs_ring())
        assert targets[0] == targets[1] and targets[0] is not targets[1]
    else:
        targets = (rs_ring(*rings.split(",")[2:]),)
    integer, factorial, binomial = _COMBINATORICS[kind]
    integers, factorials, binomials = _combinatorics_by_division(targets[0], kind, d)
    for ring in targets:
        for m in range(11):
            for x, want in ((integer(ring, m, d), integers[m]), (factorial(ring, m, d), factorials[m])):
                assert x == want, (kind, m, d)
                _assert_laurent_in(x, ring)
            for k in range(m + 1):
                x = binomial(ring, m, k, d)
                assert x == binomials[(m, k)], (kind, m, k, d)
                _assert_laurent_in(x, ring)


def test_negative_q_integer_and_argument_errors(R):
    for m in range(1, 6):
        assert q_integer(R, -m) == -q_integer(R, m) == -_integer_by_division(R, "q", m, 1)
    assert q_factorial(R, -2).is_one()
    for fn in (rs_integer, rs_factorial):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(R, -1)
    for fn in (rs_binomial, q_binomial):
        with pytest.raises(ValueError, match="0 <= k <= m"):
            fn(R, 2, 3)
        with pytest.raises(ValueError, match="0 <= k <= m"):
            fn(R, 2, -1)


def test_omega_pairing_is_bound_to_the_callers_ring(monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO", {})
    rs = build_root_system("B", 2)
    first, second = rs_ring(), rs_ring("z")
    for lam in ((1, 0), (0, 1), (1, 1), (Fraction(1, 2), 0)):
        for mu in ((1, 0), (0, 1), [1, 2]):
            for ring in (first, rs_ring(), second):
                x = omega_pairing(rs, ring, lam, mu)
                _assert_laurent_in(x, ring)
                assert x == ring.mono(r=rs.ringel_form(lam, mu), s=-rs.ringel_form(mu, lam))


def _memo_texts() -> dict:
    texts = {}
    for key, terms in scalars._MEMO.items():
        ring = ScalarRing(key[0])
        texts[key] = text_form(Scalar(ring, terms, ring._one_den, _raw=True))
    return texts


def _recomputed(variables, key):
    ring = ScalarRing(variables)
    name, *args = key
    if name == "omega_pairing":
        family, rank, lam, mu = args
        return omega_pairing(build_root_system(family, rank), ring, lam, mu)
    return getattr(scalars, name)(ring, *args)


def test_memo_values_survive_a_certify_all_case(monkeypatch):
    """A full B2 case reads the shared term dicts of the memo and must not
    change them: every value keeps its text form through a second run and
    equals the value a fresh memo computes."""
    monkeypatch.setattr(scalars, "_MEMO", {})
    assert cli._certify_one(("B", 2, False)).ok()
    before = _memo_texts()
    names = {key[1][0] for key in before}
    assert {"rs_binomial", "q_binomial", "rs_factorial", "omega_pairing"} <= names
    assert cli._certify_one(("B", 2, False)).ok()
    assert _memo_texts() == before
    monkeypatch.setattr(scalars, "_MEMO", {})
    assert {key: text_form(_recomputed(*key)) for key in before} == before


def test_gcd_cancellation_structured(R):
    r, s = R.mono(r=1), R.mono(s=1)
    a = r**2 + r * s + s**2
    b = r - s
    c = r + s
    assert (a * c) / (b * c) == a / b
    assert ((a * b) / b).den_is_one()


# -- randomized algebraic properties ---------------------------------------

_R2 = rs_ring()
_R3 = rs_ring("z")


def _terms(nvars, max_terms=3, max_exp=2):
    exp = st.integers(-max_exp, max_exp)
    coeff = st.fractions(
        min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
    )
    term = st.tuples(st.tuples(*([exp] * nvars)), coeff)
    return st.lists(term, min_size=0, max_size=max_terms)


def _poly(ring, terms):
    acc = {}
    for exps, c in terms:
        acc[exps] = acc.get(exps, Fraction(0)) + c
    return ring.poly({e: c for e, c in acc.items() if c})


@st.composite
def scalars2(draw, ring=_R2, allow_fraction=True):
    num = _poly(ring, draw(_terms(ring.nvars)))
    if allow_fraction:
        den = _poly(ring, draw(_terms(ring.nvars, max_terms=2, max_exp=1)))
        if not den.is_zero():
            return num / den
    return num


@settings(max_examples=60, deadline=None)
@given(scalars2(), scalars2(), scalars2())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == _R2.zero
    if not b.is_zero():
        assert (a * b) / b == a
        assert b * b.inv() == _R2.one


@settings(max_examples=60, deadline=None)
@given(scalars2())
def test_canonical_idempotent(a):
    again = Scalar(_R2, dict(a._num), dict(a._den))
    assert again == a
    assert again._num == a._num and again._den == a._den


@settings(max_examples=40, deadline=None)
@given(scalars2(allow_fraction=False), scalars2(allow_fraction=False))
def test_substitute_is_homomorphism(a, b):
    binds = {"r": _R3.mono(r=1, s=1), "s": _R3.atom("z") ** 2}
    fa = substitute(a, binds, ring=_R3)
    fb = substitute(b, binds, ring=_R3)
    assert substitute(a * b, binds, ring=_R3) == fa * fb
    assert substitute(a + b, binds, ring=_R3) == fa + fb


# -- substitution: term-wise images against Scalar arithmetic -------------------


def _substitute_reference(x, bindings, target):
    """Σ c·Π image^k over the terms of numerator and denominator, in Scalar
    arithmetic, then their quotient."""
    images = [bindings[v.name] if v.name in bindings else target.atom(v.name) for v in x.ring.variables]

    def value(terms):
        acc = target.zero
        for e, c in terms.items():
            t = target.num(c)
            for image, k in zip(images, e):
                if k:
                    t = t * image**k
            acc = acc + t
        return acc

    return value(x._num) / value(x._den)


_QR = quarter_ring("z")
_IMAGE_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 3), Fraction(-3, 2)])
_HALF_POWERS = st.integers(-4, 4).map(lambda k: Fraction(k, 2))


@st.composite
def _image(draw, target, name, allow_zero=True, allow_poly=True):
    """A binding for one variable: a monomial with a rational coefficient
    and half or negative powers, zero, or a two-term polynomial."""
    kinds = ["monomial"] + (["zero"] if allow_zero else []) + (["polynomial"] if allow_poly else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return target.zero
    names = [v for v in target.names if v != "z"]
    powers = {}
    for v in names:
        p = draw(_HALF_POWERS)
        powers[v] = p if target.variables[target.index[v]].denom == 2 else int(p)
    if "z" in target.names:
        powers["z"] = draw(st.integers(-2, 2))
    mono = target.mono(draw(_IMAGE_COEFFS), **powers)
    if kind == "monomial":
        return mono
    return mono + target.atom(name if name in target.names else target.names[0])


@pytest.mark.parametrize("target", [_R3, _QR], ids=["r,s,z", "w,q,z"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_substitute_matches_scalar_arithmetic(target, data):
    """Fractions with denominators under monomial and zero images, and
    Laurent polynomials under polynomial images too (a fraction under a
    polynomial image can make a slow GCD); the term-wise path runs exactly
    when no image is a polynomial, and a Laurent input then gives a Laurent
    value on the target's unit denominator."""
    allow_poly = data.draw(st.booleans())
    x = data.draw(scalars2(ring=_R3, allow_fraction=not allow_poly))
    bindings = {}
    for name in ("r", "s", "z"):
        if name == "z" or target is not _R3 or data.draw(st.booleans()):
            bindings[name] = data.draw(_image(target, name, allow_zero=name == "z", allow_poly=allow_poly))
    try:
        want = _substitute_reference(x, bindings, target)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            substitute(x, bindings, ring=target)
        return
    calls = []
    termwise = scalars._substitute_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_substitute_terms", lambda *a: calls.append(1) or termwise(*a))
        got = substitute(x, bindings, ring=target)
    assert got == want
    assert got.ring is target
    assert bool(calls) == all(img.is_zero() or img.is_monomial() for img in bindings.values())
    if calls and x.den_is_one():
        assert got._den is target._one_den


@settings(max_examples=60, deadline=None)
@given(scalars2(ring=_R3))
def test_quarter_ring_map_matches_scalar_arithmetic(x):
    w, qh = _QR.atom("w"), _QR.atom("q")
    bindings = {"r": w * qh, "s": w * qh.inv(), "z": _QR.atom("z")}
    assert _to_quarter_ring(x, _QR) == _substitute_reference(x, bindings, _QR)


def test_substitute_zero_drops_positive_powers_and_names_a_negative_one():
    R = rs_ring("z")
    z = R.atom("z")
    r = R.mono(r=1)
    x = (r * z**2 + R.num(3) * z + r.inv()) / (z + r)
    assert substitute(x, {"z": R.zero}) == r.inv() / r
    assert substitute(r * z + R.num(Fraction(1, 2)), {"z": R.zero}) == R.num(Fraction(1, 2))
    for bad in (z.inv(), r + z**-2 * r, (R.one + z.inv()) / (r + R.one)):
        with pytest.raises(ZeroDivisionError, match="substituting zero into negative power of z"):
            substitute(bad, {"z": R.zero})
    with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
        substitute(R.one / (r - R.mono(s=1)), {"r": z, "s": z})


def test_substitute_negative_powers_of_rational_coefficients_stay_exact():
    R = rs_ring("z")
    z = R.atom("z")
    x = R.num(3) * z**-2 + z**3
    got = substitute(x, {"z": R.mono(Fraction(2, 3), r=Fraction(1, 2))})
    assert got == R.mono(Fraction(27, 4), r=-1) + R.mono(Fraction(8, 27), r=Fraction(3, 2))
    assert all(isinstance(c, (int, Fraction)) for c in got._num.values())


@settings(max_examples=80, deadline=None)
@given(scalars2())
def test_text_round_trip(a):
    assert parse(_R2, text_form(a)) == a


def test_text_round_trip_half_powers(R):
    x = R.mono(Fraction(-3, 2), r=Fraction(1, 2), s=-3) + R.num(Fraction(7, 5))
    x = x / (R.mono(r=1) + R.num(2))
    assert parse(R, text_form(x)) == x


def test_monomial_sqrt(R):
    x = R.mono(r=3, s=-2)
    assert x.sqrt_monomial() ** 2 == x
    with pytest.raises(ValueError):
        (R.mono(r=Fraction(1, 2))).sqrt_monomial()


@pytest.mark.parametrize("root", [10**30 + 12345, 2**600 + 1], ids=["10^30+12345", "2^600+1"])
def test_exact_integer_sqrt_beyond_float_range(R, root):
    from rsqg.scalars import _int_sqrt_exact

    assert _int_sqrt_exact(root**2) == root
    assert _int_sqrt_exact(root**2 + 1) is None
    assert R.mono(Fraction(root**2, 4), r=2).sqrt_monomial() == R.mono(Fraction(root, 2), r=1)


def test_exchange_vars(R):
    x = R.mono(r=2, s=-1) + R.mono(3, r=1)
    y = x.exchange_vars("r", "s")
    assert y == R.mono(s=2, r=-1) + R.mono(3, s=1)


def test_exchange_vars_returns_a_fixed_value_itself(R):
    """A value the r <-> s swap fixes comes back as the same object, so the
    unit stays ``ring.one``; a value it moves comes back new and canonical."""
    assert R.one.exchange_vars("r", "s") is R.one
    for fixed in (R.zero, R.mono(r=1, s=1), R.one / (R.mono(r=1) + R.mono(s=1))):
        assert fixed.exchange_vars("r", "s") is fixed
    moved = R.one / (R.mono(r=1) + R.one)
    assert moved.exchange_vars("r", "s") == R.one / (R.mono(s=1) + R.one)
    assert moved.exchange_vars("r", "s")._den is not R._one_den
    assert R.mono(r=1).exchange_vars("r", "s")._den is R._one_den


# -- int coefficients: exact division and the float trap --------------------


def _coefficients(x):
    return list(x._num.values()) + list(x._den.values())


@pytest.mark.parametrize("top,text", [(1, "1/2"), (3, "3/2")])
def test_exact_division_with_non_integral_quotient(R, top, text):
    r = R.mono(r=1)
    got = (top * r + top) / (2 * r + 2)
    assert got == R.num(Fraction(top, 2))
    assert type(got.monomial_parts()[1]) is Fraction
    assert text_form(got) == text
    assert parse(R, text) == got


def test_integral_coefficients_are_ints(R):
    r = R.mono(r=1)
    assert type(R.num(Fraction(4, 2)).monomial_parts()[1]) is int
    assert type(parse(R, "6/3 * r^1").monomial_parts()[1]) is int
    assert type(((4 * r + 4) / (2 * r + 2)).monomial_parts()[1]) is int
    assert type(R.mono(Fraction(9, 4), r=2).sqrt_monomial().monomial_parts()[1]) is Fraction
    assert type(R.mono(Fraction(36, 4), r=2).sqrt_monomial().monomial_parts()[1]) is int


@settings(max_examples=60, deadline=None)
@given(scalars2(), scalars2(), st.integers(-3, 3))
def test_no_operation_leaves_an_inexact_coefficient(a, b, k):
    results = [a + b, a - b, a * b, parse(_R2, text_form(a)), scalar_from_json(_R2, scalar_to_json(a))]
    if not b.is_zero():
        results += [a / b, b.inv(), b**k]
    for x in results:
        assert all(type(c) in (int, Fraction) for c in _coefficients(x)), x


_int_polys = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-6, 6)), max_size=3
).map(lambda terms: _poly(_R2, terms))


@settings(max_examples=60, deadline=None)
@given(_int_polys, _int_polys, st.integers(0, 3))
def test_integer_polynomials_stay_on_int_coefficients(a, b, k):
    """With integral inputs, +, −, * and ** never produce a Fraction."""
    for x in (a, b, a + b, a - b, a * b, a**k):
        assert all(type(c) is int for c in _coefficients(x)), x


# -- an independent oracle for the canonical form: sympy ----------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_terms(sympy, gens, terms):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**k for g, k in zip(gens, e)))
            for e, c in terms
        )
    )


@st.composite
def scalars_with_expr(draw, ring, sympy, gens):
    """A scalars2-style random value and the same value built by sympy from
    the same random terms."""
    num_terms = draw(_terms(ring.nvars))
    den_terms = draw(_terms(ring.nvars, max_terms=2, max_exp=1))
    num, den = _poly(ring, num_terms), _poly(ring, den_terms)
    expr = _sympy_terms(sympy, gens, num_terms)
    if den.is_zero():
        return num, expr
    return num / den, expr / _sympy_terms(sympy, gens, den_terms)


@pytest.mark.parametrize("ring", [_R2, _R3], ids=["r,s", "r,s,z"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_against_sympy(sympy, ring, data):
    # internal generators: r^(1/2), s^(1/2) and z
    gens = sympy.symbols(" ".join(f"g{i}" for i in range(ring.nvars)))
    draw = scalars_with_expr(ring, sympy, gens)
    a, ea = data.draw(draw)
    b, eb = data.draw(draw)
    cases = [(a, ea), (a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb)]
    if not b.is_zero():
        cases.append((a / b, ea / eb))
    for x, expr in cases:
        num = _sympy_terms(sympy, gens, x._num.items())
        den = _sympy_terms(sympy, gens, x._den.items())
        assert sympy.cancel(num / den - expr) == 0, (x, expr)
        # the denominator is a polynomial, divisible by no variable, monic in grlex
        assert all(k >= 0 for e in x._den for k in e)
        assert all(den.subs(g, 0) != 0 for g in gens)
        assert sympy.Poly(den, *gens).LC(order="grlex") == 1
        # numerator and denominator are coprime once the numerator's monomial
        # part (a unit of the Laurent ring) is removed
        if x._num:
            low = [min(e[i] for e in x._num) for i in range(ring.nvars)]
            shifted = [(tuple(k - m for k, m in zip(e, low)), c) for e, c in x._num.items()]
            g = sympy.gcd(_sympy_terms(sympy, gens, shifted), den)
            assert sympy.Poly(g, *gens).is_ground, (x, g)


# -- the kernel's fast paths give exactly what _make gives ---------------------
#
# Products and sums of Laurent polynomials, and products with a Laurent
# monomial, skip _make.  These tests rebuild each result from the raw product
# or sum (computed here term by term, not by the kernel) through _make, and
# require the same stored numerator and denominator.


def _raw_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _raw_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def kernel_values(draw, ring):
    """A Laurent polynomial, a Laurent monomial with a Fraction coefficient,
    or a quotient by a polynomial with at least two terms."""
    kind = draw(st.sampled_from(["laurent", "monomial", "fraction"]))
    if kind == "monomial":
        exps = draw(st.tuples(*([st.integers(-3, 3)] * ring.nvars)))
        c = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool))
        return ring.poly({exps: c})
    num = _poly(ring, draw(_terms(ring.nvars)))
    if kind == "laurent":
        return num
    den = _poly(ring, draw(_terms(ring.nvars, max_terms=2, max_exp=1).filter(lambda t: len(t) == 2)))
    return num / den if not den.is_zero() else num


def _check_against_make(a: Scalar, b: Scalar) -> None:
    ring = a.ring
    den = _raw_mul(a._den, b._den)
    expected = (
        (a * b, _raw_mul(a._num, b._num)),
        (a + b, _raw_add(_raw_mul(a._num, b._den), _raw_mul(b._num, a._den))),
    )
    for x, num in expected:
        ref = _make(ring, num, den)
        assert (x._num, x._den) == (ref._num, ref._den), (a, b, x, ref)


@pytest.mark.parametrize("ring", [_R2, _R3], ids=["r,s", "r,s,z"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_and_sums_match_make(ring, data):
    a = data.draw(kernel_values(ring))
    b = data.draw(kernel_values(ring))
    _check_against_make(a, b)
    _check_against_make(b, a)
    for x in (a, b):
        if not x.is_zero():
            ref = _make(ring, x._den, x._num)
            assert (x.inv()._num, x.inv()._den) == (ref._num, ref._den), x
            if x.is_monomial():
                assert x.inv()._den is ring._one_den
    if a.den_is_one() and not a.is_zero():
        # b / a has a's factors in its denominator, so a * (b / a) must cancel
        _check_against_make(a, b / a)


def _probes():
    """One pair per fast path, with non-unit Fraction coefficients."""
    R = _R2
    r, s = R.mono(r=1), R.mono(s=1)
    frac = (r + 1) / (R.num(3) * s - r * s + R.num(2))
    return [
        (R.mono(Fraction(1, 2), r=1), frac),
        (frac, R.mono(-3, r=-1, s=2)),
        (r + R.num(Fraction(2, 3)) * s, R.mono(Fraction(5, 4), s=-1) - r),
        (r + 1, R.one / (r + 1)),
        (frac, frac),
    ]


def test_products_and_sums_match_make_on_probes():
    for a, b in _probes():
        _check_against_make(a, b)


_KERNEL_MUL = Scalar.__mul__


def _mul_without_monic_scaling(self, other):
    """Takes a monomial c·x^e times n/d as (x^e·n)/(d/c): the right value,
    but d/c is monic only when c = 1."""
    for m, x in ((self, other), (other, self)):
        if m.is_monomial() and not x.den_is_one():
            ((e, c),) = m._num.items()
            den = {k: Fraction(v) / c for k, v in x._den.items()}
            return Scalar(x.ring, _raw_mul({e: 1}, x._num), den, _raw=True)
    return _KERNEL_MUL(self, other)


def _mul_without_gcd(self, other):
    """Takes any Laurent polynomial times n/d without cancelling."""
    for p, x in ((self, other), (other, self)):
        if p.den_is_one() and not x.den_is_one():
            return Scalar(x.ring, _raw_mul(p._num, x._num), x._den, _raw=True)
    return _KERNEL_MUL(self, other)


@pytest.mark.parametrize("mutant", [_mul_without_monic_scaling, _mul_without_gcd])
def test_a_faulty_fast_path_fails_the_comparison(monkeypatch, mutant):
    monkeypatch.setattr(Scalar, "__mul__", mutant)
    failed = 0
    for a, b in _probes():
        try:
            _check_against_make(a, b)
        except AssertionError:
            failed += 1
    assert failed


def _stored(ring, values) -> SMatrix:
    """A 2×2 matrix storing exactly the given entries, zeros included."""
    rows: dict = {}
    for k, v in enumerate(values):
        if v is not None:
            rows.setdefault(k // 2, {})[k % 2] = v
    return SMatrix(ring, 2, 2, rows)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_first_mismatch_is_empty_exactly_when_the_difference_is_zero(data):
    entry = st.one_of(st.none(), st.just(_R2.zero), kernel_values(_R2))
    a = [data.draw(entry) for _ in range(4)]
    b = [x if data.draw(st.booleans()) else data.draw(entry) for x in a]
    ma, mb = _stored(_R2, a), _stored(_R2, b)
    assert (first_mismatch(ma, mb) == "") == (ma - mb).is_zero()
    assert first_mismatch(ma, ma) == ""


def test_first_mismatch_with_a_stored_zero():
    R = _R2
    stored = _stored(R, [None, R.zero, None, None])
    assert stored != SMatrix.zero(R, 2)
    assert first_mismatch(stored, stored) == ""
    assert first_mismatch(SMatrix.zero(R, 2), stored) == ""
    assert first_mismatch(_stored(R, [None, R.one, None, None]), stored) == "entry (0,1): LHS 1 vs RHS 0"


def test_first_mismatch_with_a_stored_zero_in_either_order():
    R = _R2
    stored = _stored(R, [None, R.zero, None, None])
    zero = SMatrix.zero(R, 2)
    assert first_mismatch(stored, zero) == ""
    assert first_mismatch(zero, stored) == ""
    assert (stored + zero).rows == {} and (zero + stored).rows == {}
    assert (stored - zero).is_zero() and (zero - stored).is_zero()


def test_scalar_from_json_drops_zero_coefficients():
    R = _R2
    one = {"coeff": "1", "exps": [0, 0]}
    obj = {"num": [{"coeff": "1", "exps": [2, 0]}, {"coeff": "0", "exps": [0, 0]}], "den": [one]}
    got = scalar_from_json(R, obj)
    assert got == R.mono(r=1)
    assert text_form(got) == text_form(R.mono(r=1))
    only_zero = scalar_from_json(R, {"num": [{"coeff": "0", "exps": [1, 1]}], "den": [one]})
    assert only_zero.is_zero() and only_zero == R.zero


def test_matrix_from_json_drops_a_zero_entry():
    from rsqg.matrices import matrix_from_json, matrix_to_json

    R = _R2
    m = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1)), (1, 1, R.one)])
    obj = matrix_to_json(m)
    obj["entries"].append(
        {"row": 0, "col": 1, "num": [{"coeff": "0", "exps": [0, 0]}], "den": [{"coeff": "1", "exps": [0, 0]}]}
    )
    again = matrix_from_json(R, obj)
    assert again.nnz() == 2
    assert again == m


def test_first_mismatch_names_basis_vectors_of_v_or_v_tensor_v():
    """With dim V given, an N×N operator's row and column are named v_a and
    an N²×N² operator's v_a⊗v_b; any other size raises."""
    R = _R2
    one = SMatrix.from_entries(R, 2, 2, [(1, 0, R.one)])
    assert first_mismatch(one, SMatrix.zero(R, 2), 2) == "row v_2, column v_1: LHS 1 vs RHS 0"
    two = SMatrix.from_entries(R, 4, 4, [(1, 2, R.one)])
    assert first_mismatch(two, SMatrix.zero(R, 4), 2) == "row v_1⊗v_2, column v_2⊗v_1: LHS 1 vs RHS 0"
    with pytest.raises(ValueError, match="neither V nor V ⊗ V"):
        first_mismatch(two, SMatrix.zero(R, 4), 3)


# -- packed exponents -----------------------------------------------------------

_LIMIT = 2**20


def _exponent_vectors(bound):
    """Vectors of 1 to 5 exponents with |e| < bound, the extremes included."""
    e = st.one_of(st.integers(-bound + 1, bound - 1), st.sampled_from([-bound + 1, bound - 1, -1, 0, 1]))
    return st.integers(1, 5).flatmap(lambda k: st.tuples(*[e] * k))


@settings(max_examples=200, deadline=None)
@given(_exponent_vectors(_LIMIT))
def test_packing_round_trips(e):
    assert _unpack_exps(_pack_exps(e), len(e)) == e


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packing_is_additive_and_reads_each_digit(data):
    """pack(a) + pack(b) = pack(a + b), and the digit read of each pair of
    slots over a packed term dict gives their smallest and largest exponents."""
    a = data.draw(_exponent_vectors(_LIMIT // 2))
    b = data.draw(st.tuples(*[st.integers(-_LIMIT // 2 + 1, _LIMIT // 2 - 1)] * len(a)))
    assert _pack_exps(a) + _pack_exps(b) == _pack_exps(tuple(x + y for x, y in zip(a, b)))
    terms = {_pack_exps(a): 1, _pack_exps(b): -2}
    span = [(min(a[i], b[i]), max(a[i], b[i])) for i in range(len(a))]
    for i in range(len(a)):
        for j in range(len(a)):
            assert _packed_exp_ranges(terms, i, j) == (span[i], span[j])


def test_packing_limits():
    """|e| = 2^20 - 1 packs and 2^20 raises; 2^11 - 1 chained sums of
    extreme exponents stay within their digits."""
    top = _LIMIT - 1
    for e in ((top,), (-top,), (top, -top, 0, -top)):
        assert _unpack_exps(_pack_exps(e), len(e)) == e
        k = 2**11 - 1
        assert _unpack_exps(k * _pack_exps(e), len(e)) == tuple(k * x for x in e)
    for e in ((_LIMIT,), (0, -_LIMIT), (1, 2**31)):
        with pytest.raises(ValueError, match="packed range"):
            _pack_exps(e)
