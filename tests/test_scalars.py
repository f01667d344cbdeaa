"""Exact arithmetic: canonical form, cancellation against cyclotomic
denominators, quantum integers, substitution, and the text round trip."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLOTOMIC, denominators, tuple_mul
from rsqg.matrices import SMatrix
from rsqg.report import first_mismatch
from rsqg import cli, scalars
from rsqg.embed import _to_quarter_ring, quarter_ring
from rsqg.rep import build_fundamental
from rsqg.rmatrix import CoefficientTables
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
# paper defines them by, computed in the fraction field (so through the
# cancellation in ``_make``):
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
    if name in ("coefficient_t", "coefficient_a"):
        family, rank, *indices = args
        tables = CoefficientTables(build_fundamental(family, rank, ring))
        return (tables._t_of if name == "coefficient_t" else tables._a_of)(*indices)
    return getattr(scalars, name)(ring, *args)


def test_memo_values_survive_a_certify_all_case(monkeypatch):
    """A full B2 case reads the shared term dicts of the memo and must not
    change them: every value keeps its text form through a second run and
    equals the value a fresh memo computes."""
    monkeypatch.setattr(scalars, "_MEMO", {})
    assert cli._certify_one(("B", 2, False)).ok()
    before = _memo_texts()
    names = {key[1][0] for key in before}
    assert {"rs_binomial", "q_binomial", "rs_factorial", "omega_pairing", "coefficient_t", "coefficient_a"} <= names
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
def scalars2(draw, ring=_R2, allow_fraction=True, variables=None):
    """A random numerator, over a denominator from the shared draw (whose
    forms use the variable tuples ``variables``) when ``allow_fraction``."""
    num = _poly(ring, draw(_terms(ring.nvars)))
    if allow_fraction:
        return num / ring.poly(draw(denominators(ring, variables=variables)))
    return num


def divisors(ring=_R2):
    """Values the kernel can divide by: a quotient of two denominators of
    the shared draw, so its numerator lies in the factor set too."""
    return st.tuples(denominators(ring), denominators(ring)).map(lambda nd: ring.poly(nd[0]) / ring.poly(nd[1]))


@settings(max_examples=60, deadline=None)
@given(scalars2(), scalars2(), scalars2(), divisors())
def test_ring_axioms(a, b, c, d):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == _R2.zero
    assert (a * d) / d == a
    assert d * d.inv() == _R2.one


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
            for image, k in zip(images, _unpack_exps(e, x.ring.nvars)):
                if k:
                    t = t * image**k
            acc = acc + t
        return acc

    return value(x._num) / value(x._den)


_QR = quarter_ring("z")
_IMAGE_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 3), Fraction(-3, 2)])
_HALF_POWERS = st.integers(-4, 4).map(lambda k: Fraction(k, 2))


@st.composite
def _image(draw, target, name, allow_zero=True, allow_poly=True, keep_set=False):
    """A binding for one variable: a monomial with a rational coefficient
    and half or negative powers, zero, or a two-term polynomial.  With
    ``keep_set`` a monomial is ±u and a polynomial is ±u ± v or ±u ± 1, for
    generators u ≠ v of the target, so every cyclotomic form maps to a
    monomial times such forms, or to a constant."""
    kinds = ["monomial"] + (["zero"] if allow_zero else []) + (["polynomial"] if allow_poly else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return target.zero
    if keep_set:
        signs = st.sampled_from([1, -1])
        u = draw(st.sampled_from(target.names))
        mono = draw(signs) * target.atom(u)
        if kind == "monomial":
            return mono
        v = draw(st.sampled_from([None] + [n for n in target.names if n != u]))
        return mono + draw(signs) * (target.atom(v) if v else target.one)
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
    Laurent polynomials under polynomial images too; the term-wise path
    runs exactly when no image is a polynomial, and a Laurent input then
    gives a Laurent value on the target's unit denominator.  Images drawn
    with ``keep_set`` keep every denominator in the factor set; other
    images may take one out of it, and substitute must then raise
    ValueError where the reference does."""
    keep_set = data.draw(st.booleans())
    allow_poly = data.draw(st.booleans())
    x = data.draw(scalars2(ring=_R3, allow_fraction=not allow_poly))
    bindings = {}
    for name in ("r", "s", "z"):
        if name == "z" or target is not _R3 or data.draw(st.booleans()):
            image = _image(target, name, allow_zero=name == "z", allow_poly=allow_poly, keep_set=keep_set)
            bindings[name] = data.draw(image)
    try:
        want = _substitute_reference(x, bindings, target)
    except (ZeroDivisionError, ValueError) as err:
        assert not (keep_set and isinstance(err, ValueError)), err
        with pytest.raises(type(err)):
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
@given(scalars2(ring=_R3, variables=[("r", "s"), ("s", "r"), ("z",)]))
def test_quarter_ring_map_matches_scalar_arithmetic(x):
    """Denominators in Φ_k(r^(1/2), s^(1/2)) and Φ_k(z), which the map takes
    to a monomial times forms in q^(1/2) and z."""
    w, qh = _QR.atom("w"), _QR.atom("q")
    bindings = {"r": w * qh, "s": w * qh.inv(), "z": _QR.atom("z")}
    assert _to_quarter_ring(x, _QR) == _substitute_reference(x, bindings, _QR)


def test_substitute_zero_drops_positive_powers_and_names_a_negative_one():
    R = rs_ring("z")
    z = R.atom("z")
    r = R.mono(r=1)
    rh = R.atom("r")
    x = (r * z**2 + R.num(3) * z + r.inv()) / (z + rh)
    assert substitute(x, {"z": R.zero}) == r.inv() / rh
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
    x = x / (R.mono(r=Fraction(1, 2)) + R.num(1))
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
@given(scalars2(), divisors(), st.integers(-3, 3))
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
def scalars_with_expr(draw, ring, sympy, gens, divisor=False):
    """A scalars2-style random value and the same value built by sympy from
    the same random terms; a ``divisor`` draws its numerator from the
    shared denominator draw too.  One form each keeps sympy's gcd fast."""
    one_form = denominators(ring, forms=(0, 1))
    num_terms = list(draw(one_form).items()) if divisor else draw(_terms(ring.nvars))
    den_terms = list(draw(one_form).items())
    num, den = _poly(ring, num_terms), _poly(ring, den_terms)
    return num / den, _sympy_terms(sympy, gens, num_terms) / _sympy_terms(sympy, gens, den_terms)


@pytest.mark.parametrize("ring", [_R2, _R3], ids=["r,s", "r,s,z"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_against_sympy(sympy, ring, data):
    # internal generators: r^(1/2), s^(1/2) and z
    gens = sympy.symbols(" ".join(f"g{i}" for i in range(ring.nvars)))
    draw = scalars_with_expr(ring, sympy, gens)
    a, ea = data.draw(draw)
    b, eb = data.draw(draw)
    d, ed = data.draw(scalars_with_expr(ring, sympy, gens, divisor=True))
    cases = [(a, ea), (a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb), (a / d, ea / ed)]
    for x, expr in cases:
        x_num, x_den = _tuples(ring, x._num), _tuples(ring, x._den)
        num = _sympy_terms(sympy, gens, x_num.items())
        den = _sympy_terms(sympy, gens, x_den.items())
        assert sympy.cancel(num / den - expr) == 0, (x, expr)
        # the denominator is a polynomial, divisible by no variable, monic in grlex
        assert all(k >= 0 for e in x_den for k in e)
        assert all(den.subs(g, 0) != 0 for g in gens)
        assert sympy.Poly(den, *gens).LC(order="grlex") == 1
        # numerator and denominator are coprime once the numerator's monomial
        # part (a unit of the Laurent ring) is removed
        if x_num:
            low = [min(e[i] for e in x_num) for i in range(ring.nvars)]
            shifted = [(tuple(k - m for k, m in zip(e, low)), c) for e, c in x_num.items()]
            g = sympy.gcd(_sympy_terms(sympy, gens, shifted), den)
            assert sympy.Poly(g, *gens).is_ground, (x, g)


# -- the kernel's fast paths give exactly what _make gives ---------------------
#
# Products and sums of Laurent polynomials, and products with a Laurent
# monomial, skip _make.  These tests rebuild each result from the raw product
# or sum (computed here term by term, not by the kernel) through _make, and
# require the same stored numerator and denominator.


def _tuples(ring, terms: dict) -> dict:
    """A stored term dict with its packed exponents read as tuples."""
    return {_unpack_exps(e, ring.nvars): c for e, c in terms.items()}


def _packed(terms: dict) -> dict:
    """A tuple-keyed term dict with its exponents packed, as stored."""
    return {_pack_exps(e): c for e, c in terms.items()}


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
    return num / ring.poly(draw(denominators(ring, forms=(1, 2))))


def _check_against_make(a: Scalar, b: Scalar) -> None:
    ring = a.ring
    an, ad, bn, bd = (_tuples(ring, t) for t in (a._num, a._den, b._num, b._den))
    den = tuple_mul(ad, bd)
    expected = (
        (a * b, tuple_mul(an, bn)),
        (a + b, _raw_add(tuple_mul(an, bd), tuple_mul(bn, ad))),
    )
    for x, num in expected:
        ref = _make(ring, _packed(num), _packed(den))
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
            try:
                ref = _make(ring, x._den, x._num)
            except ValueError:
                # x's numerator, the inverse's denominator, is outside the factor set
                with pytest.raises(ValueError, match="cyclotomic"):
                    x.inv()
                continue
            assert (x.inv()._num, x.inv()._den) == (ref._num, ref._den), x
            if x.is_monomial():
                assert x.inv()._den is ring._one_den
    # b / c has c's factors in its denominator, so c * (b / c) must cancel
    c = ring.poly(data.draw(denominators(ring)))
    _check_against_make(c, b / c)


def _probes():
    """One pair per fast path, with non-unit Fraction coefficients."""
    R = _R2
    r, s = R.mono(r=1), R.mono(s=1)
    frac = (r + 1) / (R.num(3) * s + R.num(3) * r)
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
            return Scalar(x.ring, _packed(tuple_mul(_tuples(x.ring, {e: 1}), _tuples(x.ring, x._num))), den, _raw=True)
    return _KERNEL_MUL(self, other)


def _mul_without_gcd(self, other):
    """Takes any Laurent polynomial times n/d without cancelling."""
    for p, x in ((self, other), (other, self)):
        if p.den_is_one() and not x.den_is_one():
            return Scalar(x.ring, _packed(tuple_mul(_tuples(x.ring, p._num), _tuples(x.ring, x._num))), x._den, _raw=True)
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


# -- the packed kernel against a tuple-keyed reference ---------------------------
#
# The reference below keeps a value as a (numerator, denominator) pair of term
# dicts keyed by exponent tuples, multiplies term by term with tuple sums and
# compares two fractions by cross-multiplication, so it shares no code with
# the packed kernel.  Exponents sit near ±2^19, where a product can leave the
# packed range |e| < 2^20: the kernel must then raise ValueError, exactly when
# the reference's Laurent result is out of range.

_NEAR = 2**19
_REF_RINGS = [rs_ring(), rs_ring("z"), rs_ring("x", "y", "a")]
_REF_COEFF_VALUES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
_REF_COEFFS = st.sampled_from(_REF_COEFF_VALUES)


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_pow(x: tuple, k: int) -> tuple:
    num, den = x if k >= 0 else (x[1], x[0])
    n = d = {(0,) * len(next(iter(x[1]))): 1}
    for _ in range(abs(k)):
        n, d = tuple_mul(n, num), tuple_mul(d, den)
    return n, d


def _in_range(terms: dict) -> bool:
    return all(abs(k) < _LIMIT for e in terms for k in e)


def _is_unit_den(x: tuple) -> bool:
    (e, c), *rest = x[1].items()
    return not rest and not any(e) and c == 1


def _ref_text(ring, terms: dict) -> str:
    def power(k, denom):
        f = Fraction(k, denom)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        factors = [str(terms[e])]
        factors += [f"{ring.names[i]}^{power(k, ring.variables[i].denom)}" for i, k in enumerate(e) if k]
        parts.append(" * ".join(factors))
    return " + ".join(parts)


def _ref_json(terms: dict) -> list:
    return [{"coeff": str(terms[e]), "exps": list(e)} for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True)]


def _near_limit(draw, ring, offset: list[int], fraction: bool, unit: bool) -> tuple:
    """(kernel value, reference pair): a Laurent polynomial whose exponents
    lie within 2 of the per-variable ``offset``, divided, for a
    ``fraction``, by a two-term denominator: a constant, times a monomial of
    exponents 0 or 1, times Φ_1 or Φ_2 of one variable or two.  For a
    ``unit`` the numerator is the offset monomial times a denominator draw,
    so that the value can be inverted."""
    nv = ring.nvars
    if unit:
        low = denominators(ring, forms=(0, 1), ks=(1, 2), coeffs=_REF_COEFF_VALUES)
        num = tuple_mul({tuple(offset): 1}, draw(low))
    else:
        exps = st.tuples(*[st.integers(-2, 2)] * nv).map(lambda d: tuple(o + x for o, x in zip(offset, d)))
        num = draw(st.dictionaries(exps, _REF_COEFFS, max_size=3))
    den = {(0,) * nv: 1}
    if fraction:
        den = draw(denominators(ring, forms=(1, 1), ks=(1, 2), exps=(0, 1), coeffs=_REF_COEFF_VALUES))
    return ring.poly(num) / ring.poly(den), (num, den)


def _in_factor_set(den: dict) -> bool:
    """Whether a denominator of at most two terms is a constant times a
    monomial times cyclotomic forms: one term, or c·x^b·(x^d ± 1) where the
    exponent vector d is j·e_u or j·(e_u − e_v), for u^j ± 1 and
    u^j ± v^j are products of forms Φ_k(u) and Φ_k(u, v)."""
    if len(den) < 2:
        return True
    (e1, c1), (e2, c2) = den.items()
    d = sorted(x - y for x, y in zip(e1, e2) if x != y)
    return abs(c1) == abs(c2) and (len(d) == 1 or (len(d) == 2 and d[0] == -d[1]))


def _offsets(draw, ring) -> list[int]:
    return [draw(st.sampled_from([-_NEAR, 0, _NEAR])) for _ in range(ring.nvars)]


def _agrees(x: Scalar, ref: tuple) -> bool:
    """x equals the reference fraction: n·d' = n'·d."""
    xn, xd = _tuples(x.ring, x._num), _tuples(x.ring, x._den)
    return tuple_mul(xn, ref[1]) == tuple_mul(ref[0], xd)


def _largest_exponent(terms: dict) -> int:
    return max((abs(k) for e in terms for k in e), default=0)


def _den_monomial_moved(ref: tuple) -> tuple:
    """The reference fraction with the smallest exponents of its denominator
    moved into the numerator, and a one-term denominator divided out."""
    num, den = ref
    low = [min(e[i] for e in den) for i in range(len(next(iter(den))))]
    shift = lambda terms: {tuple(k - m for k, m in zip(e, low)): c for e, c in terms.items()}
    num, den = shift(num), shift(den)
    if len(den) == 1:
        (c,) = den.values()
        num, den = {e: Fraction(v) / c for e, v in num.items()}, {next(iter(den)): 1}
    return num, den


def _check_op(op, ref: tuple) -> None:
    """The kernel's ``op()`` against the reference value ``ref``.  A Laurent
    result raises exactly when the reference is out of range.  The canonical
    numerator of any other fraction moves by a few units from the
    reference's, so near the limit it may raise either way, but not 8 or
    more below it."""
    ref = _den_monomial_moved(ref)
    laurent = _is_unit_den(ref)
    try:
        got = op()
    except ValueError:
        if laurent:
            assert not _in_range(ref[0])
        else:
            assert _largest_exponent(ref[0]) >= _LIMIT - 8
        return
    if laurent:
        assert _in_range(ref[0])
    assert _agrees(got, ref)
    assert _in_range(_tuples(got.ring, got._num)) and _in_range(_tuples(got.ring, got._den))


@pytest.mark.parametrize("ring", _REF_RINGS, ids=lambda r: ",".join(r.names))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_a_tuple_reference(ring, data):
    # a form that divides a sum of numerators 2^19 apart leaves a reduced
    # numerator of about 2^19 terms, so a fraction shares the other's
    # offset; a is invertible when its numerator lies in the factor set
    fa, fb, unit = data.draw(st.booleans()), data.draw(st.booleans()), data.draw(st.booleans())
    offset = _offsets(data.draw, ring)
    a, ra = _near_limit(data.draw, ring, offset, fa, unit)
    b, rb = _near_limit(data.draw, ring, offset if fa or fb else _offsets(data.draw, ring), fb, False)
    assert _agrees(a, ra) and _agrees(b, rb)
    _check_op(lambda: a * b, (tuple_mul(ra[0], rb[0]), tuple_mul(ra[1], rb[1])))
    _check_op(lambda: a + b, (_ref_add(tuple_mul(ra[0], rb[1]), tuple_mul(rb[0], ra[1])), tuple_mul(ra[1], rb[1])))
    if unit:
        _check_op(a.inv, (ra[1], ra[0]))
    k = data.draw(st.integers(-2 if unit else 0, 3))
    _check_op(lambda: a**k, _ref_pow(ra, k))

    # substitution by monomials of exponents in [-1, 1]: an image exponent
    # is a sum of up to nv products k·e near 2^19, on both sides of 2^20
    # (coefficients ±1, whose powers near 2^19 stay small)
    images = {}
    for name in ring.names:
        if data.draw(st.booleans()):
            e = data.draw(st.tuples(*[st.integers(-1, 1)] * ring.nvars))
            images[name] = (e, data.draw(st.sampled_from([1, -1])))
    binds = {name: ring.poly({e: c}) for name, (e, c) in images.items()}
    mono = [images.get(name, (tuple(int(j == i) for j in range(ring.nvars)), 1)) for i, name in enumerate(ring.names)]

    def image(terms):
        out: dict = {}
        for e, c in terms.items():
            t = tuple(sum(k * m[0][j] for k, m in zip(e, mono)) for j in range(ring.nvars))
            for k, m in zip(e, mono):
                c = c * m[1] ** (k % 2)
            if not _in_range({t: c}):
                return None  # a term's image leaves the range
            out[t] = out.get(t, 0) + c
        return {e: c for e, c in out.items() if c}

    # the images of the terms a stores: ra may hold a common factor that
    # canonicalization cancels, and with it a term out of range
    num, den = image(_tuples(ring, a._num)), image(_tuples(ring, a._den))
    if num is None or den is None:
        with pytest.raises(ValueError):
            substitute(a, binds)
    elif num and den and not _in_factor_set(den):
        # a zero numerator gives zero over any denominator
        with pytest.raises(ValueError, match="cyclotomic"):
            substitute(a, binds)
    elif den:
        _check_op(lambda: substitute(a, binds), (num, den))

    i, j = (ring.index["r"], ring.index["s"]) if data.draw(st.booleans()) or "x" not in ring.names else (ring.index["x"], ring.index["y"])
    swap = lambda terms: {tuple(e[j] if m == i else e[i] if m == j else x for m, x in enumerate(e)): c for e, c in terms.items()}
    _check_op(lambda: a.exchange_vars(ring.names[i], ring.names[j]), (swap(ra[0]), swap(ra[1])))

    # reading exponents back: ranges, text and JSON
    num, den = _tuples(ring, a._num), _tuples(ring, a._den)
    for v, name in enumerate(ring.names):
        want = (min(e[v] for e in num), max(e[v] for e in num)) if num else (0, 0)
        assert a.z_range(name) == want
    text = _ref_text(ring, num) if _is_unit_den((num, den)) else f"({_ref_text(ring, num)}) / ({_ref_text(ring, den)})"
    assert text_form(a) == text
    assert parse(ring, text) == a
    assert scalar_to_json(a) == {"num": _ref_json(num), "den": _ref_json(den)}
    assert scalar_from_json(ring, scalar_to_json(a)) == a
    if _is_unit_den(ra):
        assert num == ra[0]


def test_exponents_beyond_the_packed_range_raise():
    """|e| < 2^20 is stored; a product, a power, a constructor, JSON, text
    or a substitution that reaches 2^20 raises ValueError instead of
    aliasing a key."""
    R = rs_ring()
    top = R.atom("r", _LIMIT - 1)
    assert _tuples(R, (top * R.atom("s", -(_LIMIT - 1))).inv()._num) == {(-(_LIMIT - 1), _LIMIT - 1): 1}
    half = R.atom("r", _NEAR)
    for make in (
        lambda: half * half,
        lambda: half / R.atom("r", -_NEAR),
        lambda: R.atom("r") ** _LIMIT,
        lambda: R.atom("r", -_NEAR) ** 2,
        lambda: R.atom("r", _LIMIT),
        lambda: R.mono(s=Fraction(_LIMIT, 2)),
        lambda: parse(R, f"1 * r^{_NEAR}"),
        lambda: scalar_from_json(R, {"num": [{"coeff": "1", "exps": [_LIMIT, 0]}], "den": [{"coeff": "1", "exps": [0, 0]}]}),
        lambda: scalar_from_json(R, {"num": [{"coeff": "1", "exps": [0, -_LIMIT]}], "den": [{"coeff": "1", "exps": [0, 0]}]}),
        lambda: SMatrix.identity(R, 1).scale(half) @ SMatrix.identity(R, 1).scale(half),
        lambda: substitute(half, {"r": R.atom("r", 2)}),
        lambda: substitute(R.atom("r", _NEAR - 1), {"r": R.atom("r", 3)}),
        lambda: (R.one + half) * (R.one + half) / (R.one + R.atom("s")),
    ):
        with pytest.raises(ValueError, match="range"):
            make()
    # 2^20 − 1 still works, on both sides, through the same paths
    assert half * R.atom("r", _NEAR - 1) == top
    assert half / R.atom("r", 1 - _NEAR) == top
    assert R.atom("r") ** (_LIMIT - 1) == top
    assert scalar_from_json(R, {"num": [{"coeff": "1", "exps": [_LIMIT - 1, 0]}], "den": [{"coeff": "1", "exps": [0, 0]}]}) == top
    low = {"num": [{"coeff": "1", "exps": [0, -(_LIMIT - 1)]}], "den": [{"coeff": "1", "exps": [0, 0]}]}
    assert scalar_from_json(R, low) == R.atom("s", -(_LIMIT - 1))
    assert parse(R, text_form(top)) == top
    assert substitute(R.atom("r", _NEAR - 1), {"r": R.atom("r", 2)}) == R.atom("r", _LIMIT - 2)
    # a term whose image bound passes 2^20 while its exponent stays in range
    a = _NEAR - 1
    assert substitute(R.atom("r", a) * R.atom("s", a), {"r": R.atom("r", 2), "s": R.atom("r", -2)}) == R.one


def test_exact_division_refuses_a_remainder():
    """Exact division on the packed 32-bit digits: (x² − 1)/(x + 1) = x − 1
    and (x²y − y)/(xy + y) = x − 1, while (x + 1)/x and x/y leave a
    remainder and raise."""
    x, y = 1, 1 << 32  # the packed exponents of r^(1/2) and s^(1/2)
    assert scalars._pdivexact({2 * x: 1, 0: -1}, {x: 1, 0: 1}, 2) == {x: 1, 0: -1}
    assert scalars._pdivexact({2 * x + y: 1, y: -1}, {x + y: 1, y: 1}, 2) == {x: 1, 0: -1}
    for num, den in (({x: 1, 0: 1}, {x: 1}), ({x: 1}, {y: 1})):
        with pytest.raises(ArithmeticError, match="inexact"):
            scalars._pdivexact(num, den, 2)


# -- cancellation against the factor set ----------------------------------------


def test_cyclotomic_polynomials():
    """Φ_k for k ≤ 6 is the table the shared denominator draw uses, and
    for k ≤ 36 the Φ_d over the divisors d of k multiply to t^k − 1."""
    for k, phi in CYCLOTOMIC.items():
        assert scalars._cyclotomic(k) == {e: c for e, c in enumerate(phi) if c}
    for k in range(1, 37):
        prod = {(0,): 1}
        for d in range(1, k + 1):
            if k % d == 0:
                prod = tuple_mul(prod, {(e,): c for e, c in scalars._cyclotomic(d).items()})
                assert max(scalars._cyclotomic(d)) == scalars._totient(d)
        assert prod == {(k,): 1, (0,): -1}, k


_OUTSIDE = ["1 * r^1 + 2", "1 * r^1/2 + -3 * s^1/2"]


@pytest.mark.parametrize("text", _OUTSIDE)
def test_a_denominator_outside_the_factor_set_raises(text):
    """r + 2 and r^(1/2) − 3s^(1/2) have a factor that is no cyclotomic
    form: every way in, division, inversion, the constructor, parse and
    JSON, raises ValueError, also when the numerator is a multiple of it."""
    R = rs_ring()
    den = parse(R, text)
    num = R.mono(r=1) + R.one
    as_json = lambda x: scalar_to_json(x)["num"]
    for make in (
        lambda: num / den,
        lambda: (num * den) / den,
        den.inv,
        lambda: den**-2,
        lambda: Scalar(R, dict(num._num), dict(den._num)),
        lambda: parse(R, f"({text_form(num)}) / ({text})"),
        lambda: scalar_from_json(R, {"num": as_json(num), "den": as_json(den)}),
    ):
        with pytest.raises(ValueError, match="not a product of cyclotomic forms"):
            make()


@pytest.mark.parametrize("d", [100, 400, 1000])
def test_a_denominator_that_is_not_its_own_reflection_builds_no_form(d):
    """r^(d/2) + 2 is not ± its own reflection, as every product of the forms
    is, so it is refused before any Φ_k is built: the table of cyclotomic
    polynomials gains no entry, whatever the degree."""
    R = rs_ring()
    before = dict(scalars._CYCLOTOMIC)
    with pytest.raises(ValueError, match="not a product of cyclotomic forms"):
        R.one / (R.atom("r", d) + 2)
    assert scalars._CYCLOTOMIC == before


def test_a_palindromic_denominator_outside_the_factor_set_raises():
    """r + 3r^(1/2) + 1 is its own reflection but no product of the forms, so
    it passes the reflection test and is refused by the factor search."""
    R = rs_ring()
    with pytest.raises(ValueError, match="not a product of cyclotomic forms"):
        R.one / (R.atom("r", 2) + 3 * R.atom("r") + 1)


def test_each_form_cancels_up_to_its_multiplicity():
    """Forms of one variable, of two and of r, s together with z, each
    cancelled as often as numerator and denominator share it."""
    R = _R3
    r, s, z = R.atom("r"), R.atom("s"), R.atom("z")
    phi3 = lambda u, v: u * u + u * v + v * v
    forms = [r - s, r + s, r * r + s * s, phi3(r, s), z + 1, phi3(z, R.one), z - s, phi3(r, z)]
    for f in forms:
        for g in forms:
            x = (f**3 * g) / (f**2 * g**2 * R.mono(3, r=1))
            want = f / (g * R.mono(3, r=1))
            assert (x._num, x._den) == (want._num, want._den), (f, g)
    assert (R.mono(r=1) - R.mono(s=1)) / (r - s) == r + s


_PDIVEXACT = scalars._pdivexact


def _no_division(a, b, nv):
    """Reduces a residue polynomial of degree below k (one variable), and
    refuses any division in the two-variable ring."""
    if nv != 1:
        raise AssertionError("a long division ran")
    return _PDIVEXACT(a, b, nv)


@pytest.mark.parametrize("case", ["gap", "sum"])
def test_a_form_that_does_not_divide_costs_no_division(monkeypatch, case):
    """Numerators with degree gaps near 2^19 over r^(1/2) + s^(1/2): the
    form does not divide, which the exponents mod 2 show, so no long
    division runs (one would take a step per unit of degree).  The sum is
    (r^(2^18)s^(1/2) + 1)/(r^(1/2) + s^(1/2)) + (r^(−2^18) + s^(1/2))/(r^(1/2) + s^(1/2))."""
    R = rs_ring()
    rh, sh = R.atom("r"), R.atom("s")
    den = rh + sh
    big = 2**19
    R.one / den  # the denominator's factors, memoized before the sentinel
    monkeypatch.setattr(scalars, "_pdivexact", _no_division)
    if case == "gap":
        num = R.atom("r", big) + R.atom("s", big) + 3 * rh * R.atom("s", big - 1)
        got = num / den
    else:
        num = R.atom("r", big) * sh + 1 + R.atom("r", -big) + sh
        got = (R.atom("r", big) * sh + 1) / den + (R.atom("r", -big) + sh) / den
    monkeypatch.undo()
    assert (got._num, got._den) == (num._num, den._num)
    assert got * den == num


# -- JSON coefficients ------------------------------------------------------------


def _coeff_by_fraction(text):
    c = Fraction(text)
    return scalars._cdiv(c.numerator, c.denominator)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789-+/._ e", max_size=8), st.from_regex(r"-?\d{1,30}", fullmatch=True)))
def test_coefficient_strings_read_as_fraction_reads_them(text):
    """A string of ASCII digits, with a minus sign or not, is read by int;
    every string gives what Fraction gives, value and type, or its error."""
    try:
        want = _coeff_by_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        with pytest.raises(type(err)):
            scalars._coeff(text)
        return
    got = scalars._coeff(text)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("text", ["7", "-12", "007", "-0", "+3", " 4", "1_000", "٣", "6/3", "-3/2", "2.50"])
def test_coefficient_strings_on_fixed_inputs(text):
    want = _coeff_by_fraction(text)
    got = scalars._coeff(text)
    assert got == want and type(got) is type(want)
