"""The free-algebra Hopf pairing oracle against the closed forms and the
recursion for the per-root constants; orthogonality of ordered monomials."""

from __future__ import annotations



import pytest

from conftest import order, ring, rsys
from rsqg.pairing import (
    HalfElement,
    PairingContext,
    PairingOracle,
    abstract_root_vector,
    c_gamma,
    check_oracle_range,
    closed_form_pairing,
    p_max,
    pairing_power,
    verify_pairing_constants,
    verify_pbw_orthogonality,
)
from rsqg.rootdata import omega_pairing
from rsqg.scalars import rs_factorial


@pytest.fixture(scope="module")
def a2():
    rs = rsys("A", 2)
    return rs, ring(), order("A", 2), PairingOracle(rs, ring())


def test_generator_values(a2):
    rs, R, o, orc = a2
    f1 = HalfElement.letter("minus", rs, R, 1)
    e1 = HalfElement.letter("plus", rs, R, 1)
    e2 = HalfElement.letter("plus", rs, R, 2)
    assert orc.hopf_pair(f1, e1) == (R.mono(s=1) - R.mono(r=1)).inv()
    assert orc.hopf_pair(f1, e2).is_zero()


def test_cartan_pairing(a2):
    rs, R, o, orc = a2
    for lam in ((1, 0), (0, 1), (1, 1), (2, 1)):
        for mu in ((1, 0), (0, 1), (1, 2)):
            y = HalfElement.cartan("minus", rs, R, lam)
            x = HalfElement.cartan("plus", rs, R, mu)
            assert orc.hopf_pair(y, x) == omega_pairing(rs, R, lam, mu)


from hypothesis import given, settings
from hypothesis import strategies as st

_words = st.lists(st.integers(1, 2), min_size=1, max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(_words, _words)
def test_degree_mismatch_vanishes(fw, ew):
    rs = rsys("A", 2)
    orc = PairingOracle(rs, ring())
    if sorted(fw) != sorted(ew):
        assert orc.pair_words(fw, ew).is_zero()
    else:
        # matching degree: the scaled pairing is a genuine Laurent polynomial
        assert orc._pair_scaled(fw, ew).den_is_one()


def test_bilinearity(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    rv = abstract_root_vector(o, g12, R)
    f1f2 = HalfElement.letter("minus", rs, R, 2) * HalfElement.letter("minus", rs, R, 1)
    c = R.mono(r=2, s=-1)
    lhs = orc.hopf_pair(rv.f.scale(c) + f1f2, rv.e)
    rhs = c * orc.hopf_pair(rv.f, rv.e) + orc.hopf_pair(f1f2, rv.e)
    assert lhs == rhs


def test_abstract_root_vector_a_type(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    rv = abstract_root_vector(o, g12, R)
    zero_c = (0, 0)
    # e = e_1 e_2 - (ω'_2, ω_1) e_2 e_1 with (ω'_2, ω_1) = s
    assert rv.e.terms == {((1, 2), zero_c): R.one, ((2, 1), zero_c): -R.mono(s=1)}
    simple = abstract_root_vector(o, rs.by_label[("g", 1, 1)], R)
    assert simple.e.terms == {((1,), zero_c): R.one}


def test_pairing_power_values(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    one_minus = (R.mono(r=1) - R.mono(s=1)).inv()
    assert pairing_power(orc, o, g12, 0).is_one()
    assert pairing_power(orc, o, g12, 1) == -one_minus
    # m = 2: s^{-1} [2]! / (r-s)^2
    expect = R.mono(s=-1) * rs_factorial(R, 2) * (one_minus**2)
    assert pairing_power(orc, o, g12, 2) == expect


def test_pairing_power_guard(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    with pytest.raises(ValueError):
        pairing_power(orc, o, g12, 5)
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"m={m}"):
            check_oracle_range(m, g12.height)
    # m = 0 is returned before the range check
    assert pairing_power(orc, o, g12, 0).is_one()
    assert PairingContext(o, R).power_pairing(g12, 0).is_one()


def test_b2_constants_match_printed():
    R = ring()
    rs = rsys("B", 2)
    o = order("B", 2)
    orc = PairingOracle(rs, R)
    # (f_{β_{ij}}, e_{β_{ij}}) at m=1: -[2]² (rs)^{-2(n-j)} / (r²-s²)
    beta12 = rs.by_label[("b", 1, 2)]
    two = R.mono(r=1) + R.mono(s=1)
    expect = -(two**2) / (R.mono(r=2) - R.mono(s=2))
    assert pairing_power(orc, o, beta12, 1) == expect
    assert c_gamma(o, beta12, R) == expect
    c2 = rsys("C", 2)
    oc2 = order("C", 2)
    occ = PairingOracle(c2, R)
    gnn = c2.by_label[("g", 2, 2)]
    assert pairing_power(occ, oc2, gnn, 1) == -(R.mono(r=2) - R.mono(s=2)).inv()


def test_p_max():
    b2 = rsys("B", 2)
    a1 = b2.by_label[("g", 1, 1)]
    a2_ = b2.by_label[("g", 2, 2)]
    g12 = b2.by_label[("g", 1, 2)]
    assert p_max(b2, a1, a2_) == 0
    assert p_max(b2, g12, a2_) == 1  # γ_12 - α_2 = α_1 is a root


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)])
def test_constants_all_routes(family, rank):
    out = verify_pairing_constants(rsys(family, rank), ring(), order(family, rank), max_m=2)
    assert out.ok(), [it.witness for it in out.items]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_pbw_orthogonality(family, rank):
    out = verify_pbw_orthogonality(rsys(family, rank), ring(), order(family, rank), 3)
    assert out.ok(), [it.witness for it in out.items]


def test_off_diagonal_example():
    """(f_{γ_12}, e_{α_1} e_{α_2}-type monomial) vanishes off the diagonal."""
    R = ring()
    rs = rsys("A", 2)
    o = order("A", 2)
    orc = PairingOracle(rs, R)
    g12 = rs.by_label[("g", 1, 2)]
    rv = abstract_root_vector(o, g12, R)
    # the ordered monomial e_{α_2} e_{α_1} (decreasing order) with exponents (1,0,1)
    mono = PairingContext(o, R).monomial((1, 0, 1), "plus")
    assert orc.hopf_pair(rv.f, mono).is_zero()


def test_smash_product_normal_ordering():
    """Multiplying Cartan-carrying terms picks up the commutation factor."""
    R = ring()
    rs = rsys("A", 2)
    om1 = HalfElement.cartan("plus", rs, R, (1, 0))
    e2 = HalfElement.letter("plus", rs, R, 2)
    prod = om1 * e2
    ((key, coeff),) = prod.terms.items()
    assert key == ((2,), (1, 0))
    assert coeff == omega_pairing(rs, R, (0, 1), (1, 0))  # (ω'_{α_2}, ω_{α_1})


# -- hopf_pair sums per degree and divides once --------------------------------


def _termwise(orc, y, x):
    """Σ cy·cx·(ω'_κ, ω_ν)·(fw, ew) term pair by term pair, through pair_words."""
    acc = orc.ring.zero
    for (fw, kap), cy in y.terms.items():
        for (ew, nu), cx in x.terms.items():
            acc = acc + cy * cx * omega_pairing(orc.rs, orc.ring, kap, nu) * orc.pair_words(fw, ew)
    return acc


def test_mixed_degrees_pair_termwise(a2):
    rs, R, o, orc = a2
    f1, f2 = (HalfElement.letter("minus", rs, R, i) for i in (1, 2))
    e1, e2 = (HalfElement.letter("plus", rs, R, i) for i in (1, 2))
    y = f1 + f1 * f2 + HalfElement.cartan("minus", rs, R, (1, 0))
    x = e1 + e2 * e1
    got = orc.hopf_pair(y, x)
    assert got == _termwise(orc, y, x)
    # (f1, e1) + (f1 f2, e2 e1); the Cartan term pairs with no word of x
    assert got == orc.pair_words((1,), (1,)) + orc.pair_words((1, 2), (2, 1))
    assert not got.is_zero()


def _half_elements(side):
    rs, R = rsys("B", 2), ring()
    term = st.tuples(
        st.lists(st.integers(1, 2), max_size=3).map(tuple),
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
        st.sampled_from([R.one, -R.mono(r=1, s=-2), R.num(3), R.mono(r=1) + R.mono(s=1)]),
    )

    def build(terms):
        acc = HalfElement(side, rs, R, {})
        for word, cartan, c in terms:
            acc = acc + HalfElement(side, rs, R, {(word, cartan): c})
        return acc

    return st.lists(term, max_size=4).map(build)


@settings(max_examples=40, deadline=None)
@given(_half_elements("minus"), _half_elements("plus"))
def test_hopf_pair_is_the_termwise_sum(y, x):
    orc = PairingOracle(rsys("B", 2), ring())
    assert orc.hopf_pair(y, x) == _termwise(orc, y, x)


# -- the suffix-aggregated oracle against the term-by-term reference -----------

# degrees (letter multisets) shared by the words of both sides, so that most
# drawn pairs meet in a degree
_DEGREES = {("C", 3): [(1, 2, 3), (2, 3, 3), (1, 2, 2, 3)], ("D", 4): [(1, 2, 3), (2, 3, 4), (1, 2, 3, 4)]}


def _same_degree_element(data, side, family, rank):
    rs, R = rsys(family, rank), ring()
    coeffs = [R.one, -R.mono(r=1, s=-2), R.num(3), R.mono(r=1) + R.mono(s=1)]
    acc = HalfElement(side, rs, R, {})
    for _ in range(data.draw(st.integers(1, 4))):
        deg = data.draw(st.sampled_from(_DEGREES[(family, rank)]))
        word = tuple(data.draw(st.permutations(deg)))
        cartan = tuple(data.draw(st.integers(-1, 1)) for _ in range(rank))
        acc = acc + HalfElement(side, rs, R, {(word, cartan): data.draw(st.sampled_from(coeffs))})
    return acc


@pytest.mark.parametrize("family,rank", [("C", 3), ("D", 4)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_aggregated_hopf_pair_is_the_termwise_sum(family, rank, data):
    y = _same_degree_element(data, "minus", family, rank)
    x = _same_degree_element(data, "plus", family, rank)
    orc = PairingOracle(rsys(family, rank), ring())
    assert orc.hopf_pair(y, x) == _termwise(orc, y, x)


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 5)])
def test_aggregated_hopf_pair_matches_the_closed_form_on_the_highest_root(family, rank):
    rs, R = rsys(family, rank), ring()
    top = max(rs.positive, key=lambda rt: rt.height)
    rv = abstract_root_vector(order(family, rank), top, R)
    got = PairingOracle(rs, R).hopf_pair(rv.f, rv.e)
    assert got == closed_form_pairing(rs, R, top, 1)
    assert got == c_gamma(order(family, rank), top, R)


@pytest.mark.parametrize("family", ["B", "C"])
def test_pairing_constants_at_rank_6(family):
    """The highest root has height 11, the top of the oracle's range."""
    out = verify_pairing_constants(rsys(family, 6), ring(), order(family, 6), max_m=2)
    assert out.ok(), [it.witness for it in out.items]


def test_pairing_context_shares_its_values():
    """Root vectors, powers, oracle values and c_γ are computed once per
    context, and agree with the standalone functions."""
    R, o = ring(), order("B", 2)
    pc = PairingContext(o, R)
    top = max(o.roots, key=lambda rt: rt.height)
    assert pc.root_vector(top) is pc.root_vector(top)
    assert pc.power(top, 2, "plus") is pc.power(top, 2, "plus")
    assert pc.power_pairing(top, 1) is pc.power_pairing(top, 1)
    assert pc.power_pairing(top, 2) == pairing_power(PairingOracle(rsys("B", 2), R), o, top, 2)
    assert pc.c_gamma(top) is pc.c_gamma(top)
    assert pc.c_gamma(top) == c_gamma(o, top, R)
    assert pc.root_vector(top).e.terms == abstract_root_vector(o, top, R).e.terms
