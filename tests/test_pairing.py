"""The pairing engine on the quantum-shuffle image of U⁺ against the
term-by-term reference, the closed forms and the recursion for the per-root
constants; orthogonality of ordered monomials."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_tower, oracle, order, reference_pairing, ring, rsys
from rsqg.pairing import (
    PairingContext,
    WordSum,
    c_gamma,
    check_oracle_range,
    closed_form_pairing,
    p_max,
    pbw_monomials,
    verify_pairing_constants,
    verify_pbw_orthogonality,
)
from rsqg.scalars import rs_factorial


@pytest.fixture(scope="module")
def a2():
    return rsys("A", 2), ring(), order("A", 2), oracle("A", 2)


def test_generator_values(a2):
    rs, R, o, orc = a2
    one = R.one
    assert orc.hopf_pair({(1,): one}, {(1,): one}) == (R.mono(s=1) - R.mono(r=1)).inv()
    assert orc.hopf_pair({(1,): one}, {(2,): one}).is_zero()
    pc = PairingContext(o, R)
    a1 = (0, 0, 1)  # exponents over the decreasing order: α_1 is the least root
    assert pc.pair_monomials(a1, a1) == (R.mono(s=1) - R.mono(r=1)).inv()
    assert pc.pair_monomials(a1, (1, 0, 0)).is_zero()


_words = st.lists(st.integers(1, 2), min_size=1, max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(_words, _words)
def test_degree_mismatch_vanishes(fw, ew):
    orc = oracle("A", 2)
    if sorted(fw) != sorted(ew):
        assert orc.pair_words(fw, ew).is_zero()
    else:
        # matching degree: the scaled pairing is a genuine Laurent polynomial
        assert orc._pair_scaled(fw, ew).den_is_one()


def test_bilinearity(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    f, e = free_tower("A", 2, "f")[g12.alpha], free_tower("A", 2, "e")[g12.alpha]
    f2f1 = WordSum({(2, 1): R.one})
    c = R.mono(r=2, s=-1)
    lhs = orc.hopf_pair(f.scale(c) - f2f1, e)
    rhs = c * orc.hopf_pair(f, e) - orc.hopf_pair(f2f1, e)
    assert lhs == rhs


def test_root_vector_words_a_type(a2):
    """e_{γ_12} = e_1 e_2 − s·e_2 e_1 in the free algebra; its shuffle image
    is the one word [12], with coefficient 1 − s r⁻¹."""
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    assert free_tower("A", 2, "e")[g12.alpha] == {(1, 2): R.one, (2, 1): -R.mono(s=1)}
    pc = PairingContext(o, R)
    assert pc.power(g12, 1) == {(1, 2): R.one - R.mono(r=-1, s=1)}
    assert pc.power(rs.by_label[("g", 1, 1)], 1) == {(1,): R.one}


def test_f_coefficients_are_the_free_words(a2):
    """f_γ's coefficient at each word, by the concatenation recursion, is its
    coefficient in the free-algebra expansion, and 0 off its support."""
    for family, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        pc = PairingContext(order(family, rank), ring())
        for rt in rsys(family, rank).positive:
            for word, coeff in free_tower(family, rank, "f")[rt.alpha].items():
                assert pc.f_coefficient(rt, word) == coeff
                assert pc.f_coefficient(rt, word[::-1]) == free_tower(family, rank, "f")[rt.alpha].get(word[::-1], 0)


def test_pairing_power_values(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    pc = PairingContext(o, R)
    one_minus = (R.mono(r=1) - R.mono(s=1)).inv()
    assert pc.power_pairing(g12, 0).is_one()
    assert pc.power_pairing(g12, 1) == -one_minus
    # m = 2: s^{-1} [2]! / (r-s)^2
    expect = R.mono(s=-1) * rs_factorial(R, 2) * (one_minus**2)
    assert pc.power_pairing(g12, 2) == expect


def test_pairing_power_guard(a2):
    rs, R, o, orc = a2
    g12 = rs.by_label[("g", 1, 2)]
    pc = PairingContext(o, R)
    with pytest.raises(ValueError):
        pc.power_pairing(g12, 5)
    for m in (0, -3, 4):
        with pytest.raises(ValueError, match=f"m={m}"):
            check_oracle_range("A", m, g12.height)
    # m = 0 is returned before the range check
    assert pc.power_pairing(g12, 0).is_one()


def test_b2_constants_match_printed():
    R = ring()
    rs = rsys("B", 2)
    o = order("B", 2)
    # (f_{β_{ij}}, e_{β_{ij}}) at m=1: -[2]² (rs)^{-2(n-j)} / (r²-s²)
    beta12 = rs.by_label[("b", 1, 2)]
    two = R.mono(r=1) + R.mono(s=1)
    expect = -(two**2) / (R.mono(r=2) - R.mono(s=2))
    assert PairingContext(o, R).power_pairing(beta12, 1) == expect
    assert c_gamma(o, beta12, R) == expect
    c2 = rsys("C", 2)
    gnn = c2.by_label[("g", 2, 2)]
    assert PairingContext(order("C", 2), R).power_pairing(gnn, 1) == -(R.mono(r=2) - R.mono(s=2)).inv()


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
    """(f_{γ_12}, e_{α_2} e_{α_1}) vanishes off the diagonal, in the engine
    and term by term."""
    R = ring()
    g12_alone, e2e1 = (0, 1, 0), (1, 0, 1)  # over the decreasing order α_2, γ_12, α_1
    assert PairingContext(order("A", 2), R).pair_monomials(g12_alone, e2e1).is_zero()
    assert reference_pairing("A", 2, g12_alone, e2e1).is_zero()


def test_mixed_degrees_pair_termwise(a2):
    rs, R, o, orc = a2
    y = {(1,): R.one, (1, 2): R.one}
    x = {(1,): R.one, (2, 1): R.one}
    got = orc.hopf_pair(y, x)
    # (f1, e1) + (f1 f2, e2 e1); words of different degrees pair to 0
    assert got == orc.pair_words((1,), (1,)) + orc.pair_words((1, 2), (2, 1))
    assert not got.is_zero()


# -- the engine against the term-by-term reference -----------------------------


def _word_image(pc, word):
    """Φ(e_word), as the shuffle product of its letters."""
    out = WordSum({(): pc.ring.one})
    for letter in word:
        out = pc.shuffle(out, WordSum({(letter,): pc.ring.one}))
    return out


def _engine_pair(pc, y, x):
    """Σ_u y[u]·Φ(x)[u] / Π(s_i − r_i)^{k_i}, with Φ(x) from the shuffles of
    the letters of each word of x."""
    image = WordSum()
    for w, c in x.items():
        for u, t in _word_image(pc, w).items():
            image.add(u, c * t)
    acc = pc.ring.zero
    for u, c in y.items():
        if u in image:
            acc = acc + c * image[u] / oracle(pc.order.rs.family, pc.order.rs.n)._degree_denom(u)
    return acc


# degrees (letter multisets) shared by the words of both sides, so that most
# drawn pairs meet in a degree
_DEGREES = {
    ("B", 2): [(1, 2), (1, 2, 2), (1, 1, 2)],
    ("C", 3): [(1, 2, 3), (2, 3, 3), (1, 2, 2, 3)],
    ("D", 4): [(1, 2, 3), (2, 3, 4), (1, 2, 3, 4)],
}


def _same_degree_words(data, family, rank):
    R = ring()
    coeffs = [R.one, -R.mono(r=1, s=-2), R.num(3), R.mono(r=1) + R.mono(s=1)]
    acc = WordSum()
    for _ in range(data.draw(st.integers(1, 4))):
        word = tuple(data.draw(st.permutations(data.draw(st.sampled_from(_DEGREES[(family, rank)])))))
        acc.add(word, data.draw(st.sampled_from(coeffs)))
    return acc


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3), ("D", 4)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_shuffle_image_pairs_like_the_termwise_reference(family, rank, data):
    """Φ is multiplicative for the twisted shuffle: pairing a word
    combination y against the shuffle image of x is the term-by-term
    pairing (y, x)."""
    y = _same_degree_words(data, family, rank)
    x = _same_degree_words(data, family, rank)
    pc = PairingContext(order(family, rank), ring())
    assert _engine_pair(pc, y, x) == oracle(family, rank).hopf_pair(y, x)


REFERENCE_CASES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("family,rank", REFERENCE_CASES)
def test_power_pairings_match_the_reference(family, rank):
    """Every (f_γ^m, e_γ^m) that pairing-constants asks of the engine."""
    pc = PairingContext(order(family, rank), ring())
    roots = order(family, rank).decreasing()
    for gamma in roots:
        for m in range(1, 3 if 2 * gamma.height <= 6 else 2):
            exps = tuple(m if rt == gamma else 0 for rt in roots)
            assert pc.power_pairing(gamma, m) == reference_pairing(family, rank, exps, exps), (gamma.label(), m)


@pytest.mark.parametrize("family,rank,height", [("A", 2, 3), ("B", 2, 3), ("A", 3, 4), ("B", 3, 4), ("C", 3, 4), ("D", 4, 4)])
def test_monomial_pairings_match_the_reference(family, rank, height):
    """Every same-degree pair of ordered monomials up to ``height``."""
    pc = PairingContext(order(family, rank), ring())
    by_degree: dict = {}
    for exps in pbw_monomials(order(family, rank), height):
        by_degree.setdefault(pc.degree(exps), []).append(exps)
    for monos in by_degree.values():
        for fexps in monos:
            for eexps in monos:
                assert pc.pair_monomials(fexps, eexps) == reference_pairing(family, rank, fexps, eexps), (fexps, eexps)


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 5)])
def test_engine_matches_the_closed_form_on_the_highest_root(family, rank):
    rs, R = rsys(family, rank), ring()
    top = max(rs.positive, key=lambda rt: rt.height)
    got = PairingContext(order(family, rank), R).power_pairing(top, 1)
    assert got == closed_form_pairing(rs, R, top, 1)
    assert got == c_gamma(order(family, rank), top, R)


@pytest.mark.parametrize("family", ["B", "C"])
def test_pairing_constants_at_rank_6(family):
    """The highest root has height 11, the top of the previous oracle's
    range."""
    out = verify_pairing_constants(rsys(family, 6), ring(), order(family, 6), max_m=2)
    assert out.ok(), [it.witness for it in out.items]


def test_pairing_context_shares_its_values():
    """Shuffle images, powers, engine values and c_γ are computed once per
    context, and agree with the reference and the standalone functions."""
    R, o = ring(), order("B", 2)
    pc = PairingContext(o, R)
    top = max(o.roots, key=lambda rt: rt.height)
    assert pc.power(top, 1) is pc.power(top, 1)
    assert pc.power(top, 2) is pc.power(top, 2)
    assert pc.power_pairing(top, 1) is pc.power_pairing(top, 1)
    exps = tuple(2 if rt == top else 0 for rt in o.decreasing())
    assert pc.power_pairing(top, 2) == reference_pairing("B", 2, exps, exps)
    assert pc.c_gamma(top) is pc.c_gamma(top)
    assert pc.c_gamma(top) == c_gamma(o, top, R)
