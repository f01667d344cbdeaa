"""Sparse matrices and tensor conventions, and the matmul/kron/mat-vec
kernel against entrywise Scalar arithmetic."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case, denominators, flip_map, r_of, spectral_factors, v3_sides
from rsqg import matrices
from rsqg.matrices import (
    Packing,
    SMatrix,
    _combine_columns,
    kron,
    mat_vec,
    pack_terms,
    pair_actions,
    read_back,
    scalar_of,
    unpack_terms,
)
from rsqg.scalars import _unpack_exps, rs_ring


@pytest.fixture(scope="module")
def R():
    return rs_ring()


def _scalars(ring, vec: dict) -> dict:
    """A vector of kernel values read as Scalars."""
    return {i: scalar_of(ring, x) for i, x in vec.items()}


def _read(chain, vec: dict) -> dict:
    """A vector of packed values of a chain of actions read as Scalars."""
    return {i: read_back(chain, x) for i, x in vec.items()}


def _packed_basis(k: int) -> dict:
    """The basis vector v_k of V⊗V⊗V as packed values: 1 packs to {0: 1}."""
    return {k: {0: 1}}


def test_flattening_convention(R):
    """(X ⊗ Y)(v_a ⊗ v_b) = Xv_a ⊗ Yv_b with index (i-1)N + j."""
    N = 3
    x = SMatrix.from_entries(R, N, N, [(0, 1, R.mono(r=1))])  # E_12 scaled by r
    y = SMatrix.from_entries(R, N, N, [(2, 0, R.one)])  # E_31
    k = kron(x, y)
    vec = {1 * N + 0: R.one}  # v_2 ⊗ v_1
    out = mat_vec(k, vec)
    assert out == {0 * N + 2: R.mono(r=1)}  # r · v_1 ⊗ v_3


def test_flip(R):
    N = 3
    tau = flip_map(R, N)
    for a in range(N):
        for b in range(N):
            assert mat_vec(tau, {a * N + b: R.one}) == {b * N + a: R.one}
    assert tau @ tau == SMatrix.identity(R, N * N)


def _three_factor_references(a: SMatrix, n: int) -> dict:
    """The V⊗³ matrices of A on factors (1, 2), (2, 3) and (1, 3): A ⊗ Id,
    Id ⊗ A, and A ⊗ Id conjugated by the flip of factors 2 and 3."""
    ident = SMatrix.identity(a.ring, n)
    mid_flip = kron(ident, flip_map(a.ring, n))
    return {(1, 2): kron(a, ident), (2, 3): kron(ident, a), (1, 3): mid_flip @ kron(a, ident) @ mid_flip}


def test_acting_on_three_factors(R):
    N = 2
    x = SMatrix.from_entries(R, N, N, [(0, 1, R.one)])
    a = kron(x, x)

    def basis(i, j, k):
        return {(i * N + j) * N + k: R.one}

    ref = _three_factor_references(a, N)
    assert mat_vec(ref[1, 2], basis(1, 1, 0)) == basis(0, 0, 0)
    assert mat_vec(ref[2, 3], basis(0, 1, 1)) == basis(0, 0, 0)
    assert mat_vec(ref[1, 3], basis(1, 0, 1)) == basis(0, 0, 0)
    assert mat_vec(ref[1, 3], basis(1, 1, 0)) == {}
    for factors, k in (((1, 2), 6), ((2, 3), 3), ((1, 3), 5)):
        (act,) = pair_actions(N, [(a, factors)])
        assert _read([act], act(_packed_basis(k))) == basis(0, 0, 0)
    assert pair_actions(N, [(a, (1, 3))])[0](_packed_basis(6)) == {}


def test_matmul_and_scale(R):
    m = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1)), (0, 1, R.one), (1, 1, R.mono(s=1))])
    ident = SMatrix.identity(R, 2)
    assert m @ ident == m
    assert m.scale(R.zero).is_zero()
    assert (m - m).is_zero()


def test_diagonal_helpers(R):
    d = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=2)), (1, 1, R.mono(r=-1, s=3))])
    assert d.diagonal_sqrt() @ d.diagonal_sqrt() == d
    assert d.diagonal_inv() @ d == SMatrix.identity(R, 2)
    nd = SMatrix.from_entries(R, 2, 2, [(0, 1, R.one), (0, 0, R.one), (1, 1, R.one)])
    with pytest.raises(ValueError):
        nd.diagonal_sqrt()


def test_substituted(R):
    ring_z = rs_ring("z")
    m = SMatrix.from_entries(ring_z, 2, 2, [(0, 0, ring_z.atom("z") - ring_z.one)])
    at_one = m.substituted({"z": ring_z.one})
    assert at_one.is_zero()


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a @ b,
        kron,
    ],
    ids=["add", "sub", "matmul", "kron"],
)
def test_operands_over_different_rings_are_rejected(R, op):
    other = rs_ring("z")
    a = SMatrix.identity(R, 2)
    b = SMatrix.identity(other, 2)
    with pytest.raises(ValueError, match="mixing matrices"):
        op(a, b)
    with pytest.raises(ValueError, match="mixing matrices"):
        op(b, a)
    assert op(a, SMatrix.identity(rs_ring(), 2)).ring == R  # an equal ring is the same ring


def test_products_of_separately_built_operators_stay_on_the_kernel(monkeypatch):
    """Two builds of R̂ make their rings apart; the rings are one object, so
    every Laurent entry of one is Laurent on the other's ring and their
    product forms no Scalar product."""
    from rsqg import scalars
    from rsqg.rmatrix import build_rhat_explicit

    a, b = build_rhat_explicit("B", 5), build_rhat_explicit("B", 5)
    assert a.ring is b.ring
    mul, calls = scalars.Scalar.__mul__, []
    monkeypatch.setattr(scalars.Scalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    a @ b
    assert calls == []


def test_sum_stores_no_zero_from_either_operand(R):
    """A stored explicit zero in either operand is not copied into a sum."""
    stored = SMatrix(R, 2, 2, {0: {1: R.zero}, 1: {1: R.one}})
    other = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1))])
    expect = SMatrix.from_entries(R, 2, 2, [(0, 0, R.mono(r=1)), (1, 1, R.one)])
    assert stored + other == expect
    assert other + stored == expect
    assert (stored - SMatrix.zero(R, 2)).rows == {1: {1: R.one}}


# -- the kernel against entrywise Scalar arithmetic -----------------------------

_RINGS = [rs_ring(), rs_ring("x", "y")]


def _laurent(ring, max_terms):
    """Laurent polynomials over a small exponent box, so that products of
    different entries often share exponents and cancel."""
    exps = st.tuples(*[st.integers(-1, 1)] * ring.nvars)
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    terms = st.dictionaries(exps, coeff, min_size=1, max_size=max_terms)
    return terms.map(ring.poly)


def _entries(ring):
    """Units (the ring's own ``one`` and equal copies), monomials, Laurent
    polynomials and rational functions, with int and Fraction coefficients."""
    units = st.sampled_from([ring.one, ring.num(1), ring.mono()])
    laurent = _laurent(ring, 3)
    rational = st.tuples(laurent, denominators(ring)).map(lambda nd: nd[0] / ring.poly(nd[1]))
    return st.one_of(units, _laurent(ring, 1), laurent, laurent.map(lambda v: -v), rational)


def _matrix(draw, ring, nrows, ncols):
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    entries = draw(st.dictionaries(cells, _entries(ring), max_size=nrows * ncols))
    return SMatrix.from_entries(ring, nrows, ncols, [(i, j, v) for (i, j), v in entries.items()])


@st.composite
def _factors(draw, count=2):
    """``count`` chained matrices over one ring, each side 1 to 4."""
    ring = draw(st.sampled_from(_RINGS))
    dims = [draw(st.integers(1, 4)) for _ in range(count + 1)]
    return [_matrix(draw, ring, dims[i], dims[i + 1]) for i in range(count)]


def _expected_rows(nrows, ncols, entry) -> dict:
    rows: dict = {}
    for i in range(nrows):
        for j in range(ncols):
            v = entry(i, j)
            if not v.is_zero():
                rows.setdefault(i, {})[j] = v
    return rows


def _assert_stored_form(m: SMatrix) -> None:
    """No empty row, no zero entry, no zero coefficient in an entry, and every
    Laurent entry holds the ring's shared unit denominator."""
    for row in m.rows.values():
        assert row
        for v in row.values():
            assert v._num and all(v._num.values())
            if v.den_is_one():
                assert v._den is m.ring._one_den


@settings(max_examples=150, deadline=None)
@given(_factors())
def test_matmul_is_the_entrywise_sum_of_products(ab):
    a, b = ab

    def entry(i, j):
        acc = a.ring.zero
        for k in range(a.ncols):
            acc = acc + a.get(i, k) * b.get(k, j)
        return acc

    got = a @ b
    assert got.rows == _expected_rows(a.nrows, b.ncols, entry)
    _assert_stored_form(got)


@settings(max_examples=60, deadline=None)
@given(_factors(count=1), st.integers(1, 3))
def test_kron_with_identities_is_entrywise(factors, n):
    (a,) = factors
    ident = SMatrix.identity(a.ring, n)
    for got, entry in (
        (kron(a, ident), lambda i, j: a.get(i // n, j // n) * ident.get(i % n, j % n)),
        (kron(ident, a), lambda i, j: ident.get(i // a.nrows, j // a.ncols) * a.get(i % a.nrows, j % a.ncols)),
    ):
        assert got.rows == _expected_rows(got.nrows, got.ncols, entry)
        _assert_stored_form(got)


@pytest.mark.parametrize("ring", _RINGS, ids=["rs", "rsxy"])
def test_matmul_cancellation_stores_nothing(ring):
    """An entry whose products cancel is not stored, a row of such entries is
    not stored, and a term that cancels inside a surviving entry is gone."""
    r, s = ring.mono(r=1), ring.mono(s=1)
    a = SMatrix.from_entries(ring, 2, 2, [(0, 0, r), (0, 1, s), (1, 0, r + s), (1, 1, ring.one)])
    b = SMatrix.from_entries(ring, 2, 2, [(0, 0, s), (1, 0, -r), (0, 1, r - s), (1, 1, s * s)])
    got = a @ b
    # row 0: r·s - s·r = 0 and r·(r - s) + s·s^2
    # row 1: (r + s)·s - r and (r + s)(r - s) + s^2 = r^2, its r·s terms cancelled
    assert got.rows == {
        0: {1: r * r - r * s + s**3},
        1: {0: r * s + s * s - r, 1: r * r},
    }
    _assert_stored_form(got)
    row = SMatrix.from_entries(ring, 1, 2, [(0, 0, r), (0, 1, s)])
    column = SMatrix.from_entries(ring, 2, 1, [(0, 0, s), (1, 0, -r)])
    assert (row @ column).rows == {}


@pytest.mark.parametrize("unit", ["one", "equal copy"])
def test_unit_factor_passes_the_other_coefficients_through(R, unit):
    u = R.one if unit == "one" else R.num(1)
    p = R.mono(3, r=1) - R.mono(Fraction(1, 2), s=-1)
    q = p / (R.mono(r=1) - R.mono(s=1))
    left = SMatrix.from_entries(R, 1, 2, [(0, 0, u), (0, 1, p)])
    right = SMatrix.from_entries(R, 2, 2, [(0, 0, p), (0, 1, q), (1, 1, u)])
    assert (left @ right).rows == {0: {0: p, 1: q + p}}
    assert kron(SMatrix.identity(R, 1), left).rows == left.rows
    assert kron(left, SMatrix.identity(R, 1)).rows == left.rows


def test_one_sparse_product_kernel(R, monkeypatch):
    """``A @ B`` and ``mat_vec`` are each one ``_combine_columns`` call, an
    empty product included, and ``matrices`` names ``_pmuladd`` and
    ``_paddto`` nowhere else."""
    calls = []
    kernel = matrices._combine_columns
    monkeypatch.setattr(matrices, "_combine_columns", lambda *args: calls.append(1) or kernel(*args))
    r, s = R.mono(r=1), R.mono(s=1)
    a = SMatrix.from_entries(R, 2, 3, [(0, 0, r), (0, 2, r + s), (1, 1, R.one), (1, 2, s / (r - s))])
    b = SMatrix.from_entries(R, 3, 2, [(0, 1, s), (1, 0, r * r), (2, 0, R.one), (2, 1, r - s)])
    for x, y in ((a, b), (SMatrix.zero(R, 2, 3), b), (a, SMatrix.zero(R, 3, 2))):
        calls.clear()
        x @ y
        assert len(calls) == 1
    calls.clear()
    mat_vec(a, {0: r, 2: s})
    assert len(calls) == 1

    tree = ast.parse(inspect.getsource(matrices))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "_combine_columns":
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            assert not names & {"_pmuladd", "_paddto"}, fn.name


# -- mat-vec and the action on two of three factors ------------------------------


@st.composite
def _vectors(draw, ring, dim):
    """Sparse vectors of length ``dim``, stored zero entries included."""
    values = st.one_of(_entries(ring), st.just(ring.zero))
    return draw(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mat_vec_is_the_entrywise_sum_of_products(data):
    (a,) = data.draw(_factors(count=1))
    vec = data.draw(_vectors(a.ring, a.ncols))
    expect = {}
    for i in range(a.nrows):
        acc = a.ring.zero
        for j, v in vec.items():
            acc = acc + a.get(i, j) * v
        if not acc.is_zero():
            expect[i] = acc
    got = mat_vec(a, vec)
    assert got == expect
    _assert_stored_form(SMatrix(a.ring, a.nrows, 1, {i: {0: v} for i, v in got.items()}))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_pair_action_on_every_basis_vector(family, rank):
    """On every v_a⊗v_b⊗v_c, A on two factors, read back, equals the V⊗³
    matrix that kron and the flip build, for R̂ and for R(x) = R̂(x)τ."""
    from rsqg.rmatrix import build_rhat_explicit

    r_x = spectral_factors(case(family, rank).rz)[0]
    for a in (build_rhat_explicit(family, rank), r_x):
        n = isqrt(a.nrows)
        one = a.ring.one
        for factors, ref in _three_factor_references(a, n).items():
            (act,) = pair_actions(n, [(a, factors)])
            for k in range(n**3):
                assert _read([act], act(_packed_basis(k))) == mat_vec(ref, {k: one}), (factors, k)


_FACTOR_PAIRS = ((1, 2), (2, 3), (1, 3))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_action_on_random_vectors(data):
    """Random operators A and B on V ⊗ V (dim V from 1 to 3) with
    denominators, fractions and unit entries: A on each pair of factors,
    applied to every column of B on a random pair, is read back as the
    product of the V⊗³ matrices, with both operators cleared and packed at
    the width ``pair_actions`` proves for the chain."""
    ring = data.draw(st.sampled_from(_RINGS))
    n = data.draw(st.integers(1, 3))
    a, b = _matrix(data.draw, ring, n * n, n * n), _matrix(data.draw, ring, n * n, n * n)
    inner = data.draw(st.sampled_from(_FACTOR_PAIRS))
    ref_b = _three_factor_references(b, n)[inner]
    for factors, ref in _three_factor_references(a, n).items():
        act, act_b = pair_actions(n, [(a, factors), (b, inner)])
        for k in range(n**3):
            got = _read([act, act_b], act(act_b.column(k)))
            assert got == mat_vec(ref, mat_vec(ref_b, {k: ring.one})), (factors, k)
            _assert_stored_form(SMatrix(ring, n**3, 1, {i: {0: v} for i, v in got.items()}))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_column_read_is_the_action_on_a_basis_vector(data):
    """The stored-column read equals the action on the packed basis vector
    for every basis vector, on random operators with denominators and unit
    entries, for all three factor pairs."""
    ring = data.draw(st.sampled_from(_RINGS))
    n = data.draw(st.integers(1, 3))
    a = _matrix(data.draw, ring, n * n, n * n)
    for factors in _FACTOR_PAIRS:
        (act,) = pair_actions(n, [(a, factors)])
        for k in range(n**3):
            assert act.column(k) == act(_packed_basis(k)), (factors, k)


def test_column_read_skips_a_stored_zero(R):
    a = SMatrix(R, 4, 4, {0: {0: R.zero, 1: R.one}})
    for factors in _FACTOR_PAIRS:
        (act,) = pair_actions(2, [(a, factors)])
        assert all(act.column(k) == act(_packed_basis(k)) for k in range(8))
        assert act.column(0) == {}


def test_pair_action_rejects_other_factors_and_shapes(R):
    a = SMatrix.identity(R, 4)
    for factors in ((2, 1), (1, 1), (3, 4)):
        with pytest.raises(ValueError, match="factors"):
            pair_actions(2, [(a, factors)])
    with pytest.raises(ValueError, match="does not act"):
        pair_actions(3, [(a, (1, 2))])


def _l1_bound(ops) -> int:
    """M from its definition: the product of the operators' largest column
    ℓ1 norms, for operators whose entries are Laurent polynomials with int
    coefficients."""
    m = 1
    for a in ops:
        norms: dict[int, int] = {}
        for _, j, v in a.entries():
            assert v.den_is_one() and all(type(c) is int for c in v._num.values())
            norms[j] = norms.get(j, 0) + sum(abs(c) for c in v._num.values())
        m *= max(norms.values())
    return m


# -- the packing along s ----------------------------------------------------


@st.composite
def _packable(draw):
    """(ring, terms, packing): a Laurent term dict with int coefficients of
    size below 2^(B−1), the largest sizes and negative exponents of the
    other variables included, and every exponent of s a nonnegative
    multiple of the step."""
    ring = draw(st.sampled_from(_RINGS))
    width, step = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    top = (1 << width - 1) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 1, -1]), st.integers(-top, top)).filter(bool)
    exps = st.tuples(*[st.integers(-4, 4)] * ring.nvars).map(
        lambda e: tuple((x + 4) * step if i == ring.index["s"] else x for i, x in enumerate(e))
    )
    terms = draw(st.dictionaries(exps, coeff, max_size=8))
    return ring, ring.poly(terms)._num if terms else {}, Packing(width, step)


@settings(max_examples=200, deadline=None)
@given(_packable())
def test_packed_values_read_back(case):
    """Packing and reading back is the identity on Laurent values whose
    coefficients have size below 2^(B−1), with ±(2^(B−1) − 1) and negative
    exponents of r among them, at steps 1 to 3."""
    ring, terms, packing = case
    packed = pack_terms(ring, terms, packing)
    assert all(packed.values())
    assert unpack_terms(ring, packed, packing) == terms


def test_one_bit_narrower_aliases_two_values():
    """The width is the narrowest that holds M: B2's spectral operators are
    packed along s at width B and step 2 (whole powers of s).  There the
    values c = 2^(B−2) ≤ M and −2^(B−2) + r⁻¹s (one key, slots 0 and 1) read
    back, and one bit narrower they pack to the same int."""
    ops = spectral_factors(case("B", 2).rz)
    m, (width, step) = _l1_bound(ops), pair_actions(isqrt(ops[0].nrows), [(a, (1, 2)) for a in ops])[0].packing
    assert step == 2
    ring = ops[0].ring
    c = 1 << width - 2
    assert c <= m < 2 * c
    first = ring.num(c)._num
    second = (ring.num(-c) + ring.mono(r=-1, s=1))._num
    narrower = Packing(width - 1, step)
    assert pack_terms(ring, first, narrower) == pack_terms(ring, second, narrower)
    proven = Packing(width, step)
    assert pack_terms(ring, first, proven) != pack_terms(ring, second, proven)
    for terms in (first, second):
        assert unpack_terms(ring, pack_terms(ring, terms, proven), proven) == terms


def test_packing_rejects_a_negative_slot_an_off_step_exponent_and_a_fraction(R):
    for terms, packing in (
        (R.mono(s=-1)._num, Packing(8, 1)),
        (R.mono(s=Fraction(1, 2))._num, Packing(8, 2)),
        (R.num(Fraction(1, 2))._num, Packing(8, 1)),
    ):
        with pytest.raises(ValueError, match="cannot pack"):
            pack_terms(R, terms, packing)
    with pytest.raises(ValueError, match="at least 2"):
        unpack_terms(R, {0: 1}, Packing(1, 1))


def test_a_chain_with_a_zero_operator_packs_at_width_two(R):
    """M = 0 when one operator of a chain is zero, and so is every value of
    the chain; the width is 2, the narrowest at which reading back ends."""
    p = SMatrix.from_entries(R, 4, 4, [(3, 3, R.one), (0, 3, R.mono(3, s=-1))])
    zero_action, action = pair_actions(2, [(SMatrix.zero(R, 4), (1, 2)), (p, (2, 3))])
    assert zero_action.packing.width == action.packing.width == 2
    assert zero_action(action.column(3)) == {}


@pytest.mark.parametrize(
    "family,rank,chain",
    [("A", 2, "spectral"), ("B", 2, "spectral"), ("C", 2, "spectral"), ("D", 3, "spectral"), ("B", 3, "spectral")]
    + [("B", 2, "braid"), ("C", 2, "braid"), ("D", 3, "braid")],
)
def test_left_side_coefficients_are_within_the_proven_bound(family, rank, chain):
    """Every coefficient of every entry of both sides of the spectral YBE,
    and of the braid relation for R = R̂∘τ, whose clearing polynomial is
    s^σ, built as V⊗³ matrices by kron and the flip, has size at most M,
    the product of the factors' largest column ℓ1 norms, and the chain is
    packed at width M.bit_length() + 1."""
    if chain == "spectral":
        r_x, r_y, r_xy = spectral_factors(case(family, rank).rz)
        ops = (r_x, r_xy, r_y)
    else:
        ops = (r_of(case(family, rank).rhat),) * 3
    bound = _l1_bound(ops)
    acts = pair_actions(isqrt(ops[0].nrows), list(zip(ops, ((1, 2), (1, 3), (2, 3)))))
    assert acts[0].packing.width == bound.bit_length() + 1
    for side in v3_sides(*ops):
        assert all(v.den_is_one() for _, _, v in side.entries())
        largest = max(abs(c) for _, _, v in side.entries() for c in v._num.values())
        assert 0 < largest <= bound


# -- the packed kernel -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_is_the_entrywise_sum_of_products(data):
    """``_combine_columns`` on vectors and columns of kernel values (units,
    zeros, denominators) against entrywise Scalar sums, with two entries
    whose denominators cancel to a Laurent polynomial: q·(p/q) = p and
    v·(p/q) + v·(lq - p)/q = l·v.  A Laurent value comes out as its term
    dict, any other as a Scalar with a denominator, so ``==`` is value
    equality."""
    ring = data.draw(st.sampled_from(_RINGS))
    vector = st.one_of(_entries(ring), st.just(ring.zero))
    column = st.lists(st.tuples(st.integers(0, 3), _entries(ring)), max_size=4)
    parts = data.draw(st.lists(st.tuples(vector, st.integers(0, 3), column), max_size=4))
    p, l, v = data.draw(_laurent(ring, 3)), data.draw(_laurent(ring, 2)), data.draw(vector)
    q = ring.poly(data.draw(denominators(ring, forms=(1, 2))))
    parts += [(q, 0, [(0, p / q)]), (v, 0, [(1, p / q), (1, (l * q - p) / q)])]
    expect = {}
    for x, base, col in parts:
        for off, c in col:
            expect[base + off] = expect.get(base + off, ring.zero) + c * x
    expect = {i: x for i, x in expect.items() if not x.is_zero()}
    kernel = lambda x: x._num if x.den_is_one() else x
    got = _combine_columns(ring, [(kernel(x), base, [(off, kernel(c)) for off, c in col]) for x, base, col in parts])
    assert _scalars(ring, got) == expect
    for i, x in got.items():
        assert (type(x) is dict) == expect[i].den_is_one()
        assert (x and all(x.values())) if type(x) is dict else not x.den_is_one()


def _lowest(a: SMatrix, var: str) -> int:
    """The smallest exponent of ``var`` among the entries of ``a``, in half
    units."""
    i, nv = a.ring.index[var], a.ring.nvars
    return min(_unpack_exps(e, nv)[i] for _, _, v in a.entries() for e in v._num)


@pytest.mark.parametrize(
    "family,rank,chain",
    [("B", 2, "spectral"), ("C", 3, "spectral"), ("D", 4, "spectral"), ("B", 2, "braid"), ("B", 6, "braid")],
)
def test_the_shift_of_s_is_in_the_clearing_polynomial(family, rank, chain):
    """The spectral operators' powers of s are nonnegative, so their
    clearing polynomial L is ``ring.one``.  R = R̂∘τ has negative powers of
    s, so every action of the braid chain has L = s^σ, σ minus R's smallest
    exponent of s; ``pack_terms``, which rejects a negative slot, then packs
    every term, and the cleared operator's smallest exponent of s is 0."""
    if chain == "spectral":
        r_x, r_y, r_xy = spectral_factors(case(family, rank).rz)
        ops = (r_x, r_xy, r_y)
    else:
        ops = (r_of(case(family, rank).rhat),) * 3
    ring = ops[0].ring
    acts = pair_actions(isqrt(ops[0].nrows), list(zip(ops, ((1, 2), (1, 3), (2, 3)))))
    for a, act in zip(ops, acts):
        sigma = -_lowest(a, "s")
        if chain == "spectral":
            assert sigma == 0 and act.clear is ring.one
        else:
            assert sigma > 0 and act.clear == ring.atom("s", sigma)
        assert _lowest(a.scale(act.clear), "s") == 0


# -- substitution by moving packed keys ------------------------------------------------

_PLACEMENTS = ((1, 2), (1, 3), (2, 3))


def _images():
    """The ring (r, s, x, y) and the images x, x·y, y of z."""
    ring = rs_ring("x", "y")
    x, y = ring.atom("x"), ring.atom("y")
    return ring, (x, x * y, y)


@pytest.mark.parametrize("change", ["R̂(z)", "R̂(z) + s·z·Id"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_moved_key_actions_are_the_actions_of_the_substituted_operators(family, rank, change):
    """R(z) packed once, its keys moved to x, x·y and y, gives dict for dict
    the actions ``pair_actions`` builds from R(x), R(xy) and R(y),
    substituted entry by entry: the same packing, the same clearing
    polynomials (s^σ with σ > 0 in type A, 1 otherwise) and every column."""
    rz = case(family, rank).rz
    if change != "R̂(z)":
        rz = rz + SMatrix.identity(rz.ring, rz.nrows).scale(rz.ring.mono(s=1) * rz.ring.atom("z"))
    n = isqrt(rz.nrows)
    r_x, r_y, r_xy = spectral_factors(rz)
    expected = pair_actions(n, list(zip((r_x, r_xy, r_y), _PLACEMENTS)))
    ring, images = _images()
    r = r_of(rz)
    moved = pair_actions(n, [(r, f) for f in _PLACEMENTS], [{"z": m} for m in images])
    for got, want in zip(moved, expected):
        assert got.ring is want.ring is ring
        assert (got.packing, got.strides, got.clear) == (want.packing, want.strides, want.clear)
        assert got.columns == want.columns
    assert (moved[0].clear == ring.one) == (family != "A")


def test_a_key_move_needs_a_unit_monomial_image_in_new_variables():
    """Only a monomial with coefficient 1 and exponents −1, 0 or 1, in
    variables the operator's ring does not keep, is moved to: any other
    image, a binding of r, s or of two variables, and a target ring that
    moves r or s raise ValueError, and so do a binding count that is not
    the placement count and images in two rings.  x⁻¹·y is moved to."""
    from rsqg.scalars import ScalarRing, Variable

    r = r_of(case("B", 2).rz)
    n = isqrt(r.nrows)
    ring, (x, _, y) = _images()
    swapped = ScalarRing([Variable("s", 2), Variable("r", 2), "x"]).atom("x")
    for binding in (
        {"z": x + y},
        {"z": ring.num(2) * x},
        {"z": x * x},
        {"z": ring.one},
        {"z": ring.atom("r") * x},
        {"z": x / (x + y)},
        {"z": swapped},
        {"s": x},
        {"r": x},
        {"w": x},
        {"z": x, "r": y},
    ):
        with pytest.raises(ValueError, match="cannot move the keys"):
            pair_actions(n, [(r, (1, 2))], [binding])
    with pytest.raises(ValueError, match="2 bindings for 3"):
        pair_actions(n, [(r, f) for f in _PLACEMENTS], [{"z": x}, {"z": y}])
    with pytest.raises(ValueError, match="mixing images"):
        pair_actions(n, [(r, (1, 2)), (r, (2, 3))], [{"z": x}, {"z": rs_ring("x").atom("x")}])
    (act,) = pair_actions(n, [(r, (1, 2))], [{"z": x.inv() * y}])
    assert act.ring is ring
