"""Sparse matrices and tensor operators over exact Scalars.

Tensor convention: the basis vector v_i ⊗ v_j of V ⊗ V (1-indexed) is
flattened to index (i-1)*N + j, and (X ⊗ Y)(v_a ⊗ v_b) = Xv_a ⊗ Yv_b.

Products run below the Scalar interface, in one kernel
(``_combine_columns``): Σ c·v over the columns of an operator, where both
factors of a product are Laurent polynomials (the ring's shared unit
denominator), adds the term products of each output entry in place into one
raw term dict (one int add per monomial product on the packed exponents
that Scalars store) and passes a unit factor's partner through
unmultiplied.  This saves a Scalar, a dict and an accumulator copy per
product, which, not the sparse structure, was most of a product's time.  A
product with a denominator goes through Scalar arithmetic and joins its
entry with one ``+``.

Its values are kernel values: a Laurent polynomial is its Scalar's own term
dict, read with no copy, and any other value is its Scalar.  ``A @ B`` is
one call over a flat index (row i of A·B is Σ_k a_ik·(row k of B), placed
at i·ncols), and ``mat_vec`` is one call over the columns of its operator;
both wrap their results once (``scalar_of``), after the range check,
skipping ``_make`` because a sum of Laurent polynomials is canonical
already.

``PairAction`` (an operator on two factors of V⊗V⊗V, applied to one sparse
vector at a time, and the only way rsqg acts on V⊗V⊗V) is one call per
vector, on values packed along s: a term c·r^a s^b·m is keyed by
r^(a+b)·m and adds c·2^(B·b/h) to its key's int (``pack_terms``), once the
operator's clearing polynomial has made every b ≥ 0.  Keys add and ints
multiply, so the same kernel and the same term-pair loop run on them, on
about a quarter of the terms of the homogeneous R-matrix entries.  A chain
of actions builds no Scalar; ``read_back`` reads a packed value as one,
exactly at the width B that ``pair_actions`` proves for the chain.
``kron`` shares the partner of ``ring.one``; Scalars are immutable, so
sharing is safe.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .scalars import (
    _BITS,
    _HALF,
    _MASK,
    Scalar,
    ScalarRing,
    _check,
    _paddto,
    _pmuladd,
    _spread,
    _unpack_exps,
    scalar_from_json,
    scalar_to_json,
    substitute,
)


def _same_ring(a: "SMatrix", b: "SMatrix") -> None:
    if a.ring is not b.ring:
        raise ValueError(f"mixing matrices over {a.ring} and {b.ring}")


class SMatrix:
    """Sparse matrix with Scalar entries, stored row-wise; zero entries are
    never stored.  Immutable by convention."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: ScalarRing, nrows: int, ncols: int, rows=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Scalar]] = rows if rows is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: ScalarRing, nrows: int, ncols: int | None = None) -> "SMatrix":
        return cls(ring, nrows, ncols if ncols is not None else nrows)

    @classmethod
    def identity(cls, ring: ScalarRing, n: int) -> "SMatrix":
        return cls(ring, n, n, {i: {i: ring.one} for i in range(n)})

    @classmethod
    def from_entries(
        cls, ring: ScalarRing, nrows: int, ncols: int, entries: Iterable[tuple[int, int, Scalar]]
    ) -> "SMatrix":
        rows: dict[int, dict[int, Scalar]] = {}
        for i, j, v in entries:
            if v.is_zero():
                continue
            row = rows.setdefault(i, {})
            nv = row[j] + v if j in row else v
            if nv.is_zero():
                del row[j]
            else:
                row[j] = nv
        return cls(ring, nrows, ncols, {i: r for i, r in rows.items() if r})

    # -- access --------------------------------------------------------------

    def get(self, i: int, j: int) -> Scalar:
        return self.rows.get(i, {}).get(j, self.ring.zero)

    def entries(self) -> list[tuple[int, int, Scalar]]:
        out = []
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                out.append((i, j, row[j]))
        return out

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"SMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "SMatrix") -> "SMatrix":
        _same_ring(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        rows: dict[int, dict[int, Scalar]] = {}
        for i, r in self.rows.items():
            kept = {j: v for j, v in r.items() if not v.is_zero()}
            if kept:
                rows[i] = kept
        for i, orow in other.rows.items():
            row = rows.setdefault(i, {})
            for j, v in orow.items():
                nv = row[j] + v if j in row else v
                if nv.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = nv
            if not row:
                del rows[i]
        return SMatrix(self.ring, self.nrows, self.ncols, rows)

    def __neg__(self) -> "SMatrix":
        return SMatrix(
            self.ring,
            self.nrows,
            self.ncols,
            {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __sub__(self, other: "SMatrix") -> "SMatrix":
        return self + (-other)

    def scale(self, c: Scalar) -> "SMatrix":
        if c.is_zero():
            return SMatrix.zero(self.ring, self.nrows, self.ncols)
        return SMatrix(
            self.ring,
            self.nrows,
            self.ncols,
            {i: {j: v * c for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __matmul__(self, other: "SMatrix") -> "SMatrix":
        """A·B in one ``_combine_columns`` call: row i of A·B is
        Σ_k a_ik·(row k of B), placed at i·ncols on one flat index, and the
        result is split back into rows, each Laurent entry wrapped once it
        passes the range check."""
        _same_ring(self, other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        ring, width = self.ring, other.ncols
        brows = other.rows
        flat = _combine_columns(
            ring,
            ((a, i * width, brows[k].items()) for i, arow in self.rows.items() for k, a in arow.items() if k in brows),
        )
        rows: dict[int, dict[int, Scalar]] = {}
        for ij, x in flat.items():
            i, j = divmod(ij, width)
            row = rows.get(i)
            if row is None:
                row = rows[i] = {}
            row[j] = scalar_of(ring, x)
        return SMatrix(ring, self.nrows, width, rows)

    # -- structure -----------------------------------------------------------

    def map_entries(self, fn: Callable[[Scalar], Scalar], ring: ScalarRing | None = None) -> "SMatrix":
        """Entrywise image under fn, as a matrix over ``ring`` (default: this
        matrix's ring), which must be the ring fn's values live in."""
        rows: dict[int, dict[int, Scalar]] = {}
        for i, r in self.rows.items():
            nr = {}
            for j, v in r.items():
                w = fn(v)
                if not w.is_zero():
                    nr[j] = w
            if nr:
                rows[i] = nr
        return SMatrix(ring if ring is not None else self.ring, self.nrows, self.ncols, rows)

    def substituted(self, bindings: Mapping[str, Scalar], ring: ScalarRing | None = None) -> "SMatrix":
        return self.map_entries(lambda v: substitute(v, bindings, ring=ring), ring=ring)

    def exchanged_params(self) -> "SMatrix":
        """Entrywise r <-> s exchange."""
        return self.map_entries(lambda v: v.exchange_vars("r", "s"))

    def is_diagonal(self) -> bool:
        return all(set(r) <= {i} for i, r in self.rows.items())

    def diagonal_sqrt(self) -> "SMatrix":
        """Entrywise monomial square root of an invertible diagonal matrix."""
        if not self.is_diagonal():
            raise ValueError("matrix is not diagonal")
        rows = {}
        for i in range(self.nrows):
            v = self.get(i, i)
            if v.is_zero():
                raise ValueError("diagonal matrix is not invertible")
            rows[i] = {i: v.sqrt_monomial()}
        return SMatrix(self.ring, self.nrows, self.ncols, rows)

    def diagonal_inv(self) -> "SMatrix":
        if not self.is_diagonal():
            raise ValueError("matrix is not diagonal")
        rows = {}
        for i in range(self.nrows):
            v = self.get(i, i)
            if v.is_zero():
                raise ValueError("diagonal matrix is not invertible")
            rows[i] = {i: v.inv()}
        return SMatrix(self.ring, self.nrows, self.ncols, rows)


# ---------------------------------------------------------------------------
# tensor structure
# ---------------------------------------------------------------------------


def kron(a: SMatrix, b: SMatrix) -> SMatrix:
    """Kronecker product with (i-1)N+j flattening of v_i ⊗ v_j."""
    _same_ring(a, b)
    one = a.ring.one
    rows: dict[int, dict[int, Scalar]] = {}
    for ia, ra in a.rows.items():
        for ib, rb in b.rows.items():
            i = ia * b.nrows + ib
            out: dict[int, Scalar] = {}
            for ja, va in ra.items():
                for jb, vb in rb.items():
                    # Scalars are immutable, so a unit factor's partner is shared
                    out[ja * b.ncols + jb] = vb if va is one else va if vb is one else va * vb
            if out:
                rows[i] = out
    return SMatrix(a.ring, a.nrows * b.nrows, a.ncols * b.ncols, rows)


def tensor_units(
    ring: ScalarRing, n: int, terms: Iterable[tuple[int, int, int, int, Scalar]]
) -> SMatrix:
    """Σ c·E_ij ⊗ E_kl on V ⊗ V (dim V = n) over terms (i, j, k, l, c), with
    1-indexed matrix units as in the printed displays; repeated terms add up
    and entries that sum to zero are dropped."""
    entries = (((i - 1) * n + k - 1, (j - 1) * n + l - 1, c) for i, j, k, l, c in terms)
    return SMatrix.from_entries(ring, n * n, n * n, entries)


def flipped(n: int, k: int) -> int:
    """The index of v_b ⊗ v_a for the index k of v_a ⊗ v_b, dim V = n."""
    return k % n * n + k // n


def compose_flip(a: SMatrix, diagonal: Sequence[Scalar] | None = None) -> SMatrix:
    """a∘D∘τ for an operator ``a`` on V ⊗ V, τ the flip v_i ⊗ v_j ↦ v_j ⊗ v_i
    and D the ``diagonal`` (the identity when None): column j of a, times
    d_j, is column τ(j) of the result, so no product is formed.  This is how
    R = R̂∘τ is formed from R̂, and R̂ = R∘τ from R."""
    n = isqrt(a.nrows)
    if diagonal is None:
        rows = {i: {flipped(n, j): v for j, v in row.items()} for i, row in a.rows.items()}
    else:
        rows = {i: {flipped(n, j): v * diagonal[j] for j, v in row.items()} for i, row in a.rows.items()}
    return SMatrix(a.ring, a.nrows, a.ncols, rows)


# ---------------------------------------------------------------------------
# vectors (columns of V ⊗ V etc.)
# ---------------------------------------------------------------------------


def scalar_of(ring: ScalarRing, x) -> Scalar:
    """The Scalar of a kernel value: a Laurent term dict is wrapped on the
    ring's shared unit denominator once its terms pass the range check, and
    a Scalar is itself."""
    return Scalar(ring, _check(x, ring), ring._one_den, _raw=True) if type(x) is dict else x


def _columns(a: SMatrix) -> dict[int, list[tuple[int, object]]]:
    """The stored entries of ``a`` by column, as kernel values: j -> [(i,
    a_ij), ...], a Laurent a_ij as its own term dict."""
    one_den = a.ring._one_den
    cols: dict[int, list[tuple[int, object]]] = {}
    for i, row in a.rows.items():
        for j, v in row.items():
            cols.setdefault(j, []).append((i, v._num if v._den is one_den else v))
    return cols


def _combine_columns(ring: ScalarRing, parts: Iterable[tuple[object, int, Iterable]]) -> dict[int, object]:
    """Σ c·v placed at index base + offset, over (v, base, column) in
    ``parts`` and (offset, c) in each column: the sparse vector of a mat-vec,
    zero entries dropped.  v and the column entries are kernel values or
    Scalars (a Laurent Scalar is read as its term dict, so a row of an
    ``SMatrix`` is a column as it is), and every result is a kernel value.
    Laurent products accumulate in place on raw term dicts (``_pmuladd``,
    one int add per monomial product), a unit factor passes its partner's
    terms through, and a product with a denominator goes through Scalar
    arithmetic and is read back as its term dict if its entry ends up
    Laurent.  So each value has one form, and ``==`` on two results is value
    equality.  Packed values (``PairAction``) are term dicts to it: their
    keys add and their ints multiply in the same loop.

    A result is not range-checked until it becomes a Scalar (``scalar_of``
    or ``read_back``): each of its exponents is a sum of one exponent per
    action it went through, so a chain of fewer than 2^11 actions on stored
    values stays exact in its 32-bit digits, and of fewer than 2^9 on
    packed values, whose r-digit holds a + b with 0 ≤ b < 2^21
    (``_cleared``)."""
    one_den = ring._one_den
    unit = ring.one._num
    acc: dict[int, dict] = {}
    rest: dict[int, Scalar] = {}
    for v, base, column in parts:
        if type(v) is Scalar and v._den is one_den:
            v = v._num
        laurent_v = type(v) is dict
        unit_v = laurent_v and v == unit
        for off, c in column:
            i = base + off
            if not laurent_v or type(c) is not dict:
                if laurent_v and c._den is one_den:
                    c = c._num
                else:
                    p = scalar_of(ring, c) * scalar_of(ring, v)
                    rest[i] = rest[i] + p if i in rest else p
                    continue
            t = acc.get(i)
            if t is None:
                t = acc[i] = {}
            if unit_v:
                _paddto(t, c)
            elif c == unit:
                _paddto(t, v)
            else:
                _pmuladd(t, c, v)
    out: dict[int, object] = {i: t for i, t in acc.items() if t}
    for i, p in rest.items():
        if i in out:
            p = scalar_of(ring, out[i]) + p
        if p.is_zero():
            out.pop(i, None)
        else:
            out[i] = p._num if p._den is one_den else p
    return out


def mat_vec(a: SMatrix, vec: dict[int, Scalar]) -> dict[int, Scalar]:
    """a·vec for a sparse vector (index -> Scalar); zero entries dropped."""
    cols = _columns(a)
    out = _combine_columns(a.ring, ((v, 0, cols[j]) for j, v in vec.items() if j in cols))
    return {i: scalar_of(a.ring, x) for i, x in out.items()}


# ---------------------------------------------------------------------------
# the packing of V⊗V⊗V values along s
# ---------------------------------------------------------------------------
#
# A term c·r^a s^b·m of a Laurent value (m a monomial in the other variables,
# a and b in internal half units, b ≥ 0) goes to the key e + b·(r·s⁻¹), the
# packed exponent of r^(a+b)·m, and adds c·2^(B·b/h) to that key's int, for a
# width B and a step h that divides every b (``Packing``; h is 2 where only
# whole powers of s occur).  The packed value of a product is the product of
# the packed values (keys add, ints multiply), so ``_combine_columns`` runs on
# packed values unchanged.  Every operator the Yang–Baxter decider multiplies
# is homogeneous in (r^½, s^½), so the terms of one entry with one monomial in
# the other variables share a key: a few ints stand for many terms.  Each
# operator is packed after clearing (``_cleared``), which makes its powers of
# s nonnegative.  The README (item 6) states the read-back lemma and the
# width it needs.
#
# A substitution v ↦ w, w a monomial with coefficient 1 in variables that the
# operator's ring does not keep, commutes with this packing: it sends a term
# c·r^a s^b·u·v^k (u a monomial in the kept variables) to c·r^a s^b·u·w^k,
# distinct terms to distinct terms, with the same coefficient and the same b.
# So the packed a(w) is the packed a with k·(w − v) added to each key whose
# v-digit is k, as packed exponents (``_key_move``): its column norms, step
# and σ are a's, and L(w) clears it.  The spectral YBE packs R(z) once and
# moves its keys to those of R(x), R(xy) and R(y).


def _key_slots(ring: ScalarRing, exps: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(key, b) for each packed exponent: b is its exponent of s, and the
    key moves b onto r's digit.  Sound for digits below 2^31 in size, such
    as a sum of a few stored exponents: biased by 2^31, each digit is
    nonnegative."""
    off = _BITS * ring.index["s"]
    move = (1 << _BITS * ring.index["r"]) - (1 << off)
    bias = _spread(_HALF, ring.nvars)
    for e in exps:
        b = ((e + bias) >> off & _MASK) - _HALF
        yield e + b * move, b


class Packing(NamedTuple):
    """How values are packed: a term whose exponent of s is b adds
    c·2^(width·t) to its key's int, with t = b/step ≥ 0.  ``step`` divides
    every such b of the values, so consecutive slots hold consecutive
    possible b's."""

    width: int
    step: int


def pack_terms(ring: ScalarRing, terms: dict, packing: Packing) -> dict:
    """The packed value of the Laurent term dict ``terms`` (int
    coefficients, every exponent b of s a nonnegative multiple of the
    step); keys whose ints cancel are dropped."""
    width, step = packing
    out: dict[int, int] = {}
    for (key, b), c in zip(_key_slots(ring, terms), terms.values()):
        t, r = divmod(b, step)
        if t < 0 or r or type(c) is not int:
            raise ValueError(f"cannot pack the term {c} with s-exponent {b} at {packing}")
        x = out.get(key, 0) + (c << width * t)
        if x:
            out[key] = x
        else:
            del out[key]
    return out


def unpack_terms(ring: ScalarRing, packed: dict, packing: Packing) -> dict:
    """The Laurent term dict of a packed value: each int's balanced base-2^B
    digits, the t-th of them the coefficient of b = t·step.  Exact when
    every coefficient has size below 2^(B−1).  B ≥ 2, so each digit read
    shrinks the int and the reading ends."""
    width, step = packing
    if width < 2:
        raise ValueError(f"cannot read back at {packing}: the width must be at least 2")
    move = (1 << _BITS * ring.index["r"]) - (1 << _BITS * ring.index["s"])
    full = 1 << width
    half, mask = full >> 1, full - 1
    out: dict[int, int] = {}
    for key, x in packed.items():
        b = 0
        while x:
            d = x & mask
            if d >= half:
                d -= full
            if d:
                out[key - b * move] = d
            x = (x - d) >> width
            b += step
    return out


class _Cleared(NamedTuple):
    """An operator a on V⊗V made integral, with no negative power of s:
    ``clear`` is L = L₀·s^σ, where the Laurent polynomial L₀ clears the
    denominators of a's entries and coefficients and σ is minus the
    smallest exponent of s in L₀·a (L is ``ring.one`` for the spectral
    R-matrices).  ``columns`` are those of L₀·a as term dicts (j -> [(i,
    terms)], stored zeros dropped); ``pair_actions`` multiplies each entry
    by s^σ (packed exponent ``shift``) only as it packs it, so no copy of a
    shared operator's terms is held.  ``step`` is the gcd of their
    exponents of s, and ``norm`` their largest column ℓ1 norm (the sum of
    the sizes of a column's coefficients)."""

    clear: Scalar
    shift: int
    step: int
    columns: dict[int, list[tuple[int, dict]]]
    norm: int


def _cleared(a: SMatrix) -> _Cleared:
    ring = a.ring
    one_den = ring._one_den
    entries = [(i, j, v) for i, row in a.rows.items() for j, v in row.items() if v]
    clear = ring.one
    integral = all(v._den is one_den and all(type(c) is int for c in v._num.values()) for _, _, v in entries)
    if not integral:
        for den in {frozenset(v._den.items()): v._den for _, _, v in entries if v._den is not one_den}.values():
            clear = clear * Scalar(ring, den, one_den, _raw=True)
        entries = [(i, j, v * clear) for i, j, v in entries]
        k = lcm(1, *(c.denominator for _, _, v in entries for c in v._num.values()))
        if k != 1:
            clear = clear * k
            entries = [(i, j, v * k) for i, j, v in entries]
    exps = {b for _, _, v in entries for _, b in _key_slots(ring, v._num)}
    shift = -min(exps, default=0) << _BITS * ring.index["s"]
    if shift:
        clear = clear * Scalar(ring, {shift: 1}, one_den, _raw=True)
    columns: dict[int, list[tuple[int, dict]]] = {}
    norms: dict[int, int] = {}
    for i, j, v in entries:
        # an integral coefficient may be stored as a Fraction
        terms = v._num if integral else {e: int(c) for e, c in v._num.items()}
        columns.setdefault(j, []).append((i, terms))
        norms[j] = norms.get(j, 0) + sum(map(abs, terms.values()))
    return _Cleared(clear, shift, gcd(*exps), columns, max(norms.values(), default=0))


def _key_move(ring: ScalarRing, binding: Mapping[str, Scalar]) -> tuple[ScalarRing, tuple[int, int, int]]:
    """The target ring and the move (shift, bias, delta) of the substitution
    ``binding`` = {v: m} of one variable of ``ring``: a packed key or
    exponent e whose v-digit, read at ``shift`` after ``bias`` makes the
    digits up to it nonnegative, is k goes to e + k·delta, delta = m − v as
    packed exponents, over the ring ``target`` of m (``_moved``).

    m must be a monomial with coefficient 1 and exponents −1, 0 or 1, not
    1 itself, in variables that ``ring``'s other variables (r and s among
    them) are not, and those must sit at the same digits in ``target``.
    Then the move keeps every other digit (the r-digit a + b and the slots
    of a packed key too) and every coefficient, sends distinct keys to
    distinct keys, and puts 0 or ±k, a stored exponent, in each digit of m;
    ValueError otherwise."""
    (name, image), *more = binding.items()
    i = ring.index.get(name)
    if more or i is None or name in ("r", "s"):
        raise ValueError(f"cannot move the keys of {binding}: bind one variable of {ring} other than r and s")
    target, terms = image.ring, image._num
    (m, c), *more = terms.items() if image.den_is_one() and terms else ((0, 0),)
    digits = _unpack_exps(m, target.nvars)
    kept = [j for j, u in enumerate(ring.names) if u != name]
    if (
        more
        or c != 1
        or not any(digits)
        or any(abs(d) > 1 for d in digits)
        or [target.index.get(ring.names[j]) for j in kept] != kept
        or any(digits[j] for j in kept)
    ):
        raise ValueError(
            f"cannot move the keys of {name} to {image}: it must be a monomial with coefficient 1 and "
            f"exponents -1, 0 or 1, in variables other than those {ring} keeps"
        )
    shift = _BITS * i
    return target, (shift, _spread(_HALF, i + 1), m - (1 << shift))


def _moved(terms: dict, move: tuple[int, int, int]) -> dict:
    """``terms`` with each key e moved to e + k·delta, k its digit at the
    move's shift (``_key_move``)."""
    shift, bias, delta = move
    return {e + ((e + bias >> shift & _MASK) - _HALF) * delta: c for e, c in terms.items()}


def pair_actions(
    n: int, placed: Sequence[tuple[SMatrix, tuple[int, int]]], at: Sequence[Mapping[str, Scalar]] | None = None
) -> tuple["PairAction", ...]:
    """The actions of the operators ``placed``, (a, factors) pairs of an
    operator on V⊗V (dim V = n) and the factors (1, 2), (2, 3) or (1, 3) of
    V⊗V⊗V it acts on, as one chain: each distinct operator is cleared
    (``_cleared``) and packed once, all at one width and step.

    The width is B = M.bit_length() + 1 for M the product, one factor per
    placed operator, of their largest column ℓ1 norms (taken as 1 where it
    is 0): no coefficient of a value of the chain exceeds M in size, and
    B is the narrowest width whose balanced digits hold every such
    coefficient (M < 2^(B−1)).  The step is the gcd of the cleared
    operators' exponents of s (2 where they are all whole powers), so that
    no slot between two used ones is always empty; it divides each σ, so
    it divides every exponent of s after the shift too.

    ``at``, when given, holds one binding per placement, {v: m} as for
    ``SMatrix.substituted``, and the action placed is then that of
    a.substituted({v: m}, m.ring), built with no substitution: the keys of
    a's one packing, and the terms of its clearing polynomial L, are moved
    by ``_key_move``.  The move keeps every coefficient, every exponent of
    s and distinct terms distinct, so a.substituted has a's column norms,
    step and σ, and L(m) clears it: the packing and the actions are those
    that the substituted operators, placed as they are, would get."""
    for a, factors in placed:
        if factors not in ((1, 2), (2, 3), (1, 3)):
            raise ValueError(f"factors must be (1, 2), (2, 3) or (1, 3), got {factors}")
        if (a.nrows, a.ncols) != (n * n, n * n):
            raise ValueError(f"a {a.nrows}x{a.ncols} matrix does not act on V ⊗ V with dim V = {n}")
    ops = [a for a, _ in placed]
    ring = ops[0].ring
    if any(a.ring is not ring for a in ops):
        raise ValueError("mixing operators over different rings in one chain")
    cleared = {id(a): _cleared(a) for a in {id(a): a for a in ops}.values()}
    m = 1
    for a in ops:
        m *= cleared[id(a)].norm
    packing = Packing(max(m, 1).bit_length() + 1, gcd(*(c.step for c in cleared.values())) or 1)
    packed = {}
    for i, c in cleared.items():
        s = c.shift
        packed[i] = {
            j: [(row, pack_terms(ring, {e + s: x for e, x in t.items()} if s else t, packing)) for row, t in col]
            for j, col in c.columns.items()
        }
    if at is None:
        return tuple(PairAction(ring, n, factors, packing, packed[id(a)], cleared[id(a)].clear) for a, factors in placed)
    if len(at) != len(placed):
        raise ValueError(f"{len(at)} bindings for {len(placed)} placed operators")
    actions = []
    for (a, factors), binding in zip(placed, at):
        target, move = _key_move(ring, binding)
        if actions and target is not actions[0].ring:
            raise ValueError("mixing images in different rings in one chain")
        columns = {j: [(row, _moved(t, move)) for row, t in col] for j, col in packed[id(a)].items()}
        clear = Scalar(target, _moved(cleared[id(a)].clear._num, move), target._one_den, _raw=True)
        actions.append(PairAction(target, n, factors, packing, columns, clear))
    return tuple(actions)


class PairAction:
    """A V⊗V operator acting on factors (1, 2), (2, 3) or (1, 3) of V⊗V⊗V,
    applied to sparse vectors of packed values, with v_a ⊗ v_b ⊗ v_c
    flattened to ((a-1)N + b-1)N + c-1; ``pair_actions`` builds the actions
    of one chain, and ``act(vec)`` is A·vec.

    Each column of the operator is stored once, with its rows turned into
    offsets on V⊗V⊗V and its entries packed along s (``pack_terms``) by
    ``packing``, after clearing: ``clear`` is one Laurent polynomial L with
    every entry of L·a a Laurent polynomial with int coefficients and no
    negative power of s (``_cleared``).  Applying it reads the column of the
    two acted-on digits and places each entry beside the untouched digit, in
    ``_combine_columns``.  No V⊗³ matrix is built: neither ``kron(a, Id)``
    nor the flip conjugation that moves A onto factors 1 and 3.

    A chain of actions, the last one read as a column (``column``), gives
    the packed values of L·(A⋯)·v_k, with L the product of the actions'
    ``clear``; ``read_back`` reads such a value as a Scalar."""

    __slots__ = ("ring", "n", "strides", "columns", "packing", "clear")

    def __init__(
        self, ring: ScalarRing, n: int, factors: tuple[int, int], packing: Packing, columns: dict, clear: Scalar
    ):
        si, sj = (n ** (3 - f) for f in factors)
        self.ring = ring
        self.n = n
        self.strides = (si, sj)
        self.packing = packing
        self.clear = clear
        self.columns = {j: [((i // n) * si + (i % n) * sj, v) for i, v in col] for j, col in columns.items()}

    def column(self, k: int) -> dict[int, dict]:
        """A·v_k for the basis vector v_k of V⊗V⊗V: the stored column of
        the acted-on digits moved beside the untouched digit, read with no
        arithmetic."""
        n = self.n
        si, sj = self.strides
        di, dj = k // si % n, k // sj % n
        base = k - di * si - dj * sj
        return {base + off: v for off, v in self.columns.get(di * n + dj, ())}

    def __call__(self, vec: dict[int, dict]) -> dict[int, dict]:
        """A·vec, by the column kernel."""
        n, cols = self.n, self.columns
        si, sj = self.strides

        def parts():
            for k, v in vec.items():
                di, dj = k // si % n, k // sj % n
                column = cols.get(di * n + dj)
                if column:
                    yield v, k - di * si - dj * sj, column

        return _combine_columns(self.ring, parts())


def read_back(chain: Sequence[PairAction], x: dict) -> Scalar:
    """The Scalar of a packed value of a product of the actions of one
    ``pair_actions`` call, each once, in any order, applied to v_k: its
    unpacked terms over the product of the actions' clearing polynomials."""
    ring = chain[0].ring
    clear = ring.one
    for op in chain:
        clear = clear * op.clear
    return scalar_of(ring, unpack_terms(ring, x, chain[0].packing)) / clear


def vec_scale(vec: dict[int, Scalar], c: Scalar) -> dict[int, Scalar]:
    out = {}
    for i, v in vec.items():
        w = v * c
        if not w.is_zero():
            out[i] = w
    return out


# ---------------------------------------------------------------------------
# JSON export (exact, language-neutral)
# ---------------------------------------------------------------------------


def matrix_to_json(a: SMatrix) -> dict:
    entries = []
    for i, j, v in a.entries():
        obj = scalar_to_json(v)
        entries.append({"row": i, "col": j, "num": obj["num"], "den": obj["den"]})
    return {
        "n_rows": a.nrows,
        "n_cols": a.ncols,
        "vars": list(a.ring.names),
        "entries": entries,
    }


def matrix_from_json(ring: ScalarRing, obj: dict) -> SMatrix:
    if list(ring.names) != list(obj["vars"]):
        raise ValueError(f"ring variables {ring.names} do not match {obj['vars']}")
    entries = [
        (
            t["row"],
            t["col"],
            scalar_from_json(ring, {"num": t["num"], "den": t["den"]}),
        )
        for t in obj["entries"]
    ]
    return SMatrix.from_entries(ring, obj["n_rows"], obj["n_cols"], entries)
