"""Certificate report structures shared by all verification entry points,
the one clock every check runs under, and the witnesses of a failing
operator identity: on V or V ⊗ V (``first_mismatch``; for an identity of
two products, ``product_mismatch``, which decides a conjugation by diagonal
factors on the support of the conjugated matrix) and, one column at a time,
on V⊗V⊗V (``first_column_mismatch``).

The one Yang–Baxter decider, ``yang_baxter_witness``, decides R₁₂R₁₃R₂₃ =
R₂₃R₁₃R₁₂ on V⊗V⊗V for the braid relation and the spectral YBE alike.
Where its factors have a certified gauged transpose symmetry
(``transpose_reflection``), the right side is the reflected left side, and
``reflected_column_pairs`` decides it from the left side alone.  Both loops
run on values packed along r or s (``matrices.PairAction``) at the one
width the decider proves for its three operators, compare packed values and
read back only what a witness prints."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterator, Sequence

from .matrices import PairAction, SMatrix, _key_slots, chain_frame, pair_actions, read_back, shifted
from .gauge import Inconsistent, monomial_gauge
from .scalars import Scalar


@dataclass
class CheckItem:
    """Outcome of one named identity check."""

    name: str
    family: str
    rank: int
    ok: bool
    witness: str = ""  # first offending entry when failing
    seconds: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def line(self) -> str:
        msg = f"[{self.status}] {self.family}{self.rank} {self.name} ({self.seconds:.2f}s)"
        if not self.ok and self.witness:
            msg += f" witness: {self.witness}"
        return msg


@dataclass
class Report:
    items: list[CheckItem] = field(default_factory=list)

    def add(self, item: CheckItem) -> CheckItem:
        self.items.append(item)
        return item

    @contextmanager
    def timed(self, name: str, family: str, rank: int) -> Iterator[CheckItem]:
        """Run the body of one named check under a single clock, including
        every operator the body builds, and record it.  The body sets
        ``witness`` ("" when the identity holds); ``ok`` follows from the
        witness unless the body sets it."""
        item = CheckItem(name, family, rank, None)
        t0 = time.perf_counter()
        yield item
        item.seconds = time.perf_counter() - t0
        if item.ok is None:
            item.ok = item.witness == ""
        self.items.append(item)

    def fault(self, name: str, family: str, rank: int, exc: Exception) -> CheckItem:
        """Record a check that raised instead of returning a verdict."""
        return self.add(CheckItem(name, family, rank, False, f"raised {type(exc).__name__}: {exc}"))

    def ok(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.items) and all(it.ok for it in self.items)

    def sorted_items(self) -> list[CheckItem]:
        return sorted(self.items, key=lambda it: (it.name, it.family, it.rank))

    def merged(self, other: "Report") -> "Report":
        return Report(self.items + other.items)

    def to_json(self) -> list[dict]:
        return [
            {
                "check": it.name,
                "family": it.family,
                "rank": it.rank,
                "status": it.status,
                "witness": it.witness,
                "seconds": round(it.seconds, 4),
            }
            for it in self.sorted_items()
        ]


def charged(run: Callable[..., Report], *args) -> Report:
    """Run one check on ``args`` and add the time it spent outside its items'
    clocks (the shared operators it is the first to use, built before its
    body runs) to its first item."""
    t0 = time.perf_counter()
    out = run(*args)
    unclocked = time.perf_counter() - t0 - sum(it.seconds for it in out.items)
    if out.items:
        out.items[0].seconds += max(0.0, unclocked)
    return out


def basis_vector(k: int, n: int, power: int) -> str:
    """v_a⊗v_b⊗… (1-indexed) for the flattened index k of the tensor power
    V^⊗power, dim V = n."""
    digits = []
    for _ in range(power):
        k, d = divmod(k, n)
        digits.append(f"v_{d + 1}")
    return "⊗".join(reversed(digits))


def first_mismatch(a: SMatrix, b: SMatrix, n: int | None = None) -> str:
    """Coordinates and both values of the first differing entry (grlex row
    order); with ``n`` = dim V, the row and column are named as basis
    vectors: v_a for operators on V, v_a⊗v_b for operators on V ⊗ V, told
    apart by the size of ``a``.

    Scalars are canonical, so equal entries are equal as stored and ``a == b``
    settles a match without the subtraction; a stored explicit zero only
    sends the comparison on to it."""
    if a == b:
        return ""
    d = a - b
    if d.is_zero():
        return ""
    i, j, _ = d.entries()[0]
    if n is None:
        where = f"entry ({i},{j})"
    else:
        power = {n: 1, n * n: 2}.get(a.nrows)
        if power is None:
            raise ValueError(f"a {a.nrows}x{a.ncols} matrix acts on neither V nor V ⊗ V with dim V = {n}")
        where = f"row {basis_vector(i, n, power)}, column {basis_vector(j, n, power)}"
    return f"{where}: LHS {a.get(i, j)} vs RHS {b.get(i, j)}"


def _diagonal(a: SMatrix) -> dict[int, Scalar] | None:
    """The stored diagonal of a square diagonal matrix; None for any other."""
    if a.nrows != a.ncols or not a.is_diagonal():
        return None
    return {i: row[i] for i, row in a.rows.items() if row}


def product_mismatch(
    lhs: tuple[SMatrix, SMatrix], rhs: tuple[SMatrix, SMatrix], n: int | None = None, c: Scalar | None = None
) -> str:
    """The witness of lhs[0]·lhs[1] = c·rhs[0]·rhs[1] (no scaling when ``c``
    is None): ``first_mismatch`` of the two products.

    Where the identity conjugates one matrix X by square diagonal factors —
    D·X = c·X·D′, or X·D′ = c·D·X — it is decided on the support of X
    without forming a product: entry (i, j) of the sides is d_ii·x_ij
    against c·x_ij·d′_jj, so over an integral domain the first form holds
    iff d_ii = c·d′_jj at every stored x_ij (the second iff d′_jj = c·d_ii).
    When that test fails, or the identity has another shape, the products
    are formed and the witness is theirs."""
    (a, b), (p, q) = lhs, rhs
    if b is p or a is q:
        # X with the diagonal factor on its rows and the one on its columns;
        # c scales the one that stands on the right side of the identity
        x, by_row, by_col = (b, a, q) if b is p else (a, p, b)
        rows, cols = _diagonal(by_row), _diagonal(by_col)
        if (
            rows is not None
            and cols is not None
            and (by_row.ncols, by_col.nrows) == (x.nrows, x.ncols)
            and by_row.ring is x.ring is by_col.ring
        ):
            if c is not None:
                if b is p:
                    cols = {k: v * c for k, v in cols.items()}
                else:
                    rows = {k: v * c for k, v in rows.items()}
            # a missing diagonal entry is zero, and matches only another
            if all(rows.get(i) == cols.get(j) for i, row in x.rows.items() for j in row):
                return ""
    lhs_product = a @ b
    rhs_product = p @ q if c is None else (p @ q).scale(c)
    return first_mismatch(lhs_product, rhs_product, n)


def first_column_mismatch(lhs: Sequence[PairAction], rhs: Sequence[PairAction]) -> str:
    """The witness of lhs[0]⋯lhs[-1] = rhs[0]⋯rhs[-1] on V⊗V⊗V, for products
    of operators on two of its factors: both sides are applied to one basis
    vector v_a⊗v_b⊗v_c at a time, so one column of each side is alive at a
    time and no V⊗³ matrix is built.  Each side's rightmost operator acts on
    the basis vector, so its result is read as a stored column.

    Every column holds packed values (``matrices.PairAction``) from the
    stored columns to the comparison, so both sides must be packed alike:
    one width, step and variable, one summed shift and one clearing
    polynomial (``chain_frame``), as the decider's sides are, or ValueError.
    Only the values a witness prints become Scalars.

    The first column (in index order) whose sides differ is named with its
    first differing row and both sides' values there; "" when every column
    passes."""
    if chain_frame(lhs) != chain_frame(rhs):
        raise ValueError("the two sides are packed differently, so their packed values do not compare")
    n = lhs[0].n
    where = lambda col, row: f"column {basis_vector(col, n, 3)}, row {basis_vector(row, n, 3)}"
    show = lambda column, row: read_back(lhs, column[row]) if row in column else 0
    for col in range(n**3):
        left, right = lhs[-1].column(col), rhs[-1].column(col)
        for op in lhs[-2::-1]:
            left = op(left)
        for op in rhs[-2::-1]:
            right = op(right)
        if left != right:
            row = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            return f"{where(col, row)}: LHS {show(left, row)} vs RHS {show(right, row)}"
    return ""


def transpose_reflection(ops: Sequence[SMatrix]) -> list[Scalar] | None:
    """The diagonal D = diag(d_1, …, d_N) of r,s-monomials of coefficient 1
    with Mᵀ = Π·G·M·G⁻¹·Π for every operator M in ``ops`` on V ⊗ V, where
    Π = J⊗J, J reverses V's basis (v_a ↦ v_{N+1−a}) and G = D⊗D; None when
    there is none.

    Entrywise, with Π as the permutation k ↦ N²−1−k of V ⊗ V, the identity
    reads M[Πl, Πk] = M[k, l]·G(k)/G(l) for every (k, l): a monomial gauge
    (``gauge.monomial_gauge``) in the exponents of D, one triple per stored
    entry, whose linear form is that of G(k)/G(l) in the digits of k and l."""
    ring, N = ops[0].ring, isqrt(ops[0].nrows)
    last = N * N - 1
    triples = []
    for m in ops:
        for k, row in m.rows.items():
            for l, v in row.items():
                form = ((k // N, 1), (k % N, 1), (l // N, -1), (l % N, -1))
                triples.append((form, v, m.get(last - l, last - k)))
    try:
        exps, _ = monomial_gauge(triples, N, ("r", "s"))
    except Inconsistent:
        return None
    # the exponents are in the internal half units of r and s
    return [ring.mono(r=Fraction(er, 2), s=Fraction(es, 2)) for er, es in exps]


def _weight_codes(weights: Sequence[tuple]) -> list[int]:
    """One int per basis vector of V, additive on V⊗V⊗V and odd under
    λ ↦ −λ: the weight's ε-coordinates, scaled to integers, as digits of a
    balanced base large enough for a sum of three."""
    scale = lcm(*(Fraction(x).denominator for w in weights for x in w))
    ints = [[int(x * scale) for x in w] for w in weights]
    base = 6 * max((abs(x) for w in ints for x in w), default=0) + 1
    return [sum(x * base**t for t, x in enumerate(w)) for w in ints]


def reflected_column_pairs(lhs: Sequence[PairAction], d: Sequence[Scalar], weights: Sequence[tuple]) -> int | None:
    """Decide lhs[0]⋯lhs[-1] = G₃⁻¹·Π₃·(lhs[0]⋯lhs[-1])ᵀ·Π₃·G₃ on V⊗V⊗V from
    the left side alone, where G₃ = D⊗D⊗D for the diagonal ``d`` of
    ``transpose_reflection`` and Π₃ = J⊗J⊗J permutes the basis by τ: k ↦
    N³−1−k.  Where the lemma holds, the right side R₂₃R₁₃R₁₂ of the
    Yang–Baxter equation is exactly this reflection of the left side.

    Entrywise: L[u, v]·g(u) = L[τv, τu]·g(v) with g = d⊗d⊗d.  The columns
    of L are computed one at a time, as in ``first_column_mismatch``, as
    packed values.  An entry waits until the column of its partner arrives,
    is compared with it, and both are dropped; the ratio g(u)/g(v), packed,
    is a key shift and a shift by B·β/h bits (β its exponent of the
    packing's variable, h the packing's step), put on the partner's side
    where β < 0; a self-paired entry (τu = v) needs
    g(u) = g(v).  L preserves weight and τ maps weight λ to −λ, so an entry
    of a column of weight λ waits for a column of weight −λ.  The columns
    run by weight, −λ before λ, each followed by its image under τ: at B2,
    D3 and B3 this holds at most 4.2k, 5.2k and 9.7k unpacked terms
    pending, against 17k, 24k and 55k in index order.

    The number of left-side entries compared with their partners (every
    nonzero entry of L), or None on the first failure of any kind, for
    which the caller reruns ``first_column_mismatch`` to get the witness."""
    n, ring = lhs[0].n, lhs[0].ring
    width, _, step, along = lhs[0].packing
    # g(k) as a packed monomial: a key shift and an exponent of the packing's
    # variable, each additive
    dkey, dslot = zip(*_key_slots(ring, (v.monomial_parts()[0] for v in d), along))
    code = _weight_codes(weights)
    gkey, gslot, blocks = [], [], {}
    k = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                gkey.append(dkey[a] + dkey[b] + dkey[c])
                gslot.append(dslot[a] + dslot[b] + dslot[c])
                blocks.setdefault(code[a] + code[b] + code[c], []).append(k)
                k += 1
    last = n**3 - 1  # τ(k) = last − k
    # block −λ, each column followed by its image under τ, which lies in block λ
    order, seen = [], bytearray(n**3)
    for lam in sorted(blocks, key=lambda lam: (abs(lam), lam)):
        for k in blocks[lam]:
            for j in (k, last - k):
                if not seen[j]:
                    seen[j] = 1
                    order.append(j)
    # column -> row -> (expected entry there, and its partner's slot shift)
    pending: dict[int, dict[int, tuple[dict, int]]] = {}
    done = bytearray(n**3)
    paired = 0
    for col in order:
        column = lhs[-1].column(col)
        for op in lhs[-2::-1]:
            column = op(column)
        expected = pending.pop(col, {})
        kc, sc, tc = gkey[col], gslot[col], last - col
        for row, value in column.items():
            if row in expected:
                want, bits = expected.pop(row)
                if want != shifted(value, 0, bits):
                    return None
                paired += 2
                continue
            # the partner entry is value·g(row)/g(col); a negative power of
            # the packing's variable moves onto the partner's side, so no slot
            # shift is negative.  Every exponent of that variable in L is a
            # multiple of the step, so a ratio whose exponent is not has no
            # partner.
            dk, (ds, odd) = gkey[row] - kc, divmod(gslot[row] - sc, step)
            if odd:
                return None
            want, bits = shifted(value, dk, width * max(ds, 0)), width * max(-ds, 0)
            partner = last - row
            if partner == col:
                # the partner is in this column, at row τ(col), or is this entry
                other = column.get(tc)
                if other is None or want != shifted(other, 0, bits):
                    return None
                paired += 1
            elif done[partner]:
                return None  # its partner's column had no entry for it
            else:
                pending.setdefault(partner, {})[tc] = (want, bits)
        if expected:
            return None  # entries whose partner here is zero
        done[col] = 1
    return paired


def yang_baxter_witness(r12: SMatrix, r13: SMatrix, r23: SMatrix, weights: Sequence[tuple]) -> str:
    """The witness of R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ on V⊗V⊗V, for operators ``r12``,
    ``r13`` and ``r23`` on V ⊗ V placed on those factors, with ``weights``
    the weights of V's basis; "" when it holds.  This is the one decider of
    the braid relation and of the spectral YBE.

    Where ``transpose_reflection`` certifies Rᵀ = Π·G·R·G⁻¹·Π for each
    distinct operator (types B, C and D), transposing the left side reverses
    the product and Π₃G₃ conjugates each factor to its transpose, so the
    right side is G₃⁻¹·Π₃·LHSᵀ·Π₃·G₃: only the left side is computed, and
    checked against its own reflection (``reflected_column_pairs``).
    Otherwise, and for the witness of any failure, both sides are compared
    one column at a time (``first_column_mismatch``), and a failure names
    its column and row as basis vectors.

    All three operators are packed at one width B = M.bit_length() + 1
    (``matrices.pair_actions``), M the product of their largest column ℓ1
    norms, which bounds every coefficient of either side, so equal packed
    values are equal values (README, item 6)."""
    n = isqrt(r12.nrows)
    lhs = pair_actions(n, ((r12, (1, 2)), (r13, (1, 3)), (r23, (2, 3))))
    d = transpose_reflection(list({id(m): m for m in (r12, r13, r23)}.values()))
    if d is not None and reflected_column_pairs(lhs, d, weights) is not None:
        return ""
    return first_column_mismatch(lhs, lhs[::-1])
