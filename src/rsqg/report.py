"""Certificate report structures shared by all verification entry points,
the one clock every check runs under, and the witnesses of a failing
operator identity: on V or V ⊗ V (``first_mismatch``; for an identity of
two products, ``product_mismatch``, which decides a conjugation by diagonal
factors on the support of the conjugated matrix) and, one column at a time,
on V⊗V⊗V (``first_column_mismatch``).  Where the factors of a V⊗³ identity
have a certified gauged transpose symmetry (``transpose_reflection``), its
right side is the reflected left side, and ``reflected_column_pairs``
decides it from the left side alone."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterator, Sequence

from .matrices import PairAction, SMatrix, scalar_of
from .rootdata import _solve_exact
from .scalars import Scalar, _pack_exps, _pquotient_exp, _pshift, _unpack_exps


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


def first_column_mismatch(
    lhs: Sequence[PairAction],
    rhs: Sequence[PairAction],
    column_bound: Callable[[dict[int, object]], tuple[int, str] | None] | None = None,
) -> str:
    """The witness of lhs[0]⋯lhs[-1] = rhs[0]⋯rhs[-1] on V⊗V⊗V, for products
    of operators on two of its factors: both sides are applied to one basis
    vector v_a⊗v_b⊗v_c at a time, so one column of each side is alive at a
    time and no V⊗³ matrix is built.  Each side's rightmost operator acts on
    the basis vector, so its result is read as a stored column.

    Every column holds kernel values (``matrices.PairAction``) from the
    stored columns to the comparison, and ``column_bound`` is given the left
    side's column; only the values a witness prints become Scalars.

    The first column (in index order) that fails is named with its first
    differing row and both sides' values there; where the sides agree,
    ``column_bound(lhs_column)`` may name a row and what is wrong with it.
    "" when every column passes."""
    n, ring = lhs[0].n, lhs[0].ring
    where = lambda col, row: f"column {basis_vector(col, n, 3)}, row {basis_vector(row, n, 3)}"
    show = lambda column, row: scalar_of(ring, column[row]) if row in column else 0
    for col in range(n**3):
        left, right = lhs[-1].column(col), rhs[-1].column(col)
        for op in lhs[-2::-1]:
            left = op(left)
        for op in rhs[-2::-1]:
            right = op(right)
        if left != right:
            row = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            return f"{where(col, row)}: LHS {show(left, row)} vs RHS {show(right, row)}"
        bad = column_bound(left) if column_bound else None
        if bad:
            return f"{where(col, bad[0])}: {bad[1]}"
    return ""


def transpose_reflection(ops: Sequence[SMatrix], flip: bool = False) -> list[Scalar] | None:
    """The diagonal D = diag(d_1, …, d_N) of r,s-monomials of coefficient 1
    with Mᵀ = Π·G·M·G⁻¹·Π for every operator M in ``ops`` on V ⊗ V (with
    ``flip``: P·Mᵀ·P = Π·G·M·G⁻¹·Π, P the flip), where Π = J⊗J, J reverses
    V's basis (v_a ↦ v_{N+1−a}) and G = D⊗D; None when there is none.

    Entrywise, with σ = Π (or P·Π) as a permutation of V ⊗ V, the identity
    reads M[σl, σk] = M[k, l]·G(k)/G(l) for every (k, l).  So every stored
    entry needs a stored partner at (σl, σk) that is the entry times an
    r,s-monomial, whose exponent is that of G(k)/G(l): one linear equation
    in the exponents of D.  Entries that give the same equation are one
    row; D is solved from the distinct rows by elimination over ℚ, and every
    row, so every stored entry, is checked against the solution."""
    m0 = ops[0]
    ring, N = m0.ring, isqrt(m0.nrows)
    ir, i_s = ring.index["r"], ring.index["s"]
    one_den = ring._one_den

    def sigma(k: int) -> int:
        a, b = divmod(k, N)
        return (N - 1 - b) * N + N - 1 - a if flip else (N - 1 - a) * N + N - 1 - b

    equations: dict[tuple, tuple[int, int]] = {}  # distinct row -> (r, s) exponents of G(k)/G(l)
    for m in ops:
        rows = m.rows
        for k, row in rows.items():
            sk = sigma(k)
            for l, v in row.items():
                sl = sigma(l)
                w = rows.get(sl, {}).get(sk)
                if w is None:
                    return None
                if (sl, sk) < (k, l):
                    continue  # the pair was or will be read from its partner
                if v._den is not one_den or w._den is not one_den:
                    return None
                q = _pquotient_exp(w._num, v._num)
                if q is None:
                    return None
                e = _unpack_exps(q, ring.nvars)
                if any(x for t, x in enumerate(e) if t not in (ir, i_s)):
                    return None
                # and, read from the partner, G(σl)/G(σk) = G(l)/G(k)
                for (kk, ll), sign in (((k, l), 1), ((sl, sk), -1)):
                    coeff: dict[int, int] = {}
                    for digit, c in ((kk // N, 1), (kk % N, 1), (ll // N, -1), (ll % N, -1)):
                        coeff[digit] = coeff.get(digit, 0) + c
                    key = tuple(sorted((digit, c) for digit, c in coeff.items() if c))
                    if equations.setdefault(key, (sign * e[ir], sign * e[i_s])) != (sign * e[ir], sign * e[i_s]):
                        return None
    solved = _solve_exact([dict(key) for key in equations], list(equations.values()), N)
    if solved is None or any(Fraction(x).denominator != 1 for pair in solved for x in pair):
        return None
    exps = [(int(er), int(es)) for er, es in solved]
    for key, rhs in equations.items():
        if tuple(sum(c * exps[a][t] for a, c in key) for t in (0, 1)) != rhs:
            return None
    out = []
    for er, es in exps:
        vec = [0] * ring.nvars
        vec[ir], vec[i_s] = er, es
        out.append(Scalar(ring, {_pack_exps(vec): 1}, one_den, _raw=True))
    return out


def _weight_codes(weights: Sequence[tuple]) -> list[int]:
    """One int per basis vector of V, additive on V⊗V⊗V and odd under
    λ ↦ −λ: the weight's ε-coordinates, scaled to integers, as digits of a
    balanced base large enough for a sum of three."""
    scale = lcm(*(Fraction(x).denominator for w in weights for x in w))
    ints = [[int(x * scale) for x in w] for w in weights]
    base = 6 * max((abs(x) for w in ints for x in w), default=0) + 1
    return [sum(x * base**t for t, x in enumerate(w)) for w in ints]


def reflected_column_pairs(
    lhs: Sequence[PairAction],
    d: Sequence[Scalar],
    weights: Sequence[tuple],
    flip: bool = False,
    column_bound: Callable[[dict[int, object]], tuple[int, str] | None] | None = None,
) -> int | None:
    """Decide lhs[0]⋯lhs[-1] = G₃⁻¹·T·(lhs[0]⋯lhs[-1])ᵀ·T·G₃ on V⊗V⊗V from
    the left side alone, where G₃ = D⊗D⊗D for the diagonal ``d`` of
    ``transpose_reflection`` and T permutes the basis by τ: τ(a, b, c) =
    (Ja, Jb, Jc), or with ``flip`` (Jc, Jb, Ja).  Where the lemma holds,
    the right side of the spectral YBE (and, with ``flip``, of the braid
    relation) is exactly this reflection of the left side.

    Entrywise: L[u, v]·g(u) = L[τv, τu]·g(v) with g = d⊗d⊗d.  The columns
    of L are computed one at a time, as in ``first_column_mismatch``, and
    ``column_bound`` is run on each.  An entry waits until the column of its
    partner arrives, is compared with it, and both are dropped; a
    self-paired entry (τu = v) needs g(u) = g(v).  L preserves weight and τ
    maps weight λ to −λ, so an entry of a column of weight λ waits for a
    column of weight −λ.  The columns run by weight, −λ before λ, each
    followed by its image under τ: at B2, D3 and B3 this holds at most 4.2k,
    5.2k and 9.7k terms pending, against 17k, 24k and 55k in index order.

    The number of left-side entries compared with their partners (every
    nonzero entry of L), or None on the first failure of any kind, for
    which the caller reruns ``first_column_mismatch`` to get the witness."""
    n = lhs[0].n
    dexp = [v.monomial_parts()[0] for v in d]
    code = _weight_codes(weights)
    g, tau, blocks = [], [], {}
    k = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                g.append(dexp[a] + dexp[b] + dexp[c])
                ta, tc = (n - 1 - c, n - 1 - a) if flip else (n - 1 - a, n - 1 - c)
                tau.append((ta * n + n - 1 - b) * n + tc)
                blocks.setdefault(code[a] + code[b] + code[c], []).append(k)
                k += 1
    # block −λ, each column followed by its image under τ, which lies in block λ
    order, seen = [], bytearray(n**3)
    for lam in sorted(blocks, key=lambda lam: (abs(lam), lam)):
        for k in blocks[lam]:
            for j in (k, tau[k]):
                if not seen[j]:
                    seen[j] = 1
                    order.append(j)
    pending: dict[int, dict[int, dict]] = {}  # column -> row -> expected entry there
    done = bytearray(n**3)
    paired = 0
    for col in order:
        column = lhs[-1].column(col)
        for op in lhs[-2::-1]:
            column = op(column)
        if column_bound and column_bound(column):
            return None
        expected = pending.pop(col, {})
        gc, tc = g[col], tau[col]
        for row, value in column.items():
            if type(value) is not dict:
                return None  # only Laurent entries are compared here
            if row in expected:
                if expected.pop(row) != value:
                    return None
                paired += 2
                continue
            partner = tau[row]
            if partner == col:
                # the partner is in this column, at row τ(col), or is this entry
                same = g[row] == gc if tc == row else _pshift(value, g[row] - gc) == column.get(tc)
                if not same:
                    return None
                paired += 1
            elif done[partner]:
                return None  # its partner's column had no entry for it
            else:
                pending.setdefault(partner, {})[tc] = _pshift(value, g[row] - gc)
        if expected:
            return None  # entries whose partner here is zero
        done[col] = 1
    return paired
