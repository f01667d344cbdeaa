"""Certificate report structures shared by all verification entry points,
the one clock every check runs under, and the witnesses of a failing
operator identity: on V or V ⊗ V (``first_mismatch``; for an identity of
two products, ``product_mismatch``, which decides a conjugation by diagonal
factors on the support of the conjugated matrix) and, one column at a time,
on V⊗V⊗V (``first_column_mismatch``)."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .matrices import PairAction, SMatrix, scalar_of
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
