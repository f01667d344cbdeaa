"""Certificate report structures shared by all verification entry points,
the one clock every check runs under, and the witnesses of a failing
operator identity: on V or V ⊗ V (``first_mismatch``; for an identity of
two products, ``product_mismatch``, which decides a conjugation by diagonal
factors on the support of the conjugated matrix) and, one column at a time,
on V⊗V⊗V (``first_column_mismatch``).

The one Yang–Baxter decider, ``yang_baxter_witness``, decides R₁₂R₁₃R₂₃ =
R₂₃R₁₃R₁₂ on V⊗V⊗V for the braid relation and the spectral YBE alike, on
the N² columns that generate V⊗³ once its premises hold on V⊗V and V:
R̂ commutes with every Δ(e_i) and Δ(ω_i) (``commutation_witness``, shared
with the intertwining certificate), and V is generated from v_N by the e_i
(``generation_witness``).  Its columns run on values packed along s
(``matrices.PairAction``) at the one width the decider proves for its three
operators, compare one chain of them with its reverse on packed values and
read back only what a witness prints."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .matrices import PairAction, SMatrix, compose_flip, pair_actions, read_back
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


def first_mismatch(a: SMatrix, b: SMatrix, n: int) -> str:
    """Coordinates and both values of the first differing entry (grlex row
    order), the row and column named as basis vectors, with ``n`` = dim V:
    v_a for operators on V, v_a⊗v_b for operators on V ⊗ V, told apart by
    the size of ``a``.

    Scalars are canonical, so equal entries are equal as stored and ``a == b``
    settles a match without the subtraction; a stored explicit zero only
    sends the comparison on to it."""
    if a == b:
        return ""
    d = a - b
    if d.is_zero():
        return ""
    i, j, _ = d.entries()[0]
    power = {n: 1, n * n: 2}.get(a.nrows)
    if power is None:
        raise ValueError(f"a {a.nrows}x{a.ncols} matrix acts on neither V nor V ⊗ V with dim V = {n}")
    return f"row {basis_vector(i, n, power)}, column {basis_vector(j, n, power)}: LHS {a.get(i, j)} vs RHS {b.get(i, j)}"


def _diagonal(a: SMatrix) -> dict[int, Scalar] | None:
    """The stored diagonal of a square diagonal matrix; None for any other."""
    if a.nrows != a.ncols or not a.is_diagonal():
        return None
    return {i: row[i] for i, row in a.rows.items() if row}


def product_mismatch(
    lhs: tuple[SMatrix, SMatrix], rhs: tuple[SMatrix, SMatrix], n: int, c: Scalar | None = None
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


def first_column_mismatch(chain: Sequence[PairAction], columns: Iterable[int]) -> str:
    """The witness of chain[0]⋯chain[-1] = chain[-1]⋯chain[0] on the
    ``columns`` of V⊗V⊗V (flattened indices, compared in the order given),
    for the actions of one ``pair_actions`` call: both sides are applied to
    one basis vector v_a⊗v_b⊗v_c at a time, the rightmost action's result
    read as a stored column, so no V⊗³ matrix is built.  The sides multiply
    the same packed actions (``matrices.PairAction``), so they share one
    packing and one shift of s, and their packed values are compared as
    they are; only the values a witness prints become Scalars.

    The first column whose sides differ is named with its first differing
    row and both sides' values there; "" when every column passes."""
    n = chain[0].n
    where = lambda col, row: f"column {basis_vector(col, n, 3)}, row {basis_vector(row, n, 3)}"
    show = lambda column, row: read_back(chain, column[row]) if row in column else 0
    for col in columns:
        left, right = chain[-1].column(col), chain[0].column(col)
        for op in chain[-2::-1]:
            left = op(left)
        for op in chain[1:]:
            right = op(right)
        if left != right:
            row = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            return f"{where(col, row)}: LHS {show(left, row)} vs RHS {show(right, row)}"
    return ""


def commutation_witness(rep, op: SMatrix, kinds: Sequence[str]) -> str:
    """The witness that ``op`` on V⊗V commutes with Δ(g) for the generators
    g of ``kinds`` at every node of the module ``rep`` = V, read from its
    tensor square: "Δ(e_1): " and the ``product_mismatch`` of the first
    generator (node by node, ``kinds`` in order at each) that ``op`` does not
    commute with; "" when it commutes with all of them.  The diagonal ω_i
    and ω′_i are checked on the support of ``op``."""
    for i in range(1, rep.n + 1):
        for kind in kinds:
            mk = rep.square.table(kind)[i]
            w = product_mismatch((mk, op), (op, mk), rep.N)
            if w:
                return f"Δ({kind}_{i}): {w}"
    return ""


def generation_witness(rep) -> str:
    """"" when the module ``rep`` = V is generated from its last basis
    vector v_N by its e_i with every ω_i invertible; otherwise the first
    fault.  Every ω_i must be diagonal with no zero on its diagonal, and
    e-words must reach every basis vector from v_N.  Each e_i is read as
    the monomial matrix it is: a column of e_i with one nonzero entry
    carries v_k to a nonzero multiple of one basis vector, which is
    invertible over the fraction field, and any other column carries v_k
    nowhere, so a module that is not reached this way fails."""
    N = rep.N
    for i in range(1, rep.n + 1):
        om = rep.omega[i]
        if not om.is_diagonal() or any(om.get(k, k).is_zero() for k in range(N)):
            return f"ω_{i} is not an invertible diagonal matrix"
    moves: dict[int, list[int]] = {}
    for i in range(1, rep.n + 1):
        targets: dict[int, list[int]] = {}
        for row, entries in rep.e[i].rows.items():
            for col, v in entries.items():
                if not v.is_zero():
                    targets.setdefault(col, []).append(row)
        for col, rows in targets.items():
            if len(rows) == 1:
                moves.setdefault(col, []).extend(rows)
    reached, todo = {N - 1}, [N - 1]
    while todo:
        for k in moves.get(todo.pop(), ()):
            if k not in reached:
                reached.add(k)
                todo.append(k)
    missed = [k for k in range(N) if k not in reached]
    return f"v_{missed[0] + 1} is not reached from v_{N} by the e_i" if missed else ""


def yang_baxter_witness(rep, rhat: SMatrix, at: Sequence[Scalar] | None = None) -> str:
    """The witness of R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ on V⊗V⊗V for R = R̂∘τ, with
    ``rhat`` = R̂ an operator on V⊗V for the module ``rep`` = V; "" when it
    holds.  This is the one decider of the braid relation, where all three
    factors are R, and of the spectral YBE, where R̂ = R̂(z) and ``at`` =
    (x, xy, y), values of z in another ring: the factors are then R(x),
    R(xy) and R(y), the images of R(z) under the ring maps z ↦ x, xy, y.

    Both sides times the reversal S: v_a⊗v_b⊗v_c ↦ v_c⊗v_b⊗v_a are products
    of R̂₁₂ and R̂₂₃, so they are module maps of V⊗³ wherever R̂ commutes
    with every Δ(e_i) and Δ(ω_i), and two module maps that agree on
    (V⊗V)⊗v_N, which generates V⊗³, are equal (README, items 4 and 6).  So
    the decider checks two premises on V⊗V and V and then compares the two
    sides on the N² columns v_N⊗v_b⊗v_c only, which S carries to
    (V⊗V)⊗v_N:

    - V is generated from v_N by the e_i, with every ω_i invertible
      (``generation_witness``);
    - R̂ commutes with Δ(e_i) and Δ(ω_i) for every node i
      (``commutation_witness``); with ``at``, the premise holds for R̂(z),
      so it holds for each of its images.

    A failing premise is the witness, prefixed "premise: ", and the sides
    are not compared.  Otherwise one ``pair_actions`` call packs R once,
    times its shift s^σ, and places it as R₁₂, R₁₃, R₂₃ at one width
    B = M.bit_length() + 1, M the product of the factors' largest column ℓ1
    norms, which bounds every coefficient of either side, so equal packed
    values are equal values (README, item 6).  With ``at``, no factor is substituted: each
    image z ↦ m is a monomial with coefficient 1 in x and y, which sends
    distinct terms to distinct terms and keeps every coefficient and every
    power of s, so R(m) packs as R(z) does with each key's z-digit k moved to
    m^k, and B, the step and the shift follow from R(z)'s.
    ``first_column_mismatch`` compares the chain with its reverse and names
    the first failing column and row as basis vectors."""
    w = generation_witness(rep) or commutation_witness(rep, rhat, ("e", "omega"))
    if w:
        return f"premise: {w}"
    r = compose_flip(rhat)
    n = rep.N
    chain = pair_actions(n, [(r, (1, 2)), (r, (1, 3)), (r, (2, 3))], None if at is None else [{"z": z} for z in at])
    return first_column_mismatch(chain, range((n - 1) * n * n, n**3))
