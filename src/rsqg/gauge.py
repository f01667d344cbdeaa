"""Monomial gauges: entries that are their partners times monomials whose
exponents are linear forms in unknown exponents (``monomial_gauge``), and
the exact sparse elimination over ℚ that solves the forms (``solve_exact``)."""

from __future__ import annotations

from math import floor
from typing import Mapping, Sequence

from .scalars import _cdiv, _pquotient_exp, _unpack_exps


class Inconsistent(ValueError):
    """No solution: ``args[0]`` is the first row (of ``solve_exact``) or triple
    (of ``monomial_gauge``) that admits none together with those before it."""


def solve_exact(rows: Sequence[Mapping[int, object]], rhs: Sequence[Sequence], n: int) -> tuple[list[tuple], int]:
    """One solution over ℚ of Σ_a rows[i][a]·x_a = rhs[i] for every i, with
    n unknowns and one or more right-hand sides (rhs[i] holds one value per
    side), and the rank of the system: x_a as a tuple of one value per side,
    free unknowns 0.  Raises ``Inconsistent`` at the first row that
    contradicts the rows before it.  Rows are sparse ({unknown: coefficient})
    and are taken one at a time into a reduced row echelon form: a pivot row
    has no entry in another pivot's column, so one pass over its pivot
    columns reduces a new row, and only a row that reduces to zero is read
    as a check of its right side."""
    pivots: dict[int, tuple[dict, list]] = {}
    for i, (row, sides) in enumerate(zip(rows, rhs)):
        coeffs = {a: c for a, c in row.items() if c}
        sides = list(sides)
        for p in [a for a in coeffs if a in pivots]:
            f = coeffs.pop(p)
            prow, psides = pivots[p]
            for a, c in prow.items():
                v = coeffs.get(a, 0) - f * c
                if v:
                    coeffs[a] = v
                else:
                    coeffs.pop(a, None)
            sides = [x - f * y for x, y in zip(sides, psides)]
        if not coeffs:
            if any(sides):
                raise Inconsistent(i)
            continue
        p = min(coeffs)
        f = coeffs.pop(p)
        new = {a: _cdiv(c, f) for a, c in coeffs.items()}
        new_sides = [_cdiv(x, f) for x in sides]
        for qrow, qsides in pivots.values():
            g = qrow.pop(p, 0)
            if g:
                for a, c in new.items():
                    v = qrow.get(a, 0) - g * c
                    if v:
                        qrow[a] = v
                    else:
                        qrow.pop(a, None)
                qsides[:] = [x - g * y for x, y in zip(qsides, new_sides)]
        pivots[p] = (new, new_sides)
    width = len(rhs[0]) if rhs else 0
    sol = [(0,) * width] * n
    for p, (_, sides) in pivots.items():
        sol[p] = tuple(sides)
    return sol, len(pivots)


def monomial_gauge(triples: Sequence[tuple], n: int, names: Sequence[str]) -> tuple[list[tuple[int, ...]], int]:
    """Integer exponents x_0, …, x_{n−1}, a tuple over ``names`` each, such
    that for every triple (form, value, partner) of Scalars value and
    partner, partner/value is the monomial of coefficient 1 in the named
    variables whose exponent (in internal units) is Σ c·x_a over the (a, c)
    pairs of ``form``.  Returns
    the x, free unknowns 0, and the number of free unknowns; raises
    ``Inconsistent`` at the first triple that admits none.  Triples with
    the same form give one equation, and every equation is checked against
    the integer solution."""
    first: dict[tuple, tuple[int, int]] = {}  # form -> (packed exponent, its first triple)
    for t, (terms, value, partner) in enumerate(triples):
        one_den = value.ring._one_den
        if value._den is not one_den or partner._den is not one_den or not value._num or not partner._num:
            raise Inconsistent(t)
        q = _pquotient_exp(partner._num, value._num)
        coeff: dict[int, int] = {}
        for a, c in terms:
            coeff[a] = coeff.get(a, 0) + c
        form = tuple(sorted((a, c) for a, c in coeff.items() if c))
        # an empty form admits only the ratio 1, whose packed exponent is 0
        if q is None or (q if not form else first.setdefault(form, (q, t))[0] != q):
            raise Inconsistent(t)
    rows, rhs, origin = [], [], []
    for form, (q, t) in first.items():
        ring = triples[t][1].ring
        e = _unpack_exps(q, ring.nvars)
        if any(x for v, x in zip(ring.names, e) if v not in names):
            raise Inconsistent(t)
        rows.append(dict(form))
        rhs.append(tuple(e[ring.index[v]] for v in names))
        origin.append(t)
    try:
        sol, rank = solve_exact(rows, rhs, n)
    except Inconsistent as exc:
        raise Inconsistent(origin[exc.args[0]]) from None
    # with the free unknowns at 0 the rational solution is unique, so a
    # fractional value rounded down breaks an equation below
    exps = [tuple(floor(x) for x in xs) for xs in sol]
    for row, side, t in zip(rows, rhs, origin):
        if tuple(sum(c * exps[a][v] for a, c in row.items()) for v in range(len(names))) != side:
            raise Inconsistent(t)
    return exps, n - rank

