"""Quantum root vectors realized as matrices on the fundamental module, and
the per-type closed forms for them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .lyndon import ConvexOrder, bracket_tower
from .matrices import SMatrix
from .rep import Representation
from .report import Report, first_mismatch
from .rootdata import Root, omega_pairing


@dataclass
class RootVectorMatrices:
    rep: Representation
    order: ConvexOrder
    e: dict[tuple[int, ...], SMatrix]  # keyed by root.alpha
    f: dict[tuple[int, ...], SMatrix]

    def e_of(self, rt: Root) -> SMatrix:
        return self.e[rt.alpha]

    def f_of(self, rt: Root) -> SMatrix:
        return self.f[rt.alpha]


def build_root_vector_matrices(rep: Representation, order: ConvexOrder) -> RootVectorMatrices:
    """Evaluate the bracketing recursion e_γ = e_α e_β - (ω'_β, ω_α) e_β e_α,
    f_γ = f_β f_α - (ω'_α, ω_β)^{-1} f_α f_β over minimal pairs
    (``lyndon.bracket_tower``)."""
    rs, ring = rep.rs, rep.ring
    if order.rs is not rs and order.rs.family != rs.family:
        raise ValueError("representation and order built from different root systems")
    pairing = lambda lam, mu: omega_pairing(rs, ring, lam, mu)
    e = bracket_tower(order, rep.e, pairing, operator.matmul, "e")
    f = bracket_tower(order, rep.f, pairing, operator.matmul, "f")
    return RootVectorMatrices(rep, order, e, f)


def closed_form_root_vectors(rep: Representation, rt: Root) -> tuple[SMatrix, SMatrix]:
    """The printed closed forms for ρ(e_γ), ρ(f_γ) per classical type."""
    ring, n, N = rep.ring, rep.n, rep.N
    fam = rep.family
    R = lambda **p: ring.mono(**p)
    one = ring.one
    pr = rep.prime

    def mat(*terms):
        return SMatrix.from_entries(ring, N, N, [(a - 1, b - 1, c) for (a, b, c) in terms])

    i, j = rt.i, rt.j
    if fam == "C" and rt.kind == "g" and i == j == n:
        # α_n itself; the two positions of the j = n display coincide here
        return rep.e[n], rep.f[n]
    if fam == "A":
        return mat((i, j + 1, one)), mat((j + 1, i, one))
    if fam == "B":
        if rt.kind == "g":
            e = mat((i, j + 1, one), (pr(j + 1), pr(i), -R(s=2 * (j - i))))
            if j < n:
                f = mat((j + 1, i, one), (pr(i), pr(j + 1), -R(s=2 * (i - j)) * R(r=-2, s=-2)))
            else:
                coeff = R(r=-1) + R(s=-1)
                f = mat((n + 1, i, coeff), (pr(i), n + 1, -coeff * R(s=2 * (i - n))))
            return e, f
        sign = ring.num((-1) ** (n + 1 - j))
        e = mat(
            (i, pr(j), sign),
            (j, pr(i), -sign * R(s=2 * (n - i)) * R(r=-2 * (n - j)) * R(r=1, s=1)),
        )
        fc = sign * (R(r=-1) + R(s=-1)) ** 2 * R(s=2 * (j - n))
        f = mat(
            (pr(j), i, fc * R(r=2 * (j - n))),
            (pr(i), j, -fc * R(s=2 * (i - n)) * R(r=1, s=1)),
        )
        return e, f
    if fam == "C":
        if rt.kind == "g":
            if j < n:
                e = mat((i, j + 1, one), (pr(j + 1), pr(i), -R(s=j - i)))
                f = mat((j + 1, i, one), (pr(i), pr(j + 1), -R(s=i - j) * R(r=-1, s=-1)))
            else:
                e = mat((i, pr(n), one), (n, pr(i), R(s=n + 1 - i)))
                f = mat((pr(n), i, R(r=-1, s=-1)), (pr(i), n, R(s=i - n - 1)))
            return e, f
        if i == j:
            e = mat((i, pr(i), R(s=n - i) * (R(r=1) + R(s=1))))
            f = mat((pr(i), i, R(s=i - n) * (R(r=-1) + R(s=-1))))
            return e, f
        sign = ring.num((-1) ** (n - j))
        e = mat((i, pr(j), sign), (j, pr(i), sign * R(r=j - n, s=n + 1 - i)))
        fc = ring.num((-1) ** (n - j)) * R(s=j - n)
        f = mat((pr(j), i, fc * R(r=j - n) * R(r=-1, s=-1)), (pr(i), j, fc * R(s=i - n - 1)))
        return e, f
    if rt.kind == "g":
        e = mat((i, j + 1, one), (pr(j + 1), pr(i), -R(s=j - i)))
        f = mat((j + 1, i, one), (pr(i), pr(j + 1), -R(s=i - j) * R(r=-1, s=-1)))
        return e, f
    sign = ring.num((-1) ** (n - j))
    e = mat((i, pr(j), sign * R(r=-1, s=-1)), (j, pr(i), -sign * R(r=j - n, s=n - i - 1)))
    f = mat((pr(j), i, sign * R(r=j - n, s=j - n)), (pr(i), j, -sign * R(s=i + j + 1 - 2 * n)))
    return e, f


def verify_closed_forms(rvm: RootVectorMatrices) -> Report:
    """Recursion output equals the printed closed form for every root."""
    rep = rvm.rep
    out = Report()
    with out.timed("root-vector-closed-forms", rep.family, rep.n) as it:
        w = ""
        for rt in rep.rs.positive:
            ec, fc = closed_form_root_vectors(rep, rt)
            we = first_mismatch(rvm.e_of(rt), ec, rep.N)
            wf = first_mismatch(rvm.f_of(rt), fc, rep.N)
            if we:
                w = w or f"e_{rt.label()}: {we}"
            if wf:
                w = w or f"f_{rt.label()}: {wf}"
        it.witness = w
    return out


def verify_nilpotency(rvm: RootVectorMatrices) -> Report:
    """Squares vanish except for the B-type roots ending at the short node,
    whose square is the printed rank-one matrix and whose cube vanishes."""
    rep = rvm.rep
    ring, n, N = rep.ring, rep.n, rep.N
    out = Report()
    with out.timed("root-vector-nilpotency", rep.family, rep.n) as it:
        w = ""
        zero = SMatrix.zero(ring, N, N)
        for rt in rep.rs.positive:
            e2 = rvm.e_of(rt) @ rvm.e_of(rt)
            if rep.family == "B" and rt.kind == "g" and rt.j == n:
                i = rt.i
                expect = SMatrix.from_entries(
                    ring, N, N, [(i - 1, rep.prime(i) - 1, -ring.mono(s=2 * (n - i)))]
                )
                w = w or first_mismatch(e2, expect, N)
                w = w or first_mismatch(e2 @ rvm.e_of(rt), zero, N)
                f2 = rvm.f_of(rt) @ rvm.f_of(rt)
                w = w or first_mismatch(f2 @ rvm.f_of(rt), zero, N)
            else:
                w = w or first_mismatch(e2, zero, N)
                w = w or first_mismatch(rvm.f_of(rt) @ rvm.f_of(rt), zero, N)
        it.witness = w
    return out


def verify_weight_shift(rvm: RootVectorMatrices) -> Report:
    """ρ(e_γ) sends the weight-μ line to the weight-(μ+γ) line.

    No catalogue entry runs this check yet: its item would change the
    ``certify-all`` report and so the report digests pinned in
    ``perfbench/expected.json``.  It joins the catalogue together with the
    next re-pin of those digests."""
    rep = rvm.rep
    out = Report()
    with out.timed("root-vector-weight-shift", rep.family, rep.n) as it:
        w = ""
        for rt in rep.rs.positive:
            for ii, row in rvm.e_of(rt).rows.items():
                for jj in row:
                    lhs = tuple(a - b for a, b in zip(rep.weights[ii], rep.weights[jj]))
                    if lhs != tuple(rt.eps):
                        w = w or f"e_{rt.label()} entry ({ii},{jj}) shifts weight by {lhs}"
        it.witness = w
    return out
