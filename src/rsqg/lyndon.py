"""Word combinatorics over the alphabet {1..n}: Lyndon tests, standard and
canonical factorizations, the root ↔ standard-word bijection computed by the
max-over-decompositions recursion, convex orders, minimal pairs, and the one
bracketing recursion over them (``bracket_tower``).

Lexicographic convention: a proper prefix is smaller than the word itself,
so [1] < [1,2] and [1,2] < [2].
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Root, RootSystem

Word = tuple[int, ...]


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than all of its proper suffixes."""
    if not w:
        raise ValueError("empty word")
    return all(tuple(w) < tuple(w[a:]) for a in range(1, len(w)))


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word at its longest proper Lyndon prefix; both parts
    are again Lyndon."""
    w = tuple(w)
    if len(w) < 2:
        raise ValueError("need length at least 2")
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    for a in range(len(w) - 1, 0, -1):
        if is_lyndon(w[:a]):
            w1, w2 = w[:a], w[a:]
            if not is_lyndon(w2):
                raise AssertionError("right factor failed the Lyndon test")
            return w1, w2
    raise AssertionError("unreachable: [first letter] is always Lyndon")


def canonical_factorization(w: Word) -> list[Word]:
    """Unique factorization into a non-increasing product of Lyndon words
    (Duval's algorithm)."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    out: list[Word] = []
    k = 0
    n = len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        while k <= i:
            out.append(w[k : k + j - i])
            k += j - i
    return out


@dataclass
class ConvexOrder:
    """A total order on the positive roots together with the defining
    root ↔ standard-Lyndon-word tables."""

    rs: RootSystem
    roots: list[Root]  # increasing
    word_of: dict[tuple[int, ...], Word]  # keyed by root.alpha

    def __post_init__(self):
        self._pos = {rt.alpha: k for k, rt in enumerate(self.roots)}

    def less(self, a: Root, b: Root) -> bool:
        return self._pos[a.alpha] < self._pos[b.alpha]

    def word(self, rt: Root) -> Word:
        return self.word_of[rt.alpha]

    def decreasing(self) -> list[Root]:
        return list(reversed(self.roots))


def lalonde_ram(rs: RootSystem) -> ConvexOrder:
    """Assign to every positive root its standard Lyndon word: single letters
    on simple roots, and for a higher root the lexicographic maximum of
    word(γ1)·word(γ2) over all decompositions γ = γ1 + γ2 into positive roots
    with word(γ1) < word(γ2)."""
    word_of: dict[tuple[int, ...], Word] = {}
    by_height: dict[int, list[Root]] = {}
    for rt in rs.positive:
        by_height.setdefault(rt.height, []).append(rt)
    for rt in rs.simple:
        word_of[rt.alpha] = (rt.alpha.index(1) + 1,)
    for h in sorted(by_height):
        if h == 1:
            continue
        for rt in by_height[h]:
            best: Word | None = None
            for g1 in rs.positive:
                if g1.height >= h:
                    continue
                rest = tuple(x - y for x, y in zip(rt.alpha, g1.alpha))
                g2 = rs.by_alpha.get(rest)
                if g2 is None:
                    continue
                w1, w2 = word_of[g1.alpha], word_of[g2.alpha]
                if w1 < w2:
                    cand = w1 + w2
                    if best is None or cand > best:
                        best = cand
            if best is None:
                raise AssertionError(f"no decomposition found for {rt}")
            word_of[rt.alpha] = best
    roots = sorted(rs.positive, key=lambda rt: word_of[rt.alpha])
    return ConvexOrder(rs, roots, word_of)


def is_convex(order: ConvexOrder) -> bool:
    """Exhaustively check α < α+β < β for all positive-root pairs whose sum
    is again a root."""
    rs = order.rs
    for a in rs.positive:
        for b in rs.positive:
            if not order.less(a, b):
                continue
            c = rs.root_sum(a, b)
            if c is None:
                continue
            if not (order.less(a, c) and order.less(c, b)):
                return False
    return True


def minimal_pair(order: ConvexOrder, gamma: Root) -> tuple[Root, Root]:
    """The decomposition γ = α + β coming from the standard factorization of
    the standard Lyndon word of γ; it admits no strictly tighter decomposition
    (no α < α' < γ < β' < β with α' + β' = γ)."""
    if gamma.is_simple():
        raise ValueError(f"{gamma.label()} is simple")
    rs = order.rs
    w1, w2 = standard_factorization(order.word(gamma))
    inv = {w: a for a, w in order.word_of.items()}
    a = rs.by_alpha[inv[w1]]
    b = rs.by_alpha[inv[w2]]
    if rs.root_sum(a, b) is not gamma and rs.root_sum(a, b) != gamma:
        raise AssertionError("standard factorization does not split the root")
    return a, b


def bracket_tower(order: ConvexOrder, gens: dict, pairing, mul, side: str) -> dict:
    """One side of the bracketed root vectors of every positive root, keyed
    by ``root.alpha``: e_γ = e_α e_β − pairing(β, α)·e_β e_α (``side`` "e")
    or f_γ = f_β f_α − pairing(α, β)⁻¹·f_α f_β (``side`` "f") over the
    minimal pair (α, β) of γ, from ``gens[i]`` on the simple root α_i.
    ``pairing(λ, μ)`` takes simple-root coordinates and ``mul`` is the
    product; the values need ``-`` and ``scale``.  The two-parameter towers
    pair by (ω′_λ, ω_μ), the one-parameter tower by q^{(λ,μ)}."""
    out: dict = {}
    for rt in sorted(order.rs.positive, key=lambda r: r.height):
        if rt.is_simple():
            out[rt.alpha] = gens[rt.alpha.index(1) + 1]
            continue
        a, b = minimal_pair(order, rt)
        if side == "e":
            x, y, c = out[a.alpha], out[b.alpha], pairing(b.alpha, a.alpha)
        else:
            x, y, c = out[b.alpha], out[a.alpha], pairing(a.alpha, b.alpha).inv()
        out[rt.alpha] = mul(x, y) - mul(y, x).scale(c)
    return out


def check_minimal(order: ConvexOrder, gamma: Root, pair: tuple[Root, Root]) -> bool:
    """Independent check of minimality by scanning every decomposition."""
    rs = order.rs
    a, b = pair
    if not order.less(a, b):
        return False
    for a2 in rs.positive:
        b2_alpha = tuple(x - y for x, y in zip(gamma.alpha, a2.alpha))
        b2 = rs.by_alpha.get(b2_alpha)
        if b2 is None or not order.less(a2, b2):
            continue
        if order.less(a, a2) and order.less(b2, b):
            return False
    return True


def telescoped(order: ConvexOrder) -> list[tuple[tuple[int, ...], Word]]:
    """Drop all roots containing α_1 and shift indices down; the result should
    reproduce the order of the same family at rank n-1."""
    out = []
    for rt in order.roots:
        if rt.alpha[0] != 0:
            continue
        out.append((rt.alpha[1:], tuple(x - 1 for x in order.word(rt))))
    return out
