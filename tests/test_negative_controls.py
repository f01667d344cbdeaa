"""Negative controls for the defining-relation certificates: one small
perturbation of a module per relation item, after which that item must fail
with a witness."""

from __future__ import annotations

import pytest

from rsqg.embed import verify_dj_relations
from rsqg.matrices import SMatrix
from rsqg.rep import (
    build_evaluation,
    build_fundamental,
    verify_affine_relations,
    verify_finite_relations,
)

CASES = [("B", 2), ("C", 2), ("D", 3)]

RELATIONS = {
    "finite": (build_fundamental, verify_finite_relations),
    "affine": (build_evaluation, verify_affine_relations),
    "dj": (build_fundamental, verify_dj_relations),
}


def _add(m: SMatrix, i: int, j: int, c) -> SMatrix:
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, c)])


def _off_diagonal(m: SMatrix) -> SMatrix:
    """One off-diagonal entry set to 1."""
    return _add(m, 0, 1, m.ring.one)


def _entry_times_r(m: SMatrix) -> SMatrix:
    """The first nonzero entry (a diagonal one for a diagonal matrix) times r."""
    i, j, v = m.entries()[0]
    return _add(m, i, j, v * (m.ring.mono(r=1) - m.ring.one))


def _times_x(m: SMatrix) -> SMatrix:
    return m.scale(m.ring.atom("x"))


def _scalar_times_r(c):
    return c * c.ring.mono(r=1)


# (relations, failing item, generator table or field, node ("n" = the last), change, cases)
PERTURBATIONS = [
    ("finite", "cartan-commute", "omega", 1, _off_diagonal, CASES),
    ("finite", "cartan-conj-e-f", "omega", 1, _entry_times_r, CASES),
    ("finite", "cartan-prime-conj-e-f", "omega_prime", 1, _entry_times_r, CASES),
    ("finite", "e-f-commutator", "e", "n", _entry_times_r, CASES),
    ("finite", "serre", "e", "n", _entry_times_r, [("D", 3)]),
    ("finite", "weight-labels", "omega", 1, _entry_times_r, CASES),
    ("affine", "affine-cartan-commute", "omega", 0, _off_diagonal, CASES),
    ("affine", "affine-central", "c", None, _scalar_times_r, CASES),
    ("affine", "affine-cartan-conj", "omega", 0, _entry_times_r, CASES),
    ("affine", "affine-e-f-commutator", "e", 0, _entry_times_r, CASES),
    ("affine", "affine-serre", "e", 0, _entry_times_r, [("B", 2), ("D", 3)]),
    ("affine", "degree-conjugation", "e", 0, _times_x, CASES),
    ("dj", "dj-cartan", "omega", 1, _entry_times_r, CASES),
    ("dj", "dj-commutator", "e", "n", _entry_times_r, CASES),
    ("dj", "dj-serre", "e", "n", _entry_times_r, [("D", 3)]),
]


@pytest.mark.parametrize(
    "relations,item,table,node,change,family,rank",
    [
        pytest.param(rel, item, table, node, change, family, rank, id=f"{item}-{family}{rank}")
        for rel, item, table, node, change, cases in PERTURBATIONS
        for family, rank in cases
    ],
)
def test_perturbed_module_fails_the_item(relations, item, table, node, change, family, rank):
    build, verify = RELATIONS[relations]
    mod = build(family, rank)
    if node is None:
        setattr(mod, table, change(getattr(mod, table)))
    else:
        gens = getattr(mod, table)
        node = rank if node == "n" else node
        gens[node] = change(gens[node])
    items = {it.name: it for it in verify(mod).items}
    assert not items[item].ok
    assert items[item].witness
