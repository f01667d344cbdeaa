"""Negative controls for every certificate: one small perturbation of a
module, of an operator a check is given, or of a value it computes, per
item, after which that item must fail with a witness.  A meta-test checks
that every item ``certify-all --long`` emits has one."""

from __future__ import annotations

import json
import re
from math import isqrt

import pytest

from conftest import generating_columns, matrix_form_witness, r_of, spectral_factors, v3_sides, z_range
from rsqg import affine, cli, embed, pairing, rep
from rsqg.catalogue import CATALOGUE, CaseContext
from rsqg.embed import modified_generators, verify_dj_relations
from rsqg.lyndon import minimal_pair
from rsqg.matrices import SMatrix
from rsqg.rep import (
    build_evaluation,
    build_fundamental,
    verify_affine_relations,
    verify_finite_relations,
    verify_highest_weight,
)
from rsqg.report import basis_vector
from rsqg.rmatrix import CoefficientTables
from rsqg.rootdata import build_root_system

CASES = [("B", 2), ("C", 2), ("D", 3)]
OPERATOR_CASES = [("A", 2), ("B", 2), ("C", 2), ("D", 3)]

RELATIONS = {
    "finite": (build_fundamental, verify_finite_relations),
    "affine": (build_evaluation, verify_affine_relations),
    "dj": (build_fundamental, lambda mod: verify_dj_relations(mod, modified_generators(mod))),
    "highest-weight": (build_fundamental, verify_highest_weight),
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


def _origin_plus_one(m: SMatrix) -> SMatrix:
    return _add(m, 0, 0, m.ring.one)


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
    ("finite", "weight-labels", "omega_prime", 1, _entry_times_r, OPERATOR_CASES),
    ("affine", "affine-cartan-commute", "omega", 0, _off_diagonal, CASES),
    ("affine", "affine-central", "c", None, _scalar_times_r, CASES),
    ("affine", "affine-cartan-conj", "omega", 0, _entry_times_r, CASES),
    ("affine", "affine-cartan-conj", "omega_prime", 0, _entry_times_r, OPERATOR_CASES),
    ("affine", "affine-e-f-commutator", "e", 0, _entry_times_r, CASES),
    ("affine", "affine-serre", "e", 0, _entry_times_r, [("B", 2), ("D", 3)]),
    ("affine", "degree-conjugation", "e", 0, _times_x, CASES),
    ("dj", "dj-cartan", "omega", 1, _entry_times_r, CASES),
    ("dj", "dj-commutator", "e", "n", _entry_times_r, CASES),
    ("dj", "dj-serre", "e", "n", _entry_times_r, [("D", 3)]),
    ("highest-weight", "highest-weight-annihilation", "e", 1, _origin_plus_one, OPERATOR_CASES),
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


@pytest.mark.parametrize("table,label", [("omega", "omega"), ("omega_prime", "omega'")])
@pytest.mark.parametrize("relations,item,node", [("finite", "cartan-commute", 1), ("affine", "affine-cartan-commute", 0)])
@pytest.mark.parametrize("family,rank", CASES)
def test_non_unit_cartan_entry_fails_cartan_commute(relations, item, node, table, label, family, rank):
    """ω_i (or ω′_i) with its first diagonal entry times 1 + r is still
    diagonal, so it commutes with every ω_j and ω′_j, but it is not
    invertible over the Laurent ring: the item fails and names the entry."""
    build, verify = RELATIONS[relations]
    mod = build(family, rank)
    gens = getattr(mod, table)
    v = gens[node].get(0, 0)
    gens[node] = _add(gens[node], 0, 0, v * mod.ring.mono(r=1))
    items = {it.name: it for it in verify(mod).items}
    assert not items[item].ok
    assert items[item].witness == f"{label}[{node}] on v_1 is {v * (mod.ring.one + mod.ring.mono(r=1))}, not a unit of the Laurent ring"


# -- operator certificates -----------------------------------------------------

# failing item -> (group, name) of the catalogue check that emits it
ITEM_CHECK = {
    "route-equivalence": ("rmatrix", "route"),
    "eigenvalues": ("rmatrix", "eigen"),
    "intertwining": ("rmatrix", "intertwine"),
    "min-poly": ("rmatrix", "minpoly"),
    "inverse": ("rmatrix", "inverse"),
    "weight-preservation": ("rmatrix", "weights"),
    "coefficient-tables": ("rmatrix", "tables"),
    "braid": ("rmatrix", "braid"),
    "specialize-finite": ("rmatrix", "specialize"),
    "specialize-affine": ("rmatrix", "specialize"),
    "affine-z0-limit": ("rmatrix", "specialize"),
    "affine-intertwiner-e": ("affine", "intertwine"),
    "affine-intertwiner-f": ("affine", "intertwine"),
    "affine-intertwiner-omega": ("affine", "intertwine"),
    "affine-intertwiner-omega-prime": ("affine", "intertwine"),
    "spectral-ybe": ("affine", "ybe"),
    "baxterize-match": ("affine", "baxterize-match"),
    "baxterize-scheme": ("affine", "baxterize-match"),
    "z-degree-bound": ("affine", "degree"),
    "unit-point": ("affine", "unit"),
    "root-vector-closed-forms": ("rootvec", "closed-forms"),
    "root-vector-nilpotency": ("rootvec", "nilpotency"),
    "root-vector-embedding": ("embed", "rootvec"),
    "twist-A-finite": ("embed", "twist"),
    "twist-A-affine": ("embed", "twist"),
    "twist-B-obstruction": ("embed", "twist"),
}


def _second_entry_times_r(m: SMatrix) -> SMatrix:
    i, j, v = m.entries()[1]
    return _add(m, i, j, v * (m.ring.mono(r=1) - m.ring.one))


def _corner_plus_one(m: SMatrix) -> SMatrix:
    return _add(m, 0, m.ncols - 1, m.ring.one)


def _swap_entry_times_r(m: SMatrix) -> SMatrix:
    """The coefficient of v_1 ⊗ v_2 in R̂(v_2 ⊗ v_1) times r."""
    N = isqrt(m.nrows)
    return _add(m, 1, N, m.get(1, N) * (m.ring.mono(r=1) - m.ring.one))


def _times_z_squared(m: SMatrix) -> SMatrix:
    return m.scale(m.ring.atom("z") ** 2)


AFFINE_INTERTWINER = [f"affine-intertwiner-{kind}" for kind in ("e", "f", "omega", "omega-prime")]

# (operator of the case context, change, failing items, cases); "e_top" is the
# root-vector matrix e_γ of the highest root, and "rxy" the affine
# intertwiner's R̂(x/y)
OPERATOR_PERTURBATIONS = [
    (
        "rhat",
        _entry_times_r,
        ["route-equivalence", "eigenvalues", "intertwining", "min-poly", "inverse", "braid"],
        OPERATOR_CASES,
    ),
    ("rhat", _entry_times_r, ["specialize-finite"], [("A", 2), ("B", 2)]),
    ("rhat", _entry_times_r, ["twist-A-finite"], [("A", 2)]),
    ("rhat", _entry_times_r, ["twist-B-obstruction"], [("B", 2)]),
    ("rbar", _entry_times_r, ["inverse"], OPERATOR_CASES),
    ("theta", _second_entry_times_r, ["route-equivalence", "inverse"], OPERATOR_CASES),
    ("rhat", _corner_plus_one, ["weight-preservation"], OPERATOR_CASES),
    ("rhat", _swap_entry_times_r, ["coefficient-tables"], OPERATOR_CASES),
    ("rxy", _entry_times_r, AFFINE_INTERTWINER[:2], OPERATOR_CASES),
    ("rxy", _corner_plus_one, AFFINE_INTERTWINER, OPERATOR_CASES),
    ("rz", _entry_times_r, ["baxterize-match", "baxterize-scheme", "unit-point", "spectral-ybe"], OPERATOR_CASES),
    ("zrhat", _entry_times_r, ["baxterize-match", "baxterize-scheme"], OPERATOR_CASES),
    ("zrbar", _entry_times_r, ["baxterize-match", "baxterize-scheme"], OPERATOR_CASES),
    ("rz", _entry_times_r, ["specialize-affine", "affine-z0-limit", "twist-A-affine"], [("A", 2)]),
    ("rz", _times_z_squared, ["z-degree-bound", "spectral-ybe"], OPERATOR_CASES),
    ("e_top", _entry_times_r, ["root-vector-closed-forms", "root-vector-embedding"], OPERATOR_CASES),
    ("e_top", _origin_plus_one, ["root-vector-nilpotency"], OPERATOR_CASES),
]


def _perturb(ctx: CaseContext, operator: str, change) -> None:
    if operator == "e_top":
        top = max(ctx.rep.rs.positive, key=lambda rt: rt.height)
        ctx.rvm.e[top.alpha] = change(ctx.rvm.e[top.alpha])
    elif operator == "rxy":
        ev_x, ev_y, rxy = ctx.intertwiner
        ctx.intertwiner = (ev_x, ev_y, change(rxy))
    else:
        setattr(ctx, operator, change(getattr(ctx, operator)))


@pytest.mark.parametrize(
    "operator,change,item,family,rank",
    [
        pytest.param(op, change, item, family, rank, id=f"{op}-{change.__name__}-{item}-{family}{rank}")
        for op, change, items, cases in OPERATOR_PERTURBATIONS
        for item in items
        for family, rank in cases
    ],
)
def test_perturbed_operator_fails_the_item(operator, change, item, family, rank):
    ctx = CaseContext(family, rank)
    _perturb(ctx, operator, change)
    (check,) = [c for c in CATALOGUE if (c.group, c.name) == ITEM_CHECK[item]]
    items = {it.name: it for it in check.run(ctx).items}
    assert not items[item].ok
    assert items[item].witness


YBE_CASES = [("A", 3), ("B", 2), ("C", 3), ("D", 4)]
BASIS2 = r"v_\d+⊗v_\d+"


def _plus_identity(m: SMatrix) -> SMatrix:
    """m + Id, which commutes with every generator where m does."""
    return m + SMatrix.identity(m.ring, m.nrows)


PREMISE = rf"premise: Δ\((e|omega)_\d+\): row {BASIS2}, column {BASIS2}: LHS (.+) vs RHS (.+)"
GENERATING = r"column v_(\d+)⊗v_\d+⊗v_\d+, row v_\d+⊗v_\d+⊗v_\d+: LHS (.+) vs RHS (.+)"


@pytest.mark.parametrize("change", [_entry_times_r, _plus_identity], ids=["entry", "plus-identity"])
@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_perturbed_rz_fails_spectral_ybe_with_a_basis_witness(family, rank, change):
    """One entry of R̂(z) times r fails the premise: the witness names a
    Δ(e_i) or Δ(ω_i), an entry v_a⊗v_b of V⊗V and two values there.
    R̂(z) + z·Id passes the premise and fails on the generating columns:
    the witness names a column v_N⊗v_b⊗v_c, the row, and two values."""
    ctx = CaseContext(family, rank)
    if change is _plus_identity:
        ctx.rz = ctx.rz + SMatrix.identity(ctx.rz.ring, ctx.rz.nrows).scale(ctx.rz.ring.atom("z"))
    else:
        ctx.rz = change(ctx.rz)
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    match = re.fullmatch(PREMISE if change is _entry_times_r else GENERATING, item.witness)
    assert match, item.witness
    if change is _plus_identity:
        assert int(match[1]) == ctx.zrep.N
    assert match[2] != match[3]


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2)])
def test_a_wrong_key_move_fails_spectral_ybe_with_a_column_witness(family, rank):
    """The decider forms R(x), R(xy) and R(y) by moving the packed keys of
    R(z) to the images x, x·y and y.  With x in place of x·y on factors
    (1, 3), the certified R̂(z) fails on a generating column, with the
    witness of the V⊗³ matrices R₁₂(x)R₁₃(x)R₂₃(y) and R₂₃(y)R₁₃(x)R₁₂(x)."""
    from rsqg.report import yang_baxter_witness
    from rsqg.scalars import rs_ring

    ctx = CaseContext(family, rank)
    ring = rs_ring("x", "y")
    x, y = ring.atom("x"), ring.atom("y")
    assert yang_baxter_witness(ctx.zrep, ctx.rz, (x, x * y, y)) == ""
    witness = yang_baxter_witness(ctx.zrep, ctx.rz, (x, x, y))
    match = re.fullmatch(GENERATING, witness)
    assert match, witness
    assert int(match[1]) == ctx.zrep.N and match[2] != match[3]
    r_x, r_y, _ = spectral_factors(ctx.rz)
    assert witness == matrix_form_witness(*v3_sides(r_x, r_x, r_y), generating_columns(ctx.zrep.N))


BRAID_CASES = [("A", 2), ("B", 2), ("C", 3), ("D", 4)]


def _last_entry_times_r(m: SMatrix) -> SMatrix:
    """The last stored entry times r."""
    i, j, v = m.entries()[-1]
    return _add(m, i, j, v * (m.ring.mono(r=1) - m.ring.one))


@pytest.mark.parametrize(
    "change", [_entry_times_r, _last_entry_times_r, _plus_identity], ids=["first", "last", "plus-identity"]
)
@pytest.mark.parametrize("family,rank", BRAID_CASES)
def test_perturbed_rhat_fails_braid_with_a_basis_witness(family, rank, change):
    """One stored entry of R̂ times r fails the premise, with a witness that
    names a Δ(e_i) or Δ(ω_i), an entry v_a⊗v_b and two different values
    there; R̂ + Id fails on the generating columns, with a witness that
    names a column v_N⊗v_b⊗v_c, the row, and two different values."""
    ctx = CaseContext(family, rank)
    ctx.rhat = change(ctx.rhat)
    item = _run(ctx, "rmatrix", "braid")["braid"]
    assert not item.ok
    match = re.fullmatch(GENERATING if change is _plus_identity else PREMISE, item.witness)
    assert match, item.witness
    if change is _plus_identity:
        assert int(match[1]) == ctx.rep.N
    assert match[2] != match[3]


@pytest.mark.parametrize("N", [2, 3])
def test_columnwise_comparison_reaches_the_last_column(N):
    """The chain (A on factors (1, 2), B on (2, 3)) with A = E_NN⊗E_NN and
    B = E_1N⊗E_NN: A₁₂B₂₃ is zero, and B₂₃A₁₂ is nonzero on the last basis
    column v_N⊗v_N⊗v_N only, where it is v_N⊗v_1⊗v_N.  So only that column
    fails, and a comparison that skips it passes."""
    from rsqg.matrices import pair_actions, tensor_units
    from rsqg.report import first_column_mismatch
    from rsqg.scalars import rs_ring

    ring = rs_ring()
    a = tensor_units(ring, N, [(N, N, N, N, ring.one)])
    b = tensor_units(ring, N, [(1, N, N, N, ring.one)])
    chain = pair_actions(N, ((a, (1, 2)), (b, (2, 3))))
    witness = f"column v_{N}⊗v_{N}⊗v_{N}, row v_{N}⊗v_1⊗v_{N}: LHS 0 vs RHS 1"
    assert first_column_mismatch(chain, range(N**3)) == witness
    assert first_column_mismatch(chain, range(N**3 - 1)) == ""


@pytest.mark.parametrize("item", ["route-equivalence", "intertwining", "min-poly", "inverse", "specialize-finite"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_perturbed_rhat_fails_v2_checks_with_a_basis_witness(family, rank, item):
    """R̂'s first entry times r: each rmatrix check that compares operators
    on V ⊗ V names the differing entry's row and column as v_a⊗v_b and gives
    two different values there."""
    ctx = CaseContext(family, rank)
    ctx.rhat = _entry_times_r(ctx.rhat)
    got = _run(ctx, "rmatrix", ITEM_CHECK[item][1])[item]
    assert not got.ok
    match = re.search(rf"row {BASIS2}, column {BASIS2}: LHS (.+) vs RHS (.+)$", got.witness)
    assert match, got.witness
    assert match[1] != match[2]


def _named_entry(rz: SMatrix, witness: str, fault: str) -> tuple:
    """The entry of R(z) = R̂(z)∘τ that a spectral-ybe witness "R(z): row
    v_a⊗v_b, column v_c⊗v_d <fault>" names, with the match."""
    match = re.fullmatch(rf"R\(z\): row v_(\d+)⊗v_(\d+), column v_(\d+)⊗v_(\d+) {fault}", witness)
    assert match, witness
    N = isqrt(rz.nrows)
    a, b, c, d = (int(g) - 1 for g in match.groups()[:4])
    return r_of(rz).get(a * N + b, c * N + d), match


@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_rz_times_z_cubed_fails_the_spectral_degree_bound(family, rank):
    """R̂(z) times z³ scales both sides alike, so the YBE still holds, and
    only the degree bound fails: the named entry of R(z) has the z-degree
    the witness gives, above the bound b."""
    ctx = CaseContext(family, rank)
    ctx.rz = ctx.rz.scale(ctx.rz.ring.atom("z") ** 3)
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    entry, match = _named_entry(ctx.rz, item.witness, r"has z-degree (\d+)")
    assert z_range(entry, "z")[1] == int(match[5]) > (1 if family == "A" else 2)


@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_rz_times_a_negative_z_power_fails_the_spectral_degree_bound(family, rank):
    """R̂(z) times z⁻³ scales both sides alike, so the YBE still holds and
    no z-degree exceeds the bound: only the negative powers of z in R(z)
    fail."""
    ctx = CaseContext(family, rank)
    ctx.rz = ctx.rz.scale(ctx.rz.ring.atom("z") ** -3)
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    entry, _ = _named_entry(ctx.rz, item.witness, "is not polynomial in z")
    assert z_range(entry, "z")[0] < 0


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_rz_entry_times_a_negative_z_power_fails_the_z_degree_bound(family, rank):
    """R̂(z)'s first entry times z⁻⁵ has z-degree below the bound, and is not
    a polynomial in z."""
    ctx = CaseContext(family, rank)
    i, j, v = ctx.rz.entries()[0]
    ctx.rz = _add(ctx.rz, i, j, v * (ctx.rz.ring.atom("z") ** -5 - ctx.rz.ring.one))
    item = _run(ctx, "affine", "degree")["z-degree-bound"]
    N = ctx.zrep.N
    assert item.witness == f"row {basis_vector(i, N, 2)}, column {basis_vector(j, N, 2)} is not polynomial in z"


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_rz_times_z_squared_names_the_entry_over_the_z_degree_bound(family, rank):
    ctx = CaseContext(family, rank)
    ctx.rz = _times_z_squared(ctx.rz)
    item = _run(ctx, "affine", "degree")["z-degree-bound"]
    match = re.fullmatch(rf"row {BASIS2}, column {BASIS2} has z-degree (\d+)", item.witness)
    assert match, item.witness
    assert int(match[1]) > (1 if family == "A" else 2)


@pytest.mark.parametrize("table,label", [("omega", "omega"), ("omega_prime", "omega'")])
@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_weight_labels_witness_gives_the_module_and_pairing_values(family, rank, table, label):
    """ω_1 (or ω'_1) on v_1 times r: the witness names v_1 and gives the
    module's eigenvalue and the weight pairing's."""
    mod = build_fundamental(family, rank)
    gens = getattr(mod, table)
    v = gens[1].get(0, 0)
    gens[1] = _entry_times_r(gens[1])
    items = {it.name: it for it in verify_finite_relations(mod).items}
    assert items["weight-labels"].witness == f"{label}[1] on v_1: module {v * mod.ring.mono(r=1)} vs weight pairing {v}"


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_coefficient_tables_witness_gives_both_swap_values(family, rank):
    ctx = CaseContext(family, rank)
    N = ctx.rep.N
    v = ctx.rhat.get(1, N)
    ctx.rhat = _swap_entry_times_r(ctx.rhat)
    item = _run(ctx, "rmatrix", "tables")["coefficient-tables"]
    assert item.witness == (
        f"swap coefficient of v_1⊗v_2 in R̂(v_2⊗v_1): R̂ {v * ctx.rep.ring.mono(r=1)} vs f(eps_1,eps_2) {v}"
    )


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_weight_preservation_witness_names_both_basis_vectors_and_weights(family, rank):
    """R̂ plus 1 at row v_1⊗v_1, column v_N⊗v_N, which have weights 2ε_1 and 2wt(v_N)."""
    ctx = CaseContext(family, rank)
    N, weights = ctx.rep.N, ctx.rep.weights
    ctx.rhat = _corner_plus_one(ctx.rhat)
    item = _run(ctx, "rmatrix", "weights")["weight-preservation"]
    text = lambda wt: "(" + ", ".join(str(2 * x) for x in wt) + ")"
    assert item.witness == (
        f"row v_1⊗v_1 of weight {text(weights[0])}, column v_{N}⊗v_{N} of weight {text(weights[N - 1])}: different weights"
    )


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_changed_eps_ringel_entry_fails_the_weight_checks(monkeypatch, family, rank):
    """⟨ε_1, ε_2⟩ plus 1 in the cached root system: the ω diagonals no longer
    match the pairing, nor R̂'s swap coefficients f, nor the factorized R̂
    (through its diagonal twist f̃) the explicit one.  The form is read on
    every call, so no memo keeps the old values."""
    rs = build_root_system(family, rank)
    form = [list(row) for row in rs.eps_ringel]
    form[0][1] += 1
    monkeypatch.setattr(rs, "eps_ringel", tuple(map(tuple, form)))
    ctx = CaseContext(family, rank)
    assert ctx.rep.rs is rs
    items = _run(ctx, "rep", "relations")
    items.update(_items_of(ctx, ["coefficient-tables", "route-equivalence"]))
    for name in ("weight-labels", "coefficient-tables", "route-equivalence"):
        assert not items[name].ok, name
        assert items[name].witness, name


def test_affine_serre_witness_names_basis_vectors_of_v():
    """Module witnesses name rows and columns as basis vectors of V: the
    affine Serre sum at B2 with the first entry of e_0 times r."""
    mod = build_evaluation("B", 2)
    mod.e[0] = _entry_times_r(mod.e[0])
    items = {it.name: it for it in verify_affine_relations(mod).items}
    assert items["affine-serre"].witness == (
        "serre e (0,1): row v_4, column v_2: LHS -1 * r^3 * s^2 * x^1 * a^1 + 1 * r^2 * s^2 * x^1 * a^1 vs RHS 0"
    )


def _run(ctx: CaseContext, group: str, name: str) -> dict:
    (check,) = [c for c in CATALOGUE if (c.group, c.name) == (group, name)]
    return {it.name: it for it in check.run(ctx).items}


@pytest.mark.parametrize("family,rank", CASES)
def test_scaled_a_ij_fails_coefficient_tables(monkeypatch, family, rank):
    """a_12 times r in the B/C/D coefficient tables breaks a_12 a_21 = 1."""
    a = CoefficientTables.a

    def faulty(self, i, j):
        val = a(self, i, j)
        return val * self.rep.ring.mono(r=1) if (i, j) == (1, 2) else val

    monkeypatch.setattr(CoefficientTables, "a", faulty)
    item = _run(CaseContext(family, rank), "rmatrix", "tables")["coefficient-tables"]
    assert not item.ok
    assert item.witness == "a_(1,2) a_(2,1) != 1"


@pytest.mark.parametrize("family,rank", CASES)
def test_flipped_sigma_fails_coefficient_tables(monkeypatch, family, rank):
    """σ_1 with its sign flipped changes every a_1j, so a_12 is no longer
    f(ε_1, ε_2).  a_ij is memoized by (ring variables, family, rank, i, j),
    without σ: the check first runs unchanged, which fills the memo, and
    then on a copy of the memo without the case's a_ij, so that it reads
    them as the flipped σ gives them; the memo itself is restored after."""
    from rsqg import scalars

    assert _run(CaseContext(family, rank), "rmatrix", "tables")["coefficient-tables"].ok
    sigma = CoefficientTables.sigma
    monkeypatch.setattr(CoefficientTables, "sigma", lambda self, i: -sigma(self, i) if i == 1 else sigma(self, i))
    kept = {k: v for k, v in scalars._MEMO.items() if k[1][:3] != ("coefficient_a", family, rank)}
    assert len(kept) < len(scalars._MEMO)
    monkeypatch.setattr(scalars, "_MEMO", kept)
    item = _run(CaseContext(family, rank), "rmatrix", "tables")["coefficient-tables"]
    assert not item.ok
    assert item.witness == "a_(1,2) != f(eps_1,eps_2)"


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_scaled_top_kappa_fails_kappa_recursion(monkeypatch, family, rank):
    """κ of the highest root times r no longer follows from its minimal pair."""
    ctx = CaseContext(family, rank)
    top = max(ctx.rep.rs.positive, key=lambda rt: rt.height)
    kappa_constants = embed.kappa_constants

    def faulty(rep, gamma):
        val = kappa_constants(rep, gamma)
        return val * rep.ring.mono(r=1) if gamma == top else val

    monkeypatch.setattr(embed, "kappa_constants", faulty)
    item = _run(ctx, "embed", "kappa")["kappa-recursion"]
    assert not item.ok
    assert item.witness == f"kappa recursion fails at {top.label()}"


def _items_of(ctx: CaseContext, items: list[str]) -> dict:
    """The named items, each from one run of the catalogue check that emits it."""
    out: dict = {}
    for group, name in dict.fromkeys(ITEM_CHECK[item] for item in items):
        out.update(_run(ctx, group, name))
    return {item: out[item] for item in items}


@pytest.mark.parametrize("family,rank", CASES)
def test_scaled_xi_fails_the_spectral_checks(monkeypatch, family, rank):
    """ξ times r, wherever ``affine`` reads it: R̂(z) and R̂(x/y) no longer
    intertwine or satisfy the spectral YBE, and the Baxterization of R̂ and
    R̄ no longer reproduces R̂(z)."""
    xi_constant = affine.xi_constant
    monkeypatch.setattr(affine, "xi_constant", lambda family, rank, ring: xi_constant(family, rank, ring) * ring.mono(r=1))
    items = _items_of(
        CaseContext(family, rank),
        ["affine-intertwiner-e", "affine-intertwiner-f", "spectral-ybe", "baxterize-match", "baxterize-scheme"],
    )
    for name, item in items.items():
        assert not item.ok, name
        assert item.witness, name


@pytest.mark.parametrize("family,rank", CASES)
def test_scaled_t_1_fails_the_finite_operator_checks(monkeypatch, family, rank):
    """t_1 times r in the coefficient tables, as the explicit R̂ and R̄
    read them."""
    t = CoefficientTables.t
    monkeypatch.setattr(CoefficientTables, "t", lambda self, i: t(self, i) * self.rep.ring.mono(r=1) if i == 1 else t(self, i))
    items = _items_of(CaseContext(family, rank), ["route-equivalence", "intertwining", "inverse", "braid"])
    for name, item in items.items():
        assert not item.ok, name
        assert item.witness, name


# -- pairing certificates ------------------------------------------------------


def _pairing_item(family, rank, name, ctx=None):
    (check,) = [c for c in CATALOGUE if (c.group, c.name) == ("pairing", name)]
    (item,) = check.run(ctx or CaseContext(family, rank)).items
    return item


def _after_init(monkeypatch, edit):
    """Every pairing context with ``edit(context)`` applied once built."""
    init = pairing.PairingContext.__init__

    def faulty(self, order, ring):
        init(self, order, ring)
        edit(self)

    monkeypatch.setattr(pairing.PairingContext, "__init__", faulty)


def _times_r(x):
    return x * x.ring.mono(r=1)


def _top(pc):
    return max(pc.order.roots, key=lambda rt: rt.height)


def _scaled_generator_value(monkeypatch):
    """(f_1, e_1) = 1/(r·(s_1 − r_1)) in the engine's denominators."""
    _after_init(monkeypatch, lambda pc: pc._gen_denom.update({1: _times_r(pc._gen_denom[1])}))


def _scaled_omega_pairing(monkeypatch):
    """(ω′_{α_1}, ω_{α_2}) times r in every use the pairing module makes of
    it: the shuffle's twist, both bracketings and the recursion for c_γ."""
    omega_pairing = pairing.omega_pairing

    def faulty(rs, ring, lam, mu):
        val = omega_pairing(rs, ring, lam, mu)
        unit = lambda i: tuple(int(k == i) for k in range(rs.n))  # noqa: E731
        return _times_r(val) if (tuple(lam), tuple(mu)) == (unit(0), unit(1)) else val

    monkeypatch.setattr(pairing, "omega_pairing", faulty)


def _power_one_factor_short(monkeypatch):
    """Φ(e_γ^m) for m ≥ 2 built with one shuffle factor too few."""
    power = pairing.PairingContext.power
    monkeypatch.setattr(pairing.PairingContext, "power", lambda self, gamma, m: power(self, gamma, max(m - 1, 1)))


def _flipped_twist_factor(monkeypatch):
    """The shuffle's factor for a letter 1 placed before a letter 2 read as
    (ω′_2, ω_1), the one for 2 before 1."""

    def flip(pc):
        pc._twist[(1, 2)] = pc._twist[(2, 1)]

    _after_init(monkeypatch, flip)


def _dropped_interleaving(monkeypatch):
    """Each shuffle of two words v, w loses the interleaving w·v."""
    shuffle_words = pairing.PairingContext.shuffle_words

    def faulty(self, v, w):
        out = pairing.WordSum(shuffle_words(self, v, w))
        if v and w:
            del out[w + v]
        return out

    monkeypatch.setattr(pairing.PairingContext, "shuffle_words", faulty)


def _e_tower_coefficient(monkeypatch, leading: bool):
    """One coefficient of the e tower's bracket e_γ = e_α e_β − c·e_β e_α at
    the highest root γ times r: the minimal-pair coefficient
    c = (ω′_β, ω_α), or the leading 1 (``leading``)."""
    tower = pairing.bracket_tower

    def faulty(order, gens, pairing_fn, mul, side):
        a, b = minimal_pair(order, max(order.roots, key=lambda rt: rt.height))
        if not leading:

            def scaled(lam, mu):
                val = pairing_fn(lam, mu)
                return _times_r(val) if (lam, mu) == (b.alpha, a.alpha) else val

            return tower(order, gens, scaled, mul, side)
        out = tower(order, gens, pairing_fn, mul, side)
        one = next(iter(gens[1].values())).ring.one
        top = tuple(x + y for x, y in zip(a.alpha, b.alpha))
        out[top] = out[top] - mul(out[a.alpha], out[b.alpha]).scale(one - _times_r(one))
        return out

    monkeypatch.setattr(pairing, "bracket_tower", faulty)


def _perturbed_f_recursion_coefficient(monkeypatch):
    """(ω′_α, ω_β)⁻¹ times r in the f recursion of the highest root."""

    def edit(pc):
        a, b, c = pc._f_pairs[_top(pc).alpha]
        pc._f_pairs[_top(pc).alpha] = (a, b, _times_r(c))

    _after_init(monkeypatch, edit)

PAIRING_CONTROLS = {
    "scaled-generator-value": _scaled_generator_value,
    "scaled-omega-pairing": _scaled_omega_pairing,
    "power-one-factor-short": _power_one_factor_short,
    "flipped-twist-factor": _flipped_twist_factor,
    "dropped-interleaving": _dropped_interleaving,
    "e-tower-leading-coefficient": lambda monkeypatch: _e_tower_coefficient(monkeypatch, leading=True),
    "f-recursion-coefficient": _perturbed_f_recursion_coefficient,
}


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3), ("D", 4)])
@pytest.mark.parametrize("control", PAIRING_CONTROLS)
def test_perturbed_engine_fails_pairing_constants(monkeypatch, control, family, rank):
    """Each perturbation of the pairing engine makes some (f_γ^m, e_γ^m)
    differ from the closed form or the recursion."""
    PAIRING_CONTROLS[control](monkeypatch)
    item = _pairing_item(family, rank, "constants")
    assert not item.ok
    assert re.match(r"\w+\[\d,\d\] m=\d: oracle .* vs (closed|recursion) ", item.witness)


@pytest.mark.parametrize("control", [*PAIRING_CONTROLS, "e-tower-minimal-pair-coefficient"])
def test_perturbed_engine_fails_pbw_orthogonality(monkeypatch, control):
    """pbw-orthogonality-h3 sees every perturbation of the engine at B2, on
    the diagonal against the closed forms or off it."""
    if control == "e-tower-minimal-pair-coefficient":
        _e_tower_coefficient(monkeypatch, leading=False)
    else:
        PAIRING_CONTROLS[control](monkeypatch)
    item = _pairing_item("B", 2, "pbw")
    assert item.name == "pbw-orthogonality-h3"
    assert not item.ok
    assert item.witness.startswith(("diagonal", "off-diagonal"))


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3), ("D", 4)])
def test_e_tower_minimal_pair_coefficient_is_invisible_to_pairing_constants(monkeypatch, family, rank):
    """The minimal-pair coefficient c of e_γ = e_α e_β − c·e_β e_α
    multiplies the ordered monomial e_β e_α, to which f_γ^m is orthogonal,
    so no (f_γ^m, e_γ^m) moves and pairing-constants passes.  pbw sees it
    off the diagonal (above)."""
    _e_tower_coefficient(monkeypatch, leading=False)
    assert _pairing_item(family, rank, "constants").ok


def test_scaled_omega_pairing_fails_pbw_off_the_diagonal(monkeypatch):
    """With the engine's own (f_γ^m, e_γ^m) as the diagonal reference, the
    scaled (ω′_{α_1}, ω_{α_2}) still fails orthogonality at B2.  At A2 it
    does not: the engine reads the bicharacter per pair of letters, so the
    perturbed one is again a bicharacter, and it keeps type A's monomials
    orthogonal; only the diagonal sees it there."""
    _scaled_omega_pairing(monkeypatch)
    ctx = CaseContext("B", 2)
    engine_diagonal = lambda rs, ring, gamma, m: ctx.pairing_context.power_pairing(gamma, m)  # noqa: E731
    monkeypatch.setattr(pairing, "closed_form_pairing", engine_diagonal)
    item = _pairing_item("B", 2, "pbw", ctx)
    assert not item.ok
    assert item.witness.startswith("off-diagonal")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_perturbed_cached_c_gamma_fails_constants_and_route(family, rank):
    """c_γ of the highest root, cached in the case's pairing context, times r:
    pairing-constants reads it for the recursion and Θ for its local factor."""
    ctx = CaseContext(family, rank)
    pc = ctx.pairing_context
    top = max(ctx.order.roots, key=lambda rt: rt.height)
    pc._c[top] = pc.c_gamma(top) * pc.ring.mono(r=1)
    witness = {}
    for group, name, item_name in (("pairing", "constants", "pairing-constants"), ("rmatrix", "route", "route-equivalence")):
        (check,) = [c for c in CATALOGUE if (c.group, c.name) == (group, name)]
        items = {it.name: it for it in check.run(ctx).items}
        assert not items[item_name].ok
        witness[item_name] = items[item_name].witness
    assert witness["route-equivalence"]
    assert witness["pairing-constants"].startswith(f"{top.label()} m=1: oracle")
    assert "vs recursion" in witness["pairing-constants"]


# -- (r,s)-combinatorics as each certificate reads them ------------------------

# the Serre sums of B2 and C3 have m = 2 and m = 3; a coefficient with
# 0 < k < m comes from the Pascal rule rather than the ends B(m, 0) = B(m, m) = 1
SERRE_TERMS = [(family, rank, m, k) for family, rank in (("B", 2), ("C", 3)) for m, k in ((2, 1), (3, 1), (3, 2))]


def _times_r_at(monkeypatch, module, name: str, at: tuple):
    """``module.name`` with the value at the integer arguments ``at`` times r."""
    real = getattr(module, name)

    def faulty(ring, *args, **kwargs):
        val = real(ring, *args, **kwargs)
        return val * ring.mono(r=1) if args == at else val

    monkeypatch.setattr(module, name, faulty)


@pytest.mark.parametrize("family,rank,m,k", SERRE_TERMS)
def test_perturbed_rs_binomial_fails_serre(monkeypatch, family, rank, m, k):
    """The Serre coefficient [m k]_{r_i,s_i} times r, as the finite and
    affine relation checks read it.  Only V⊗V sees it: on V every term of
    the sum vanishes by itself."""
    _times_r_at(monkeypatch, rep, "rs_binomial", (m, k))
    finite = {it.name: it for it in verify_finite_relations(build_fundamental(family, rank)).items}
    affine = {it.name: it for it in verify_affine_relations(build_evaluation(family, rank)).items}
    for item in (finite["serre"], affine["affine-serre"]):
        assert not item.ok
        assert re.match(r"serre [ef] \(\d,\d\) on V⊗V: row v_\d+⊗v_\d+, column v_\d+⊗v_\d+: LHS .* vs RHS 0$", item.witness)


@pytest.mark.parametrize("family,rank,m,k", SERRE_TERMS)
def test_perturbed_q_binomial_fails_dj_serre(monkeypatch, family, rank, m, k):
    """The one-parameter Serre coefficient [m k]_{q_i} times r, as the
    Drinfeld–Jimbo check reads it.  The check runs the two-parameter Serre
    check, so its witness names the entry and both sides' values."""
    _times_r_at(monkeypatch, embed, "q_binomial", (m, k))
    mod = build_fundamental(family, rank)
    items = {it.name: it for it in verify_dj_relations(mod, modified_generators(mod)).items}
    assert not items["dj-serre"].ok
    assert re.match(
        r"serre [ef] \(\d,\d\) on V⊗V: row v_\d+⊗v_\d+, column v_\d+⊗v_\d+: LHS .* vs RHS 0$", items["dj-serre"].witness
    )


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3)])
def test_perturbed_rs_factorial_fails_pairing_constants(monkeypatch, family, rank):
    """[2]_{r,s}! times r in the closed forms and the recursion: both
    disagree with the oracle at m = 2."""
    _times_r_at(monkeypatch, pairing, "rs_factorial", (2,))
    item = _pairing_item(family, rank, "constants")
    assert not item.ok
    assert " m=2: oracle" in item.witness


# -- coverage ------------------------------------------------------------------

# items whose negative control is a dedicated test rather than a table row
DEDICATED = {
    "pairing-constants": test_perturbed_engine_fails_pairing_constants,
    "pbw-orthogonality-h3": test_perturbed_engine_fails_pbw_orthogonality,
    "kappa-recursion": test_scaled_top_kappa_fails_kappa_recursion,
}


def test_every_certified_item_has_a_negative_control(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.run(["certify-all", "--max-rank", "3", "--long", "--out", str(out)]) == 0
    capsys.readouterr()
    emitted = {item["check"] for item in json.loads(out.read_text())}
    covered = {row[1] for row in PERTURBATIONS}
    covered |= {item for row in OPERATOR_PERTURBATIONS for item in row[2]}
    covered |= set(DEDICATED)
    assert sorted(emitted - covered) == []
