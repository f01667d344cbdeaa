"""Negative controls for every certificate: one small perturbation of a
module, of an operator a check is given, or of a value it computes, per
item, after which that item must fail with a witness.  A meta-test checks
that every item ``certify-all --long`` emits has one."""

from __future__ import annotations

import json
import re
from math import isqrt

import pytest

from rsqg import affine, cli, embed, pairing, rep
from rsqg.catalogue import CATALOGUE, CaseContext
from rsqg.embed import modified_generators, verify_dj_relations
from rsqg.matrices import SMatrix
from rsqg.rep import (
    build_evaluation,
    build_fundamental,
    verify_affine_relations,
    verify_finite_relations,
    verify_highest_weight,
)
from rsqg.rmatrix import CoefficientTables

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
# root-vector matrix e_γ of the highest root, "rxy" the affine intertwiner's
# R̂(x/y), and "ybe" each of the spectral YBE's R(x), R(y) and R(xy)
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
    ("ybe", _entry_times_r, ["spectral-ybe"], OPERATOR_CASES),
    ("rz", _entry_times_r, ["baxterize-match", "baxterize-scheme", "unit-point"], OPERATOR_CASES),
    ("zrhat", _entry_times_r, ["baxterize-match", "baxterize-scheme"], OPERATOR_CASES),
    ("zrbar", _entry_times_r, ["baxterize-match", "baxterize-scheme"], OPERATOR_CASES),
    ("rz", _entry_times_r, ["specialize-affine", "affine-z0-limit", "twist-A-affine"], [("A", 2)]),
    ("rz", _times_z_squared, ["z-degree-bound"], OPERATOR_CASES),
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
    elif operator == "ybe":
        ctx.ybe = tuple(change(m) for m in ctx.ybe)
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
BASIS3 = r"v_\d+⊗v_\d+⊗v_\d+"


@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_perturbed_r_xy_fails_spectral_ybe_with_a_basis_witness(family, rank):
    """One entry of R(xy) times r: the witness names the column v_a⊗v_b⊗v_c,
    the row, and both sides' values there."""
    ctx = CaseContext(family, rank)
    r_x, r_y, r_xy = ctx.ybe
    ctx.ybe = (r_x, r_y, _entry_times_r(r_xy))
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    match = re.fullmatch(rf"column ({BASIS3}), row ({BASIS3}): LHS (.+) vs RHS (.+)", item.witness)
    assert match, item.witness
    assert match[3] != match[4]


BRAID_CASES = [("A", 2), ("B", 2), ("C", 3), ("D", 4)]


def _last_entry_times_r(m: SMatrix) -> SMatrix:
    """The last stored entry times r: its first failing braid column lies
    past the first block v_1⊗v_b⊗v_c, so a loop that stops early or skips
    columns passes it."""
    i, j, v = m.entries()[-1]
    return _add(m, i, j, v * (m.ring.mono(r=1) - m.ring.one))


@pytest.mark.parametrize("change", [_entry_times_r, _last_entry_times_r], ids=["first", "last"])
@pytest.mark.parametrize("family,rank", BRAID_CASES)
def test_perturbed_rhat_fails_braid_with_a_basis_witness(family, rank, change):
    """One stored entry of R̂ times r: the witness names the column
    v_a⊗v_b⊗v_c, the row, and two different values there."""
    ctx = CaseContext(family, rank)
    ctx.rhat = change(ctx.rhat)
    item = _run(ctx, "rmatrix", "braid")["braid"]
    assert not item.ok
    match = re.fullmatch(rf"column v_(\d+)⊗v_\d+⊗v_\d+, row ({BASIS3}): LHS (.+) vs RHS (.+)", item.witness)
    assert match, item.witness
    assert match[3] != match[4]
    if change is _last_entry_times_r:
        assert int(match[1]) > 1


@pytest.mark.parametrize("N", [1, 2, 3])
def test_columnwise_comparison_reaches_the_last_column(N):
    """P₁₂P₂₃ for the projection P onto v_N⊗v_N is nonzero on the last basis
    column v_N⊗v_N⊗v_N only, so against the zero operator only that column
    fails: a comparison that skips it passes."""
    from rsqg.matrices import PairAction
    from rsqg.report import first_column_mismatch
    from rsqg.scalars import rs_ring

    ring = rs_ring()
    p = SMatrix.from_entries(ring, N * N, N * N, [(N * N - 1, N * N - 1, ring.one)])
    zero = SMatrix.zero(ring, N * N)
    lhs = (PairAction(p, N, (1, 2)), PairAction(p, N, (2, 3)))
    rhs = (PairAction(zero, N, (1, 2)), PairAction(zero, N, (2, 3)))
    last = f"v_{N}⊗v_{N}⊗v_{N}"
    assert first_column_mismatch(lhs, rhs) == f"column {last}, row {last}: LHS 1 vs RHS 0"


BASIS2 = r"v_\d+⊗v_\d+"


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


@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_r_x_times_x_cubed_fails_the_spectral_degree_bound(family, rank):
    """R(x) times x³ scales both sides alike, so the YBE still holds, and
    only the degree bound on the left side's entries fails."""
    ctx = CaseContext(family, rank)
    r_x, r_y, r_xy = ctx.ybe
    ctx.ybe = (r_x.scale(r_x.ring.atom("x") ** 3), r_y, r_xy)
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    pattern = rf"column {BASIS3}, row {BASIS3}: LHS entry of x-degree (\d+) and y-degree \d+ exceeds the spectral degree bound (\d+)"
    match = re.fullmatch(pattern, item.witness)
    assert match, item.witness
    assert int(match[1]) > int(match[2]) == (2 if family == "A" else 4)


@pytest.mark.parametrize("family,rank", YBE_CASES)
def test_r_x_times_a_negative_x_power_fails_the_spectral_degree_bound(family, rank):
    """R(x) times x⁻³ scales both sides alike, so the YBE still holds and no
    x-degree exceeds the bound: only the negative powers of x fail."""
    ctx = CaseContext(family, rank)
    r_x, r_y, r_xy = ctx.ybe
    ctx.ybe = (r_x.scale(r_x.ring.atom("x") ** -3), r_y, r_xy)
    item = _run(ctx, "affine", "ybe")["spectral-ybe"]
    assert not item.ok
    pattern = rf"column {BASIS3}, row {BASIS3}: LHS entry of lowest x-power (-\d+) and y-power \d+ is not polynomial in x and y"
    assert re.fullmatch(pattern, item.witness), item.witness


@pytest.mark.parametrize("family,rank", OPERATOR_CASES)
def test_rz_entry_times_a_negative_z_power_fails_the_z_degree_bound(family, rank):
    """R̂(z)'s first entry times z⁻⁵ has z-degree below the bound, and is not
    a polynomial in z."""
    ctx = CaseContext(family, rank)
    i, j, v = ctx.rz.entries()[0]
    ctx.rz = _add(ctx.rz, i, j, v * (ctx.rz.ring.atom("z") ** -5 - ctx.rz.ring.one))
    item = _run(ctx, "affine", "degree")["z-degree-bound"]
    assert item.witness == f"entry ({i},{j}) is not polynomial in z"


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


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_scaled_generator_pairing_fails_pairing_constants(monkeypatch, family, rank, i):
    """(f_i, e_i) = 1/(r·(s_i − r_i)) in the oracle.  pbw-orthogonality sees
    it too, on the diagonal of f_i, e_i, which it compares with the closed
    form."""
    init = pairing.PairingOracle.__init__

    def faulty_init(self, rs, ring):
        init(self, rs, ring)
        self._gen_denom[i] = self._gen_denom[i] * ring.mono(r=1)

    monkeypatch.setattr(pairing.PairingOracle, "__init__", faulty_init)
    item = _pairing_item(family, rank, "constants")
    assert not item.ok
    assert item.witness.startswith("gamma[") and "oracle" in item.witness
    item = _pairing_item(family, rank, "pbw")
    assert not item.ok
    assert item.witness.startswith("diagonal")


@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_scaled_cartan_pairing_fails_pbw_orthogonality(monkeypatch, family, rank, i, j):
    """(ω'_{α_i}, ω_{α_j}) times r for one pair of distinct simple roots, in
    every use the pairing module makes of it.  The first witness is the
    diagonal of a non-simple root, whose root vector brackets with the
    faulty value; with the oracle's own (f_γ^m, e_γ^m) as the diagonal
    reference, orthogonality alone still fails."""
    alpha_i = tuple(int(k == i - 1) for k in range(rank))
    alpha_j = tuple(int(k == j - 1) for k in range(rank))
    omega_pairing = pairing.omega_pairing

    def faulty(rs, ring, lam, mu):
        val = omega_pairing(rs, ring, lam, mu)
        return val * ring.mono(r=1) if (tuple(lam), tuple(mu)) == (alpha_i, alpha_j) else val

    monkeypatch.setattr(pairing, "omega_pairing", faulty)
    item = _pairing_item(family, rank, "pbw")
    assert not item.ok
    assert item.witness.startswith("diagonal")

    ctx = CaseContext(family, rank)
    oracle_diagonal = lambda rs, ring, gamma, m: ctx.pairing_context.power_pairing(gamma, m)  # noqa: E731
    monkeypatch.setattr(pairing, "closed_form_pairing", oracle_diagonal)
    item = _pairing_item(family, rank, "pbw", ctx)
    assert not item.ok
    assert item.witness.startswith("off-diagonal")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_cubes_built_as_squares_fail_pbw_orthogonality(monkeypatch, family, rank):
    """e_γ^3 and f_γ^3 replaced by e_γ^2 and f_γ^2.  Only the diagonal of a
    one-root monomial sees it, and only against the closed form: the oracle
    pairs the faulty cubes consistently with themselves."""
    power = pairing.PairingContext.power

    def faulty(self, gamma, m, side):
        return power(self, gamma, 2 if m == 3 else m, side)

    monkeypatch.setattr(pairing.PairingContext, "power", faulty)
    item = _pairing_item(family, rank, "pbw")
    assert item.name == "pbw-orthogonality-h3"
    assert not item.ok
    assert item.witness.startswith("diagonal")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_scaled_suffix_factor_fails_pairing_constants(monkeypatch, family, rank):
    """(ω'_j, ω_μ) times r for every nonempty suffix the aggregated oracle
    strips past: each root of height ≥ 2 then pairs wrongly."""
    suffix_factor = pairing.PairingOracle._suffix_factor

    def faulty(self, j, suffix):
        val = suffix_factor(self, j, suffix)
        return val * self.ring.mono(r=1) if suffix else val

    monkeypatch.setattr(pairing.PairingOracle, "_suffix_factor", faulty)
    item = _pairing_item(family, rank, "constants")
    assert not item.ok
    assert item.witness.startswith("gamma[") and "oracle" in item.witness


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
    Drinfeld–Jimbo check reads it."""
    _times_r_at(monkeypatch, embed, "q_binomial", (m, k))
    mod = build_fundamental(family, rank)
    items = {it.name: it for it in verify_dj_relations(mod, modified_generators(mod)).items}
    assert not items["dj-serre"].ok
    assert re.fullmatch(r"q-serre [ef] \(\d,\d\) on V⊗V", items["dj-serre"].witness)


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
    "pairing-constants": test_scaled_generator_pairing_fails_pairing_constants,
    "pbw-orthogonality-h3": test_cubes_built_as_squares_fail_pbw_orthogonality,
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
