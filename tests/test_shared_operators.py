"""The per-case operators: each is built once per case, and its build time is
charged to the first check that uses it."""

from __future__ import annotations

import sys
import time
from collections import Counter

import pytest

from rsqg import affine, catalogue, cli, embed, lyndon, pairing, rep, rmatrix, rootdata, rootvec
from rsqg.scalars import rs_ring


def _wrap_everywhere(monkeypatch, original, wrapper) -> None:
    """Replace every rsqg module binding of ``original`` by ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if name == "rsqg" or name.startswith("rsqg."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def _count_calls(monkeypatch, labelled) -> Counter:
    """Count the calls of each (function, label) pair by ``label(*args,
    **kwargs)``, wherever rsqg binds the function."""
    calls: Counter = Counter()

    def counted(fn, label):
        def wrapper(*args, **kwargs):
            calls[label(*args, **kwargs)] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn, label in labelled:
        _wrap_everywhere(monkeypatch, fn, counted(fn, label))
    return calls


def _ring_of(first, *rest):
    return "z" if "z" in first.ring.names else "rs"


def test_each_operator_is_built_once_per_case(monkeypatch):
    calls = _count_calls(
        monkeypatch,
        (
            (rmatrix.theta_product, lambda *a, **k: "theta_product"),
            (rmatrix.rhat_explicit, lambda r: f"rhat_explicit/{_ring_of(r)}"),
            (rmatrix.rbar_inverse_printed, lambda r: f"rbar_inverse_printed/{_ring_of(r)}"),
            (rootvec.build_root_vector_matrices, lambda *a: "build_root_vector_matrices"),
            (lyndon.lalonde_ram, lambda *a: "lalonde_ram"),
            (rep.build_fundamental, lambda *a: "build_fundamental"),
            (rootdata.affine_data, lambda *a: "affine_data"),
            (embed.modified_generators, lambda r: "modified_generators/" + ("V⊗V" if r.N > r.rs.N else "V")),
        ),
    )
    assert cli._certify_one(("B", 2, False)).ok()
    assert calls["theta_product"] == 1
    assert calls["rhat_explicit/rs"] == 1
    assert calls["build_root_vector_matrices"] == 1
    assert calls["lalonde_ram"] == 1
    assert calls["rhat_explicit/z"] == 1
    assert calls["rbar_inverse_printed/z"] == 1
    # dj and root-vector-embedding share one set on V; dj-serre forms only
    # ẽ and f̃ on V⊗V, and no module of modified generators there
    assert calls["modified_generators/V"] == 1
    assert "modified_generators/V⊗V" not in calls
    # the case's module, the evaluation module, the module over the z ring,
    # and the one module V(x) and V(y) of the affine intertwiner share
    assert calls["build_fundamental"] == 4
    # the evaluation module's, and the one V(x) and V(y) share
    assert calls["affine_data"] == 2


def _module_kind(mod) -> str:
    return "evaluation" if isinstance(mod, rep.EvaluationRep) else "V"


def test_each_tensor_table_is_built_once_per_case(monkeypatch):
    """In one case, every (kind, i) table of each tensor product is built
    once: V⊗V of the fundamental module (``serre``, ``highest-weight``,
    ``intertwining`` and ``dj-serre`` read it), E⊗E of the evaluation module
    (``affine-serre``), and V(x)⊗V(y) and V(y)⊗V(x) of the affine
    intertwiner.  Each kind is built on all the nodes of a product when it
    is first read: V⊗V and the intertwiner's products read all four kinds,
    E⊗E only e and f."""
    calls: Counter = Counter()
    coproduct = rep.coproduct

    def counted(left, right, kind, i):
        calls[(_module_kind(left), id(left), id(right), kind, i)] += 1
        return coproduct(left, right, kind, i)

    _wrap_everywhere(monkeypatch, coproduct, counted)
    assert cli._certify_one(("B", 2, False)).ok()
    assert set(calls.values()) == {1}
    products = Counter((module, left == right) for module, left, right, _, _ in calls)
    n = 2
    assert products == {("V", True): 4 * n, ("evaluation", True): 2 * (n + 1), ("evaluation", False): 8 * (n + 1)}


def test_coproduct_is_reached_only_through_tensor_product(monkeypatch):
    """Over a --long case, which runs every check, no ``coproduct`` call
    comes from outside ``TensorProduct``'s table builder."""
    inside, stray, seen = [0], [], [0]
    coproduct, tables = rep.coproduct, rep.TensorProduct._coproducts

    def watched_coproduct(left, right, kind, i):
        seen[0] += 1
        if not inside[0]:
            stray.append((kind, i))
        return coproduct(left, right, kind, i)

    def counted_tables(product, kind):
        inside[0] += 1
        try:
            return tables(product, kind)
        finally:
            inside[0] -= 1

    _wrap_everywhere(monkeypatch, coproduct, watched_coproduct)
    monkeypatch.setattr(rep.TensorProduct, "_coproducts", counted_tables)
    assert cli._certify_one(("B", 2, True)).ok()
    assert seen[0] and stray == []


def test_desk_suite_coproduct_calls(monkeypatch):
    """``certify-all --max-rank 3`` builds 80 V⊗V tables: 4n per case, and
    2n more for the module over the z ring of A2 and C2, whose square the
    spectral YBE's premise reads for Δ(e_i) and Δ(ω_i) only; and 250 on
    evaluation modules, 10(n + 1) per case: e and f on E⊗E and all four
    kinds on the intertwiner's two products (229 and 250 while each check
    built its own, 88 and 300 while a tensor product built all four kinds
    at once)."""
    import contextlib
    import io

    calls = _count_calls(monkeypatch, ((rep.coproduct, lambda left, *a: _module_kind(left)),))
    monkeypatch.setenv("RSQG_JOBS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["certify-all", "--max-rank", "3"]) == 0
    assert calls == {"V": 80, "evaluation": 250}


def test_dj_serre_forms_no_modified_cartan_on_the_square(monkeypatch):
    """On V⊗V ``dj-serre`` forms ẽ_i = Δ(e_i)Δ(ω_i)^{-1/2} and f̃_i only: two
    diagonal inverses per node, and no product of two diagonal matrices,
    which ω̃_i = Δ(ω_i)^{1/2}Δ(ω'_i)^{-1/2} would take."""
    from rsqg.matrices import SMatrix

    r = rep.build_fundamental("B", 3)
    mg, big = embed.modified_generators(r), r.square.N
    inverses, diagonal_products = [0], [0]
    inv, matmul = SMatrix.diagonal_inv, SMatrix.__matmul__

    def counted_inv(m):
        inverses[0] += m.nrows == big
        return inv(m)

    def counted_matmul(a, b):
        diagonal_products[0] += a.nrows == big and a.is_diagonal() and b.is_diagonal()
        return matmul(a, b)

    monkeypatch.setattr(SMatrix, "diagonal_inv", counted_inv)
    monkeypatch.setattr(SMatrix, "__matmul__", counted_matmul)
    assert embed.verify_dj_relations(r, mg).ok()
    assert inverses[0] == 2 * r.n
    assert diagonal_products[0] == 0


def test_affine_data_is_built_twice_per_desk_case(monkeypatch):
    """``certify-all --max-rank 3`` builds ``rootdata.affine_data`` 14 times
    over its 7 cases: once for the case's evaluation module and once for the
    V(x) and V(y) of the affine intertwiner (21 times while V(y) rebuilt
    what V(x) has)."""
    import contextlib
    import io

    calls = _count_calls(monkeypatch, ((rootdata.affine_data, lambda *a: "affine_data"),))
    monkeypatch.setenv("RSQG_JOBS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["certify-all", "--max-rank", "3"]) == 0
    assert calls == {"affine_data": 14}


def test_a_type_rhat_is_built_once_per_ring(monkeypatch):
    """The type-A R̄ is a display of its own, not rebuilt from R̂, so R̂ is
    built once over (r, s) and once over the z ring."""
    calls = _count_calls(monkeypatch, ((rmatrix.rhat_explicit, lambda r: _ring_of(r)),))
    assert cli._certify_one(("A", 2, False)).ok()
    assert calls == {"rs": 1, "z": 1}


def test_spectral_operators_are_built_once_per_long_case(monkeypatch):
    """In a --long case: R̂(z) over the z ring, once, which the spectral YBE
    reads as the other affine checks do, and the intertwiner's R̂(x/y),
    once; the YBE's R(x), R(y) and R(xy) are actions moved from R(z)'s."""
    calls = _count_calls(
        monkeypatch, ((affine.affine_rhat, lambda r, z=None: (r.ring.names, str(z))),)
    )
    assert cli._certify_one(("B", 2, True)).ok()
    xya = rs_ring("x", "y", "a")
    assert calls == {
        (rs_ring("z").names, "None"): 1,
        (xya.names, str(xya.atom("x") * xya.atom("y").inv())): 1,
    }


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("D", 3)])
def test_spectral_ybe_clears_one_operator_and_substitutes_nothing(monkeypatch, family, rank):
    """``check_spectral_ybe``, building its module and R̂(z) as the
    benchmark's spectral-long runs it, clears and packs R(z) once
    (``matrices._cleared``) and forms R(x), R(xy) and R(y) from it by
    moving keys: no ``SMatrix.substituted`` and no ``scalars.substitute``
    call."""
    from rsqg import matrices, scalars

    calls = _count_calls(
        monkeypatch,
        ((matrices._cleared, lambda a: ("_cleared", a.ring.names)), (scalars.substitute, lambda *a, **k: "substitute")),
    )
    monkeypatch.setattr(matrices.SMatrix, "substituted", lambda *a, **k: calls.update(["substituted"]))
    assert affine.check_spectral_ybe(family, rank).ok()
    assert calls == {("_cleared", rs_ring("z").names): 1}


def test_closed_forms_are_computed_once_per_case(monkeypatch):
    """pairing-constants and pbw-orthogonality-h3 read one closed form per
    (γ, m) from the case's pairing context."""
    calls = _count_calls(
        monkeypatch, ((pairing.closed_form_pairing, lambda rs, ring, gamma, m: (gamma.label(), m)),)
    )
    assert cli._certify_one(("B", 2, False)).ok()
    assert calls and set(calls.values()) == {1}


def test_root_system_is_built_once_per_family_and_rank():
    rootdata.build_root_system.cache_clear()
    assert cli._certify_one(("B", 2, False)).ok()
    assert rootdata.build_root_system.cache_info().misses == 1
    # the modules over every ring share it
    assert rep.build_fundamental("B", 2).rs is rep.build_fundamental("B", 2, rs_ring("z")).rs


def test_shared_operator_build_is_charged_to_its_first_check(monkeypatch):
    rhat_explicit = rmatrix.rhat_explicit

    def slow(r):
        time.sleep(0.3)
        return rhat_explicit(r)

    monkeypatch.setattr(rmatrix, "rhat_explicit", slow)
    out = catalogue.run_group("rmatrix", catalogue.CaseContext("B", 2), ["eigen"])
    (item,) = out.items
    assert item.name == "eigenvalues" and item.ok
    assert item.seconds >= 0.3


def test_each_pairing_value_is_computed_once_per_case(monkeypatch):
    """In one B2 case, c_γ of each non-simple root is computed once (p_max
    runs only in that step), one pairing context serves both pairing
    checks, and it computes no pairing of two monomials twice: pbw reads
    the (f_γ^m, e_γ^m) that constants computed."""
    p_max_calls: Counter = Counter()
    p_max = pairing.p_max

    def counted_p_max(rs, alpha, beta):
        p_max_calls[(alpha.label(), beta.label())] += 1
        return p_max(rs, alpha, beta)

    class CountedStores(dict):
        def __setitem__(self, key, value):
            stores[key] += 1
            super().__setitem__(key, value)

    stores: Counter = Counter()
    contexts = []
    init = pairing.PairingContext.__init__

    def counted_init(self, order, ring):
        init(self, order, ring)
        self._pairings = CountedStores()
        contexts.append(self)

    monkeypatch.setattr(pairing, "p_max", counted_p_max)
    monkeypatch.setattr(pairing.PairingContext, "__init__", counted_init)
    assert cli._certify_one(("B", 2, False)).ok()
    non_simple = [rt for rt in lyndon.lalonde_ram(rep.build_fundamental("B", 2).rs).roots if not rt.is_simple()]
    assert len(p_max_calls) == len(non_simple) == 2
    assert set(p_max_calls.values()) == {1}
    assert len(contexts) == 1
    assert max(stores.values()) == 1
    assert sum(stores.values()) == 25


def test_theta_builds_no_shuffle_image(monkeypatch):
    """Θ reads only c_γ from the pairing context: building it, as the route
    and inverse checks do, runs neither the shuffle nor the e tower."""

    def forbidden(*args, **kwargs):
        raise AssertionError("Θ built a shuffle image")

    monkeypatch.setattr(pairing.PairingContext, "shuffle_words", forbidden)
    monkeypatch.setattr(pairing, "bracket_tower", forbidden)
    ctx = catalogue.CaseContext("B", 3)
    assert ctx.theta is not None
    assert "_tower" not in vars(ctx.pairing_context) and not ctx.pairing_context._pairings


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_braid_builds_no_v3_matrix(monkeypatch, family, rank):
    """check_braid calls no kron, forms matrix products only on V ⊗ V (for
    its premise), builds no matrix larger than V ⊗ V, and applies two factor
    actions per side to each of the N² generating columns v_N⊗v_b⊗v_c (the
    first one on each side is a column read), both sides computed."""
    from rsqg import matrices
    from rsqg.matrices import PairAction, SMatrix

    ctx = catalogue.CaseContext(family, rank)
    N = ctx.rep.N
    calls = Counter()
    rows = []
    init, apply = SMatrix.__init__, PairAction.__call__

    def recorded_init(self, ring, nrows, ncols, rows_=None):
        rows.append(nrows)
        init(self, ring, nrows, ncols, rows_)

    def forbidden(name):
        def fail(*args, **kwargs):
            calls[name] += 1
            raise AssertionError(f"check_braid called {name}")

        return fail

    ctx.rep.square.e, ctx.rep.square.omega  # the tables the premise reads, built by kron before the check
    _wrap_everywhere(monkeypatch, matrices.kron, forbidden("kron"))
    monkeypatch.setattr(SMatrix, "__init__", recorded_init)
    monkeypatch.setattr(PairAction, "__call__", lambda self, vec: calls.update(["apply"]) or apply(self, vec))
    out = rmatrix.check_braid(ctx.rep, ctx.rhat)
    assert out.ok(), out.items[0].witness
    assert calls == {"apply": 4 * N * N}
    assert max(rows, default=0) <= N * N


def _column_check(ctx, check: str):
    """The V⊗³ check ``check`` of the case context ``ctx``, on its operators
    as they stand when it runs."""
    return {
        "braid": lambda: rmatrix.check_braid(ctx.rep, ctx.rhat),
        "spectral-ybe": lambda: affine.check_spectral_ybe(ctx.family, ctx.rank, ctx.zrep, ctx.rz),
    }[check]


def _first_entry_doubled(m):
    from rsqg.matrices import SMatrix

    i, j, v = m.entries()[0]
    return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v)])


def _plus_identity(m):
    """m + Id: it commutes with every generator if m does, so a check on
    it passes the decider's premise and fails on the columns."""
    from rsqg.matrices import SMatrix

    return m + SMatrix.identity(m.ring, m.nrows)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
@pytest.mark.parametrize("check", ["braid", "spectral-ybe"])
def test_column_checks_return_the_one_decider_witness(monkeypatch, check, family, rank):
    """``check_braid`` and ``check_spectral_ybe`` each call
    ``report.yang_baxter_witness`` exactly once, passing or failing, and
    report its witness as theirs."""
    from rsqg import report

    ctx = catalogue.CaseContext(family, rank)
    run = _column_check(ctx, check)
    run()  # builds the case operators
    decide, witnesses = report.yang_baxter_witness, []
    _wrap_everywhere(monkeypatch, decide, lambda *args: witnesses.append(decide(*args)) or witnesses[-1])
    (item,) = run().items
    assert item.ok and witnesses == [""]
    for change in (_first_entry_doubled, _plus_identity):
        ctx.rhat, ctx.rz = change(ctx.rhat), change(ctx.rz)
        (item,) = run().items
        assert not item.ok
        assert item.witness == witnesses[-1] != ""
    assert len(witnesses) == 3


@pytest.mark.parametrize("check", ["braid", "spectral-ybe"])
def test_passing_column_checks_construct_no_scalar(monkeypatch, check):
    """A passing B2 ``braid`` or ``spectral-ybe`` keeps every column in
    packed values from the stored columns to the comparison:
    ``first_column_mismatch`` constructs no Scalar.  One that fails on the
    columns does, for the values its witness prints."""
    from rsqg import report, scalars

    ctx = catalogue.CaseContext("B", 2)
    run = _column_check(ctx, check)
    run()  # builds the case operators
    init = scalars.Scalar.__init__
    inits, called = [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            called.append(fn.__name__)
            monkeypatch.setattr(scalars.Scalar, "__init__", lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
            try:
                return fn(*args, **kwargs)
            finally:
                monkeypatch.setattr(scalars.Scalar, "__init__", init)

        return wrapper

    monkeypatch.setattr(report, "first_column_mismatch", counted(report.first_column_mismatch))
    assert run().ok()
    assert called == ["first_column_mismatch"]
    assert inits == []
    ctx.rhat, ctx.rz = _plus_identity(ctx.rhat), _plus_identity(ctx.rz)
    assert not run().ok()
    assert called == ["first_column_mismatch"] * 2
    assert inits


def test_unit_entries_reach_kron_as_the_shared_one(monkeypatch):
    """``kron`` skips a product by testing a factor for ``ring.one`` by
    identity.  Over ``certify-all --max-rank 3``, 46 of the entries it is
    given equal 1 without being that object (311 when ``exchange_vars`` gave
    the fixed unit entries of every ω′ back as new Scalars, 86 while the
    braid relation took R̂'s unit entries through kron)."""
    import contextlib
    import io

    from rsqg import matrices

    kron = matrices.kron
    copies = [0]

    def counted(a, b):
        one = a.ring.one
        copies[0] += sum(v is not one and v == one for m in (a, b) for row in m.rows.values() for v in row.values())
        return kron(a, b)

    _wrap_everywhere(monkeypatch, kron, counted)
    monkeypatch.setenv("RSQG_JOBS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["certify-all", "--max-rank", "3"]) == 0
    assert copies[0] == 46


# -- one bracketing and one relation checker -----------------------------------


def test_dj_relations_run_the_two_parameter_checks(monkeypatch):
    """``dj-cartan``, ``dj-commutator`` and ``dj-serre`` are the relation
    checks of ``rep`` run on the modified generators at Ω_ij = q^{(α_i,α_j)}:
    each reaches ``rep``'s own Cartan, commutator and Serre loops."""
    calls = _count_calls(
        monkeypatch,
        [(getattr(rep, name), lambda *a, name=name, **k: name) for name in ("_cartan_conj", "_ef_commutator", "_serre")],
    )
    r = rep.build_fundamental("B", 2)
    assert embed.verify_dj_relations(r, embed.modified_generators(r)).ok()
    assert calls == {"_cartan_conj": 1, "_ef_commutator": 1, "_serre": 1}


def test_bracket_tower_is_the_only_bracketing(monkeypatch):
    """The root-vector matrices on V and the q-bracketed tower of the
    modified generators each run ``lyndon.bracket_tower`` once per side,
    and a pairing context runs it once, for the e side's shuffle images,
    however many pairings it is asked for.  None of these reaches a minimal
    pair outside it."""
    towers: Counter = Counter()
    stray: list[str] = []
    inside = [0]
    tower, minimal_pair = lyndon.bracket_tower, lyndon.minimal_pair

    def counted_tower(order, gens, pairing_fn, mul, side):
        towers[(type(gens[1]).__name__, side)] += 1
        inside[0] += 1
        try:
            return tower(order, gens, pairing_fn, mul, side)
        finally:
            inside[0] -= 1

    def watched_minimal_pair(order, gamma):
        if not inside[0]:
            stray.append(gamma.label())
        return minimal_pair(order, gamma)

    _wrap_everywhere(monkeypatch, tower, counted_tower)
    _wrap_everywhere(monkeypatch, minimal_pair, watched_minimal_pair)
    r = rep.build_fundamental("B", 3)
    o = lyndon.lalonde_ram(r.rs)
    rvm = rootvec.build_root_vector_matrices(r, o)
    assert embed.verify_root_vector_embedding(rvm, embed.modified_generators(r)).ok()
    pc = pairing.PairingContext(o, r.ring)
    assert all(pc.power(rt, 1) is pc.power(rt, 1) for rt in o.roots)
    assert stray == []
    assert pairing.verify_pbw_orthogonality(r.rs, r.ring, o, 3, pc).ok()
    assert towers == {("SMatrix", "e"): 2, ("SMatrix", "f"): 2, ("WordSum", "e"): 1}


@pytest.mark.parametrize(
    "name,run",
    [
        ("verify_finite_relations", lambda fin: rep.verify_finite_relations(fin)),
        ("affine_data", lambda fin: rootdata.affine_data(fin.rs, fin.ring)),
        ("verify_dj_relations", lambda fin: embed.verify_dj_relations(fin, embed.modified_generators(fin))),
    ],
)
def test_relation_checks_take_their_presentation_from_rootdata(monkeypatch, name, run):
    """The finite, affine and one-parameter relations each read (Ω, Cartan,
    d) from ``rootdata.presentation``, the affine ones on the nodes 0..n."""
    fin = rep.build_fundamental("B", 3)
    calls = _count_calls(monkeypatch, ((rootdata.presentation, lambda *a, affine=False, **k: f"affine={affine}"),))
    run(fin)
    assert calls == {f"affine={name == 'affine_data'}": 1}
