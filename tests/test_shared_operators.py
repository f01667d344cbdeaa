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
    # dj and root-vector-embedding share one set on V; dj-serre builds the
    # set on V⊗V
    assert calls["modified_generators/V"] == 1
    assert calls["modified_generators/V⊗V"] == 1
    # the case's module, the evaluation module, the module over the z ring,
    # and the one module V(x) and V(y) of the affine intertwiner share
    assert calls["build_fundamental"] == 4
    # the evaluation module's, and the one V(x) and V(y) share
    assert calls["affine_data"] == 2


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
    """In a --long case: R̂(z) over the z ring, the intertwiner's R̂(x/y) and
    the YBE's R̂(x), R̂(y), R̂(xy), each once."""
    calls = _count_calls(
        monkeypatch, ((affine.affine_rhat, lambda r, z=None: (r.ring.names, str(z))),)
    )
    assert cli._certify_one(("B", 2, True)).ok()
    xya, xy = rs_ring("x", "y", "a"), rs_ring("x", "y")
    x, y = xy.atom("x"), xy.atom("y")
    assert calls == {
        (rs_ring("z").names, "None"): 1,
        (xya.names, str(xya.atom("x") * xya.atom("y").inv())): 1,
        (xy.names, str(x)): 1,
        (xy.names, str(y)): 1,
        (xy.names, str(x * y)): 1,
    }


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
    out = catalogue.run_group("rmatrix", "B", 2, ["eigen"])
    (item,) = out.items
    assert item.name == "eigenvalues" and item.ok
    assert item.seconds >= 0.3


def test_each_pairing_value_is_computed_once_per_case(monkeypatch):
    """In one B2 case, c_γ of each non-simple root is computed once (p_max
    runs only in that step), and no two oracle calls pair the same
    elements: pbw reads the (f_γ^m, e_γ^m) that constants computed."""
    from rsqg import pairing

    p_max_calls: Counter = Counter()
    p_max = pairing.p_max

    def counted_p_max(rs, alpha, beta):
        p_max_calls[(alpha.label(), beta.label())] += 1
        return p_max(rs, alpha, beta)

    def key(element):
        return tuple(sorted((w, k, str(c)) for (w, k), c in element.terms.items()))

    oracle_calls: Counter = Counter()
    hopf_pair = pairing.PairingOracle.hopf_pair

    def counted_hopf_pair(self, y, x):
        oracle_calls[(key(y), key(x))] += 1
        return hopf_pair(self, y, x)

    monkeypatch.setattr(pairing, "p_max", counted_p_max)
    monkeypatch.setattr(pairing.PairingOracle, "hopf_pair", counted_hopf_pair)
    assert cli._certify_one(("B", 2, False)).ok()
    non_simple = [rt for rt in lyndon.lalonde_ram(rep.build_fundamental("B", 2).rs).roots if not rt.is_simple()]
    assert len(p_max_calls) == len(non_simple) == 2
    assert set(p_max_calls.values()) == {1}
    assert max(oracle_calls.values()) == 1
    assert sum(oracle_calls.values()) == 25


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_braid_builds_no_v3_matrix(monkeypatch, family, rank):
    """check_braid calls neither kron nor the matrix product, builds no
    matrix larger than V ⊗ V, and applies two factor actions per side it
    computes to each of the N³ basis columns (the first one on each side is
    a column read): both sides at A2, the left side only at B2, where R̂ has
    a transpose reflection."""
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

    _wrap_everywhere(monkeypatch, matrices.kron, forbidden("kron"))
    monkeypatch.setattr(SMatrix, "__matmul__", forbidden("matmul"))
    monkeypatch.setattr(SMatrix, "__init__", recorded_init)
    monkeypatch.setattr(PairAction, "__call__", lambda self, vec: calls.update(["apply"]) or apply(self, vec))
    out = rmatrix.check_braid(ctx.rep, ctx.rhat)
    assert out.ok(), out.items[0].witness
    sides = 2 if family == "A" else 1
    assert calls == {"apply": 2 * sides * N**3}
    assert max(rows, default=0) <= N * N


@pytest.mark.parametrize("check", ["braid", "spectral-ybe"])
def test_passing_column_checks_construct_no_scalar(monkeypatch, check):
    """A passing B2 ``braid`` or ``spectral-ybe`` keeps every column in
    kernel values from the stored columns to the comparison and the degree
    bound: ``reflected_column_pairs``, which decides both at B2 from the
    left side alone, constructs no Scalar.  A failing one does, in
    ``first_column_mismatch``, for the values its witness prints."""
    from rsqg import report, scalars
    from rsqg.matrices import SMatrix

    def first_entry_doubled(m):
        i, j, v = m.entries()[0]
        return m + SMatrix.from_entries(m.ring, m.nrows, m.ncols, [(i, j, v)])

    ctx = catalogue.CaseContext("B", 2)
    run = {
        "braid": lambda: rmatrix.check_braid(ctx.rep, ctx.rhat),
        "spectral-ybe": lambda: affine.check_spectral_ybe("B", 2, ctx.ybe),
    }[check]
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

    for mod in (rmatrix, affine):
        for name in ("first_column_mismatch", "reflected_column_pairs"):
            monkeypatch.setattr(mod, name, counted(getattr(report, name)))
    assert run().ok()
    assert called == ["reflected_column_pairs"]
    assert inits == []
    ctx.rhat = first_entry_doubled(ctx.rhat)
    r_x, r_y, r_xy = ctx.ybe
    ctx.ybe = (r_x, r_y, first_entry_doubled(r_xy))
    assert not run().ok()
    assert called[-1] == "first_column_mismatch"
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
