"""The per-case operators: each is built once per case, and its build time is
charged to the first check that uses it."""

from __future__ import annotations

import sys
import time
from collections import Counter

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
            (embed.modified_generators, lambda *a: "modified_generators"),
        ),
    )
    assert cli._certify_one(("B", 2, False)).ok()
    assert calls["theta_product"] == 1
    assert calls["rhat_explicit/rs"] == 1
    assert calls["build_root_vector_matrices"] == 1
    assert calls["lalonde_ram"] == 1
    assert calls["rhat_explicit/z"] == 1
    assert calls["rbar_inverse_printed/z"] == 1
    # dj and root-vector-embedding share one set
    assert calls["modified_generators"] == 1
    # the case's module, the evaluation module, the module over the z ring,
    # and the two evaluation modules of the affine intertwiner
    assert calls["build_fundamental"] == 5


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


def test_braid_shares_r12_r23(monkeypatch):
    """check_braid multiplies R̂₁₂R̂₂₃ once and uses it on both sides: three
    V⊗³ products, not four."""
    from rsqg.matrices import SMatrix

    ctx = catalogue.CaseContext("B", 2)
    rhat = ctx.rhat
    calls = []
    matmul = SMatrix.__matmul__

    def counted(a, b):
        calls.append((a.nrows, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(SMatrix, "__matmul__", counted)
    out = rmatrix.check_braid(ctx.rep, rhat)
    assert out.ok()
    n3 = ctx.rep.N**3
    assert calls == [(n3, n3)] * 3
