"""The check catalogue: which checks certify-all selects per case, and how
names are resolved, pinned without running any check."""

from __future__ import annotations

import pytest

from rsqg import catalogue, cli
from rsqg.report import Report

# Checks every desk case runs, short and --long.  Taken, together with
# EXTRA below, from the certify-all --max-rank 3 reports (short and --long)
# of the hand-written suite that the catalogue replaced.
COMMON = {
    "rep/relations", "rep/highest-weight", "rep/affine-relations",
    "rootvec/closed-forms", "rootvec/nilpotency",
    "pairing/constants",
    "rmatrix/route", "rmatrix/eigen", "rmatrix/intertwine", "rmatrix/minpoly",
    "rmatrix/inverse", "rmatrix/weights", "rmatrix/tables", "rmatrix/braid",
    "affine/intertwine", "affine/baxterize-match", "affine/degree", "affine/unit",
    "embed/dj", "embed/kappa", "embed/rootvec",
}

EXTRA = {
    ("A", 2, False): {"affine/ybe", "embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("A", 3, False): {"embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("B", 2, False): {"embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("B", 3, False): {"embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("C", 2, False): {"affine/ybe"},
    ("C", 3, False): set(),
    ("D", 3, False): set(),
    ("A", 2, True): {"affine/ybe", "embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("A", 3, True): {"affine/ybe", "embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("B", 2, True): {"affine/ybe", "embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("B", 3, True): {"affine/ybe", "embed/twist", "pairing/pbw", "rmatrix/specialize"},
    ("C", 2, True): {"affine/ybe"},
    ("C", 3, True): {"affine/ybe"},
    ("D", 3, True): {"affine/ybe"},
}


@pytest.fixture
def recorded(monkeypatch):
    """Replace every group driver that ``cli._certify_one`` calls with a
    recorder, so that selecting runs no check."""
    seen: list[tuple[str, str, int, tuple[str, ...]]] = []

    def recorder(group):
        def driver(family, rank, checks, ctx):
            assert (ctx.family, ctx.rank) == (family, rank)
            seen.append((group, family, rank, tuple(checks), ctx))
            return Report()

        return driver

    monkeypatch.setattr(cli, "run_rmatrix_checks", recorder("rmatrix"))
    monkeypatch.setattr(cli, "run_affine_checks", recorder("affine"))
    monkeypatch.setattr(cli, "run_embed_checks", recorder("embed"))
    monkeypatch.setattr(cli, "run_group", lambda group, ctx, checks: recorder(group)(ctx.family, ctx.rank, checks, ctx))
    return seen


@pytest.mark.parametrize("long_mode", [False, True])
def test_certify_one_selection_is_pinned(recorded, long_mode):
    assert {(f, r, long) for (f, r, long) in EXTRA if long == long_mode} == {
        (f, r, long_mode) for f, r in cli._desk_cases(3)
    }
    for family, rank in cli._desk_cases(3):
        recorded.clear()
        cli._certify_one((family, rank, long_mode))
        got = [f"{g}/{name}" for g, f, r, checks, _ in recorded for name in checks]
        assert all((f, r) == (family, rank) for _, f, r, _, _ in recorded)
        # every group of the case runs over the one context it passes on
        assert len({id(ctx) for *_, ctx in recorded}) == 1
        assert len(got) == len(set(got))
        assert set(got) == COMMON | EXTRA[(family, rank, long_mode)], (family, rank)


def test_names_are_unique_within_each_group():
    keys = [(c.group, c.name) for c in catalogue.CATALOGUE]
    assert len(keys) == len(set(keys))
    assert {c.group for c in catalogue.CATALOGUE} == set(catalogue.GROUPS)


def test_select_resolves_in_catalogue_order_once():
    got = catalogue.select("rmatrix", "B", 2, ["braid", "eigen", "braid"])
    assert [c.name for c in got] == ["eigen", "braid"]


@pytest.mark.parametrize(
    "group, family, rank, wanted, message",
    [
        ("rmatrix", "B", 2, ["nope"], "unknown rmatrix check 'nope'"),
        ("rmatrix", "C", 2, ["specialize"], "does not apply to C2"),
        ("embed", "D", 3, ["twist"], "does not apply to D3"),
        ("affine", "D", 2, ["unit"], "does not apply to D2"),
        ("affine", "D", 2, [], "no affine check applies to D2"),
    ],
)
def test_select_rejects(group, family, rank, wanted, message):
    with pytest.raises(ValueError, match=message):
        catalogue.select(group, family, rank, wanted)


def test_long_only_checks_are_accepted_by_name():
    assert "ybe" not in catalogue.default_checks("affine", "B", 2)
    assert [c.name for c in catalogue.select("affine", "B", 2, ["ybe"])] == ["ybe"]


def test_a_raising_check_is_named_as_its_report_names_it(monkeypatch, capsys):
    from rsqg import pairing

    def broken(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(pairing, "verify_pairing_constants", broken)
    report = catalogue.run_group("pairing", catalogue.CaseContext("A", 2), ["constants"])
    (item,) = report.items
    assert (item.name, item.ok) == ("pairing-constants", False)
    assert item.witness == "raised ValueError: injected fault"
    assert "injected fault" in capsys.readouterr().err


def test_a_denominator_outside_the_factor_set_is_a_failing_item(monkeypatch, capsys):
    """A check whose arithmetic divides by r + 2 fails with the kernel's
    ValueError as its witness, instead of passing on a silent value."""
    from rsqg import pairing
    from rsqg.scalars import rs_ring

    def outside(*args):
        ring = rs_ring()
        ring.one / (ring.mono(r=1) + ring.num(2))

    monkeypatch.setattr(pairing, "verify_pairing_constants", outside)
    (item,) = catalogue.run_group("pairing", catalogue.CaseContext("A", 2), ["constants"]).items
    assert (item.name, item.ok) == ("pairing-constants", False)
    assert item.witness.startswith("raised ValueError: denominator 1 * r^1 + 2 is not a product of cyclotomic forms")
    assert "cyclotomic" in capsys.readouterr().err


def test_item_is_the_name_the_check_reports():
    """A check with ``item`` reports one item of that name; the others report
    one item under the catalogue name, or several.  Every check applies to A2."""
    ctx = catalogue.CaseContext("A", 2)
    for c in catalogue.CATALOGUE:
        reported = [it.name for it in catalogue.run_group(c.group, ctx, [c.name]).items]
        if c.item:
            assert reported == [c.item]
        else:
            assert reported == [c.name] or len(reported) > 1, (c.name, reported)


def test_long_changes_only_the_spectral_ybe():
    """Every catalogue entry but the spectral YBE applies alike with and
    without ``--long``, and the YBE applies to more cases with it: so
    ``certify-all --long`` runs every check of the same ``certify-all``."""
    for c in catalogue.CATALOGUE:
        for family in "ABCD":
            for rank in range(1, 13):
                short, long = c.applies(family, rank, False), c.applies(family, rank, True)
                if c.applies is catalogue._ybe:
                    assert long or not short, (c.name, family, rank)
                else:
                    assert short == long, (c.name, family, rank)
