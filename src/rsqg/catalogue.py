"""The one catalogue of named checks.

Every check the command line can run is listed here once, with its group,
the cases it applies to and how it runs.  The ``certify-all`` suite, the
``verify`` drivers and their default ``--checks`` are all read off this
table.  A check applies to a case when ``applies(family, rank, long)`` holds:
``certify-all`` runs it when that holds for its own ``--long`` setting, and a
``verify`` subcommand accepts it by name when it holds with ``long=True``.

Runners reach the check functions through their modules at call time, so a
wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from . import affine, embed, lyndon, pairing, rmatrix, rootvec
from . import rep as rep_module
from .report import Report, charged
from .rootdata import MIN_AFFINE_RANK
from .scalars import rs_ring

GROUPS = ("rep", "rootvec", "pairing", "rmatrix", "affine", "embed")


class CaseContext:
    """Operators shared by the checks of one (family, rank) case, each built
    on first use and at most once: the fundamental module, its convex order
    and root-vector matrices, the modified generators, the pairing context
    (root vectors, oracle values and c_γ), the ordered product Θ, R̂ and R̄
    over (r, s), the evaluation module, the module with R̂(z), R̂ and R̄ over
    the z ring, the affine intertwiner's V(x), V(y) and R̂(x/y), and the
    spectral YBE's R̂(x)τ, R̂(y)τ and R̂(xy)τ."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank

    @cached_property
    def rep(self):
        return rep_module.build_fundamental(self.family, self.rank)

    @cached_property
    def order(self):
        return lyndon.lalonde_ram(self.rep.rs)

    @cached_property
    def rvm(self):
        return rootvec.build_root_vector_matrices(self.rep, self.order)

    @cached_property
    def modified(self):
        return embed.modified_generators(self.rep)

    @cached_property
    def pairing_context(self):
        return pairing.PairingContext(self.order, self.rep.ring)

    @cached_property
    def rhat(self):
        return rmatrix.rhat_explicit(self.rep)

    @cached_property
    def rbar(self):
        return rmatrix.rbar_inverse_printed(self.rep)

    @cached_property
    def theta(self):
        return rmatrix.build_theta(self.rep, self.order, self.rvm, self.pairing_context)

    @cached_property
    def erep(self):
        return rep_module.build_evaluation(self.family, self.rank)

    @cached_property
    def zrep(self):
        return rep_module.build_fundamental(self.family, self.rank, rs_ring("z"))

    @cached_property
    def rz(self):
        return affine.affine_rhat(self.zrep)

    @cached_property
    def zrhat(self):
        return rmatrix.rhat_explicit(self.zrep)

    @cached_property
    def zrbar(self):
        return rmatrix.rbar_inverse_printed(self.zrep)

    @cached_property
    def intertwiner(self):
        return affine.intertwiner_operators(self.family, self.rank)

    @cached_property
    def ybe(self):
        return affine.spectral_ybe_operators(self.family, self.rank)


@dataclass(frozen=True)
class Check:
    """One catalogue entry.  ``item`` is the name the check's own report
    gives its one item, where that differs from the catalogue name; a check
    that raises is reported under ``item``, or under ``name`` when it has
    none (the checks that report several items)."""

    group: str
    name: str
    applies: Callable[[str, int, bool], bool]
    run: Callable[[CaseContext], Report]
    item: str = ""


def _always(family: str, rank: int, long: bool) -> bool:
    return True


def _a_or_b(family: str, rank: int, long: bool) -> bool:
    return family in ("A", "B")


def _affine(family: str, rank: int, long: bool) -> bool:
    return rank >= MIN_AFFINE_RANK[family]


def _ybe(family: str, rank: int, long: bool) -> bool:
    return _affine(family, rank, long) and (long or (family, rank) in (("A", 2), ("C", 2)))


def _specialize(c: CaseContext) -> Report:
    return rmatrix.specialize_and_compare(c.rep, c.rhat, c.rz if c.family == "A" else None)


def _twist(c: CaseContext) -> Report:
    if c.family == "A":
        return embed.verify_twist_A(c.rep, c.rhat).merged(embed.verify_twist_A(c.zrep, c.rz))
    return embed.b_type_obstruction(c.rep, c.rhat)


CATALOGUE = (
    Check("rep", "relations", _always, lambda c: rep_module.verify_finite_relations(c.rep)),
    Check("rep", "highest-weight", _always, lambda c: rep_module.verify_highest_weight(c.rep), "highest-weight-annihilation"),
    Check("rep", "affine-relations", _affine, lambda c: rep_module.verify_affine_relations(c.erep)),
    Check("rootvec", "closed-forms", _always, lambda c: rootvec.verify_closed_forms(c.rvm), "root-vector-closed-forms"),
    Check("rootvec", "nilpotency", _always, lambda c: rootvec.verify_nilpotency(c.rvm), "root-vector-nilpotency"),
    Check("pairing", "constants", _always, lambda c: pairing.verify_pairing_constants(c.rep.rs, c.rep.ring, c.order, 2, c.pairing_context), "pairing-constants"),
    Check("pairing", "pbw", _a_or_b, lambda c: pairing.verify_pbw_orthogonality(c.rep.rs, c.rep.ring, c.order, 3, c.pairing_context), "pbw-orthogonality-h3"),
    Check("rmatrix", "route", _always, lambda c: rmatrix.check_route_equivalence(c.rep, c.rhat, c.theta), "route-equivalence"),
    Check("rmatrix", "eigen", _always, lambda c: rmatrix.check_eigenvalues(c.rep, c.rhat), "eigenvalues"),
    Check("rmatrix", "intertwine", _always, lambda c: rmatrix.check_intertwining(c.rep, c.rhat), "intertwining"),
    Check("rmatrix", "minpoly", _always, lambda c: rmatrix.check_min_poly(c.rep, c.rhat), "min-poly"),
    Check("rmatrix", "inverse", _always, lambda c: rmatrix.check_inverse(c.rep, c.rhat, c.rbar, c.theta)),
    Check("rmatrix", "weights", _always, lambda c: rmatrix.check_weight_preservation(c.rep, c.rhat), "weight-preservation"),
    Check("rmatrix", "tables", _always, lambda c: rmatrix.verify_tables(c.rep, c.rhat), "coefficient-tables"),
    Check("rmatrix", "braid", _always, lambda c: rmatrix.check_braid(c.rep, c.rhat)),
    Check("rmatrix", "specialize", _a_or_b, _specialize),
    Check("affine", "intertwine", _affine, lambda c: affine.check_affine_intertwiner(c.family, c.rank, c.intertwiner)),
    Check("affine", "ybe", _ybe, lambda c: affine.check_spectral_ybe(c.family, c.rank, c.ybe), "spectral-ybe"),
    Check("affine", "baxterize-match", _affine, lambda c: affine.check_baxterize_match(c.zrep, c.rz, c.zrhat, c.zrbar)),
    Check("affine", "degree", _affine, lambda c: affine.check_degree_bounds(c.zrep, c.rz), "z-degree-bound"),
    Check("affine", "unit", _affine, lambda c: affine.check_unit_point(c.zrep, c.rz), "unit-point"),
    Check("embed", "dj", _always, lambda c: embed.verify_dj_relations(c.rep, c.modified)),
    Check("embed", "kappa", _always, lambda c: embed.verify_kappa_recursion(c.rep, c.order), "kappa-recursion"),
    Check("embed", "rootvec", _always, lambda c: embed.verify_root_vector_embedding(c.rvm, c.modified), "root-vector-embedding"),
    Check("embed", "twist", _a_or_b, _twist),
)


def names(group: str) -> list[str]:
    return [c.name for c in CATALOGUE if c.group == group]


def default_checks(group: str, family: str, rank: int, long: bool = False) -> list[str]:
    """The checks of ``group`` that ``certify-all`` runs for this case."""
    return [c.name for c in CATALOGUE if c.group == group and c.applies(family, rank, long)]


def select(group: str, family: str, rank: int, wanted: list[str]) -> list[Check]:
    """The catalogue entries for ``wanted``, in catalogue order; ValueError on
    an empty selection or on a name that is unknown or does not apply."""
    entries = {c.name: c for c in CATALOGUE if c.group == group}
    for name in wanted:
        if name not in entries:
            raise ValueError(f"unknown {group} check {name!r}; choose from {', '.join(entries)}")
        if not entries[name].applies(family, rank, True):
            raise ValueError(f"{group} check {name!r} does not apply to {family}{rank}")
    if not wanted:
        raise ValueError(f"no {group} check applies to {family}{rank}")
    return [c for c in entries.values() if c.name in wanted]


_open_case: ContextVar[CaseContext | None] = ContextVar("open_case", default=None)


@contextmanager
def open_case(family: str, rank: int) -> Iterator[CaseContext]:
    """Share one CaseContext among the ``run_group`` calls for this case made
    inside the block; it is dropped when the block ends."""
    token = _open_case.set(CaseContext(family, rank))
    try:
        yield _open_case.get()
    finally:
        _open_case.reset(token)


def run_group(group: str, family: str, rank: int, wanted: list[str]) -> Report:
    """Run the named checks of one group.  Each check is charged for the
    shared operators it is the first to use.  A check that raises is recorded
    as a failure with the exception as its witness, and its traceback goes to
    standard error."""
    entries = select(group, family, rank, wanted)
    ctx = _open_case.get()
    if ctx is None or (ctx.family, ctx.rank) != (family, rank):
        ctx = CaseContext(family, rank)
    out = Report()
    for entry in entries:
        try:
            out = out.merged(charged(entry.run, ctx))
        except Exception as exc:
            traceback.print_exc()
            out.fault(entry.item or entry.name, family, rank, exc)
    return out
