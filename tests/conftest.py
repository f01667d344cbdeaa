"""Shared cached builders so expensive objects are constructed once."""

from __future__ import annotations

from functools import lru_cache

from rsqg.catalogue import CaseContext
from rsqg.lyndon import lalonde_ram
from rsqg.rep import build_evaluation, build_fundamental
from rsqg.rootdata import build_root_system
from rsqg.rootvec import build_root_vector_matrices
from rsqg.scalars import rs_ring


@lru_cache(maxsize=None)
def ring():
    return rs_ring()


@lru_cache(maxsize=None)
def rsys(family, rank):
    return build_root_system(family, rank)


@lru_cache(maxsize=None)
def rep(family, rank):
    return build_fundamental(family, rank)


@lru_cache(maxsize=None)
def order(family, rank):
    return lalonde_ram(rsys(family, rank))


@lru_cache(maxsize=None)
def erep(family, rank):
    return build_evaluation(family, rank)


@lru_cache(maxsize=None)
def rvm(family, rank):
    return build_root_vector_matrices(rep(family, rank), order(family, rank))


@lru_cache(maxsize=None)
def case(family, rank):
    """The shared per-case operators (R̂, R̄, Θ, R̂(z), ...) the checks take."""
    return CaseContext(family, rank)


DESK = [("A", 2), ("B", 2), ("C", 2), ("D", 3)]
