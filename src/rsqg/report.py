"""Certificate report structures shared by all verification entry points,
and the one clock every check runs under."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .matrices import SMatrix


@dataclass
class CheckItem:
    """Outcome of one named identity check."""

    name: str
    family: str
    rank: int
    ok: bool
    witness: str = ""  # first offending entry when failing
    seconds: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def line(self) -> str:
        msg = f"[{self.status}] {self.family}{self.rank} {self.name} ({self.seconds:.2f}s)"
        if not self.ok and self.witness:
            msg += f" witness: {self.witness}"
        return msg


@dataclass
class Report:
    items: list[CheckItem] = field(default_factory=list)

    def add(self, item: CheckItem) -> CheckItem:
        self.items.append(item)
        return item

    @contextmanager
    def timed(self, name: str, family: str, rank: int) -> Iterator[CheckItem]:
        """Run the body of one named check under a single clock, including
        every operator the body builds, and record it.  The body sets
        ``witness`` ("" when the identity holds); ``ok`` follows from the
        witness unless the body sets it."""
        item = CheckItem(name, family, rank, None)
        t0 = time.perf_counter()
        yield item
        item.seconds = time.perf_counter() - t0
        if item.ok is None:
            item.ok = item.witness == ""
        self.items.append(item)

    def fault(self, name: str, family: str, rank: int, exc: Exception) -> CheckItem:
        """Record a check that raised instead of returning a verdict."""
        return self.add(CheckItem(name, family, rank, False, f"raised {type(exc).__name__}: {exc}"))

    def ok(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.items) and all(it.ok for it in self.items)

    def sorted_items(self) -> list[CheckItem]:
        return sorted(self.items, key=lambda it: (it.name, it.family, it.rank))

    def merged(self, other: "Report") -> "Report":
        return Report(self.items + other.items)

    def to_json(self) -> list[dict]:
        return [
            {
                "check": it.name,
                "family": it.family,
                "rank": it.rank,
                "status": it.status,
                "witness": it.witness,
                "seconds": round(it.seconds, 4),
            }
            for it in self.sorted_items()
        ]


def charged(run: Callable[..., Report], *args) -> Report:
    """Run one check on ``args`` and add the time it spent outside its items'
    clocks (the shared operators it is the first to use, built before its
    body runs) to its first item."""
    t0 = time.perf_counter()
    out = run(*args)
    unclocked = time.perf_counter() - t0 - sum(it.seconds for it in out.items)
    if out.items:
        out.items[0].seconds += max(0.0, unclocked)
    return out


def first_mismatch(a: SMatrix, b: SMatrix) -> str:
    """Coordinates and value of the first differing entry (grlex row order).

    Scalars are canonical, so equal entries are equal as stored and ``a == b``
    settles a match without the subtraction; a stored explicit zero only
    sends the comparison on to it."""
    if a == b:
        return ""
    d = a - b
    if d.is_zero():
        return ""
    i, j, v = d.entries()[0]
    return f"entry ({i},{j}) differs by {v}"
