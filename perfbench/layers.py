"""Per-layer attribution for the traced run.

Two instruments, each in its own pass of the workload, so that neither
distorts what the other measures:

* Spans.  ``Recorder.install`` wraps the public calls into each layer by
  ``setattr``: the check functions, the builders, ``SMatrix.__matmul__``,
  ``kron`` and ``PairingOracle.hopf_pair``.  Every span carries a layer, a
  name, start, end and the index of its parent span.  Inclusive times come
  from these spans, never from ``CheckItem.seconds``, which leaves build time
  out for several checks.
* cProfile, for the ``scalars`` and ``matrices`` leaves, where a span per
  call would number in the millions.  Self time is grouped by rsqg module;
  self time spent in the standard library (``fractions``, builtins) is
  charged to the rsqg module that called into it.

``PER_LAYER`` is the catalogue of reported metrics, with the end-to-end
metric and workloads each one should move.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import time
from collections import defaultdict
from pathlib import Path

# name: (unit, better, what it should move)
PER_LAYER = {
    "scalars.self_s": ("s", "lower", "wall_s/cpu_s on all three workloads; coefficient multiplication dominates spectral-long"),
    "scalars.share": ("ratio", "lower", "wall_s on all three workloads"),
    "scalars.mul_calls": ("count", "lower", "wall_s on all three workloads"),
    "scalars.add_calls": ("count", "lower", "wall_s on all three workloads"),
    "scalars.div_calls": ("count", "lower", "wall_s on certify-desk"),
    "scalars.gcd_calls": ("count", "lower", "wall_s on certify-desk; 0 on spectral-long"),
    "scalars.canon_calls": ("count", "lower", "wall_s on all three workloads"),
    "matrices.self_s": ("s", "lower", "wall_s on finite-wide and spectral-long"),
    "matrices.matmul_calls": ("count", "lower", "wall_s on finite-wide and spectral-long"),
    "matrices.matmul_s": ("s", "lower", "wall_s on finite-wide and spectral-long"),
    "matrices.matmul_scalar_mults": ("count", "lower", "wall_s on finite-wide and spectral-long"),
    "matrices.kron_calls": ("count", "lower", "wall_s on finite-wide"),
    "matrices.add_calls": ("count", "lower", "wall_s on finite-wide"),
    "matrices.max_entry_terms": ("count", "lower", "wall_s and peak_rss_mb on spectral-long"),
    "matrices.max_coeff_bits": ("bits", "lower", "wall_s on spectral-long"),
    "pairing.s": ("s", "lower", "wall_s on certify-desk; also cases.max_s"),
    "pairing.self_s": ("s", "lower", "wall_s on certify-desk; also cases.max_s"),
    "pairing.hopf_pair_calls": ("count", "lower", "wall_s on certify-desk; 0 on spectral-long and finite-wide"),
    "pairing.pair_words_calls": ("count", "lower", "wall_s on certify-desk; 0 on spectral-long and finite-wide"),
    "builders.s": ("s", "lower", "wall_s on certify-desk and finite-wide"),
    "builders.calls": ("count", "lower", "wall_s on certify-desk and finite-wide"),
    "builders.rebuild_ratio": ("ratio", "lower", "wall_s on certify-desk and finite-wide"),
    "checks.count": ("count", "higher", "none: a certificate count, pinned by the gate"),
    "checks.verify_pairing_constants_s": ("s", "lower", "wall_s on certify-desk; also cases.max_s"),
    "checks.verify_pbw_orthogonality_s": ("s", "lower", "wall_s on certify-desk"),
    "checks.check_spectral_ybe_s": ("s", "lower", "wall_s on spectral-long and certify-desk"),
    "checks.check_braid_s": ("s", "lower", "wall_s on finite-wide and certify-desk"),
    "checks.check_affine_intertwiner_s": ("s", "lower", "wall_s on finite-wide and certify-desk"),
    "checks.check_route_equivalence_s": ("s", "lower", "wall_s on finite-wide and certify-desk"),
    "checks.check_inverse_s": ("s", "lower", "wall_s on finite-wide and certify-desk"),
    "checks.verify_finite_relations_s": ("s", "lower", "wall_s on certify-desk"),
    "checks.verify_affine_relations_s": ("s", "lower", "wall_s on certify-desk"),
    "checks.run_embed_checks_s": ("s", "lower", "wall_s on certify-desk"),
    "rootdata.self_s": ("s", "lower", "wall_s on certify-desk"),
    "lyndon.self_s": ("s", "lower", "wall_s on certify-desk"),
    "runtime.gc_s": ("s", "lower", "wall_s on finite-wide"),
    "runtime.gc_collections": ("count", "lower", "wall_s on finite-wide"),
    "cases.max_s": ("s", "lower", "wall_s on all three workloads: the slowest case sets the wall time under RSQG_JOBS dispatch"),
    "trace.overhead_ratio": ("ratio", "lower", "none: cost of the profiled pass over the untimed pass"),
    "fail_ratio": ("ratio", "lower", "none: failed outputs over attempted outputs, 0 when correct"),
}

CHECKS = {
    "pairing": ("verify_pairing_constants", "verify_pbw_orthogonality"),
    "affine": ("check_spectral_ybe", "check_affine_intertwiner"),
    "rmatrix": ("check_braid", "check_route_equivalence", "check_inverse"),
    "rep": ("verify_finite_relations", "verify_affine_relations"),
    "embed": ("run_embed_checks",),
}

BUILDERS = {
    "rep": ("build_fundamental", "build_evaluation"),
    "rootvec": ("build_root_vector_matrices",),
    "rmatrix": (
        "rhat_explicit",
        "build_rhat_explicit",
        "rhat_factorized",
        "build_rhat_factorized",
        "rbar_inverse_printed",
        "rbar_inverse_exchanged",
        "build_rbar_inverse",
        "theta_product",
        "build_theta",
        "one_param_r_finite",
    ),
    "affine": ("affine_rhat", "build_affine_rhat", "baxterize_bullet"),
    "embed": ("modified_generators",),
}

RSQG_MODULES = ("scalars", "matrices", "pairing", "rootdata", "lyndon")


def _builder_key(args: tuple, kwargs: dict) -> tuple:
    """(family, rank, ring variables, other arguments) of one builder call.

    Builders take either ``family, rank[, ring]`` or a representation first;
    the ring is explicit, carried by the representation, or the default.
    """
    from rsqg.scalars import Scalar, ScalarRing

    values = list(args) + [kwargs[k] for k in sorted(kwargs)]
    first = values[0]
    if isinstance(first, str):
        family, rank, rest = first, values[1], values[2:]
        ring = None
    else:
        rep = getattr(first, "fin", first)  # EvaluationRep wraps a Representation
        family, rank, rest = rep.family, rep.n, values[1:]
        ring = rep.ring.names
    extra = []
    for v in rest:
        if isinstance(v, ScalarRing):
            ring = v.names
        elif isinstance(v, Scalar):
            extra.append(repr(v))
        elif isinstance(v, (str, int)) or v is None:
            extra.append(v)
    return (family, rank, ring, tuple(extra))


class Recorder:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        # [layer, name, start, end, parent index, key]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bookkeeping = 0.0  # seconds spent on matmul statistics, kept out of spans
        self.scalar_mults = 0
        self.max_entry_terms = 0
        self.max_coeff_bits = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self.installed: dict[str, object] = {}

    def now(self) -> float:
        return time.perf_counter() - self._bookkeeping

    def begin(self, layer: str, name: str, key=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, self.now(), None, parent, key])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str, key=None):
        index = self.begin(layer, name, key)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, layer: str, name: str, key=None, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = rec.begin(layer, name, key(args, kwargs) if key else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(index)
            if after is not None:
                t0 = time.perf_counter()
                after(args, result)
                rec._bookkeeping += time.perf_counter() - t0
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary.  Must run after ``import rsqg`` and
        before ``import rsqg.cli``: modules bind these names at import, so
        every module attribute that holds an original is replaced."""
        import rsqg  # noqa: F401  (loads every submodule except cli)
        from rsqg.matrices import SMatrix
        from rsqg.pairing import PairingOracle

        if "rsqg.cli" in sys.modules:
            raise RuntimeError("rsqg.cli was imported before the span wrappers were installed")
        for layer, table, key in (("check", CHECKS, None), ("builder", BUILDERS, _builder_key)):
            for module, names in table.items():
                mod = sys.modules[f"rsqg.{module}"]
                for name in names:
                    original = getattr(mod, name)
                    self._replace_everywhere(original, self.wrap(original, layer, name, key))
        kron = sys.modules["rsqg.matrices"].kron
        self._replace_everywhere(kron, self.wrap(kron, "matrices", "kron"))
        SMatrix.__matmul__ = self.wrap(
            SMatrix.__dict__["__matmul__"], "matrices", "matmul", after=self._matmul_stats
        )
        PairingOracle.hopf_pair = self.wrap(PairingOracle.__dict__["hopf_pair"], "pairing", "hopf_pair")
        gc.callbacks.append(self._gc_callback)

    def _replace_everywhere(self, original, wrapper) -> None:
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "rsqg" and not modname.startswith("rsqg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module binds {original.__qualname__}")
        self.installed[original.__name__] = wrapper

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def _matmul_stats(self, args: tuple, result) -> None:
        """Exact scalar multiplications Σ_k nnz(col k of A)·nnz(row k of B),
        and the expression size of the product, read through the public JSON
        form so that a change of the scalar representation keeps the metric."""
        from rsqg.scalars import scalar_to_json

        a, b = args
        col_nnz: dict[int, int] = defaultdict(int)
        for row in a.rows.values():
            for k in row:
                col_nnz[k] += 1
        self.scalar_mults += sum(n * len(b.rows.get(k, ())) for k, n in col_nnz.items())
        for row in result.rows.values():
            for v in row.values():
                obj = scalar_to_json(v)
                terms = obj["num"] + obj["den"]
                self.max_entry_terms = max(self.max_entry_terms, len(terms))
                for t in terms:
                    for part in t["coeff"].lstrip("-").split("/"):
                        self.max_coeff_bits = max(self.max_coeff_bits, int(part).bit_length())

    # -- metrics --------------------------------------------------------------

    def _outermost_seconds(self, match) -> float:
        """Summed duration of matching spans that have no matching ancestor."""
        total = 0.0
        for layer, name, start, end, parent, _ in self.spans:
            if not match(layer, name):
                continue
            p = parent
            while p >= 0 and not match(*self.spans[p][:2]):
                p = self.spans[p][4]
            if p < 0:
                total += end - start
        return total

    def metrics(self) -> dict[str, float]:
        def count(layer, name=None):
            return sum(1 for s in self.spans if s[0] == layer and (name is None or s[1] == name))

        builds = [(s[1], s[5]) for s in self.spans if s[0] == "builder"]
        out = {
            "matrices.matmul_calls": count("matrices", "matmul"),
            "matrices.matmul_s": self._outermost_seconds(lambda l, n: l == "matrices" and n == "matmul"),
            "matrices.matmul_scalar_mults": self.scalar_mults,
            "matrices.kron_calls": count("matrices", "kron"),
            "matrices.max_entry_terms": self.max_entry_terms,
            "matrices.max_coeff_bits": self.max_coeff_bits,
            "pairing.s": self._outermost_seconds(lambda l, n: l == "pairing"),
            "pairing.hopf_pair_calls": count("pairing", "hopf_pair"),
            "builders.s": self._outermost_seconds(lambda l, n: l == "builder"),
            "builders.calls": len(builds),
            "builders.rebuild_ratio": len(builds) / len(set(builds)) if builds else 1.0,
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
        }
        for names in CHECKS.values():
            for name in names:
                out[f"checks.{name}_s"] = self._outermost_seconds(
                    lambda l, n, name=name: l == "check" and n == name
                )
        return out

    def case_seconds(self) -> dict[str, float]:
        return {f"{s[1][0]}{s[1][1]}": s[3] - s[2] for s in self.spans if s[0] == "case"}


# ---------------------------------------------------------------------------
# cProfile grouping
# ---------------------------------------------------------------------------


def profile_metrics(stats: dict, rsqg_dir: Path, bench_dir: Path) -> dict[str, float]:
    """Layer metrics from ``cProfile.Profile.stats`` (after ``create_stats``).

    A function's self time goes to its own module when that module is part
    of rsqg (or of the benchmark, reported as ``bench``).  Any other function
    is charged to the modules of its callers, in proportion to the self time
    it spent under each caller; a caller outside rsqg is resolved the same
    way, weighted by the cumulative time it spent under its own callers.
    """
    rsqg_prefix = str(rsqg_dir) + "/"
    bench_prefix = str(bench_dir) + "/"

    def owner(func) -> str | None:
        filename = func[0]
        if filename.startswith(rsqg_prefix):
            return Path(filename).stem
        if filename.startswith(bench_prefix):
            return "bench"
        return None

    memo: dict = {}

    def distribution(func, visiting: frozenset) -> dict[str, float]:
        own = owner(func)
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in stats:
            return {}
        acc: dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, (_nc, _cc, _tt, ct) in stats[func][4].items():
            for mod, share in distribution(caller, visiting | {func}).items():
                acc[mod] += ct * share
            total += ct
        result = {m: v / total for m, v in acc.items()} if total > 0 else {}
        if not visiting:
            memo[func] = result
        return result

    self_s: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        own = owner(func)
        if own is not None:
            self_s[own] += tt
            continue
        charged = 0.0
        for caller, (_c1, _c2, ctt, _c3) in callers.items():
            dist = distribution(caller, frozenset())
            for mod, share in dist.items():
                self_s[mod] += ctt * share
            charged += ctt if dist else 0.0
        self_s["unattributed"] += max(tt - charged, 0.0)

    def calls(module: str, *names: str) -> int:
        return sum(v[1] for f, v in stats.items() if owner(f) == module and f[2] in names)

    program_s = sum(v for m, v in self_s.items() if m not in ("bench", "unattributed"))
    out = {f"{m}.self_s": self_s.get(m, 0.0) for m in RSQG_MODULES}
    out.update(
        {
            "scalars.share": self_s.get("scalars", 0.0) / program_s if program_s else 0.0,
            "scalars.mul_calls": calls("scalars", "__mul__"),
            "scalars.add_calls": calls("scalars", "__add__"),
            "scalars.div_calls": calls("scalars", "__truediv__", "inv"),
            "scalars.gcd_calls": calls("scalars", "_pgcd"),
            "scalars.canon_calls": calls("scalars", "_make"),
            "matrices.add_calls": calls("matrices", "__add__"),
            "pairing.pair_words_calls": calls("pairing", "pair_words"),
            "profile.program_s": program_s,
            "profile.bench_s": self_s.get("bench", 0.0),
            "profile.unattributed_s": self_s.get("unattributed", 0.0),
        }
    )
    return out
