"""Spans around the benchmark's calls into diophlab's layers.

The tracer rebinds a curated list of each layer's public functions, in every
diophlab module that imported them, to wrappers that record a span.  Nothing
under ``src/`` changes: the wrappers live here and are removed after the
traced passes.  Per-point primitives (``numeric``, ``iter_shell``, fastpath
queries) are left unwrapped, because a span costs about a microsecond and
would swamp them; their cost is measured by the probes instead.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager, nullcontext

# layer -> public functions that get a span; the cli layer is spanned by the
# CLI jobs themselves around their ``cli.main`` call
SPANNED = {
    "lattice": ["return_sequence", "solve_homogeneous", "best_approximations",
                "bad_witness", "check_rank", "continued_fraction"],
    "transference": ["transfer_bounds", "solve_inhomogeneous", "corollary_bounds",
                     "verify_corollary_3_3"],
    "limsup": ["psi_witness", "delta_membership", "measure_W", "measure_Bad",
               "coverage", "ubiquity_params", "check_u_regular", "diameter_sum"],
    "equidist": ["weyl_sum", "counting_report", "counting_ratio",
                 "estimate_equid_constant"],
    "analysis": ["classify_series", "classify_return_series", "gamma_sequence",
                 "b_alpha_test", "verify_prop_5_1", "key_inequality_check",
                 "estimate_exponents"],
    "sampling": ["sample_point", "grid_points", "parallel_map", "binomial_ci"],
}
LAYERS = ["lattice", "transference", "limsup", "equidist", "analysis", "sampling", "cli"]
MODULES = ["numeric", "lattice", "fastpath", "transference", "limsup", "equidist",
           "analysis", "sampling", "cli"]


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    job = None

    def span(self, layer: str, name: str):
        return nullcontext()


class Tracer:
    """In-memory span recorder: (id, parent, layer, name, job, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, layer: str, name: str):
        st = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, parent, layer, name, self.job, t0, t1))

    def _adopt(self, parent: int, fn, x):
        """Run fn(x) with `parent` as the enclosing span, also in pool threads."""
        st = self._stack()
        if st and st[-1] == parent:
            return fn(x)
        st.append(parent)
        try:
            return fn(x)
        finally:
            st.pop()

    def _wrap(self, layer: str, name: str, fn):
        if name == "parallel_map":
            @functools.wraps(fn)
            def pmap(f, items, threads=None):
                with self.span(layer, name) as sid:
                    return fn(functools.partial(self._adopt, sid, f), items, threads)
            return pmap

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(f"diophlab.{m}") for m in MODULES]
        mods.append(importlib.import_module("diophlab"))
        for layer, names in SPANNED.items():
            home = importlib.import_module(f"diophlab.{layer}")
            for name in names:
                orig = getattr(home, name)
                wrapped = self._wrap(layer, name, orig)
                for mod in mods:
                    if getattr(mod, name, None) is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def self_times(self, jobs=None) -> dict[str, float]:
        """Seconds per layer: span time minus the union of its children's
        intervals, summed over the spans whose job is in `jobs` (all if None)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, layer, _, job, t0, t1 in self.spans:
            if jobs is not None and job not in jobs:
                continue
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - covered
        return out

    def to_json(self) -> list[dict]:
        keys = ("id", "parent", "layer", "name", "job", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
