"""Spans and counts around calls into waveortho's modules.

Tracing works from outside the package: ``Tracer.install`` replaces module
attributes (the public functions the scenario runners call, and the
``scipy.special`` handle of ``oracles`` and ``born``) with recording
wrappers, and ``Tracer.uninstall`` puts the originals back. Spans are kept
in memory as (name, start, end, parent, operation id) and written once, when
the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np
from scipy import special as _special

# (module, attribute, span name); a name may be listed under several modules
# when a module binds the function itself (born imports grid_green_matrix).
WRAPPED = [
    ("cli", "run_scenario", "cli"),
    ("method", "eval_basis_trace", "method.eval_basis_trace"),
    ("method", "assemble_gram", "method.assemble_gram"),
    ("method", "solve_galerkin", "method.solve_galerkin"),
    ("method", "iteration_spectral_radius", "method.iteration_spectral_radius"),
    ("method", "refine_iterate", "method.refine_iterate"),
    ("geometry", "make_surface", "geometry.make_surface"),
    ("oracles", "mie_series", "oracles.mie_series"),
    ("oracles", "bem_dense_solve", "oracles.bem_dense_solve"),
    ("oracles", "lu_factor", "oracles.lu"),
    ("oracles", "grid_green_matrix", "oracles.grid_green_matrix"),
    ("born", "grid_green_matrix", "oracles.grid_green_matrix"),
    ("oracles", "lippmann_schwinger", "oracles.lippmann_schwinger"),
    ("born", "born_approximation", "born.born_approximation"),
    ("born", "beta_weight", "born.beta_weight"),
]
SPECFUN_SPAN = "specfun"
SPAN_NAMES = sorted({name for _, _, name in WRAPPED} | {SPECFUN_SPAN})
COUNT_NAMES = [
    "method.refine_iterate.steps",
    "oracles.bem_nodes",
    "oracles.bem_matrix_mb",
    "oracles.lu.order",
    "kernel.bessel_evals",
]
# scipy.special functions counted in kernel.bessel_evals
BESSEL_FUNCTIONS = {"j0", "j1", "y0", "y1", "jv", "yv", "jvp", "yvp",
                    "hankel1", "hankel2", "h1vp", "h2vp"}
MIB = float(1 << 20)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return u
    return "count"


class _CountingSpecial:
    """Stands in for ``scipy.special``; counts the Bessel/Hankel values returned."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(_special, name)
        if name not in BESSEL_FUNCTIONS:
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.counts["kernel.bessel_evals"] += np.size(out)
            return out

        return counted


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.op_id = ""
        self.counts: Dict[str, float] = defaultdict(int)
        self._green_inputs = set()
        self._stack: List[int] = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def _count(self, name, args, kwargs):
        if name == "method.refine_iterate":
            self.counts["method.refine_iterate.steps"] += (
                args[1] if len(args) > 1 else kwargs["n_steps"])
        elif name == "oracles.bem_dense_solve":
            n = args[0].n_nodes
            self.counts["oracles.bem_nodes"] += n
            self.counts["oracles.bem_matrix_mb"] += n * n * 16 / MIB
        elif name == "oracles.lu":
            self.counts["oracles.lu.order"] += np.shape(args[0])[0]
        elif name == "oracles.grid_green_matrix":
            pot, k = args[0], args[1]
            self._green_inputs.add((self.op_id, pot.origin.tobytes(), pot.h,
                                    pot.values.shape, k))

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._count(name, args, kwargs)
            return self._call(name, original, args, kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (the imported waveortho)."""
        modules = {m: getattr(package, m) for m in
                   ("cli", "method", "geometry", "oracles", "born", "specfun")}
        for module, attr, name in WRAPPED:
            self._wrap(modules[module], attr, name)
        specfun = modules["specfun"]
        for attr, value in list(vars(specfun).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == specfun.__name__):
                self._wrap(specfun, attr, SPECFUN_SPAN)
        proxy = _CountingSpecial(self)
        for module in ("oracles", "born"):
            self._saved.append((modules[module], "sp", modules[module].sp))
            modules[module].sp = proxy

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------

    def begin_pass(self) -> int:
        """Reset the counts; return the index of the pass's first span."""
        self.counts = defaultdict(int)
        self._green_inputs = set()
        return len(self.spans)

    def pass_metrics(self, first_span: int) -> Dict[str, float]:
        """Self time and calls per span name, and the counts, since ``first_span``."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent] += end - start
        out = {f"{n}.{m}": v for n in SPAN_NAMES for m, v in (("self_s", 0.0), ("calls", 0))}
        for i, (name, start, end, _, _) in enumerate(spans, first_span):
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        calls = out["oracles.grid_green_matrix.calls"]
        # no calls wastes nothing: the ratio is 1 then
        out["oracles.grid_green_matrix.useful_ratio"] = (
            len(self._green_inputs) / calls if calls else 1.0)
        return out

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as f:
            json.dump({"fields": fields, "spans": self.spans}, f)
