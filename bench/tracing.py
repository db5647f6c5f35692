"""Spans and counters recorded around the package's public functions.

The tracer patches functions from outside the package: every module of
``diamond_forests`` that holds a reference to a wrapped function (its own
module, a ``from .x import f`` binding elsewhere, or a module-level dispatch
dict such as ``verification.SUITES``) gets the wrapper, so calls one module
makes into another are recorded too.  ``uninstall`` puts the originals back.

A span records its name, start, end, the enclosing span and the request it
belongs to.  ``busy`` is inclusive time (counted once when a name recurses),
``self`` subtracts the time of child spans.  Spans are kept in memory and
summarised when the run ends.  Only the main thread is traced, and only
while ``enabled`` is set (the benchmark clears it while it checks outputs);
the Monte Carlo worker threads run untouched.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "diamond_forests"


def _expansion_bits(tracer: "Tracer", args, kwargs, result, dur: float) -> None:
    """Largest numerator/denominator bit length among the result's coefficients."""
    best = 0
    for forest in result.orders.values():
        for poly in forest.terms.values():
            for _, c in poly.terms:
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.raise_max("algebra.coeff_max_bits", best)


def _diamond_terms(tracer, args, kwargs, result, dur) -> None:
    tracer.add("algebra.terms_out", len(result))


def _grid_points(tracer, args, kwargs, result, dur) -> None:
    tracer.add("affine.solve_riccati.grid_points", int(result.grid.size))


def _simulate_counts(tracer, args, kwargs, result, dur) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    tracer.add("mc.simulate.path_steps", cfg.n_paths * cfg.n_steps)
    tracer.add(
        "mc.nonfinite",
        sum(int(np.count_nonzero(~np.isfinite(col))) for col in result.columns.values()),
    )
    tracer.raise_max("mc.simulate.workers", 1)


def _bootstrap_time(tracer, args, kwargs, result, dur) -> None:
    max_order = args[1] if len(args) > 1 else kwargs["max_order"]
    if max_order >= 5:
        tracer.add("mc.empirical_cumulants.bootstrap_busy_s", dur)


def _cli_output(tracer, args, kwargs, result, dur) -> None:
    out, code = result
    tracer.add("cli.output_bytes", len(out.encode("utf-8")))
    tracer.add("cli.exit_nonzero", int(code != 0))


def _simulate_name(args, kwargs) -> str:
    cfg = args[0] if args else kwargs["cfg"]
    return f"mc.simulate.{cfg.model}"


# (module, attribute, span name or name function, post hook, record CPU time)
MODULE_FUNCTIONS: List[Tuple[str, str, object, Optional[Callable], bool]] = [
    ("expansions", "k_expansion", "expansions.k_expansion", _expansion_bits, False),
    ("expansions", "g_expansion", "expansions.g_expansion", _expansion_bits, False),
    ("expansions", "spx_g_expansion", "expansions.spx_g_expansion", _expansion_bits, False),
    ("expansions", "reorder", "expansions.reorder", _expansion_bits, False),
    ("expansions", "specialize", "expansions.specialize", _expansion_bits, False),
    ("affine", "solve_riccati", "affine.solve_riccati", _grid_points, False),
    ("affine", "riccati_residual", "affine.riccati_residual", None, False),
    ("affine", "mgf_value", "affine.mgf_value", None, False),
    ("affine", "spx_expansion_value", "affine.spx_expansion_value", None, False),
    ("affine", "tree_value", "affine.tree_value", None, False),
    ("affine", "kernel_convolve", "affine.kernel_convolve", None, False),
    ("mc", "simulate", _simulate_name, _simulate_counts, True),
    ("mc", "empirical_cumulants", "mc.empirical_cumulants", _bootstrap_time, False),
    ("mc", "empirical_mgf", "mc.empirical_mgf", None, False),
    ("models.chaos2", "chaos2_cumulants", "models.chaos2.chaos2_cumulants", None, False),
    ("models.chaos2", "eigenvalue_cumulants", "models.chaos2.eigenvalue_cumulants", None, False),
    ("models.levy", "levy_alpha", "models.levy", None, False),
    ("models.levy", "levy_cgf", "models.levy", None, False),
    ("models.levy", "levy_cumulant_states", "models.levy", None, False),
    ("models.levy", "levy_state_value", "models.levy", None, False),
    ("models.bessel", "bessel_laplace", "models.bessel", None, False),
    ("models.bessel", "bessel_laplace_series", "models.bessel", None, False),
    ("models.bessel", "bessel_gamma", "models.bessel", None, False),
    ("models.bessel", "psi_series", "models.bessel", None, False),
    ("models.signature", "diamond_ito", "models.signature", None, False),
    ("models.signature", "diamond_strat", "models.signature", None, False),
    ("models.signature", "fawcett_sigma", "models.signature", None, False),
    ("models.signature", "shuffle", "models.signature", None, False),
    ("models.signature", "cameron_martin_q", "models.signature", None, False),
    ("models.signature", "cameron_martin_cgf_coeffs", "models.signature", None, False),
    ("models.signature", "cameron_martin_cgf", "models.signature", None, False),
    ("models.brownian", "brownian_drift_cumulants", "models.brownian", None, False),
    ("models.brownian", "stopped_bm_cgf", "models.brownian", None, False),
    ("verification", "suite_reorder", "verification.reorder", None, False),
    ("verification", "suite_levy", "verification.levy", None, False),
    ("verification", "suite_cameron_martin", "verification.cameron-martin", None, False),
    ("verification", "suite_bessel", "verification.bessel", None, False),
    ("verification", "suite_chaos2", "verification.chaos2", None, False),
    ("verification", "suite_heston_riccati", "verification.heston-riccati", None, False),
    ("verification", "suite_mc_cross", "verification.mc-cross", None, False),
    ("cli", "run", "cli.run", _cli_output, False),
    ("cli", "render_json", "cli.render", None, False),
    ("cli", "render_csv", "cli.render", None, False),
    ("cli", "render_text", "cli.render", None, False),
]

# (module, class, method, span name, post hook)
METHODS = [
    ("algebra", "Forest", "diamond", "algebra.forest_diamond", _diamond_terms),
    ("algebra", "Forest", "__add__", "algebra.forest_linear", None),
    ("algebra", "Forest", "scale", "algebra.forest_linear", None),
    ("algebra", "Forest", "substitute_leaf", "algebra.forest_regrade", None),
    ("algebra", "Forest", "grade_by_leaves", "algebra.forest_regrade", None),
    ("algebra", "Forest", "map_coeffs", "algebra.forest_regrade", None),
    ("algebra", "Poly", "evaluate", "algebra.poly_evaluate", None),
]


class Tracer:
    """Records spans and exact counts for one traced phase of a run."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.cpu: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        # (request id, name, start, end, index of the enclosing span or -1)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.request_id = -1
        self.enabled = False
        self._stack: List[list] = []
        self._main = threading.get_ident()
        self._undo: List[Tuple[object, object, object]] = []

    # -- counters ------------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def raise_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def exact_counts(self) -> Dict[str, float]:
        """Counts that depend only on the inputs, never on timing."""
        return {k: v for k, v in self.counts.items() if not k.endswith("_s")}

    # -- spans -----------------------------------------------------------------

    def wrap(self, fn: Callable, name, post: Optional[Callable] = None, cpu: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            frame = [label, 0.0, len(tracer.spans)]
            parent = tracer._stack[-1][2] if tracer._stack else -1
            tracer.spans.append((tracer.request_id, label, 0.0, 0.0, parent))
            tracer._stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.spans[frame[2]] = (tracer.request_id, label, t0, t1, parent)
                tracer.self_time[label] += dur - frame[1]
                if all(f[0] != label for f in tracer._stack):
                    tracer.busy[label] += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if cpu:
                    tracer.cpu[label] += time.process_time() - c0
                tracer.counts[label + ".calls"] += 1
            if post is not None:
                post(tracer, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, *callers) -> None:
        """Wrap every listed function wherever the package, or one of the
        ``callers`` modules, refers to it."""
        for mod_name in {entry[0] for entry in MODULE_FUNCTIONS + METHODS}:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        namespaces = list(modules.values()) + list(callers)
        replacements = {}
        for mod_name, attr, name, post, cpu in MODULE_FUNCTIONS:
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
            replacements[id(original)] = self.wrap(original, name, post, cpu)
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._set(mod, key, replacements[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in replacements:
                            self._set(value, k, replacements[id(v)])
        for mod_name, cls_name, meth, name, post in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
            self._set(cls, meth, self.wrap(vars(cls)[meth], name, post))
        mc = modules[f"{PACKAGE}.mc"]
        tracer = self

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.raise_max("mc.simulate.workers", max_workers or 0)
                super().__init__(max_workers, *args, **kwargs)

        self._set(mc, "ThreadPoolExecutor", CountingPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
