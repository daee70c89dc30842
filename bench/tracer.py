"""Outside-in layer trace of the mwsync package.

The tracer wraps public calls into each module with spans recorded from
here, so the package itself carries no tracing code.  A span holds its
layer, start, end, parent and a work count; spans stay in memory and are
reduced to per-layer self times and counters when a pass ends.  Self
time is a span's duration minus the durations of its direct children, so
the self times of one invocation add up to its root span.

Class methods are patched once on the class.  A module function is
patched in every namespace that bound it by name: the module's own
globals, the globals of every other mwsync module that imported it, and
dict-valued module attributes such as ``cli._CHECKS``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

def _sampler_work(args, kwargs, result):
    # Pairs asked for and pairs counted.
    requested = kwargs["n_pairs"] if "n_pairs" in kwargs else args[2]
    return (int(requested), int(result.n_pairs))


class Tracer:
    """Spans and counters of traced invocations, patched in on install."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, work, raised]
        self.counts = {"causal.classify_calls": 0, "algebra.split_complex_made": 0}
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def call(self, layer, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [layer, 0.0, 0.0, parent, 0, False]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result

    def root(self, fn, *args):
        """Run one CLI invocation under a root span of layer "cli"."""
        return self.call("cli", fn, args, {})

    def reset(self):
        self.spans = []
        for key in self.counts:
            self.counts[key] = 0

    # -- patching ---------------------------------------------------------

    def _span_wrapper(self, layer, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, work)

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _patch_method(self, cls, name, wrapped):
        self._set(cls, name, wrapped(cls.__dict__[name]))

    def _patch_function(self, module, name, wrapped):
        original = getattr(module, name)
        replacement = wrapped(original)
        for mod in [m for key, m in sys.modules.items() if key.startswith("mwsync")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, replacement)

    def install(self):
        """Patch the package; undo with :meth:`uninstall`."""
        from mwsync import algebra, causal, fieldcheck, mwmap, observers
        from mwsync import propertime, quadrature, scenario

        def span(layer, work=None):
            return lambda fn: self._span_wrapper(layer, fn, work)

        def points(args, kwargs, result):
            return int(np.size(args[1]))

        M = mwmap.MarzkeWheelerMap
        self._patch_method(M, "components", span("mwmap.forward", points))
        self._patch_method(M, "__call__", span("mwmap.forward", lambda a, k, r: 1))
        self._patch_method(M, "radar_inverse_components", span("mwmap.inverse", points))
        self._patch_method(M, "conformal_components", span("mwmap.conformal", points))
        for name in ("null_plus", "null_minus"):
            self._patch_method(observers.Observer, name, span("mwmap.profile", points))
        pending = [observers.Observer]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name, layer in (("position", "observers.position"), ("velocity", "observers.velocity")):
                if name in cls.__dict__ and not getattr(cls.__dict__[name], "__isabstractmethod__", False):
                    self._patch_method(cls, name, span(layer, points))

        stencils = ("holomorphy_residual", "wave_residual", "conformality_report",
                    "log_factor_wave_residual")
        for name in stencils:
            self._patch_function(fieldcheck, name, span("fieldcheck.stencil"))
        for name in ("chronology_check", "causal_equivalence_check"):
            self._patch_function(fieldcheck, name, span("fieldcheck.sampler", _sampler_work))
        for name in ("automorphism_suite", "low_counterexample"):
            self._patch_function(fieldcheck, name, span("fieldcheck.suite"))
        self._patch_function(scenario, "load_scenario", span("scenario.load"))
        self._patch_function(
            quadrature, "adaptive_simpson", span("quadrature", lambda a, k, r: r.n_evals)
        )
        for name, layer in (
            ("arc_length_proper_time", "propertime.arc"),
            ("radar_trajectory_of", "propertime.trajectory"),
            ("proper_time_accelerated", "propertime.chart"),
            ("proper_time_inertial", "propertime.chart"),
            ("twin_consistency", "propertime.twin"),
            ("gravitational_dilation", "propertime.twin"),
        ):
            self._patch_function(propertime, name, span(layer))
        self._patch_function(
            causal, "classify", lambda fn: self._count_wrapper("causal.classify_calls", fn)
        )
        self._patch_method(
            algebra.SplitComplex, "__post_init__",
            lambda fn: self._count_wrapper("algebra.split_complex_made", fn),
        )
        return self

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
