"""Spans and counts recorded from outside the ``rcert`` package.

:class:`Tracer` replaces the public functions of every ``rcert`` module, and a
few public methods, with wrappers that open a span at each call.  Modules bind
each other's functions with ``from .x import y``, so a wrapper replaces the
binding in *every* ``rcert`` module that holds the original object, not only
in the defining module.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back.

A span has a name (``layer.function``), a start, an end and a parent.  Its
start and end are read just before and just after the wrapped call, so its
duration holds only ``rcert`` code.  Its self time is that duration minus the
time covered by its child calls, and the self times are summed per layer.

Every wrapper also reads the clock when it is entered and when it is about to
return.  The time outside the wrapped call (the wrapper's counting, the span
bookkeeping and the extra clock reads) is charged to the ``trace`` layer, and
the whole wrapper time counts as child time of the caller's span.  So the
layers, the benchmark's own ``bench`` time and ``trace`` add up to the wall
time of the traced operation, and a layer's self time is not inflated by the
tracer.  What no clock read inside a wrapper can see is the cost of calling
the wrapper and of returning from it, which lands in the caller's interval.
:meth:`Tracer.calibrate` measures that residue for each kind of wrapper in the
same process, and the wrappers move it from the caller to ``trace`` too.

Three kinds of span keep the cost bounded on hot paths:

* stored spans (coarse calls: ``integrate``, certificate checks, residual
  oracles, CLI entry points) are kept in memory up to :data:`SPAN_CAP` and
  written out at the end;
* aggregated spans (``adaptive_quad``, ``CumulativeIntegral`` queries, the
  ``FBound``/``GBound`` methods, ``format_float``) take part in self time and
  counts but are not stored one by one;
* leaf calls (``ScalarField`` evaluations and dense-output queries), which call
  no other traced function, only add their duration to their layer and to the
  parent span.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 20000  # stored spans kept in memory per run; later ones are only counted
CALIBRATION_CALLS = 20_000  # calls per timed loop when calibrating a wrapper
CALIBRATION_REPEATS = 5  # paired direct and wrapped loops; the median residue is kept
LAYERS = ("config", "cli", "serialize", "fields", "quadrature", "dynamics", "certificates", "classify", "riccati", "applications")

# The residual oracles on whole trajectories live in ``dynamics`` but belong
# to the residual-oracle layer with the ones in ``riccati``.
_LAYER_OVERRIDE = {"flux_residual": "riccati", "volterra_residual": "riccati"}
_AGGREGATED = {"quadrature.adaptive_quad", "quadrature.CumulativeIntegral.__call__", "serialize.format_float"}
# Inclusive time is also summed per group, counting only the outermost call
# and leaving out the tracer's own time inside it.
_GROUPS = {
    "eval_F": "envelope",
    "eval_G": "envelope",
    "divergence_probe": "probe",
    "load_config": "config_load",
    "parse_config": "config_load",
    "write_json": "serialize_write",
}


class _Frame:
    __slots__ = ("name", "layer", "entered", "start", "end", "child", "span_id", "parent", "keep", "group", "data")

    def __init__(self, name, layer, entered, span_id, parent, keep, group):
        self.name = name
        self.layer = layer
        self.entered = entered  # the wrapper was entered; before ``start``, the time is the tracer's
        self.start = entered
        self.end = None
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent
        self.keep = keep
        self.group = group
        self.data = None


class _Probe:
    """A trivial method and function for :meth:`Tracer.calibrate` to wrap."""

    def value(self, x):
        return x

    @staticmethod
    def function(x):
        return x


class Tracer:
    """Wraps the ``rcert`` modules while installed; records spans and counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = 0  # the operation the next spans belong to
        self.spans_dropped = 0
        self.self_time: dict[str, float] = defaultdict(float)
        self.group_time: dict[str, float] = defaultdict(float)
        self._group_depth: Counter = Counter()
        self._group_trace: dict[str, float] = {}
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self._next_id = 1
        self._stack = [_Frame("idle", "bench", perf_counter(), 0, 0, False, None)]
        self._restore: list[tuple[object, str, object]] = []
        # Seconds per call that each kind of wrapper leaves outside its own clock reads.
        self.residue = dict.fromkeys(("field", "leaf", "integrand", "span"), 0.0)

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str, layer: str, keep: bool = True, group: str | None = None) -> _Frame:
        """Open a span; its ``start`` is read last, just before the caller runs the wrapped code."""
        entered = perf_counter()
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(name, layer, entered, span_id, self._stack[-1].span_id, keep, group)
        if group is not None:
            if self._group_depth[group] == 0:
                self._group_trace[group] = self.self_time["trace"]
            self._group_depth[group] += 1
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        """Close a span; the wrapped code ended at ``frame.end``, or now if that is unset."""
        end = frame.end if frame.end is not None else perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame.start
        self_time = self.self_time
        self_time[frame.layer] += dur - frame.child
        group = frame.group
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_time[group] += dur - (self_time["trace"] - self._group_trace[group])
        if frame.keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, frame.span_id, frame.parent, frame.name, frame.start, end))
            else:
                self.spans_dropped += 1
        whole = perf_counter() - frame.entered + self.residue["span"]
        self_time["trace"] += whole - dur
        stack[-1].child += whole

    def reset(self) -> None:
        """Forget what was recorded so far; the wrappers stay installed."""
        self.self_time.clear()
        self.group_time.clear()
        self.counts.clear()
        self.max_residual = 0.0

    # -- installation -------------------------------------------------------

    def calibrate(self) -> None:
        """Measure, per kind of wrapper, the call cost its clock reads do not see.

        Run it while the wrappers are not installed; the wrappers made by the
        next :meth:`install` use its figures.  For each kind, a loop calls a trivial
        target directly and another loop calls it through that kind of wrapper,
        in pairs.  The residue is the wrapped loop's time, less the tracer time
        the wrapper recorded, less the direct loop's time, per call.
        """
        from rcert.fields import ScalarField

        self.residue = dict.fromkeys(self.residue, 0.0)  # the wrappers timed here must not move any
        fld = ScalarField(lambda t, w: t + w, name="calibration")
        probe = _Probe()
        direct = _Probe.function
        frame = self._stack[-1]

        def field_loop():
            for _ in range(CALIBRATION_CALLS):
                fld(1.0, 0.5)

        def leaf_loop():
            for _ in range(CALIBRATION_CALLS):
                probe.value(1.0)

        def call_loop(f):
            def loop():
                for _ in range(CALIBRATION_CALLS):
                    f(1.0)

            return loop

        kinds = {
            "field": (field_loop, lambda: self._patch(ScalarField, "__call__", self._field_call(ScalarField.__call__)), field_loop),
            "leaf": (leaf_loop, lambda: self._patch(_Probe, "value", self._leaf_method(_Probe.value, "calibration", "calibration.leaf")), leaf_loop),
            "integrand": (call_loop(direct), lambda: None, call_loop(self._counting(direct, frame)[0])),
            "span": (call_loop(direct), lambda: None, call_loop(self._span_method(direct, "calibration.span", "calibration", None))),
        }
        for kind, (bare, wrap, wrapped) in kinds.items():
            residues = []
            for _ in range(CALIBRATION_REPEATS):
                start = perf_counter()
                bare()
                bare_s = perf_counter() - start
                wrap()
                traced_before = self.self_time["trace"]
                start = perf_counter()
                wrapped()
                wrapped_s = perf_counter() - start
                self.uninstall()
                residues.append((wrapped_s - (self.self_time["trace"] - traced_before) - bare_s) / CALIBRATION_CALLS)
            self.residue[kind] = sorted(residues)[len(residues) // 2]
        self.reset()

    def install(self) -> None:
        import rcert  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if (n == "rcert" or n.startswith("rcert.")) and m is not None]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"rcert.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self._wrap_function(obj, _LAYER_OVERRIDE.get(attr, layer), attr)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        self._install_methods()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, fn, layer: str, attr: str):
        name = f"{layer}.{attr}"
        calls_key = f"calls.{name}"
        group = _GROUPS.get(attr)
        keep = name not in _AGGREGATED
        before = getattr(self, "_before_" + attr, None)
        after = getattr(self, "_after_" + attr, None)
        tracer = self
        counts = self.counts

        if attr == "adaptive_quad":

            def wrapper(f, *args, **kwargs):
                frame = tracer.enter(name, layer, keep, group)
                counted, evals = tracer._counting(f, frame)
                try:
                    frame.start = perf_counter()
                    result = fn(counted, *args, **kwargs)
                    frame.end = perf_counter()
                finally:
                    counts["quadrature.quad_calls"] += 1
                    counts["quadrature.integrand_evals"] += evals[0]
                    tracer.exit(frame)
                return result

        else:

            def wrapper(*args, **kwargs):
                frame = tracer.enter(name, layer, keep, group)
                try:
                    if before is not None:
                        before(frame, args, kwargs)
                        frame.start = perf_counter()
                    result = fn(*args, **kwargs)
                    frame.end = perf_counter()
                    counts[calls_key] += 1
                    if after is not None:
                        after(result, args, kwargs)
                finally:
                    tracer.exit(frame)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _counting(self, f, frame: _Frame):
        """``f`` with its calls counted in the returned one-item list.

        The integrand's own time stays with ``frame``, the quadrature span that
        calls it; only the counting is the tracer's.
        """
        self_time = self.self_time
        residue = self.residue["integrand"]
        evals = [0]

        def counted(x):
            entered = perf_counter()
            evals[0] += 1
            start = perf_counter()
            try:
                return f(x)
            finally:
                end = perf_counter()
                spent = perf_counter() - entered - (end - start) + residue
                self_time["trace"] += spent
                frame.child += spent

        return counted, evals

    def _install_methods(self) -> None:
        from rcert.dynamics import Trajectory
        from rcert.fields import ScalarField
        from rcert.quadrature import CumulativeIntegral, FBound, GBound

        self._patch(ScalarField, "__call__", self._field_call(ScalarField.__call__))
        for meth in ("phi_at", "psi_at", "state_at"):
            self._patch(Trajectory, meth, self._leaf_method(Trajectory.__dict__[meth], "dynamics", "dynamics.dense_evals"))
        self._patch(
            CumulativeIntegral,
            "__call__",
            self._span_method(CumulativeIntegral.__call__, "quadrature.CumulativeIntegral.__call__", "quadrature", None, "quadrature.cumint_queries"),
        )
        for cls in (FBound, GBound):
            for meth in ("__init__", "__call__", "exponent"):
                self._patch(cls, meth, self._span_method(cls.__dict__[meth], f"quadrature.{cls.__name__}.{meth}", "quadrature", "envelope"))

    def _field_call(self, field_call):
        """``ScalarField.__call__`` as a leaf that also counts the rhs evaluations of ``integrate``."""
        counts = self.counts
        stack = self._stack
        self_time = self.self_time
        residue = self.residue["field"]

        def scalar_field_call(fld, t, w):
            entered = perf_counter()
            counts["fields.calls"] += 1
            top = stack[-1]
            if top.data is fld:  # r0 of the equation being integrated: one per rhs evaluation
                counts["dynamics.rhs_evals"] += 1
            start = perf_counter()
            try:
                return field_call(fld, t, w)
            finally:
                end = perf_counter()
                self_time["fields"] += end - start
                spent = perf_counter() - entered - (end - start) + residue
                self_time["trace"] += spent
                top.child += spent + (end - start)

        return scalar_field_call

    def _leaf_method(self, fn, layer: str, counter: str):
        counts = self.counts
        stack = self._stack
        self_time = self.self_time
        residue = self.residue["leaf"]

        def leaf(obj, *args):
            entered = perf_counter()
            counts[counter] += 1
            top = stack[-1]
            start = perf_counter()
            try:
                return fn(obj, *args)
            finally:
                end = perf_counter()
                self_time[layer] += end - start
                spent = perf_counter() - entered - (end - start) + residue
                self_time["trace"] += spent
                top.child += spent + (end - start)

        return leaf

    def _span_method(self, fn, name: str, layer: str, group: str | None, counter: str | None = None):
        """An aggregated span around a method: timed and counted, not stored."""
        tracer = self
        counts = self.counts

        def method(*args, **kwargs):
            frame = tracer.enter(name, layer, False, group)
            try:
                result = fn(*args, **kwargs)
                frame.end = perf_counter()
                if counter is not None:
                    counts[counter] += 1
            finally:
                tracer.exit(frame)
            return result

        return method

    # -- per-function hooks: counts taken from arguments and results --------

    def _before_integrate(self, frame: _Frame, args, kwargs) -> None:
        eq = args[0] if args else kwargs["eq"]
        frame.data = eq.r0

    def _after_integrate(self, traj, args, kwargs) -> None:
        import numpy as np

        c = self.counts
        c["dynamics.integrate_calls"] += 1
        c["dynamics.accepted_steps"] += len(traj.ts) - 1
        c["dynamics.zeros"] += len(traj.zeros)
        norm = np.abs(traj.phis) + np.abs(traj.psis)
        c["dynamics.escape_tail_steps"] += int(np.count_nonzero(norm[1:] > traj.opts.escape_threshold))

    def _after_sweep(self, cells, args, kwargs) -> None:
        self.counts["classify.cells"] += len(cells)
        self.counts["classify.error_cells"] += sum(1 for c in cells if c.error)

    def _after_write_json(self, result, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["serialize.report_bytes"] += os.path.getsize(path)

    def _record_certificate(self, cert, args, kwargs) -> None:
        self.counts["certificates.checks"] += 1
        self.counts["certificates.grid_points"] += int(cert.region.get("nt", 0)) * int(cert.region.get("nw", 0))

    _after_check_t3_1 = _after_check_t3_2 = _after_check_t3_3 = _record_certificate
    _after_check_t3_4 = _after_check_t3_5 = _after_check_t3_6 = _record_certificate

    def _record_residual(self, value, args, kwargs) -> None:
        self.counts["riccati.residual_calls"] += 1
        if math.isfinite(value):  # a non-finite residual fails the workload's own check
            self.max_residual = max(self.max_residual, abs(value))

    _after_representation_residual = _after_cauchy_residual = _after_difference_residual = _record_residual
    _after_flux_residual = _after_volterra_residual = _record_residual
