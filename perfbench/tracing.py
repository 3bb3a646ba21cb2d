"""Spans around the public functions of anyonjc, recorded from outside.

The tracer replaces selected module attributes (and one method) with thin
wrappers while a traced pass runs, and puts the originals back afterwards.
Nothing inside ``src/`` is edited. Every reference a module holds to a
wrapped function is replaced, so calls made through ``from .x import y``
bindings are seen as well.

Each span records its layer name, start and end (perf_counter_ns), the
index of its parent span and the operation id it belongs to. Spans stay in
memory until the run ends. A layer's self time is its duration minus the
time of its child spans. ``LiftCache.matrix`` runs two or three times per
integrator step, so it is counted (calls, time, theta reuse) instead of
getting one span per call; its time still counts as child time of the
enclosing span.
"""

from __future__ import annotations

import json
import sys
import threading
import weakref
from time import perf_counter_ns

GUARDS = ("NonAdiabatic", "NormDrift", "VanishingOverlap", "CycleMismatch")

# layer name -> (module, attribute) pairs wrapped with a span
LAYERS = {
    "model.build": [
        ("model", "default_basis"),
        ("model", "build_interaction_hamiltonian"),
        ("model", "analytic_eigensystem"),
        ("model", "dressed_state_vector"),
        ("model", "two_anyon_basis"),
        ("model", "build_two_anyon_hamiltonian"),
        ("model", "two_anyon_eigenstate"),
    ],
    "paths.frame": [("paths", "schwinger_frame")],
    "paths.loop": [
        ("paths", "constant_latitude_loop"),
        ("paths", "default_latitude_loop"),
        ("paths", "polygon_loop"),
        ("paths", "polygon_solid_angle"),
    ],
    "berry.transport": [("berry", "transport_states")],
    "berry.holonomy": [("berry", "holonomy_phase")],
    "berry.adiabatic": [("berry", "adiabatic_evolution")],
    "iontrap.build": [
        ("iontrap", "sideband_hamiltonian"),
        ("iontrap", "carrier_pulse_operator"),
        ("iontrap", "coupling_strength"),
    ],
    "fock.expm": [("fock", "matrix_exponential")],
    "iontrap.protocol": [("iontrap", "ramsey_protocol")],
    "cli.main": [("cli", "main")],
    "cli.emit": [("cli", "emit_rows")],
}

# per_layer metrics: name -> (unit, better). Order is the report order.
PER_LAYER = {
    "model.build.calls": ("count", "lower"),
    "model.build.s": ("s", "lower"),
    "paths.frame.calls": ("count", "lower"),
    "paths.frame.s": ("s", "lower"),
    "paths.loop.calls": ("count", "lower"),
    "paths.loop.s": ("s", "lower"),
    "paths.lift.calls": ("count", "lower"),
    "paths.lift.s": ("s", "lower"),
    "paths.lift.reuse_frac": ("ratio", "higher"),
    "berry.transport.calls": ("count", "lower"),
    "berry.transport.s": ("s", "lower"),
    "berry.transport.rows": ("count", "lower"),
    "berry.holonomy.calls": ("count", "lower"),
    "berry.holonomy.self_s": ("s", "lower"),
    "berry.adiabatic.calls": ("count", "lower"),
    "berry.adiabatic.self_s": ("s", "lower"),
    "berry.adiabatic.steps": ("count", "lower"),
    "berry.adiabatic.us_per_step": ("us", "lower"),
    "berry.adiabatic.guard_trips": ("count", "lower"),
    "berry.calibrate.s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "iontrap.build.calls": ("count", "lower"),
    "iontrap.build.s": ("s", "lower"),
    "fock.expm.calls": ("count", "lower"),
    "fock.expm.s": ("s", "lower"),
    "iontrap.protocol.calls": ("count", "lower"),
    "iontrap.protocol.self_s": ("s", "lower"),
    "iontrap.protocol.steps": ("count", "lower"),
    "iontrap.protocol.us_per_step": ("us", "lower"),
    "iontrap.protocol.guard_trips": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.emit.calls": ("count", "lower"),
    "cli.emit.s": ("s", "lower"),
    "cli.exit.0": ("count", "higher"),
    "cli.exit.2": ("count", "higher"),
    "cli.exit.3": ("count", "higher"),
    "cli.exit.4": ("count", "higher"),
    "cli.tracebacks": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _steps_of(layer, result):
    """Work count of one call: RK4 steps, or lifted rows for transport."""
    try:
        if layer == "berry.adiabatic":
            return result[1].n_steps
        if layer == "iontrap.protocol":
            return result.diagnostics.get("n_steps")
        if layer == "berry.transport":
            return len(result)
    except (AttributeError, IndexError, TypeError):
        pass  # the result no longer has this shape; count nothing
    return None


class Tracer:
    """Installs span wrappers on the anyonjc modules and aggregates them."""

    def __init__(self):
        # span: [layer, start_ns, end_ns, parent, op_id, child_ns, count, raised]
        self.spans: list[list] = []
        self.op_id = -1
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.lift_calls = 0
        self.lift_ns = 0
        self.lift_reuse = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn):
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            rec = [layer, perf_counter_ns(), 0, parent, tracer.op_id, 0, None, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                rec[6] = _steps_of(layer, result)
                return result
            except BaseException as exc:
                rec[7] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[2] = perf_counter_ns()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]

        traced.__wrapped__ = fn
        return traced

    def _wrap_lift(self, method):
        tracer = self
        spans = self.spans
        last_theta = weakref.WeakKeyDictionary()

        def matrix(cache, theta, phi):
            t0 = perf_counter_ns()
            result = method(cache, theta, phi)
            dt = perf_counter_ns() - t0
            tracer.lift_calls += 1
            tracer.lift_ns += dt
            if last_theta.get(cache) == theta:
                tracer.lift_reuse += 1
            last_theta[cache] = theta
            stack = tracer._stack()
            if stack:
                spans[stack[-1]][5] += dt
            return result

        return matrix

    def install(self, package):
        """Wrap every layer function, in every anyonjc module that holds it."""
        prefix = package.__name__
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                home = sys.modules.get(f"{prefix}.{mod_name}")
                original = getattr(home, attr, None)
                if original is None:
                    continue  # the function is gone; its layer reads zero
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
        paths = sys.modules.get(f"{prefix}.paths")
        lift_cls = getattr(paths, "LiftCache", None)
        if lift_cls is not None and hasattr(lift_cls, "matrix"):
            original = lift_cls.__dict__["matrix"]
            self._restore.append((lift_cls, "matrix", original))
            lift_cls.matrix = self._wrap_lift(original)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the recorded spans into the per-layer metrics."""
        spans = self.spans
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls = 0
            total_ns = 0
            self_ns = 0
            steps = 0
            trips = 0
            for rec in spans:
                if rec[0] != layer:
                    continue
                calls += 1
                dur = rec[2] - rec[1]
                self_ns += dur - rec[5]
                if not self._inside(rec, layer):
                    total_ns += dur
                if rec[6] is not None:
                    steps += rec[6]
                if rec[7] in GUARDS:
                    trips += 1
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total_ns * 1e-9
            out[f"{layer}.self_s"] = self_ns * 1e-9
            out[f"{layer}.steps"] = steps
            out[f"{layer}.guard_trips"] = trips
            out[f"{layer}.us_per_step"] = total_ns * 1e-3 / steps if steps else 0.0
        out["berry.transport.rows"] = out.pop("berry.transport.steps")
        out["paths.lift.calls"] = self.lift_calls
        out["paths.lift.s"] = self.lift_ns * 1e-9
        out["paths.lift.reuse_frac"] = (
            self.lift_reuse / self.lift_calls if self.lift_calls else 0.0
        )
        return out

    def _inside(self, rec, layer) -> bool:
        parent = rec[3]
        while parent >= 0:
            up = self.spans[parent]
            if up[0] == layer:
                return True
            parent = up[3]
        return False

    def steps_by_op(self, layer) -> dict[int, list[int]]:
        """Step counts of one layer's spans, grouped by operation id."""
        out: dict[int, list[int]] = {}
        for rec in self.spans:
            if rec[0] == layer and rec[6] is not None:
                out.setdefault(rec[4], []).append(rec[6])
        return out

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": rec[0],
                            "start_ns": rec[1] - origin,
                            "end_ns": rec[2] - origin,
                            "parent": rec[3],
                            "op": rec[4],
                            "child_ns": rec[5],
                            "count": rec[6],
                            "raised": rec[7],
                        }
                    )
                    + "\n"
                )
