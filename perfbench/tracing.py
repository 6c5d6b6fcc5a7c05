"""Per-layer tracing from outside the program.

install() replaces each traced public function of onsagergeo with a wrapper
that records a span: calls and self time (duration minus the time of traced
calls nested inside it).  Functions are replaced in every module that binds
them, since modules take each other's functions with `from ... import`;
model methods are replaced on each class of the mobility module that defines
them.  No program file changes.
"""

import sys
import time

# module -> traced function names; a (metric name, attribute) pair traces a
# private function under a public name
TRACED = {
    "mobility": ["theta_d1_matrices", "theta_matrix", "d1_matrix",
                 "divergence_gradient", "d2_matrices"],
    "chains": ["grad_matrix", "build_reversible_chain"],
    "metric": ["response_matrix", "deflated_solve", "pseudo_inverse",
               "frame_potentials"],
    "dynamics": ["dissipation_pair", "rk4_step"],
    "curvature": ["chart_curvature_oracle", ("riemann_component", "_riemann_assembled"),
                  "riemann"],
    "lattice3": ["lattice3_sweep", "lattice3_closed_forms"],
    "cli": ["load_config", "csv_text", "render_json"],
}
METHOD_MODULES = {"mobility"}
COUNTS = ("dynamics.halvings", "connection.bvp_shots")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, entries in TRACED.items():
        for entry in entries:
            label = entry[0] if isinstance(entry, tuple) else entry
            names.append((f"{module}.{label}.calls", "count"))
            names.append((f"{module}.{label}.self_s", "s"))
    return names + [(name, "count") for name in COUNTS]


class Tracer:
    """Per-pass calls and self times of the traced functions, plus counts."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []       # child time accumulated by each open span
        self._bvp_depth = 0

    def reset(self):
        self.calls = dict.fromkeys(self.calls, 0)
        self.self_s = dict.fromkeys(self.self_s, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def snapshot(self):
        """This pass's per-layer metrics as name -> value."""
        out = {}
        for name, unit in metric_names():
            if name in self.counts:
                out[name] = self.counts[name]
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[:-6], 0)
            else:
                out[name] = self.self_s.get(name[:-7], 0.0)
        return out

    def span(self, name, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child
                if stack:
                    stack[-1] += duration

        return wrapper

    def count_halvings(self, fn):
        def wrapper(f, y, dt, is_ok, depth=0):
            if depth > 0:
                self.counts["dynamics.halvings"] += 1
            return fn(f, y, dt, is_ok, depth)
        return wrapper

    def count_shots(self, ivp, bvp):
        def ivp_wrapper(*args, **kwargs):
            if self._bvp_depth:
                self.counts["connection.bvp_shots"] += 1
            return ivp(*args, **kwargs)

        def bvp_wrapper(*args, **kwargs):
            self._bvp_depth += 1
            try:
                return bvp(*args, **kwargs)
            finally:
                self._bvp_depth -= 1
        return ivp_wrapper, bvp_wrapper


def _rebind(original, replacement):
    """Point every onsagergeo module's binding of `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "onsagergeo" or mod_name.startswith("onsagergeo.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(package):
    """Wrap the traced functions of an imported onsagergeo package."""
    import importlib

    tracer = Tracer()
    for module, entries in TRACED.items():
        mod = importlib.import_module(f"{package.__name__}.{module}")
        for entry in entries:
            label, attr = entry if isinstance(entry, tuple) else (entry, entry)
            name = f"{module}.{label}"
            if module in METHOD_MODULES:
                for cls in vars(mod).values():
                    if isinstance(cls, type) and attr in vars(cls):
                        setattr(cls, attr, tracer.span(name, vars(cls)[attr]))
            else:
                original = getattr(mod, attr)
                _rebind(original, tracer.span(name, original))
    dynamics = importlib.import_module(f"{package.__name__}.dynamics")
    connection = importlib.import_module(f"{package.__name__}.connection")
    _rebind(dynamics.advance_interior, tracer.count_halvings(dynamics.advance_interior))
    ivp, bvp = tracer.count_shots(connection.geodesic_ivp, connection.geodesic_bvp)
    _rebind(connection.geodesic_ivp, ivp)
    _rebind(connection.geodesic_bvp, bvp)
    return tracer
