"""Outside-in tracer: wraps the public functions of each dysonflow layer.

Nothing under ``src/`` is changed. ``Tracer.install()`` replaces every
binding of a traced function in every loaded ``dysonflow.*`` module (for
example ``hermitian_sqrt`` is bound in ``su2``, ``dyson``, ``cli`` and the
package), so calls between modules are seen too; ``uninstall()`` restores
the originals. The RHS callable handed to ``rk4_series`` and the ``h_of_t``
source handed to ``propagator_series`` are wrapped as well, so RHS time is
separated from the stepping arithmetic.

Spans are kept in memory in flat typed arrays (function id, parent span,
start, end, flags) and written out by ``save``. A span's self time is its
duration minus the durations of its direct child spans.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (layer, module, function) for every traced public function
TARGETS = (
    ("su2", "su2", "hermitian_sqrt"),
    ("su2", "su2", "complex2x2"),
    ("integrate", "_integrate", "rk4_series"),
    ("integrate", "_integrate", "_rk4_step"),
    ("metric", "metric", "integrate_metric"),
    ("metric", "metric", "zeta_metric"),
    ("dyson", "dyson", "dyson_from_metric"),
    ("dyson", "dyson", "hermitian_counterpart"),
    ("dyson", "dyson", "physical_hamiltonian"),
    ("dyson", "dyson", "quasi_hermiticity_residual"),
    ("dyson", "dyson", "invert_dyson_map"),
    ("propagate", "propagate", "propagator_series"),
    ("yang_lee", "yang_lee", "rho_closed"),
    ("yang_lee", "yang_lee", "rho_closed_dot"),
    ("yang_lee", "yang_lee", "eta_closed"),
    ("yang_lee", "yang_lee", "rabi_h"),
    ("yang_lee", "yang_lee", "u_closed"),
    ("yang_lee", "yang_lee", "psi_pm"),
    ("yang_lee", "yang_lee", "energy_expectation"),
    ("yang_lee", "yang_lee", "theta"),
    ("cli", "cli", "load_config"),
    ("cli", "cli", "run_scenario"),
    ("cli", "cli", "sweep"),
    ("cli", "cli", "_sweep_row"),
    ("cli", "cli", "_write_series"),
)
# spans of callables passed in as arguments
CALLBACKS = (("integrate", "rhs"), ("propagate", "source"))
CLOSED_FORMS = tuple(f for layer, _, f in TARGETS if layer == "yang_lee")

RAISED = 1  # span flag: an exception escaped
HALF_STEP = 2  # span flag: an RK4 step taken as an error-check half step

PACKAGE = "dysonflow"


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = [f"{layer}.{fn}" for layer, _, fn in TARGETS] + [
            f"{layer}.{fn}" for layer, fn in CALLBACKS
        ]
        self.fid = {name: i for i, name in enumerate(self.names)}
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.flags = array("b")
        self.stack = [-1]
        self.dt_stack = []  # dt of each active rk4_series call
        self.emit_bytes = 0
        self.emit_rows = 0
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self, fid):
        idx = len(self.fids)
        self.fids.append(fid)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.flags.append(0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx, raised):
        self.ends[idx] = self.clock()
        if raised:
            self.flags[idx] |= RAISED
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args, kwargs)`` may rewrite the arguments; ``after(span, args,
        result)`` runs once the span is closed, with result None if it raised.
        """
        fid = self.fid[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(fid)
            out = None
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(idx, raised)
                if after is not None:
                    after(idx, args, out)
            return out

        return traced

    def _before_rk4_series(self, args, kwargs):
        args = list(args)
        if args:
            args[0] = self.wrap("integrate.rhs", args[0])
        else:
            kwargs["f"] = self.wrap("integrate.rhs", kwargs["f"])
        dt = args[3] if len(args) > 3 else kwargs["dt"]
        self.dt_stack.append(dt)
        return tuple(args), kwargs

    def _before_propagator(self, args, kwargs):
        args = list(args)
        if args:
            args[0] = self.wrap("propagate.source", args[0])
        else:
            kwargs["h_of_t"] = self.wrap("propagate.source", kwargs["h_of_t"])
        return tuple(args), kwargs

    def _after_rk4_series(self, _idx, _args, _out):
        self.dt_stack.pop()

    def _after_step(self, idx, args, _out):
        # _rk4_step(f, t, y, h): a step shorter than the series dt is an error check
        if self.dt_stack and args[3] != self.dt_stack[-1]:
            self.flags[idx] |= HALF_STEP

    def _after_write(self, _idx, args, path):
        if path is None:  # the write raised
            return
        self.emit_bytes += path.stat().st_size
        self.emit_rows += len(args[3])

    # -- patching --------------------------------------------------------

    def install(self):
        hooks = {
            "rk4_series": (self._before_rk4_series, self._after_rk4_series),
            "_rk4_step": (None, self._after_step),
            "propagator_series": (self._before_propagator, None),
            "_write_series": (None, self._after_write),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, module, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn_name)
            before, after = hooks.get(fn_name, (None, None))
            traced = self.wrap(f"{layer}.{fn_name}", original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def mark(self):
        """Span count so far; pass two marks to ``layer_metrics`` to select a range."""
        return len(self.fids)

    def layer_metrics(self, lo=0, hi=None):
        """Metrics of spans lo..hi, plus the emit counters since they were last reset."""
        out = layer_metrics(self.names, *self.arrays(lo, hi))
        out["cli.emit.bytes"] = self.emit_bytes
        out["cli.emit.rows"] = self.emit_rows
        return out

    def arrays(self, lo=0, hi=None):
        """Copies of the span arrays for spans lo..hi, parents renumbered from lo."""
        hi = len(self.fids) if hi is None else hi
        # copy at once: a live numpy view would stop the arrays from growing
        fids = np.frombuffer(self.fids, dtype=np.int32)[lo:hi].copy()
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi] - lo
        parents[parents < 0] = -1
        starts = np.frombuffer(self.starts, dtype=np.int64)[lo:hi].copy()
        ends = np.frombuffer(self.ends, dtype=np.int64)[lo:hi].copy()
        flags = np.frombuffer(self.flags, dtype=np.int8)[lo:hi].copy()
        return fids, parents, starts, ends, flags

    def save(self, path):
        """Write every span (id, parent id, function, start/end in ns, flags)."""
        fids, parents, starts, ends, flags = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=fids,
            parent=parents,
            start_ns=starts,
            end_ns=ends,
            flags=flags,
        )


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "s" if name.endswith("_s") else "count"


def self_times(parents, durations):
    """Duration of each span minus the durations of its direct children."""
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=len(durations))
    return durations - child.astype(np.int64)


def layer_metrics(names, fids, parents, starts, ends, flags):
    """Per-layer counts and times (seconds) for one set of spans."""
    dur = ends - starts
    own = self_times(parents, dur)
    fid = {n: i for i, n in enumerate(names)}

    def pick(*fns):
        return np.isin(fids, [fid[f] for f in fns])

    def calls(*fns):
        return int(np.count_nonzero(pick(*fns)))

    def busy(*fns):
        return float(dur[pick(*fns)].sum()) * 1e-9

    def self_s(*fns):
        return float(own[pick(*fns)].sum()) * 1e-9

    def errors(layer):
        in_layer = [n for n in names if n.startswith(layer + ".")]
        return int(np.count_nonzero(pick(*in_layer) & (flags & RAISED).astype(bool)))

    steps = pick("integrate._rk4_step")
    half = steps & (flags & HALF_STEP).astype(bool)
    rhs = pick("integrate.rhs")
    rhs_parent = np.where(rhs, parents, -1)
    check_rhs = int(np.count_nonzero(rhs & (rhs_parent >= 0) & half[np.maximum(rhs_parent, 0)]))
    rhs_calls = int(np.count_nonzero(rhs))
    ylc = [f"yang_lee.{f}" for f in CLOSED_FORMS]

    out = {
        "su2.hermitian_sqrt.calls": calls("su2.hermitian_sqrt"),
        "su2.hermitian_sqrt.self_s": self_s("su2.hermitian_sqrt"),
        "su2.complex2x2.calls": calls("su2.complex2x2"),
        "su2.complex2x2.self_s": self_s("su2.complex2x2"),
        "su2.errors": errors("su2"),
        "integrate.rk4_series.steps": int(np.count_nonzero(steps & ~half)),
        "integrate.rk4_series.rhs_calls": rhs_calls,
        "integrate.rk4_series.self_s": self_s("integrate.rk4_series", "integrate._rk4_step"),
        "integrate.rhs.busy_s": busy("integrate.rhs"),
        "integrate.check_rhs_frac": check_rhs / rhs_calls if rhs_calls else 0.0,
        "integrate.errors": errors("integrate"),
        "metric.integrate_metric.busy_s": busy("metric.integrate_metric"),
        "metric.zeta_metric.calls": calls("metric.zeta_metric"),
        "metric.zeta_metric.self_s": self_s("metric.zeta_metric"),
        "metric.errors": errors("metric"),
        "dyson.dyson_from_metric.busy_s": busy("dyson.dyson_from_metric"),
        "dyson.dyson_from_metric.self_s": self_s("dyson.dyson_from_metric"),
    }
    for f in ("hermitian_counterpart", "physical_hamiltonian", "quasi_hermiticity_residual", "invert_dyson_map"):
        out[f"dyson.{f}.calls"] = calls(f"dyson.{f}")
        out[f"dyson.{f}.self_s"] = self_s(f"dyson.{f}")
    out.update(
        {
            "dyson.errors": errors("dyson"),
            "propagate.propagator_series.busy_s": busy("propagate.propagator_series"),
            "propagate.source.calls": calls("propagate.source"),
            "propagate.source.busy_s": busy("propagate.source"),
            "propagate.errors": errors("propagate"),
            "yang_lee.closed_form.calls": calls(*ylc),
            "yang_lee.closed_form.self_s": self_s(*ylc),
            "yang_lee.eta_closed.self_s": self_s("yang_lee.eta_closed"),
            "yang_lee.u_closed.self_s": self_s("yang_lee.u_closed"),
            "yang_lee.rabi_h.self_s": self_s("yang_lee.rabi_h"),
            "yang_lee.errors": errors("yang_lee"),
            "cli.load_config.busy_s": busy("cli.load_config"),
            "cli.pipeline.self_s": self_s("cli.run_scenario", "cli.sweep"),
            "cli.emit.busy_s": busy("cli._write_series"),
            "cli.sweep.values": calls("cli._sweep_row"),
            "cli.sweep.busy_s": busy("cli.sweep"),
            "cli.errors": errors("cli"),
        }
    )
    return out
