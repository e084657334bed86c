"""Per-layer tracing of the wnd package from outside it.

The tracer replaces public functions of the ``wnd`` modules (and
``scipy.linalg.expm``) by wrappers that open a span or bump a counter, runs
the traced work, and puts the originals back.  Nothing under ``src/`` is
edited: calls inside the package go through module attributes and module
globals, so a patched attribute is seen by every caller.

Spans are kept in memory as ``[name, layer, start, end, parent, instance]``
lists (``parent`` is the index of the enclosing span or -1) and written out
as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

# (module, attribute, layer) for every wrapped function that opens a span.
# ``signals`` is not wrapped: its calls take well under a microsecond and
# their time falls inside the engine and oracle spans.
SPANS = [
    ("ladder", "close_algebra", "ladder"),
    ("ladder", "structure_constants", "ladder"),
    ("engine", "integrate", "engine"),
    ("gaussian", "linear_problem", "gaussian"),
    ("gaussian", "linear_coefficients", "gaussian"),
    ("gaussian", "quadrature_expectation", "gaussian"),
    ("gaussian", "quadratic_coefficients", "gaussian"),
    ("gaussian", "gaussian_combined", "gaussian"),
    ("gaussian", "rotating_frame_drive", "gaussian"),
    ("symplectic", "propagate_symplectic", "symplectic"),
    ("symplectic", "first_moments", "symplectic"),
    ("symplectic", "ansatz_symplectic", "symplectic"),
    ("fock", "propagate_state", "fock.oracle"),
    ("fock", "ansatz_matrices", "fock.replay"),
    ("fock", "apply_ansatz", "fock.replay"),
    ("fock", "fidelity", "fock.check"),
    ("fock", "expectation", "fock.check"),
    ("liouville", "build_lindbladian", "liouville"),
    ("liouville", "propagate_density", "liouville"),
    ("cli", "main", "cli"),
    ("cli", "closure_report", "cli"),
    ("cli", "resolve_params", "cli.params"),
    ("cli", "format_csv", "cli.csv"),
    ("cli", "write_csv", "cli.csv"),
]

# Per-layer metrics, in the order they are reported, with their units.
METRIC_UNITS = {
    "ladder.busy_s": "s",
    "ladder.calls": "count",
    "engine.busy_s": "s",
    "engine.rhs_calls": "count",
    "engine.xi_builds": "count",
    "engine.steps_accepted": "count",
    "engine.steps_rejected": "count",
    "engine.accept_ratio": "ratio",
    "gaussian.self_s": "s",
    "symplectic.busy_s": "s",
    "fock.oracle.busy_s": "s",
    "fock.oracle.h_evals": "count",
    "fock.oracle.passes": "count",
    "fock.oracle.useful_ratio": "ratio",
    "fock.replay.busy_s": "s",
    "fock.replay.products": "count",
    "fock.replay.factor_exps": "count",
    "fock.replay.dense_expm": "count",
    "fock.check_s": "s",
    "liouville.build_s": "s",
    "liouville.busy_s": "s",
    "liouville.step_exps": "count",
    "cli.params_s": "s",
    "cli.csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span and counter recorder; ``enabled`` gates every wrapper."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.instance = -1
        self.enabled = False
        self._stack = []
        self._open_layers = Counter()

    # -- recording ------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.instance])
        self._stack.append(sid)
        self._open_layers[layer] += 1
        return sid

    def _close(self, sid):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._open_layers[span[1]] -= 1

    def _span_wrapper(self, name, layer, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            finish = None
            if before is not None:
                args, finish = before(args)
            sid = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                if finish is not None:
                    finish()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _expm_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                if tracer._open_layers["fock.replay"]:
                    tracer.counts["fock.replay.dense_expm"] += 1
                if tracer._open_layers["liouville"]:
                    tracer.counts["liouville.step_exps"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_hamiltonian(self, args):
        """Swap the oracle's H for a callable that counts its evaluations.

        A matrix H becomes ``lambda t: H`` (the same object), which is what
        the oracle builds from a matrix itself.  A new refinement pass starts
        whenever the evaluation time decreases.
        """
        hamiltonian = args[0]
        h_eval = hamiltonian if callable(hamiltonian) else (lambda _t: hamiltonian)
        state = {"last": None, "evals": 0, "passes": 0, "in_pass": 0}

        def counted(t):
            if state["last"] is None or t < state["last"]:
                state["passes"] += 1
                state["in_pass"] = 0
            state["last"] = t
            state["evals"] += 1
            state["in_pass"] += 1
            return h_eval(t)

        def finish():
            self.counts["fock.oracle.h_evals"] += state["evals"]
            self.counts["fock.oracle.passes"] += state["passes"]
            self.counts["fock.oracle.final_pass_evals"] += state["in_pass"]

        return (counted,) + tuple(args[1:]), finish

    def _count_steps(self, traj):
        self.counts["engine.steps_accepted"] += traj.accepted
        self.counts["engine.steps_rejected"] += traj.rejected

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block, then restore."""
        import scipy.linalg

        import wnd.cli

        patches = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for module_name, attr, layer in SPANS:
            module = importlib.import_module(f"wnd.{module_name}")
            before = after = None
            if attr == "propagate_state":
                before = self._count_hamiltonian
            if attr == "integrate":
                after = self._count_steps
            patch(module, attr, self._span_wrapper(
                attr, layer, getattr(module, attr), before, after))
        patch(wnd.engine.DecouplingProblem, "rhs",
              self._count_wrapper("engine.rhs_calls", wnd.engine.DecouplingProblem.rhs))
        patch(wnd.engine.DecouplingProblem, "xi",
              self._count_wrapper("engine.xi_builds", wnd.engine.DecouplingProblem.xi))
        patch(wnd.fock, "factor_exponential",
              self._count_wrapper("fock.replay.factor_exps", wnd.fock.factor_exponential))
        patch(scipy.linalg, "expm", self._expm_wrapper(scipy.linalg.expm))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def _durations(self):
        return [s[3] - s[2] for s in self.spans]

    def busy(self, select):
        """Inclusive time of selected spans not nested in another selected span."""
        dur = self._durations()
        total = 0.0
        for sid, span in enumerate(self.spans):
            if not select(span):
                continue
            parent = span[4]
            while parent >= 0 and not select(self.spans[parent]):
                parent = self.spans[parent][4]
            if parent < 0:
                total += dur[sid]
        return total

    def self_times(self):
        """Per-layer self time: span durations minus their direct children."""
        dur = self._durations()
        own = list(dur)
        for sid, span in enumerate(self.spans):
            if span[4] >= 0:
                own[span[4]] -= dur[sid]
        out = Counter()
        for sid, span in enumerate(self.spans):
            out[span[1]] += own[sid]
        return out

    def layer_metrics(self, overhead):
        """Every per-layer metric in METRIC_UNITS, from spans and counts."""
        c = self.counts
        selfs = self.self_times()

        def in_layer(*layers):
            return lambda span: span[1] in layers

        def named(*names):
            return lambda span: span[0] in names

        steps = c["engine.steps_accepted"] + c["engine.steps_rejected"]
        values = {
            "ladder.busy_s": self.busy(in_layer("ladder")),
            "ladder.calls": sum(1 for s in self.spans if s[1] == "ladder"),
            "engine.busy_s": self.busy(in_layer("engine")),
            "engine.rhs_calls": c["engine.rhs_calls"],
            "engine.xi_builds": c["engine.xi_builds"],
            "engine.steps_accepted": c["engine.steps_accepted"],
            "engine.steps_rejected": c["engine.steps_rejected"],
            "engine.accept_ratio": c["engine.steps_accepted"] / steps if steps else 0.0,
            "gaussian.self_s": selfs["gaussian"],
            "symplectic.busy_s": self.busy(in_layer("symplectic")),
            "fock.oracle.busy_s": self.busy(in_layer("fock.oracle")),
            "fock.oracle.h_evals": c["fock.oracle.h_evals"],
            "fock.oracle.passes": c["fock.oracle.passes"],
            "fock.oracle.useful_ratio": (
                c["fock.oracle.final_pass_evals"] / c["fock.oracle.h_evals"]
                if c["fock.oracle.h_evals"] else 0.0
            ),
            "fock.replay.busy_s": self.busy(in_layer("fock.replay")),
            "fock.replay.products": sum(1 for s in self.spans if s[0] == "apply_ansatz"),
            "fock.replay.factor_exps": c["fock.replay.factor_exps"],
            "fock.replay.dense_expm": c["fock.replay.dense_expm"],
            "fock.check_s": self.busy(in_layer("fock.check")),
            "liouville.build_s": self.busy(named("build_lindbladian")),
            "liouville.busy_s": self.busy(in_layer("liouville")),
            "liouville.step_exps": c["liouville.step_exps"],
            "cli.params_s": self.busy(in_layer("cli.params")),
            "cli.csv_s": self.busy(in_layer("cli.csv")),
            "cli.self_s": selfs["cli"],
            "trace.overhead": overhead,
        }
        return {k: {"value": values[k], "unit": METRIC_UNITS[k]} for k in METRIC_UNITS}

    def layer_shares(self, wall):
        """Self time of every layer as a share of the traced instance wall time."""
        return {layer: t / wall for layer, t in sorted(self.self_times().items())}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "instance": instance}) + "\n")
