"""Per-layer tracing from outside the library.

Each listed public function is wrapped by rebinding its name in every
loaded totaldp module that holds it (the defining module, the package
namespace, and every module that imported it), so calls between modules
go through the wrapper.  A wrapper records one span (name, start, end,
parent span, job id), the call count and the self time: its duration
minus the time covered by its child spans.  `extreal` is not wrapped; its
cost shows up as its callers' self time.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "operators": ("h_backup", "bellman_T", "bellman_T_mu", "m_minimize", "greedy_select"),
    "ftheta": ("f_theta_power", "q_fixed_point"),
    "stopping": ("build_stopping", "solve_stopping", "reconstruct_q", "lp_upper_bound"),
    "chains": ("evaluate_policy", "occupation_measure"),
    "model": ("Policy.descriptor", "validate_model"),
    "modelio": ("read_model", "write_trace"),
    "solvers": ("value_iteration", "policy_iteration", "modified_policy_iteration",
                "mixed_vpi", "lp_variant_vpi", "verify_certificates"),
    "cli": ("solve",),
}

# Position and keyword of the value or Q vector each operator receives.
OPERATOR_VECTOR_ARG = {"h_backup": (1, "J"), "bellman_T": (1, "J"),
                       "bellman_T_mu": (2, "J"), "m_minimize": (1, "Q"),
                       "greedy_select": (1, "Q")}


def _inner_iters(out):
    return out[1].iterations


def _certificate_iters(out):
    return out.certificate.iterations


# Counts read off a function's result: name -> (counter, reader).
RESULT_COUNTS = {
    "ftheta.q_fixed_point": ("ftheta.q_fixed_point.inner_iters", _inner_iters),
    "stopping.solve_stopping": ("stopping.solve_stopping.iters", _certificate_iters),
    "stopping.lp_upper_bound": ("stopping.lp_upper_bound.iters", _certificate_iters),
}


def qualified_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Spans and per-function totals for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.operator_calls = 0
        self.finite_inputs = 0
        self.job = -1
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        vector = OPERATOR_VECTOR_ARG.get(name.split(".", 1)[1]) \
            if name.startswith("operators.") else None
        counter = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if vector is not None:
                pos, key = vector
                v = args[pos] if len(args) > pos else kwargs.get(key)
                self.operator_calls += 1
                self.finite_inputs += bool(np.isfinite(v).all())
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self.job)
            if counter is not None:
                self.counts[counter[0]] += counter[1](out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function; record names that no longer exist."""
        pkg = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "totaldp" or key.startswith("totaldp."))]
        for name in qualified_names():
            mod_name, attr = name.split(".", 1)
            mod = sys.modules.get(f"totaldp.{mod_name}")
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    self.missing.append(name)
                    continue
                self._rebind(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr, None)
            if mod_name == "cli":  # a click command: wrap its callback
                if getattr(orig, "callback", None) is None:
                    self.missing.append(name)
                    continue
                self._rebind(orig, "callback", orig.callback,
                             self._wrap(name, orig.callback))
                continue
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for m in pkg:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, orig, wrapped)

    def _rebind(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start_s", "end_s", "parent", "job"))
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                w.writerow((i, name, repr(t0), repr(t1), parent, job))
