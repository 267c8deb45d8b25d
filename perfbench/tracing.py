"""Span recorder that wraps the package's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install()`` replaces each public
function of the layer modules wherever a ``cwtasym`` module binds it (found
by identity, so ``oracle.integrate``, ``mellin.oscillatory_power_tail`` and
the module-global ``specfun.upper_incomplete_gamma`` that
``oscillatory_power_tail`` calls are all covered), and ``uninstall()`` puts
the originals back.  Callable integrands handed to ``integrate`` are wrapped
too, so their evaluation time shows as ``quadrature.integrand`` spans.

Each span is (task id, span id, parent span id, name, start ns, end ns) and
is kept in memory until ``write_spans``.  Self time is a span's duration
minus that of its direct children; busy time counts only the outermost span
of a name, so a function that calls itself is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions are traced, in layer order.
LAYER_MODULES = ("cli", "oracle", "expansion", "mellin", "quadrature",
                 "backends", "specfun")

_clock = time.perf_counter_ns


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "child_ns", "evals",
                 "outermost")

    def __init__(self, span_id, parent, name, start, outermost):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_ns = 0
        self.evals = 0
        self.outermost = outermost


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.evals = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.extra = Counter()  # panels, unconverged, nodes, mellin methods
        self.moment_keys = set()
        self.task_id = -1
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1].span_id if self._stack else -1
        frame = _Frame(len(self.spans) + len(self._stack), parent, name,
                       _clock(), self._depth[name] == 0)
        self._depth[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _clock()
        self._stack.pop()
        self._depth[frame.name] -= 1
        dur = end - frame.start
        name = frame.name
        self.calls[name] += 1
        self.self_ns[name] += dur - frame.child_ns
        if frame.outermost:
            self.busy_ns[name] += dur
            self.evals[name] += frame.evals
        if self._stack:
            self._stack[-1].child_ns += dur
        self.spans.append((self.task_id, frame.span_id, frame.parent, name,
                           frame.start, end))

    def run_task(self, task_id, fn, *args):
        """Run one task under a root ``cli.task`` span."""
        self.task_id = task_id
        frame = self._enter("cli.task")
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _add_evals(self, n):
        for frame in self._stack:
            frame.evals += n

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer._exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _time_integrand(self, args):
        """Wrap a callable integrand so its evaluations become spans."""
        from cwtasym.backends import KernelDescriptor

        integrand = args[0]
        if isinstance(integrand, KernelDescriptor):
            return args
        tracer = self

        def timed(x):
            frame = tracer._enter("quadrature.integrand")
            try:
                return integrand(x)
            finally:
                tracer._exit(frame)

        return (timed,) + tuple(args[1:])

    def _count_integrate(self, args, kwargs, result):
        self._add_evals(result.n_evaluations)
        self.extra["quadrature.integrate.panels"] += result.n_panels
        if not result.converged:
            self.extra["quadrature.integrate.unconverged"] += 1

    def _count_nodes(self, args, kwargs, result):
        self.extra["backends.eval_kernel.nodes"] += args[1].size

    def _count_moment(self, args, kwargs, result):
        h, z = args[0], complex(args[1])
        mirror = bool(kwargs.get("mirror", args[4] if len(args) > 4 else False))
        self.moment_keys.add((h.signal.kind.value, h.signal.amplitude,
                              h.signal.time_scale, h.b, z, mirror))
        self.extra["mellin.calls." + result.method.value] += 1

    def install(self):
        """Wrap every public function of the layer modules at each binding."""
        hooks = {
            "quadrature.integrate": (self._time_integrand, self._count_integrate),
            "backends.eval_kernel": (None, self._count_nodes),
            "mellin.mellin_transform": (None, self._count_moment),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cwtasym" or n.startswith("cwtasym.")]
        for short in LAYER_MODULES:
            mod = importlib.import_module("cwtasym." + short)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn, *hooks.get(name, ()))
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, key, wrapper)
                            self._patched.append((owner, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("task,span,parent,name,start_ns,end_ns\n")
            for span in sorted(self.spans, key=lambda s: s[1]):
                fh.write(",".join(map(str, span)) + "\n")

    def stats(self):
        """Flat ``<module>.<function>.<stat>`` dictionary of everything seen."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy_ns[name] * 1e-9
            out[f"{name}.self_s"] = self.self_ns[name] * 1e-9
            out[f"{name}.evals"] = self.evals[name]
        out.update(self.extra)
        return out
