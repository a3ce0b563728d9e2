"""Layer tracing from outside the program.

The tracer wraps public functions of the `contactfit` modules and records
one span per call: name, start, end, parent span and the id of the
operation (fit, prediction or set-up step) the benchmark is running. Each
wrapper replaces the function in every `contactfit` namespace that holds
it, because callers look a name up in their own module: `reconstruct` calls
`pose_mesh_with_jacobian` through `contactfit.reconstruct`, `body` calls
`rodrigues` through `contactfit.body`. The wrappers are removed when the
traced block ends.

Spans stay in memory and are written out once, at the end. A span's self
time is its duration minus the durations of its direct children; the
program is single-threaded, so children nest inside their parent and never
overlap.
"""

import contextlib
import functools
import importlib
import sys
import time
import warnings
from array import array
from collections import Counter

import numpy as np


def self_time(parents, duration):
    """Each span's duration minus the durations of its direct children;
    `parents` holds each span's parent index, -1 for a root span."""
    nested = parents >= 0
    return duration - np.bincount(parents[nested], weights=duration[nested],
                                  minlength=len(duration))


class Tracer:
    """Spans and counts of the traced functions `targets` ("module.function").

    `counters` maps a target to a function of the call's (args, kwargs) that
    returns {suffix: amount}; the amounts are added to the count named
    "<target>.<suffix>". Warnings raised while tracing are counted by the
    label of the first entry of `warning_counts` ({label: text}) whose text
    occurs in the message.
    """

    def __init__(self, targets, counters=None, warning_counts=None):
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.warning_counts = dict(warning_counts or {})
        self.ops = [""]
        self.op = 0
        # one entry per span, indexed by span id
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._patched = []

    def set_op(self, label):
        """Tag the spans that start from now on with an operation id."""
        self.ops.append(str(label))
        self.op = len(self.ops) - 1

    def _wrap(self, name_id, fn, counter):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for suffix, amount in counter(args, kwargs).items():
                    self.counts[f"{self.targets[name_id]}.{suffix}"] += amount
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op_id.append(self.op)
            self.end.append(0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "contactfit" or n.startswith("contactfit."))]
        try:
            for name_id, target in enumerate(self.targets):
                module_name, fn_name = target.rsplit(".", 1)
                original = getattr(importlib.import_module(f"contactfit.{module_name}"),
                                   fn_name)
                traced = self._wrap(name_id, original, self.counters.get(target))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patched.append((module, attr, original))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
            for w in caught:
                message = str(w.message)
                for label, text in self.warning_counts.items():
                    if text in message:
                        self.counts[label] += 1
                        break
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def __len__(self):
        return len(self.name)

    def summary(self):
        """{target: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self.name, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        own = self_time(np.frombuffer(self.parent, dtype=np.int64), duration)
        n = len(self.targets)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        return {t: (int(calls[i]), float(self_s[i])) for i, t in enumerate(self.targets)}

    def write(self, path):
        """Write every span as CSV: span, parent, name, op, start_ns, end_ns."""
        with open(path, "w") as f:
            f.write("span,parent,name,op,start_ns,end_ns\n")
            for i in range(len(self.name)):
                f.write(f"{i},{self.parent[i]},{self.targets[self.name[i]]},"
                        f"{self.ops[self.op_id[i]]},{self.start[i]},{self.end[i]}\n")
