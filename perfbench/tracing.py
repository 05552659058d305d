"""Outside-in span tracing of the dmdsep layers.

The tracer replaces every public function of each layer module with a
wrapper, by setting the module attribute.  Calls made through the module
(``linalg.svd`` inside ``dmd_fit``) and unqualified calls inside the same
module (``svd`` inside ``truncated_svd``) both resolve to the wrapper, so
nested calls are caught without touching the package.  Re-exports such as
``scipy.signal.lfilter`` keep their own ``__module__`` and are left alone.

Spans are kept in memory as ``[name, start, end, parent, op, warnings]``
and written out once, when the run ends.
"""

import functools
import importlib
import inspect
import json
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

# The package's modules on a hot path; ``plots`` is on none and stays untraced.
LAYERS = (
    "signals",
    "linalg",
    "dmd",
    "lagstats",
    "baselines",
    "metrics",
    "experiments",
    "cli",
)


def _mb(a):
    return np.size(a) * 8 / 1e6


def _rows(a):
    return np.shape(a)[0]


# Counters computed from argument shapes, not measured: name -> (key, fn, reduce).
COMPUTED = {
    "linalg.svd": ("linalg.svd.in_mb", _mb, "sum"),
    "linalg.eig_nonsymmetric": ("linalg.eig_nonsymmetric.max_n", _rows, "max"),
}


def public_functions(module):
    """Functions defined in ``module`` itself whose names are public."""
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Span recorder; ``install`` wraps the layer functions in place and
    ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.computed = defaultdict(float)
        self.swaps = []  # (module, name, original, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if computed is not None:
                key, measure, reduce = computed
                value = measure((args or tuple(kwargs.values()))[0])
                if reduce == "sum":
                    self.computed[key] += value
                else:
                    self.computed[key] = max(self.computed[key], value)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            # Recording here also counts warnings that a caller silences with
            # simplefilter("ignore"); a nested span records its own, so each
            # warning is counted once, in the innermost span.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                    span[5] = len(caught)

        return traced

    def install(self):
        if not self.swaps:
            for layer in LAYERS:
                module = importlib.import_module(f"dmdsep.{layer}")
                for fname in public_functions(module):
                    fn = getattr(module, fname)
                    wrapped = self._wrap(f"{layer}.{fname}", fn)
                    self.swaps.append((module, fname, fn, wrapped))
        for module, fname, _, wrapped in self.swaps:
            setattr(module, fname, wrapped)

    def uninstall(self):
        for module, fname, fn, _ in self.swaps:
            setattr(module, fname, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, warned in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "warnings": warned,
                        }
                    )
                    + "\n"
                )

    def summary(self, ops, wall_s):
        """Per-op layer and function figures from the recorded spans.

        A span's self time is its duration minus that of its direct
        children.  Figures are divided by ``ops`` so that runs of different
        length compare; ``share`` is self time over the traced wall time.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        fn = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layer = {
            name: {"calls": 0, "self_s": 0.0, "warnings": 0} for name in LAYERS
        }
        for i, (name, start, end, _, _, warned) in enumerate(self.spans):
            self_s = end - start - child_s[i]
            row = fn[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
            lrow = layer[name.split(".", 1)[0]]
            lrow["calls"] += 1
            lrow["self_s"] += self_s
            lrow["warnings"] += warned
        out = {}
        for name, row in layer.items():
            out[f"{name}.calls"] = row["calls"] / ops
            out[f"{name}.self_s"] = row["self_s"] / ops
            out[f"{name}.share"] = row["self_s"] / wall_s
            out[f"{name}.warnings"] = row["warnings"] / ops
        for name, row in fn.items():
            for key, value in row.items():
                out[f"{name}.{key}"] = value / ops
        for key, _, reduce in COMPUTED.values():
            if key in self.computed:
                value = self.computed[key]
                out[key] = value / ops if reduce == "sum" else value
        return out
