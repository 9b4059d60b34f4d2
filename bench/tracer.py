"""Outside-in tracer for the alphalimits layers.

Wraps every public function of the layer modules (graphs, spectral, limits,
verify, cli), plus Graph construction and HalfPoly.eval_t, at every binding
site: `from .spectral import radius_of` copies the function into cli and
verify, limits holds its own char_poly_eval and h_of_lambda, and cli keeps
its renderers in a dict. Each wrapped call records a span (name, start,
end, parent) in memory; counts, self times and numpy RuntimeWarnings per
span are derived from the spans when a traced pass ends. The package
itself is not modified: `install` swaps the wrappers in, `remove` puts the
originals back, so untraced passes run the unwrapped code.
"""

from __future__ import annotations

import csv
import functools
import inspect
import warnings
from time import perf_counter

LAYERS = ("graphs", "spectral", "limits", "verify", "cli")

# Functions whose return value is one isolated root (limits.roots).
ROOT_FUNCTIONS = frozenset({
    "gamma_n", "gamma_tilde_n", "beta_n", "laplacian_new", "laplacian_guo_wang",
    "psi", "omega2", "pendant_path_limit", "two_pendant_paths_limit",
})
PENDANT_FUNCTIONS = frozenset({"limits.pendant_path_limit",
                               "limits.two_pendant_paths_limit"})
RADIUS_FUNCTIONS = frozenset({"spectral.radius_of", "spectral.spectral_radius",
                              "spectral.full_spectrum"})
EIGENSOLVES = frozenset({"spectral.spectral_radius", "spectral.full_spectrum"})
DET_FUNCTIONS = frozenset({"spectral.char_poly_eval",
                           "spectral.char_poly_eval_deleted"})
RENDER_FUNCTIONS = frozenset({"cli.render_csv", "cli.render_json",
                              "cli.render_plot"})


class Tracer:
    """Span recorder for one process; one instance per traced run."""

    def __init__(self, package):
        self._package = package
        self._patches = []  # (owner, attribute or dict key, original, wrapper)
        self._stack = []
        self._warnings_ctx = None
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.warnings = {}  # span index -> RuntimeWarnings raised under it
        self.extra = {"roots": 0, "graph_builds": 0, "matrix_bytes": 0,
                      "order_max": 0, "properties_checked": 0}

    def begin(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        short = name.rsplit(".", 1)[1]
        on_return = _return_hook(name, short)
        on_call = _call_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer.extra, args)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_return is not None:
                on_return(tracer.extra, result)
            return result

        return wrapper

    def _on_warning(self, message, category, filename, lineno, file=None,
                    line=None):
        if self._stack and issubclass(category, RuntimeWarning):
            top = self._stack[-1]
            self.warnings[top] = self.warnings.get(top, 0) + 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap wrappers in at every binding site and start catching warnings."""
        mods = {layer: getattr(self._package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for owner in (self._package, *mods.values()):
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(owner, attr, obj, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patch(obj, key, val, wrappers[id(val)][1])
        for cls, attr, name in ((mods["graphs"].Graph, "__init__", "graphs.Graph"),
                                (mods["limits"].HalfPoly, "eval_t",
                                 "limits.HalfPoly.eval_t")):
            original = cls.__dict__[attr]
            self._patch(cls, attr, original, self._wrap(name, original))
        self._warnings_ctx = warnings.catch_warnings()
        self._warnings_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._on_warning

    def _patch(self, owner, key, original, wrapper) -> None:
        _set(owner, key, wrapper)
        self._patches.append((owner, key, original, wrapper))

    def remove(self) -> None:
        """Restore every original binding and the warning filters."""
        for owner, key, original, _ in reversed(self._patches):
            _set(owner, key, original)
        self._patches.clear()
        if self._warnings_ctx is not None:
            self._warnings_ctx.__exit__(None, None, None)
            self._warnings_ctx = None

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the time covered by its child spans."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def metrics(self) -> dict:
        """Per-layer counts and times of the spans recorded since `reset`."""
        own = self.self_times()
        calls = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        group_self = {"pendant": 0.0, "radius": 0.0, "det": 0.0}
        render_s = 0.0
        # A spectral span belongs to the radius or det group of the outermost
        # spectral call above it, so assembly under a det counts as det time.
        group = [None] * len(self.names)
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[i]
            p = self.parents[i]
            if layer == "spectral":
                if p >= 0 and self.names[p].startswith("spectral."):
                    group[i] = group[p]
                elif name in RADIUS_FUNCTIONS:
                    group[i] = "radius"
                elif name in DET_FUNCTIONS:
                    group[i] = "det"
            elif name in PENDANT_FUNCTIONS:
                group[i] = "pendant"
            if group[i] is not None:
                group_self[group[i]] += own[i]
            if name in RENDER_FUNCTIONS:
                render_s += self.ends[i] - self.starts[i]
        limits_warnings = sum(n for i, n in self.warnings.items()
                              if self._under_layer(i, "limits"))
        poly_evals = calls.get("limits.HalfPoly.eval_t", 0)
        h_calls = calls.get("spectral.h_of_lambda", 0)
        roots = self.extra["roots"]
        graph_calls = calls.get("graphs.Graph", 0) + self.extra["graph_builds"]
        return {
            "limits.poly_evals": (poly_evals, "count"),
            "limits.roots": (roots, "count"),
            "limits.evals_per_root": ((poly_evals + h_calls) / roots if roots else 0.0,
                                      "evals/root"),
            "limits.self_s": (layer_self["limits"], "s"),
            "limits.pendant_self_s": (group_self["pendant"], "s"),
            "limits.numpy_warnings": (limits_warnings, "count"),
            "spectral.radius_calls": (sum(calls.get(n, 0) for n in EIGENSOLVES), "count"),
            "spectral.radius_self_s": (group_self["radius"], "s"),
            "spectral.radius_order_max": (self.extra["order_max"], "count"),
            "spectral.matrix_mb": (self.extra["matrix_bytes"] / 1e6, "MB"),
            "spectral.det_calls": (sum(calls.get(n, 0) for n in DET_FUNCTIONS), "count"),
            "spectral.det_self_s": (group_self["det"], "s"),
            "spectral.h_calls": (h_calls, "count"),
            "graphs.calls": (graph_calls, "count"),
            "graphs.self_s": (layer_self["graphs"], "s"),
            "verify.properties_checked": (self.extra["properties_checked"], "count"),
            "verify.self_s": (layer_self["verify"], "s"),
            "cli.self_s": (layer_self["cli"], "s"),
            "cli.render_s": (render_s, "s"),
        }

    def _under_layer(self, idx: int, layer: str) -> bool:
        prefix = layer + "."
        while idx >= 0:
            if self.names[idx].startswith(prefix):
                return True
            idx = self.parents[idx]
        return False

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, one row per span."""
        own = self.self_times()
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_s", "end_s", "self_s",
                          "runtime_warnings"))
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                out.writerow((i, self.parents[i], name,
                              f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}",
                              f"{own[i]:.9f}", self.warnings.get(i, 0)))


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _call_hook(name: str):
    """Counters read from the arguments: matrix sizes."""
    if name == "spectral.assemble_a_alpha":
        def hook(extra, args):
            n = getattr(args[0], "n_vertices", 0)
            extra["matrix_bytes"] += 8 * n * n
        return hook
    if name in EIGENSOLVES:
        def hook(extra, args):
            extra["order_max"] = max(extra["order_max"], getattr(args[0], "order", 0))
        return hook
    return None


def _return_hook(name: str, short: str):
    """Counters read from the results: roots, graphs built, properties checked."""
    layer = name.split(".", 1)[0]
    if layer == "limits" and short in ROOT_FUNCTIONS:
        def hook(extra, result):
            extra["roots"] += 1
        return hook
    if layer == "graphs":
        def hook(extra, result):
            if type(result).__name__ == "Graph" or (
                    isinstance(result, tuple) and result
                    and type(result[0]).__name__ == "Graph"):
                extra["graph_builds"] += 1
        return hook
    if layer == "verify" and short.startswith("check_"):
        def hook(extra, result):
            extra["properties_checked"] += getattr(result, "checked", 0)
        return hook
    return None
