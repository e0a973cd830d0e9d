"""Spans around the public functions of each conformal_heat module.

`Tracer.install()` replaces every module attribute that refers to a traced
function (in the defining module and in every module that imported it,
plus the verify suite table) with a timing wrapper; `uninstall()` puts the
originals back.  The package source is not modified.

A span is (id, parent id, key, start, end, hot time inside, outermost),
where outermost is false for a call nested in a call with the same key.
Spans stay in memory until the pass ends.  The scalar functions that run hundreds of
thousands of times per pass (Gegenbauer and theta evaluations) get no span
of their own: their calls and time are summed per key, and the time is
charged to the enclosing span so that self times still add up.

A layer is a module; its self time is the sum over its spans of the span
duration minus the time covered by child spans and hot calls.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "conformal_heat"

LAYERS = ("cli", "fields_io", "kernels", "special_functions", "log_radial",
          "spherical", "spectral_calculus", "ladder", "verify")

SUITE_KEYS = ("sl2", "degeneration", "spectral", "theta", "unitarity",
              "scaling", "semigroup", "special", "projection")


def _path_bytes(args, kwargs, result, pre):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _tell(args, kwargs):
    return (args[0] if args else kwargs["fp"]).tell()


def _written(args, kwargs, result, pre):
    return _tell(args, kwargs) - pre


def _matrix_bytes(args, kwargs, result, pre):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return grid.n * grid.n * 16  # one complex128 n x n matrix


def _sectors(args, kwargs, result, pre):
    return len(result)


# module -> [(function name, span key, counter name or None, pre hook, post hook)]
SPANS = {
    "cli": [("main", "cli.main", None, None, None)],
    "fields_io": [
        ("read_field_file", "fields_io.read", "fields_io.bytes_read", None, _path_bytes),
        ("read_points", "fields_io.read", "fields_io.bytes_read", None, _path_bytes),
        ("write_factored", "fields_io.write", "fields_io.bytes_written", _tell, _written),
        ("write_grid2d", "fields_io.write", "fields_io.bytes_written", _tell, _written),
    ],
    "kernels": [
        ("full_kernel_series", "kernels.series", None, None, None),
        ("truncation_degree", "kernels.truncation", None, None, None),
        ("closed_form_1d", "kernels.closed_form", None, None, None),
        ("closed_form_2d", "kernels.closed_form", None, None, None),
        ("closed_form_4d", "kernels.closed_form", None, None, None),
        ("radial_kernel", "kernels.radial_kernel", None, None, None),
        ("radial_semigroup_matrix", "kernels.quadrature_build", "kernels.quadrature_bytes",
         None, _matrix_bytes),
        ("apply_radial_kernel", "kernels.quadrature_apply", None, None, None),
        ("apply_full_kernel_1d", "kernels.quadrature_apply", None, None, None),
        ("apply_full_kernel_2d", "kernels.quadrature_apply", None, None, None),
    ],
    "log_radial": [
        ("u_forward", "log_radial.transform", None, None, None),
        ("u_inverse", "log_radial.transform", None, None, None),
        ("fourier_forward", "log_radial.transform", None, None, None),
        ("fourier_inverse", "log_radial.transform", None, None, None),
        ("weighted_norm", "log_radial.norm", None, None, None),
        ("frequency_norm", "log_radial.norm", None, None, None),
    ],
    "spherical": [
        ("decompose_1d", "spherical.decompose", "spherical.sectors", None, _sectors),
        ("decompose_2d", "spherical.decompose", "spherical.sectors", None, _sectors),
        ("recompose_1d", "spherical.recompose", None, None, None),
        ("recompose_2d", "spherical.recompose", None, None, None),
        ("projection_kernel", "spherical.projection_kernel", None, None, None),
    ],
    "spectral_calculus": [
        ("apply_exp_g0", "spectral_calculus.apply", None, None, None),
        ("apply_exp_g0_grid", "spectral_calculus.apply_grid", None, None, None),
        ("apply_scaling_direct", "spectral_calculus.scaling", None, None, None),
    ],
    "ladder": [
        ("commutator_defect", "ladder.commutator", None, None, None),
        ("degeneration_trace", "ladder.degeneration", None, None, None),
    ],
    "verify": [("run_suites", "verify.run", None, None, None)],
}

# module -> [(function name, aggregate key)]
HOT = {
    "special_functions": [
        ("gegenbauer_tilde", "special_functions.gegenbauer"),
        ("gegenbauer_tilde_sup", "special_functions.gegenbauer_sup"),
        ("theta", "special_functions.theta"),
        ("theta_dv", "special_functions.theta"),
    ],
}


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._suites_saved: dict | None = None
        # The wrappers hold references to these objects, so reset() empties
        # them in place rather than rebinding them.
        self.spans: list[tuple] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans.clear()
        for stats in self.hot.values():
            stats[0], stats[1] = 0, 0.0
        self.counters.clear()
        self._stack.clear()
        self._active.clear()
        self._next_id = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, key, counter, pre_hook, post_hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            depth = tracer._active[key]
            tracer._active[key] = depth + 1
            pre = pre_hook(args, kwargs) if pre_hook else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._active[key] = depth
                tracer.spans.append((sid, parent, key, t0, t1, frame[1], depth == 0))
            if counter:
                tracer.counters[counter] += post_hook(args, kwargs, result, pre)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, fn, key):
        stats = self.hot[key]
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stats[0] += 1
            stats[1] += dt
            if stack:
                stack[-1][1] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        replace: dict[int, object] = {}
        for mod_name, entries in SPANS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name, key, counter, pre_hook, post_hook in entries:
                fn = getattr(home, fn_name)
                replace[id(fn)] = self._span(fn, key, counter, pre_hook, post_hook)
        for mod_name, entries in HOT.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name, key in entries:
                fn = getattr(home, fn_name)
                replace[id(fn)] = self._hot(fn, key)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        suites = sys.modules[f"{PACKAGE}.verify"].SUITES
        self._suites_saved = dict(suites)
        for name, fn in self._suites_saved.items():
            suites[name] = self._span(fn, f"verify.{name}", None, None, None)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        if self._suites_saved is not None:
            suites = sys.modules[f"{PACKAGE}.verify"].SUITES
            suites.clear()
            suites.update(self._suites_saved)
            self._suites_saved = None

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self times per key, layer self times, counters.

        Calls and inclusive times count outermost spans only, so a function
        reached again through itself is not counted twice.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1, _, _ in self.spans:
            covered[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for sid, parent, key, t0, t1, hot, outer in self.spans:
            dur = t1 - t0
            if outer:
                calls[key] += 1
                inclusive[key] += dur
            layer_self[key.split(".", 1)[0]] += dur - covered[sid] - hot
        for key, (count, total) in self.hot.items():
            calls[key] += count
            inclusive[key] += total
            layer_self[key.split(".", 1)[0]] += total
        return {"calls": dict(calls), "inclusive": dict(inclusive), "self": layer_self,
                "counters": dict(self.counters), "spans": len(self.spans)}

    def dump(self, path: str) -> None:
        """Write the spans of the current pass as one JSON array per line."""
        with open(path, "w") as fp:
            for sid, parent, key, t0, t1, hot, _ in self.spans:
                fp.write(f'[{sid},{parent},"{key}",{t0!r},{t1!r},{hot!r}]\n')


def layer_metrics(summary: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metric table of one traced pass taking wall_s seconds."""
    calls, incl, cnt = summary["calls"], summary["inclusive"], summary["counters"]

    def c(key):
        return (calls.get(key, 0), "count")

    def s(key):
        return (incl.get(key, 0.0), "s")

    def rate(nbytes, seconds):
        return (nbytes / seconds / 1e6 if seconds > 0 else 0.0, "MB/s")

    out = {
        "kernels.series_s": s("kernels.series"),
        "kernels.series_calls": c("kernels.series"),
        "kernels.truncation_s": s("kernels.truncation"),
        "kernels.truncation_calls": c("kernels.truncation"),
        "kernels.closed_form_s": s("kernels.closed_form"),
        "kernels.closed_form_calls": c("kernels.closed_form"),
        "kernels.quadrature_build_s": s("kernels.quadrature_build"),
        "kernels.quadrature_builds": c("kernels.quadrature_build"),
        "kernels.quadrature_apply_s": s("kernels.quadrature_apply"),
        "kernels.quadrature_bytes": (cnt.get("kernels.quadrature_bytes", 0), "bytes"),
        "special_functions.gegenbauer_calls": c("special_functions.gegenbauer"),
        "special_functions.gegenbauer_s": s("special_functions.gegenbauer"),
        "special_functions.gegenbauer_sup_calls": c("special_functions.gegenbauer_sup"),
        "special_functions.theta_calls": c("special_functions.theta"),
        "special_functions.theta_s": s("special_functions.theta"),
        "fields_io.read_s": s("fields_io.read"),
        "fields_io.write_s": s("fields_io.write"),
        "fields_io.bytes_read": (cnt.get("fields_io.bytes_read", 0), "bytes"),
        "fields_io.bytes_written": (cnt.get("fields_io.bytes_written", 0), "bytes"),
        "fields_io.read_mb_per_s": rate(cnt.get("fields_io.bytes_read", 0), incl.get("fields_io.read", 0.0)),
        "fields_io.write_mb_per_s": rate(cnt.get("fields_io.bytes_written", 0), incl.get("fields_io.write", 0.0)),
        "log_radial.transform_s": s("log_radial.transform"),
        "log_radial.transform_calls": c("log_radial.transform"),
        "spherical.decompose_s": s("spherical.decompose"),
        "spherical.recompose_s": s("spherical.recompose"),
        "spherical.sectors": (cnt.get("spherical.sectors", 0), "count"),
        "spectral_calculus.apply_s": s("spectral_calculus.apply"),
        "spectral_calculus.apply_calls": c("spectral_calculus.apply"),
        "spectral_calculus.scaling_s": s("spectral_calculus.scaling"),
        "ladder.commutator_s": s("ladder.commutator"),
        "ladder.commutator_calls": c("ladder.commutator"),
    }
    for suite in SUITE_KEYS:
        out[f"verify.{suite}_s"] = s(f"verify.{suite}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["self"][layer], "s")
    out["trace.spans"] = (summary["spans"], "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.accounted_frac"] = (sum(summary["self"].values()) / wall_s if wall_s > 0 else 0.0, "ratio")
    return out
