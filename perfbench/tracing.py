"""Per-layer tracing of the tamagawa package, applied from outside it.

`install()` wraps the public functions named in LAYERS by rebinding every
attribute of every tamagawa module (and every module-level dict value, which
catches the CLI's identity -> runner table) that refers to the same function
object.  Each wrapped call records a span: name, start, end, parent span and
counters taken from its arguments and return value.  Spans stay in memory;
the traced child writes them out when it exits.

`aggregate()` turns the spans of one pass into the per-layer metrics.
Nothing here is imported by the package itself.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time


def _c_gamma_counts(args, kwargs, result, exc):
    trace = result.trace if exc is None else getattr(exc, "trace", ())
    torus = args[0] if args else kwargs["torus"]
    return {"rounds": len(trace)}, {"torus": torus.label}


def _row_lattice_counts(args, kwargs, result, exc):
    m = args[0] if args else kwargs["m"]
    return {"rows": m.rows}, {}


def _count_points_counts(args, kwargs, result, exc):
    names = ("model", "p", "k")
    vals = dict(zip(names, args))
    vals.update({k: v for k, v in kwargs.items() if k in names})
    model, p, k = vals["model"], vals["p"], vals["k"]
    # computed from the arguments, not counted during enumeration
    return {"points": p ** (k * model.nvars)}, {}


def _bad_density_counts(args, kwargs, result, exc):
    trace = result.trace if exc is None else getattr(exc, "trace", ())
    stuck = exc is not None and type(exc).__name__ == "NotStabilizedError"
    return {"levels": len(trace), "inconclusive": int(stuck)}, {}


def _arch_volume_counts(args, kwargs, result, exc):
    return {"evaluations": 0 if exc is not None else result.evaluations}, {}


def _render_counts(args, kwargs, result, exc):
    return {"bytes": 0 if exc is not None else len(result.encode())}, {}


# "<module>.<function>" -> (stats reported, counter hook or None).
# Stats are busy_s, self_s, calls, derived ratios, or a counter's name.
LAYERS = {
    "globalasm.c_gamma": (("calls", "busy_s", "self_s", "calls_per_torus", "rounds"),
                          _c_gamma_counts),
    "exactcore.row_lattice_index": (("calls", "busy_s", "rows"), _row_lattice_counts),
    "models.count_points_mod": (("calls", "busy_s", "points", "points_per_s"),
                                _count_points_counts),
    "localmeasure.bad_prime_density": (("busy_s", "levels", "inconclusive"),
                                       _bad_density_counts),
    "localmeasure.cross_validate_density": (("busy_s",), None),
    "globalasm.l_value": (("busy_s",), None),
    "exactcore.primes_up_to": (("busy_s",), None),
    "globalasm.archimedean_volume": (("busy_s", "evaluations"), _arch_volume_counts),
    "galois.euler_factor_at_one": (("calls", "busy_s"), None),
    "galois.point_count_Fp": (("calls", "busy_s"), None),
    "exactcore.charpoly": (("calls", "busy_s"), None),
    "report.render_report": (("busy_s", "bytes"), _render_counts),
    "cohomology.cohomology": (("busy_s",), None),
    "cohomology.h0_torsion_dual": (("busy_s",), None),
    "cohomology.sha_order": (("busy_s",), None),
    "cohomology.ono_constant": (("busy_s",), None),
    "quadfield.class_group": (("busy_s",), None),
    "quadfield.norm_one_unit": (("busy_s",), None),
    "cli.run_euler": (("busy_s",), None),
    "cli.run_lifting": (("busy_s",), None),
    "cli.run_globalinv": (("busy_s",), None),
    "cli.run_density": (("busy_s",), None),
    "cli.run_sha": (("busy_s",), None),
    "cli.run_tnc": (("busy_s",), None),
}

OVERHEAD_METRIC = "trace.overhead_ratio"

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "calls_per_torus": "ratio",
          "points": "count_computed", "points_per_s": "1/s", "bytes": "bytes"}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in LAYERS order."""
    out = {}
    for name, (stats, _) in LAYERS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = _UNITS.get(stat, "count")
    out[OVERHEAD_METRIC] = "ratio"
    return out


def package_modules() -> dict:
    """Import and return every module of the tamagawa package by short name.

    `__main__` is skipped: importing it runs the CLI on this process's argv.
    """
    pkg = importlib.import_module("tamagawa")
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":
            continue
        mods[info.name] = importlib.import_module(f"tamagawa.{info.name}")
    return mods


class Tracer:
    """Collects spans from the wrapped layer functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = {"id": sid, "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name}
            tracer.spans.append(span)
            tracer._stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span["end"] = time.perf_counter()
                span["start"] = start
                tracer._stack.pop()
                if hook is not None:
                    counts, attrs = hook(args, kwargs, result, exc)
                    span["counts"] = counts
                    span.update(attrs)

        return wrapper

    def install(self) -> dict:
        """Wrap every layer function everywhere the package refers to it.
        Returns the wrappers by layer name."""
        mods = package_modules()
        wrappers = {}
        for name, (_, hook) in LAYERS.items():
            mod_name, fn_name = name.split(".")
            fn = getattr(mods[mod_name], fn_name)
            wrapper = wrappers[name] = self._wrap(name, fn, hook)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is fn:
                                value[key] = wrapper
        return wrappers


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo = max(lo, reach)
            hi = min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def aggregate(span_lists) -> dict:
    """Per-layer metrics of one pass, from the span list of each invocation."""
    calls = {name: 0 for name in LAYERS}
    busy = {name: 0.0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    counts = {name: {} for name in LAYERS}
    tori = set()
    for inv, spans in enumerate(span_lists):
        by_id = {s["id"]: s for s in spans}
        own = self_times(spans)
        for s in spans:
            name = s["name"]
            calls[name] += 1
            self_s[name] += own[s["id"]]
            anc = s["parent"]
            while anc is not None and by_id[anc]["name"] != name:
                anc = by_id[anc]["parent"]
            if anc is None:  # outermost call of this function: count its time once
                busy[name] += s["end"] - s["start"]
            for key, val in s.get("counts", {}).items():
                counts[name][key] = counts[name].get(key, 0) + val
            if "torus" in s:
                tori.add((inv, s["torus"]))
    out = {}
    for name, (stats, _) in LAYERS.items():
        for stat in stats:
            if stat == "calls":
                val = calls[name]
            elif stat == "busy_s":
                val = busy[name]
            elif stat == "self_s":
                val = self_s[name]
            elif stat == "calls_per_torus":
                val = calls[name] / len(tori) if tori else 0.0
            elif stat == "points_per_s":
                pts = counts[name].get("points", 0)
                val = pts / busy[name] if busy[name] > 0 else 0.0
            else:
                val = counts[name].get(stat, 0)
            out[f"{name}.{stat}"] = val
    return out
