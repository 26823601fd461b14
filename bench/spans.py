"""Span tracing by wrapping public names, and the per-layer metrics built from it.

``Tracer.install`` replaces each traced public function with a wrapper in
every loaded ``kvnlab`` module that binds it (and in its defining module),
so calls are caught where the name is looked up.  Only public names are
wrapped, so renaming a private helper does not break the trace; a public
name that no longer exists is reported in ``Tracer.missing`` and its
metrics read 0.  ``Tracer.uninstall`` puts every original back.

A span is ``(id, parent, name, start, end, run, info)``.  Spans are kept in
memory and written out when the benchmark ends.  A span opened in a pool
thread with nothing above it gets the active ``cli.run`` span as parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _fft_bytes(args, kwargs, out):
    return getattr(args[0], "nbytes", 0) + out.nbytes


def _evolve_info(args, kwargs, out):
    G = _arg(args, kwargs, 1, "G")
    if G.label == "quantum":
        kind = "quantum"
    else:
        kind = "phase_k0" if G.kappa == 0.0 else "phase_kappa"
    return [kind, int(_arg(args, kwargs, 3, "n_steps"))]


def _steps_info(args, kwargs, out):
    return int(_arg(args, kwargs, 3, "n_steps"))


def _size_of(index, name):
    def info(args, kwargs, out):
        return os.path.getsize(_arg(args, kwargs, index, name))
    return info


# (module, public name, span name, info from (args, kwargs, result))
TARGETS = [
    ("numpy.fft", "fft", "fft", _fft_bytes),
    ("numpy.fft", "ifft", "fft", _fft_bytes),
    ("kvnlab.propagation", "evolve", "propagation.evolve", _evolve_info),
    ("kvnlab.propagation", "kvn_step", "propagation.kvn_step", None),
    ("kvnlab.operators", "hamiltonian", "operators.generator", None),
    ("kvnlab.operators", "liouvillian", "operators.generator", None),
    ("kvnlab.operators", "koopman_generator", "operators.generator", None),
    ("kvnlab.operators", "unified_generator", "operators.generator", None),
    ("kvnlab.oscillator", "kvn_tdho_evolve", "oscillator.kvn_tdho_evolve", _steps_info),
    ("kvnlab.oscillator", "integrate_ermakov", "oscillator.rk4", None),
    ("kvnlab.oscillator", "solve_classical_tdho", "oscillator.rk4", None),
    ("kvnlab.analysis", "ehrenfest_residuals", "analysis.ehrenfest_residuals", None),
    ("kvnlab.analysis", "wigner_transform", "analysis.wigner_transform", None),
    ("kvnlab.analysis", "robertson_check", "analysis.robertson_check", None),
    ("kvnlab.analysis", "momentum_density", "analysis.momentum_density", None),
    ("kvnlab.kernels", "free_kvn_propagate", "kernels.free_kvn_propagate", None),
    ("kvnlab.kernels", "free_quantum_propagate", "kernels.free_quantum_propagate", None),
    ("kvnlab.kernels", "kernel_propagate", "kernels.kernel_propagate", None),
    ("kvnlab.kernels", "kernel_convolution", "kernels.kernel_convolution", None),
    ("kvnlab.doubleslit", "run_kvn", "doubleslit.run_kvn", None),
    ("kvnlab.doubleslit", "run_quantum", "doubleslit.run_quantum", None),
    ("kvnlab.gauge", "disc_ground_energy", "gauge", None),
    ("kvnlab.gauge", "kvn_radial_coeffs", "gauge", None),
    ("kvnlab.measurement", "p_a_unmeasured", "measurement", None),
    ("kvnlab.measurement", "p_a_nonselective", "measurement", None),
    ("kvnlab.measurement", "simulate_p_a_unmeasured", "measurement", None),
    ("kvnlab.measurement", "simulate_p_a_nonselective", "measurement", None),
    ("kvnlab.report", "ResultTable.write_csv", "report.csv", _size_of(1, "path")),
    ("kvnlab.report", "svg_line_plot", "report.svg", _size_of(0, "path")),
    ("kvnlab.report", "svg_heatmap", "report.svg", _size_of(0, "path")),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn, *args, info=None):
        """Call ``fn(*args)`` inside a span named ``name`` carrying ``info``."""
        return self._wrap(fn, name, lambda *_: info)(*args)

    def _wrap(self, fn, name: str, describe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            if not parent:
                tracer._root = sid
            stack.append(sid)
            out, ok = None, False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer._root == sid:
                    tracer._root = 0
                info = _describe(describe, args, kwargs, out) if ok and describe else None
                tracer.spans.append((sid, parent, name, start, end, tracer.run, info))

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, public, span_name, describe in TARGETS:
            owner_path, _, attr = public.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{public}")
                continue
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{public}")
                continue
            wrapper = self._wrap(original, span_name, describe)
            holders = [owner] if owner is not module else [module] + [
                m for n, m in list(sys.modules.items())
                if (n == "kvnlab" or n.startswith("kvnlab.")) and m is not module
            ]
            for holder in holders:
                if vars(holder).get(attr) is original:
                    setattr(holder, attr, wrapper)
                    self._patches.append((holder, attr, original))

    def uninstall(self) -> int:
        """Restore every original; return the number of wrappers still in place."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        left = sum(
            1 for holder, attr, original in self._patches if getattr(holder, attr) is not original
        )
        for name, module in list(sys.modules.items()):
            if name == "kvnlab" or name.startswith("kvnlab.") or name == "numpy.fft":
                left += sum(1 for v in vars(module).values() if hasattr(v, "__bench_wrapped__"))
        self._patches.clear()
        return left

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "run", "info")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _describe(describe, args, kwargs, out):
    try:
        return describe(args, kwargs, out)
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return None


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

EXPERIMENTS = (
    "ehrenfest", "oscillator", "doubleslit", "kernelcheck",
    "wigner", "uncertainty", "measure", "aharonov-bohm",
)

#: Metrics that are counts; they must repeat exactly between traced passes.
COUNTS = (
    "operators.generator_builds", "propagation.evolve_steps", "propagation.kvn_step_calls",
    "report.csv_bytes", "report.svg_bytes", "fft.calls", "fft.bytes_computed",
    "fft.calls_per_step.phase_k0", "fft.calls_per_step.phase_kappa",
    "fft.calls_per_step.kvn_step",
) + tuple(f"fft.calls.{exp}" for exp in EXPERIMENTS)


def layer_metrics(spans: list[tuple], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the spans of one run id)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
        named[s[2]].append(s)

    def dur(s):
        return s[4] - s[3]

    def total(name):
        return sum(dur(s) for s in named[name])

    def self_time(s):
        covered, edge = 0.0, s[3]
        for start, end in sorted((c[3], c[4]) for c in children[s[0]]):
            lo, hi = max(start, edge), min(end, s[4])
            if hi > lo:
                covered += hi - lo
            edge = max(edge, end)
        return dur(s) - covered

    def nearest(s, names):
        parent = by_id.get(s[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        return parent

    m: dict[str, float] = {}
    for exp in EXPERIMENTS:
        m[f"cli.run_s.{exp}"] = sum(dur(s) for s in named["cli.run"] if s[6] == exp)
    m["cli.self_s"] = sum(self_time(s) for s in named["cli.run"])

    m["operators.generator_builds"] = len(named["operators.generator"])
    m["operators.generator_build_s"] = total("operators.generator")

    evolves = [s for s in named["propagation.evolve"] if s[6]]
    steps, busy = defaultdict(int), defaultdict(float)
    for s in evolves:
        kind, n = s[6]
        steps[kind] += n
        busy[kind] += dur(s)
    m["propagation.evolve_steps"] = sum(steps.values())
    for kind in ("quantum", "phase_k0", "phase_kappa"):
        m[f"propagation.step_ms.{kind}"] = 1e3 * busy[kind] / steps[kind] if steps[kind] else 0.0
    kvn_steps = named["propagation.kvn_step"]
    m["propagation.kvn_step_calls"] = len(kvn_steps)
    m["propagation.kvn_step_ms"] = (
        1e3 * total("propagation.kvn_step") / len(kvn_steps) if kvn_steps else 0.0
    )
    sweep_runs = {nearest(s, {"cli.run"}) for s in evolves} - {None}
    sweep_wall = sum(dur(s) for s in sweep_runs)
    m["propagation.parallel_efficiency"] = (
        sum(busy.values()) / (sweep_wall * threads) if sweep_wall else 0.0
    )

    tdho = named["oscillator.kvn_tdho_evolve"]
    tdho_steps = sum(s[6] or 0 for s in tdho)
    m["oscillator.self_ms_per_step"] = (
        1e3 * sum(self_time(s) for s in tdho) / tdho_steps if tdho_steps else 0.0
    )
    m["oscillator.rk4_s"] = total("oscillator.rk4")

    for name in ("ehrenfest_residuals", "wigner_transform", "robertson_check", "momentum_density"):
        m[f"analysis.{name}_s"] = total(f"analysis.{name}")
    for name in ("free_kvn_propagate", "free_quantum_propagate", "kernel_propagate",
                 "kernel_convolution"):
        m[f"kernels.{name}_s"] = total(f"kernels.{name}")
    for name in ("run_kvn", "run_quantum"):
        m[f"doubleslit.{name}_self_s"] = sum(self_time(s) for s in named[f"doubleslit.{name}"])
    for layer in ("gauge", "measurement"):
        outer = [s for s in named[layer] if nearest(s, {layer}) is None]
        m[f"{layer}.busy_s"] = sum(dur(s) for s in outer)

    for kind in ("csv", "svg"):
        m[f"report.{kind}_s"] = total(f"report.{kind}")
        m[f"report.{kind}_bytes"] = sum(s[6] or 0 for s in named[f"report.{kind}"])

    ffts = named["fft"]
    m["fft.calls"] = len(ffts)
    m["fft.busy_s"] = total("fft")
    m["fft.bytes_computed"] = sum(s[6] or 0 for s in ffts)
    per_exp = defaultdict(int)
    for s in ffts:
        run = nearest(s, {"cli.run"})
        if run is not None:
            per_exp[run[6]] += 1
    for exp in EXPERIMENTS:
        m[f"fft.calls.{exp}"] = per_exp[exp]
    per_kind = defaultdict(int)
    for s in ffts:
        owner = nearest(s, {"propagation.evolve", "propagation.kvn_step"})
        if owner is None:
            continue
        per_kind[owner[6][0] if owner[2] == "propagation.evolve" and owner[6] else owner[2]] += 1
    for kind in ("phase_k0", "phase_kappa"):
        m[f"fft.calls_per_step.{kind}"] = per_kind[kind] / steps[kind] if steps[kind] else 0.0
    m["fft.calls_per_step.kvn_step"] = (
        per_kind["propagation.kvn_step"] / len(kvn_steps) if kvn_steps else 0.0
    )
    return m
