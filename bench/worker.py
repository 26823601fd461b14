"""One fresh interpreter of the benchmark: set up, then run the workload.

Started by ``run.py``; not meant to be run by hand.  It imports
``kvnlab.cli``, passes every config through ``load_config`` and ``verify``,
and prints ``READY`` (the parent times spawn to ``READY`` as set-up).  In
``setup`` mode it exits there.  In ``measure`` mode it then runs passes over
the workload's configs through ``kvnlab.cli.main(["run", config])`` until
``--seconds`` have gone by, checks every output, and writes its findings as
JSON to ``--result``.  With ``--trace 1`` every traced pass follows an
untraced one, so the two can be compared byte for byte and in wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import spans
import workloads


def run_pass(cli, run_dir: Path, exps: list[str], tracer=None) -> dict:
    """Run every config once; return per-op wall times, failures and hashes."""
    ops = []
    for exp in exps:
        out_dir = run_dir / "out" / exp
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["run", str(run_dir / f"{exp}.json")]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.record("cli.run", cli.main, argv, info=exp)
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
        summary = buf.getvalue()
        written = [
            Path(line.split("wrote ", 1)[1].strip())
            for line in summary.splitlines()
            if line.strip().startswith("wrote ")
        ]
        gates = workloads.check_run(exp, rc, summary, written)
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written if p.is_file()
        }
        ops.append({
            "exp": exp, "wall": wall, "failed": gates.failed,
            "residual_ratio": gates.residual_ratio, "hashes": hashes,
        })
    return {"wall": sum(op["wall"] for op in ops), "ops": ops}


def floors() -> dict[str, float]:
    """Same-run machine floors on a 128x128 complex array, ms per call."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))

    def per_call_ms(fn, reps=50, blocks=9):
        times = []
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            times.append((time.perf_counter() - start) / reps)
        return 1e3 * statistics.median(times)

    return {
        "floor.fft_128sq_ms": per_call_ms(lambda: np.fft.fft(a, axis=0)),
        "floor.exp_128sq_ms": per_call_ms(lambda: np.exp(a)),
    }


def versions() -> dict:
    import numpy as np
    import scipy

    import kvnlab

    try:
        importlib.import_module("numpy.fft._pocketfft_umath")
        pocketfft = True
    except ImportError:
        pocketfft = False
    fft_module = np.fft.fft.__module__
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kvnlab": kvnlab.__version__,
        "fft_backend": "pocketfft" if pocketfft and fft_module.startswith("numpy") else fft_module,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "KVNLAB_THREADS": os.environ.get("KVNLAB_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def check_passes(passes: list[dict]) -> list[str]:
    """Every pass must write the same bytes as the first; return what differs."""
    first = {op["exp"]: op["hashes"] for op in passes[0]["ops"]}
    differ = []
    for k, p in enumerate(passes[1:], start=1):
        for op in p["ops"]:
            if op["hashes"] != first[op["exp"]]:
                changed = sorted(
                    name for name in set(op["hashes"]) | set(first[op["exp"]])
                    if op["hashes"].get(name) != first[op["exp"]].get(name)
                )
                op["failed"].append(f"tables.byte_identical[pass {k}: {', '.join(changed)}]")
                differ.append(f"pass {k} {op['exp']}")
    return differ


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=float, default=120.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    exps = workloads.WORKLOADS[args.workload]

    start = time.perf_counter()
    cli = importlib.import_module("kvnlab.cli")
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    for exp in exps:
        cli.verify(cli.load_config(args.dir / f"{exp}.json"))
    load_verify_s = time.perf_counter() - start
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    os.dup2(2, 1)  # nothing but the handshake goes to the parent's pipe

    tracer = spans.Tracer() if args.trace else None
    passes, traced, wrappers_left = [], [], 0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, args.dir, exps))
        if tracer is not None:
            tracer.run = len(traced)
            tracer.install()
            traced.append(run_pass(cli, args.dir, exps, tracer))
            wrappers_left += tracer.uninstall()
        elapsed = time.perf_counter() - begin
        if elapsed >= args.seconds or elapsed + (time.perf_counter() - t0) > args.limit:
            break

    differ = check_passes(passes + traced)
    all_ops = [op for p in passes + traced for op in p["ops"]]
    residuals = {op["exp"]: op["residual_ratio"] for op in passes[-1]["ops"]}
    known = [r for r in residuals.values() if r is not None]
    result = {
        "walls": [p["wall"] for p in passes],
        "exp_walls": {exp: [op["wall"] for p in passes for op in p["ops"] if op["exp"] == exp]
                      for exp in exps},
        "attempted": len(all_ops),
        "failures": [f"{op['exp']}: {f}" for op in all_ops for f in op["failed"]],
        "failed": sum(1 for op in all_ops if op["failed"]),
        "residual_ratio": max(known, default=None),
        "residuals": residuals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if tracer is not None:
        threads = int(os.environ.get("KVNLAB_THREADS", "1"))
        per_pass = [
            spans.layer_metrics([s for s in tracer.spans if s[5] == k], threads)
            for k in range(len(traced))
        ]
        layers = {
            name: per_pass[0][name] if name in spans.COUNTS
            else statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]
        }
        unsteady = [name for name in spans.COUNTS if len({m[name] for m in per_pass}) > 1]
        layers["setup.import_s"] = import_s
        layers["cli.load_verify_s"] = load_verify_s
        layers.update(floors())
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - statistics.median(result["walls"])
        )
        result.update(
            layers=layers,
            traced_walls=[p["wall"] for p in traced],
            counts_differ=unsteady,
            wrappers_left=wrappers_left,
            missing=sorted(set(tracer.missing)),
            tables_differ=differ,
            spans=len(tracer.spans),
        )
        if args.spans is not None:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
