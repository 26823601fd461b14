"""kvnlab benchmark: fixed workloads through the public ``kvnlab run`` entry point.

Run from the root of a checkout::

    python3 bench/run.py --workload evolutions --seed 0 --seconds 40 --trace 0

Workloads, metric names, units and bounds are declared in ``BENCHMARK.json``.
The loop is closed with one client.  Each run set-up is timed from the spawn
of a fresh interpreter until ``kvnlab.cli`` is imported and every config of
the workload has passed ``load_config`` and ``verify``; that is done
``SETUP_PROBES`` times plus once by the measuring interpreter, which then runs
passes over the workload's configs for ``--seconds`` and checks each output
against the acceptance tolerances (see ``workloads.py``).  ``residual_ratio``
is the largest share of a headline gate's limit used by any of its configs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of traced passes, each following an untraced pass whose
tables must match it byte for byte (see ``spans.py``).  Human-readable lines
come first; the last line of standard output is one JSON object.  The full
record, with the machine fingerprint, goes to ``.bench_out/results/`` and
the spans of a traced run to ``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, set-up included, must end well inside 180 s


def start_worker(argv: list[str], env: dict, deadline: float):
    """Spawn a worker and wait for its READY line; return (process, seconds to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0,
    )
    line = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while b"\n" not in line:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(remaining):
                break
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            line += chunk
    ready = time.perf_counter() - start
    if not line.startswith(b"READY"):
        stop(proc)
        raise RuntimeError("worker failed or timed out during set-up")
    return proc, ready


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline: float) -> None:
    try:
        rc = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker did not finish before the deadline") from None
    proc.stdout.close()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")


def tail(samples: list[float]):
    """Highest nearest-rank percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def fingerprint(workload: str, threads: int) -> dict:
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = {"Data": "d", "Instruction": "i"}.get(_read(index / "type"), "")
        caches[f"L{_read(index / 'level')}{kind}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    largest = max(workloads.largest_array_bytes(exp) for exp in workloads.WORKLOADS[workload])
    return {
        "nproc": threads,
        "cpu": cpu,
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "largest_array_bytes": largest,
    }


def run(args, run_dir: Path, deadline: float) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.write_configs(args.workload, args.seed % 2**32, run_dir)
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, KVNLAB_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    base = ["--workload", args.workload, "--dir", str(run_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(base + ["--mode", "setup"], env, deadline)
            finish(proc, deadline)
            setups.append(ready)
    result_path = run_dir / "worker_result.json"
    measure = base + [
        "--mode", "measure", "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--limit", f"{deadline - time.perf_counter() - 20.0:.1f}", "--result", str(result_path),
    ]
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        measure += ["--spans", str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    proc, ready = start_worker(measure, env, deadline)
    setups.append(ready)
    finish(proc, deadline)
    res = json.loads(result_path.read_text())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    fp = fingerprint(args.workload, threads) | res["versions"]
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac:.6g}  ({res['failed']} of {res['attempted']} runs)")
    for exp, walls in res["exp_walls"].items():
        residual = res["residuals"][exp]
        print(f"  {exp}: median {statistics.median(walls):.4f} s over {len(walls)} runs"
              + (f", residual ratio {residual:.6g}" if residual is not None else ""))
    correct = res["failed"] == 0 and res["residual_ratio"] is not None

    if args.trace:
        layers = res["layers"]
        problems = [f"count {name} differs between traced passes" for name in res["counts_differ"]]
        if res["wrappers_left"]:
            problems.append(f"{res['wrappers_left']} wrapper(s) left installed")
        for name in res["missing"]:
            print(f"note: public name {name} not found; its metrics read 0")
        for problem in problems:
            print(f"FAILED trace integrity: {problem}")
        correct = correct and not problems
        print(f"traced passes {len(res['traced_walls'])}, spans {res['spans']}, "
              f"wrappers left {res['wrappers_left']}, tables byte-identical: {not res['tables_differ']}")
        values, declared_metrics = layers, declared["per_layer"]
    else:
        walls = res["walls"]
        t = tail(walls)
        tail_text = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile has 10 samples above it"
        print(f"wall_s samples {len(walls)}; {tail_text}")
        print(f"setup_s samples {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups))
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "residual_ratio": res["residual_ratio"] or 0.0,
            "ok_frac": 1.0 - failed_frac,
        }
        declared_metrics = declared["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    full = dict(record, workload=args.workload, seed=args.seed, trace=args.trace,
                fingerprint=fp, failures=res["failures"], setup_samples=setups, worker=res)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    print(json.dumps(record))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "kvnlab" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print("bench: run from a kvnlab checkout (src/kvnlab and BENCHMARK.json)", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=2):
        print("bench: the kvnlab sources do not compile", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return run(args, run_dir, deadline)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
