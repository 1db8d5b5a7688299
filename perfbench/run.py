"""ssflab benchmark: one command, four workloads, end-to-end or traced metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all_serial --seed 1 --seconds 15 --trace 0

Every run starts fresh interpreters (see ``worker.py``): one that sets up and
then repeats the workload's pass for ``--seconds``, and, without tracing,
eight before and eight after it that only set up, to time set-up.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics from the outside-in tracer
(``tracer.py``).  Lines before it name every metric with its unit, the
payload digest next to the BLAS thread count, and the versions in use.

The program under test is ``src/ssflab`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: set-up-only workers started before and after the measuring one; the
#: median of their set-up times and the measuring worker's is ``setup_s``.
#: Spreading the samples over the run averages out slow drift of the machine.
SETUP_SAMPLES_EACH_SIDE = 8
#: seconds from the start of a run after which a worker still running is killed
WORKER_TIMEOUT_S = 170.0


#: workload -> BLAS threads of its worker, capped at the CPUs available
BLAS_THREADS = {
    "all_serial": 1,
    "all_parallel": 1,
    "det_route": 1,
    "lattice_refinement": 2,
}


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _parse(argv):
    p = argparse.ArgumentParser(description="ssflab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker_cmd(args, blas_threads: int, setup_only: bool) -> list:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--blas-threads", str(blas_threads),
        "--trace", str(args.trace),
    ]
    return cmd + (["--setup-only"] if setup_only else [])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_worker(cmd: list, deadline: float):
    """Start a worker; return (seconds from start to READY, last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True
    )
    # kills a worker that hangs before or after READY; a killed worker fails below
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else "")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "ssflab" / "__init__.py").is_file():
        print(f"perfbench: program not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    blas_threads = min(BLAS_THREADS[args.workload], _cpus())

    def setup_only() -> list:
        cmd = _worker_cmd(args, blas_threads, True)
        samples = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
        return [_run_worker(cmd, deadline)[0] for _ in range(samples)]

    setup = setup_only()
    ready_s, last_line = _run_worker(_worker_cmd(args, blas_threads, False), deadline)
    setup += [ready_s] + setup_only()
    raw = json.loads(last_line)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(raw["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "ops": {"value": raw["ops"], "unit": "count"},
            "headroom_decades": {"value": raw["headroom"], "unit": "decades"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(
        f"digest sha256={raw['digest']} blas_threads={raw['blas_threads']} "
        f"seed={args.seed} workload={args.workload}"
    )
    print("pass walls_s " + " ".join(f"{w:.4f}" for w in raw["walls"]))
    print("context " + json.dumps({**raw["versions"], "nproc": _cpus()}, sort_keys=True))
    for line in raw["failures"]:
        print(f"FAILED {line}")
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
