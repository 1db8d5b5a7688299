"""One benchmark process: set up a workload, run timed passes, check them.

Started by ``run.py`` as a fresh interpreter per run.  The BLAS thread count
is fixed through the environment before numpy is first imported.  The worker
prints ``READY`` once its imports and inputs are done, then (unless
``--setup-only``) runs passes until ``--seconds`` have elapsed and prints one
JSON line with the raw per-pass results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--blas-threads", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _timed(run, inputs):
    t0 = time.perf_counter()
    outcome = run(inputs)
    return time.perf_counter() - t0, outcome


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # noqa: E402  (imports numpy and ssflab)
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []  # (traced, wall_s, outcome, layer metrics or None)
    if args.trace:
        # checked but not timed: keeps first-pass costs out of trace.overhead_frac
        passes.append((False, None, workload.run(inputs), None))
    start = time.perf_counter()
    while True:
        passes.append((False, *_timed(workload.run, inputs), None))
        if args.trace:
            with Tracer() as tracer:
                wall, outcome = _timed(workload.run, inputs)
            passes.append((True, wall, outcome, tracer.metrics(wall, workload.jobs)))
        if time.perf_counter() - start >= args.seconds:
            break

    reference = passes[0][2]
    failures = []
    attempted = 0
    for traced, _, outcome, _ in passes:
        attempted += outcome.ops
        failures.extend(outcome.failures)
        if outcome.digest != reference.digest:
            failures.append(
                f"{'traced ' if traced else ''}pass digest {outcome.digest} "
                f"differs from the first pass's {reference.digest}"
            )
    if workload.cross_check is not None:
        attempted += 1
        other = workload.run(workload.cross_check(args.seed))
        if other.digest != reference.digest:
            failures.append(
                f"cross-check digest {other.digest} differs from {reference.digest}"
            )

    untraced = [wall for traced, wall, _, _ in passes if not traced and wall is not None]
    result = {
        "walls": untraced,
        "ops": reference.ops,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "headroom": reference.headroom,
        "digest": reference.digest,
        "blas_threads": args.blas_threads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.trace:
        samples = [layers for traced, _, _, layers in passes if traced]
        traced_walls = [wall for traced, wall, _, _ in passes if traced]
        layers = {
            key: [statistics.median(s[key][0] for s in samples), unit]
            for key, (_, unit) in samples[0].items()
        }
        # counts are exact: take them from the first traced pass, not a median
        for key, (value, unit) in samples[0].items():
            if unit in ("count", "bytes"):
                layers[key][0] = value
        layers["trace.overhead_frac"] = [
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0,
            "ratio",
        ]
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
