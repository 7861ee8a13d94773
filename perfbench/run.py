#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload pretrain|tokenize|evaluate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Set-up (corpus synthesis, mel stats, seed checkpoints)
runs once; then whole rounds of the workload repeat until ``--seconds`` have
passed. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys
import time
from pathlib import Path

START = time.perf_counter()
# BLAS threads are pinned before numpy is first imported; one thread keeps
# the figures steady on a shared machine and matches the sizing in README.md.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    it can be read, else since this module began executing."""
    try:
        start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - START


def git_rev() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["pretrain", "tokenize", "evaluate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "audiomlm" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'audiomlm'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import itertools
    import json
    import platform
    import resource
    import shutil
    import tempfile
    import traceback

    import numpy as np

    import metrics
    from tracing import StageHooks, Tracer
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench"
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir / "work"))
    try:
        workload = WORKLOADS[args.workload]()
        # calibrated timings only matter to the end-to-end metrics of untraced runs
        workload.calibrated = not args.trace
        workload.hooks = StageHooks(calibrated=not args.trace)
        tracer = Tracer() if args.trace else None
        workload.setup(work, args.seed)
        setup_s = process_age()

        rounds, problems, errors = [], [], []
        attempted = failed = 0
        began = time.perf_counter()
        for attempt in itertools.count():
            # a traced run alternates untraced and traced rounds, so the
            # untraced ones measure the tracing overhead in the same process
            traced = tracer is not None and attempt % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
                before = (tracer.values["tokenized_patches"], tracer.values["training_steps"])
            attempted += workload.ops_per_round
            try:
                stats = workload.run_round()
            except Exception:
                failed += workload.ops_per_round
                errors.append(traceback.format_exc())
                stats = None
            if tracer is not None:
                tracer.enabled = False
            if stats is not None:
                stats["traced"] = traced
                rounds.append(stats)
                if traced:
                    workload.outside_patches = int(tracer.values["tokenized_patches"] - before[0])
                    workload.outside_steps = int(tracer.values["training_steps"] - before[1])
                problems += workload.check(tracer if traced else None)
            if time.perf_counter() - began >= args.seconds and (tracer is None or attempt >= 1):
                break
        for message in errors + problems:
            print(message.rstrip(), file=sys.stderr)
        if not rounds:
            print("no round of the workload completed; no result", file=sys.stderr)
            return 1

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            values = metrics.end_to_end(rounds, setup_s, peak_rss_mb)
        else:
            values = metrics.per_layer(tracer, rounds, workload)
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            blas = "unknown"
        env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "rounds": len(rounds), "slowdown": [[round(f, 3) for f in r["slowdowns"]] for r in rounds],
               "blas_threads": BLAS_THREADS, "machine": platform.machine(),
               "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
               "blas": blas, "git_rev": git_rev()}
        result = {"correct": not problems,
                  "attempted": attempted, "failed": failed, "metrics": values}
        (out_dir / "results").mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
            json.dumps({"env": env, **result}, indent=1))
        print(json.dumps({"env": env}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
