#!/usr/bin/env python3
"""Memory check of the codebook kernels at base widths (p = 768, K = 1024).

Runs ``quantize_batch`` on one 20 s clip (992 patches), then ``kmeans_init`` on
65 536 samples with ``max_iters=1``, and prints after each call its wall time
and the process's peak RSS so far (``ru_maxrss``). Exits 1 when the peak
exceeds the limit (default 1024 MB).

    PYTHONPATH=src python scripts/codebook_memory.py [--limit-mb 1024]
"""

import argparse
import resource
import sys
import time

import numpy as np

from audiomlm.codebook import Codebook, kmeans_init, quantize_batch

WIDTH, CODEWORDS = 768, 1024
CLIP_PATCHES = 992  # a 20 s clip: 62 time patches x 16 frequency patches
KMEANS_SAMPLES = 65_536


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit-mb", type=float, default=1024.0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    cb = Codebook.from_codewords(rng.standard_normal((CODEWORDS, WIDTH)), decay=1.0)
    calls = [
        (f"quantize_batch({CLIP_PATCHES} x {WIDTH}, K={CODEWORDS})",
         lambda: quantize_batch(rng.standard_normal((CLIP_PATCHES, WIDTH)).astype(np.float32), cb)),
        (f"kmeans_init({KMEANS_SAMPLES} x {WIDTH}, K={CODEWORDS}, max_iters=1)",
         lambda: kmeans_init(rng.standard_normal((KMEANS_SAMPLES, WIDTH)), CODEWORDS, rng, max_iters=1)),
    ]
    for name, call in calls:
        start = time.perf_counter()
        call()
        wall_s = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name}: {wall_s:.2f} s, peak RSS {peak_mb:.0f} MB", flush=True)
    if peak_mb > args.limit_mb:
        print(f"peak RSS above {args.limit_mb:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
