"""fciplus benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sparse_exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
The package is imported from ./src, and BLAS/OpenMP are pinned to one
thread so that Fisher z answers repeat exactly. With --trace 0 the result
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run, whose spans are written to perfbench/out/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse_exact", "deep_links", "gauss_sample", "generate")


def import_package():
    """Import fciplus from ./src and nowhere else."""
    src = ROOT / "src"
    if not (src / "fciplus" / "__init__.py").is_file():
        sys.exit("perfbench: no fciplus sources under %s" % src)
    sys.path[:0] = [str(src), str(HERE)]
    import fciplus
    if pathlib.Path(fciplus.__file__).resolve().parent != src / "fciplus":
        sys.exit("perfbench: fciplus imported from %s, not from %s"
                 % (fciplus.__file__, src))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_package()
    import workloads

    if args.trace:
        out = HERE / "out" / ("trace-%s-%d.json" % (args.workload, args.seed))
        loop, metrics = workloads.per_layer(args.workload, args.seed,
                                            args.seconds, out)
    else:
        loop, metrics = workloads.end_to_end(args.workload, args.seed,
                                             args.seconds)
    for name, (value, unit) in metrics.items():
        print("%-30s %16.6f %s" % (name, value, unit))
    print("attempted %d, failed %d, passes %d, sample-data runs ended by "
          "ModelViolationError %d"
          % (loop.attempted, loop.failed, loop.passes, loop.violations))
    kernel = loop.clock.samples
    print("reference kernel: median %.4f ms over %d timings; times above are "
          "scaled to %.4f ms" % (1000 * statistics.median(kernel), len(kernel),
                                 1000 * loop.clock.ref_s))
    if loop.first_problem:
        print("first failure: %s" % loop.first_problem, file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed < loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
