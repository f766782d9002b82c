"""Reference figures for perfbench/README.md: query counts of fciplus
against the fci reference per motif count on deep_links, and
marks_correct of pc, fci and fciplus on gauss_sample.

    python3 perfbench/reference.py --seeds 1,2,3

Counts only; they repeat exactly for a given seed.
"""

import argparse

import run  # pins BLAS/OpenMP threads before numpy is imported

run.import_package()

from fciplus import (DsepOracle, GaussOracle, ModelViolationError,  # noqa: E402
                     run_pipeline)

import inputs  # noqa: E402
from workloads import (ALGO_STAGES, ALPHA, K, _reference_edges,  # noqa: E402
                       marks_correct)


def deep_links_queries(seeds):
    print("deep_links: algorithm queries per instance, checks off")
    print("%7s %5s %10s %10s" % ("motifs", "n", "fciplus", "fci"))
    for m in (4, 5, 6, 7, 8):
        plus = ref = 0
        for seed in seeds:
            dag = inputs.deep_links(seed, motif_counts=(m,))[0].dag()
            r = run_pipeline("fciplus", DsepOracle(dag), k=K, with_checks=False)
            plus += sum(r.stats[s]["queries"] for s in ALGO_STAGES)
            r = run_pipeline("fci", DsepOracle(dag), k=K, with_checks=False)
            ref += r.stats["pc_search"]["queries"] + r.stats["reference"]["queries"]
        print("%7d %5d %10.0f %10.0f" % (m, 5 * m, plus / len(seeds),
                                         ref / len(seeds)))


def gauss_marks(seeds):
    print("gauss_sample: marks_correct per pass (96 instances), alpha %g" % ALPHA)
    print("(a run ended by ModelViolationError scores 0; raised runs in brackets)")
    print("%5s %12s %12s %12s %11s" % ("seed", "pc", "fci", "fciplus",
                                       "true marks"))
    for seed in seeds:
        score = {"pc": [0, 0], "fci": [0, 0], "fciplus": [0, 0]}
        total = 0
        for inst, data in inputs.gauss_sample(seed):
            truth = _reference_edges(inst.dag())
            total += 2 * len(truth)
            for alg, sc in score.items():
                try:
                    pag = run_pipeline(alg, GaussOracle(data, alpha=ALPHA), k=K).pag
                except ModelViolationError:
                    sc[1] += 1
                    continue
                sc[0] += marks_correct(pag.edges(), truth)
        print("%5d %12s %12s %12s %11d" % (
            seed, *("%d [%d]" % tuple(score[a]) for a in score), total))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1,2,3")
    seeds = [int(s) for s in ap.parse_args().seeds.split(",")]
    deep_links_queries(seeds)
    gauss_marks(seeds)


if __name__ == "__main__":
    main()
