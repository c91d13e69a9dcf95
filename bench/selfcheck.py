"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload for one round at a tiny size, untraced and traced,
and feeds every correctness check a good and a corrupted value: each
must pass on the first and fail on the second (the failures of the
corrupted cases are printed on standard error as they happen).  Exits 0
when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from prodrank import autodiff, embeddings, models  # noqa: E402
from prodrank.evaluation import ErrorRateReport  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def expect(problems: list, label: str, good, bad) -> None:
    """``good`` must pass (None) and ``bad`` must fail (a message)."""
    if good is not None:
        problems.append(f"{label}: failed on a good value: {good}")
    if bad is None:
        problems.append(f"{label}: passed on a corrupted value")


def check_checks(work: str) -> list[str]:
    p: list[str] = []
    expect(p, "equal rate", checks.check_equal_rate("r", 0.25, 1, 4),
           checks.check_equal_rate("r", 0.25, 2, 4))
    expect(p, "printed rate", checks.check_printed_rate("r", "0.2500", 1, 4),
           checks.check_printed_rate("r", "0.2600", 1, 4))
    # a NaN score and a tie are errors; a <= test would count neither
    rel, irr = [np.nan, 1.0, 3.0], [0.0, 1.0, 2.0]
    expect(p, "pairwise errors", checks.check_pairwise_errors("e", 2, rel, irr),
           checks.check_pairwise_errors("e", 0, rel, irr))
    expect(p, "top-1", checks.check_top1("t", 1, [0.1, 0.5, 0.3]),
           checks.check_top1("t", 2, [0.1, 0.5, 0.3]))
    splits = {"train": [("a", "s1", "s2")], "val": [("b", "s1", "s2")], "test": [("c", "s1", "s2")]}
    leaked = dict(splits, test=[("a", "s1", "s2")])
    expect(p, "disjoint", checks.check_disjoint("d", splits), checks.check_disjoint("d", leaked))
    expect(p, "beats", checks.check_beats("b", 0.1, 0.2), checks.check_beats("b", 0.2, 0.2))
    expect(p, "finite", checks.check_finite("f", [1.0, 2.0]),
           checks.check_finite("f", [1.0, float("inf")]))
    expect(p, "finite (empty)", None, checks.check_finite("f", []))
    expect(p, "same", checks.check_same("s", {"a": 1}, {"a": 1}),
           checks.check_same("s", {"a": 1}, {"a": 2}))

    # tf-idf: the first triple is ordered right, the second wrong
    docs = {"s1": ["red", "chair", "red"], "s2": ["blue", "table"], "s3": ["red", "lamp"]}
    errs = checks.tfidf_errors(docs, [("red chair", "s1", "s2"), ("blue", "s3", "s2")], str.split)
    expect(p, "tf-idf errors", checks.check_equal_rate("t", 0.5, errs, 2),
           checks.check_equal_rate("t", 0.0, errs, 2))

    # kernel pooling: the plain-loop oracle against a checkpointed scorer,
    # then against the same checkpoint with a corrupted head weight
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    table = embeddings.unit_normalize(
        embeddings.EmbeddingTable(vocab, rng.standard_normal((12, 8))))
    scorer = models.make_scorer("kernel_pooling", table=table, n_q=4, n_d=6)
    scorer.w.data[:] = 0.05 * rng.standard_normal(scorer.w.data.shape)
    ckpt = os.path.join(work, "kp.ckpt")
    models.save_scorer(scorer, ckpt)
    descriptor, tensors = autodiff.load_checkpoint(ckpt)
    q, d = ["w1", "w3", "zz"], ["w3", "w5", "w1", "w7", "w9", "w2", "w4", "w3"]
    program = [scorer.score(q, d)]
    oracle = [checks.kernel_pooling_score(descriptor, tensors, vocab, q, d)]
    tensors["head_w"] = tensors["head_w"] * 1.01
    corrupted = [checks.kernel_pooling_score(descriptor, tensors, vocab, q, d)]
    expect(p, "kernel pooling oracle", checks.check_close("k", program, oracle),
           checks.check_close("k", program, corrupted))

    # gradients: the harness's own central differences against backward,
    # then against a backward result off by 1%
    for arch in workloads.ARCHS:
        report = workloads.Report()
        s = models.make_scorer(arch, table=table, n_d=6, seed=3)
        workloads.gradient_checks(report, "selfcheck", s, ("w1 w3", "r", "i"),
                                  {"r": d}, seed=0)
        expect(p, f"{arch} gradients", report.problems[0] if report.problems else None,
               checks.check_gradients("g", [1.0, 2.0], [1.0, 2.02]))

    # a run_eval result whose baseline rate or error count was altered
    triples = [("w1", "a", "b"), ("w2", "b", "a")]
    doc_map = {"a": ["w1", "w2"], "b": ["w3", "w2"]}
    errors = sum(not (scorer.score([q], doc_map[r]) > scorer.score([q], doc_map[i]))
                 for q, r, i in triples)
    tfidf = checks.tfidf_errors(doc_map, triples, str.split)
    wrong = (tfidf + 1) % 3
    good = {"baseline": ErrorRateReport(tfidf, 2, tfidf / 2, tfidf / 2, 100.0),
            "model": ErrorRateReport(errors, 2, errors / 2, tfidf / 2, 0.0)}
    cases = {"good": good,
             "baseline": dict(good, baseline=ErrorRateReport(wrong, 2, wrong / 2, 0.0, 100.0)),
             "model": dict(good, model=ErrorRateReport(errors ^ 1, 2, 0.0, 0.0, 0.0))}
    for label, result in cases.items():
        report = workloads.Report()
        workloads.eval_checks(report, "selfcheck", result, scorer, triples, doc_map, tfidf)
        if (label == "good") == bool(report.problems):
            p.append(f"eval checks: {label} result {'failed' if report.problems else 'passed'}")
    return p


def check_runs(work: str) -> list[str]:
    p: list[str] = []
    with open(BENCHMARK, encoding="utf-8") as f:
        spec = json.load(f)
    for workload in workloads.CLASSES:
        for traced in (False, True):
            wdir = os.path.join(work, f"{workload}-{int(traced)}")
            os.makedirs(wdir)
            t0 = time.perf_counter()
            result, _ = workloads.run(workload, 3, 0, traced, wdir,
                                   os.path.join(work, f"{workload}.npz"), time.perf_counter(),
                                   size=workloads.TINY)
            names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            label = f"{workload} {'traced' if traced else 'untraced'}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                p.append(f"{label}: correct={result['correct']} "
                         f"failed={result['failed']}/{result['attempted']}")
            if sorted(result["metrics"]) != sorted(names):
                p.append(f"{label}: metrics {sorted(set(result['metrics']) ^ set(names))} "
                         f"differ from BENCHMARK.json")
            if not traced and not all(m["value"] > 0 for m in result["metrics"].values()):
                p.append(f"{label}: an end-to-end metric is not positive")
            print(f"  {label}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return p


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_out", "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        problems = check_checks(work) + check_runs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
