"""The benchmark's workloads: set-up, timed rounds, probes and checks.

``study``  runs ``prodrank benchmark`` in-process through ``cli.main``.
``rank``   evaluates four checkpoints and ranks the whole catalog for
           held-out queries, forward only.

Every workload runs in one process with one closed-loop caller: a round
starts when the previous one has ended, and rounds repeat until the run
length is spent.  A round repeats the same operations on the same inputs,
so its outputs must repeat exactly.

Each round is the workload's own operations, then small probes of the
stages those operations do not run, so that every run reports every
end-to-end metric.  The probes are interleaved with the rounds rather
than run once, because the host's speed drifts over seconds and each rate
should average over the same stretch of the run.  ``wall_s`` covers the
workload's own operations only; the per-layer metrics cover a round and
its probes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import tracing

from prodrank import autodiff, cli, embeddings, models, pipeline, text
from prodrank.config import RunConfig

ARCHS = tracing.ARCHS
LOCAL = ("kernel_pooling", "hybrid_local")
DISTRIBUTED = ("siamese", "dssm_like")
NORMALIZE = text.normalize


@dataclass(frozen=True)
class Size:
    users: int            # simulated users
    catalog: int          # SKUs
    study_epochs: int     # training epochs per study variant
    train: int            # fixed split of the rank workload
    val: int
    test: int
    train_epochs: int     # epochs per architecture in rank's set-up
    queries: int          # held-out queries ranked by the distributed models
    local_queries: int    # the first of them, ranked by the local models
    passes: int           # passes of the distributed models over their queries
    probe_users: int      # simulation, mining and skip-gram probe
    probe_catalog: int
    probe_repeats: int    # calls of run_simulate and run_extract per probe
    probe_train: int      # training probe of rank
    probe_val: int
    probe_queries: int    # ranking probe of study


FULL = Size(users=1500, catalog=400, study_epochs=1, train=600, val=80, test=120,
            train_epochs=1, queries=48, local_queries=24, passes=8,
            probe_users=200, probe_catalog=100, probe_repeats=3,
            probe_train=120, probe_val=20, probe_queries=8)
TINY = Size(users=300, catalog=120, study_epochs=1, train=60, val=15, test=15,
            train_epochs=1, queries=4, local_queries=2, passes=1,
            probe_users=100, probe_catalog=60, probe_repeats=1,
            probe_train=10, probe_val=5, probe_queries=1)

# Program settings shared by every workload; the rest are the defaults.
BASE_SETTINGS = {"sg_epochs": 1, "batch_size": 128}
# A wider validation and test window than the default leaves enough
# held-out triples on every seed for the fixed split.
FIXTURE_SETTINGS = {"train_cut": 0.55, "val_cut": 0.75}


def now() -> float:
    return time.perf_counter()


class Report:
    """Operations attempted and failed, and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, fn, *args, **kwargs):
        """One operation against the program; a raised error counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, message: str | None) -> None:
        if message is not None:
            self.problems.append(message)
            print(f"check failed: {message}", file=sys.stderr)


# The stage entry points behind the end-to-end rates.  For each, the key
# of a call's inputs (calls with the same key do the same work) and what
# the call's work is read from (its arguments and result); the work is
# counted after the run, so that reading files does not fall inside a
# timed round.
STAGES = {
    "run_simulate": lambda args, result: (repr(args[0]), result["sessions"]),  # the config
    "run_extract": lambda args, result: (args[1], args[1]),         # the click log
    "run_pretrain": lambda args, result: (args[1], args[1]),        # the catalog
    "run_train": lambda args, result: (args[5],                     # the checkpoint
                                       (args[1], len(result.reports) - 1)),
    "pairwise_error_rate": lambda args, result: (
        (args[0].architecture, len(args[1]), str(args[1][0])), 2 * result.total),
}


def stage_clock() -> tuple[tracing.Tracer, list]:
    """A tracer on the stage entry points of ``prodrank.pipeline`` alone:
    the only instrumentation of an untraced run, a handful of calls per
    round.  Calls made in the timed rounds are kept as (stage, key,
    seconds, info)."""
    clock, calls = tracing.Tracer(), []
    for stage, read in STAGES.items():
        def record(t, args, kwargs, result, seconds, stage=stage, read=read):
            if t.run_id >= 0:
                key, info = read(args, result)
                calls.append((stage, key, seconds, info))
        clock.wrap(pipeline, stage, f"pipeline.{stage}", record)
    return clock, calls


def _lines(path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def corpus_tokens(catalog_path) -> int:
    return sum(len(tokens) for tokens in doc_tokens(catalog_path).values())


def stage_rates(calls: list, sg_epochs: int) -> dict[str, float]:
    """Work per second of each stage: the work of all its calls in the
    timed rounds over their seconds, with each call's seconds replaced by
    the median over the calls with the same inputs.  A burst of host load
    slows the calls it overlaps, not their median."""
    lines = functools.lru_cache(maxsize=None)(_lines)
    tokens = functools.lru_cache(maxsize=None)(corpus_tokens)
    work = {
        # metric: (stage, work units of one call from its recorded info)
        "simulate_sessions_per_s": ("run_simulate", lambda sessions: sessions),
        "extract_requests_per_s": ("run_extract", lines),
        "pretrain_tokens_per_s": ("run_pretrain", lambda catalog: sg_epochs * tokens(catalog)),
        "train_triples_per_s": ("run_train", lambda info: info[1] * lines(info[0])),
        "eval_pairs_per_s": ("pairwise_error_rate", lambda pairs: pairs),
    }
    groups: dict[tuple, tuple[list, object]] = {}
    for stage, key, seconds, info in calls:
        groups.setdefault((stage, key), ([], info))[0].append(seconds)
    rates = {}
    for metric, (stage, units) in work.items():
        done = [(len(secs), units(info), statistics.median(secs))
                for (s, _), (secs, info) in groups.items() if s == stage]
        rates[metric] = sum(n * u for n, u, _ in done) / sum(n * m for n, _, m in done)
    return rates


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def write_config(path, seed: int, users: int, catalog: int, extra: dict) -> None:
    settings = {"seed": seed, "users": users, "catalog_size": catalog,
                **BASE_SETTINGS, **extra}
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{k} = {v}\n" for k, v in settings.items())


def _sample_lines(src, dst, k: int, rng: np.random.Generator) -> None:
    with open(src, encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    if len(lines) < k:
        raise RuntimeError(f"{os.path.basename(src)} holds {len(lines)} triples, "
                           f"the fixed split needs {k}")
    keep = np.sort(rng.choice(len(lines), size=k, replace=False))
    with open(dst, "w", encoding="utf-8") as f:
        f.writelines(lines[i] for i in keep)


def doc_tokens(catalog_path) -> dict[str, list[str]]:
    """Each SKU's tokens, made by ``normalize`` as bound before a traced
    run wraps it, so the harness's own tokenising is not counted as the
    program's."""
    return {sku: NORMALIZE(doc) for sku, doc in checks.read_catalog_text(catalog_path).items()}


class Fixture:
    """Catalog, pretrained vectors and a fixed-size split, made by the
    program's own stages for the rank workload."""

    def __init__(self, work: str, seed: int, size: Size):
        p = lambda name: os.path.join(work, name)
        self.config_path = p("config.txt")
        write_config(self.config_path, seed, size.users, size.catalog,
                     {**FIXTURE_SETTINGS, "max_epochs": size.train_epochs})
        self.cfg = RunConfig.load(self.config_path)
        self.catalog, self.vectors, self.log = p("catalog.jsonl"), p("vectors.txt"), p("log.jsonl")
        pipeline.run_simulate(self.cfg, self.log, self.catalog, p("truth.tsv"))
        pipeline.run_extract(self.cfg, self.log, p("triples.tsv"), split_dir=work)
        pipeline.run_pretrain(self.cfg, self.catalog, self.vectors)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF1C)))
        self.train, self.val, self.test = (p("fixed_train.tsv"), p("fixed_val.tsv"),
                                           p("fixed_test.tsv"))
        for src, dst, k in (("triples_train.tsv", self.train, size.train),
                            ("triples_val.tsv", self.val, size.val),
                            ("triples_test.tsv", self.test, size.test)):
            _sample_lines(p(src), dst, k, rng)
        held_out = sorted({q for part in ("val", "test")
                           for q, _, _ in checks.read_triples(p(f"triples_{part}.tsv"))})
        if len(held_out) < size.queries:
            raise RuntimeError(f"validation and test windows hold {len(held_out)} distinct "
                               f"queries, ranking needs {size.queries}")
        self.queries = [held_out[i] for i in
                        np.sort(rng.choice(len(held_out), size=size.queries, replace=False))]
        self.ckpt = {arch: p(f"{arch}.ckpt") for arch in ARCHS}
        self.docs = doc_tokens(self.catalog)
        self.skus = sorted(self.docs)

    def arch_config(self, arch: str) -> RunConfig:
        return RunConfig.load(self.config_path, (f"architecture={arch}",))

    def splits(self) -> dict[str, list]:
        return {"train": checks.read_triples(self.train), "val": checks.read_triples(self.val),
                "test": checks.read_triples(self.test)}


# ---------------------------------------------------------------------------
# Ranking: local interaction per pair, distributed over cached encodings
# ---------------------------------------------------------------------------


def rank_local(scorer, query, skus, docs) -> tuple[np.ndarray, float]:
    """Every SKU's score for one query, and the seconds it took."""
    t0 = now()
    q = text.normalize(query)
    scores = np.array([scorer.score(q, docs[s]) for s in skus])
    return scores, now() - t0


def encode_catalog(scorer, skus, docs) -> list[np.ndarray]:
    return [models.distributed_encode(docs[s], scorer) for s in skus]


def rank_cached(scorer, encodings, query) -> tuple[np.ndarray, float]:
    t0 = now()
    qv = models.distributed_encode(text.normalize(query), scorer)
    scores = np.array([scorer.score_cached(qv, e) for e in encodings])
    return scores, now() - t0


def load(ckpt, vectors):
    return models.load_scorer(ckpt, embeddings.load_vectors(vectors))


# ---------------------------------------------------------------------------
# Checks that need the program's objects
# ---------------------------------------------------------------------------


def ranking_checks(report: Report, label: str, scorers: dict, queries, skus, docs,
                   results: dict) -> None:
    """Finite scores everywhere; cached and direct top-1 agree for the
    distributed models on the first query."""
    for arch, scores in results.items():
        report.check(checks.check_finite(f"{label} {arch} ranking scores",
                                         np.concatenate(scores)))
    q = text.normalize(queries[0])
    for arch in DISTRIBUTED:
        if arch in results:
            direct = [scorers[arch].score(q, docs[s]) for s in skus]
            best = int(np.argmax(results[arch][0]))
            report.check(checks.check_top1(f"{label} {arch} '{queries[0]}'", best, direct))


def kernel_pooling_checks(report: Report, label: str, ckpt, vectors, triples, docs,
                          n_pairs: int = 8) -> None:
    """Scores of a sample of pairs against plain-loop kernel pooling."""
    descriptor, tensors = autodiff.load_checkpoint(ckpt)
    tokens = checks.read_vector_tokens(vectors)
    scorer = load(ckpt, vectors)
    program, oracle = [], []
    for query, rel, irr in triples[:n_pairs // 2]:
        q = text.normalize(query)
        for sku in (rel, irr):
            program.append(scorer.score(q, docs[sku]))
            oracle.append(checks.kernel_pooling_score(descriptor, tensors, tokens, q, docs[sku]))
    report.check(checks.check_close(f"{label} kernel_pooling scores", program, oracle))


def gradient_checks(report: Report, label: str, scorer, triple, docs, seed: int) -> None:
    """Tensor.backward against central differences on a few coordinates of
    every parameter: the two largest gradient entries and one at random.
    A coordinate is also tried at a 100 times smaller step, which settles
    the rare case of a max-pool switch within the first step; a wrong
    gradient is wrong at both."""
    query, rel, _ = triple
    q, d = text.normalize(query), docs[rel]
    params = scorer.trainable_parameters()
    for p in params:
        p.grad = None
    scorer.score_graph(q, d).backward()
    rng = np.random.default_rng(seed)
    analytic, numeric = [], []
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = np.abs(grad).reshape(-1)
        picks = list(np.argsort(-flat, kind="stable")[:2]) + [int(rng.integers(flat.size))]
        for i in picks:
            index = np.unravel_index(int(i), p.data.shape)
            g = float(grad[index])
            analytic.append(g)
            numeric.append(min((checks.central_difference(lambda: scorer.score(q, d),
                                                          p.data, index, step)
                                for step in (1e-5, 1e-7)), key=lambda cd: abs(cd - g)))
        p.grad = None
    report.check(checks.check_gradients(f"{label} {scorer.architecture} gradients",
                                        analytic, numeric))


def eval_checks(report: Report, label: str, result: dict, scorer, triples, docs,
                tfidf_errors: int) -> None:
    """A ``run_eval`` result against the benchmark's own tf-idf and against
    errors recounted from the model's raw scores."""
    base, model = result["baseline"], result["model"]
    report.check(checks.check_equal_rate(f"{label} tf-idf rate", base.rate,
                                         tfidf_errors, len(triples)))
    rel, irr = [], []
    for query, r, i in triples:
        q = text.normalize(query)
        rel.append(scorer.score(q, docs[r]))
        irr.append(scorer.score(q, docs[i]))
    report.check(checks.check_finite(f"{label} scores", rel + irr))
    report.check(checks.check_pairwise_errors(f"{label} errors", model.errors, rel, irr))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, one round, the probes after it, and the checks of a run."""

    def __init__(self, work: str, seed: int, size: Size, report: Report, tracer=None):
        self.work, self.seed, self.size = work, seed, size
        self.report, self.tracer = report, tracer
        self.r = -1  # the current round
        # seconds of each ranked query, by kind (local, distributed) and model
        self.ranked: dict[str, dict[str, list]] = {"local": {}, "distributed": {}}
        self.quality: dict[str, float] = {}  # test error rates, for the record
        self.probe_dir = os.path.join(work, "probe")
        os.makedirs(self.probe_dir)

    def setup(self) -> None: ...

    def round(self, r: int): ...

    def probe(self, r: int) -> None: ...

    def after(self, outputs: list) -> None: ...

    def span(self, name):
        """A traced span around a block of the harness; nothing untraced."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    # -- probes shared by the workloads ------------------------------------

    def _probe_config(self) -> RunConfig:
        path = os.path.join(self.probe_dir, "config.txt")
        write_config(path, self.seed, self.size.probe_users, self.size.probe_catalog, {})
        return RunConfig.load(path)

    def probe_data_stages(self) -> None:
        """Simulation and skip-gram on a small catalog; triple mining and
        the split of the fixture's click log.  Simulation and mining are
        short calls, so each is made ``probe_repeats`` times on the same
        inputs, which gives their medians more samples."""
        p = lambda name: os.path.join(self.probe_dir, name)
        cfg = self.probe_cfg
        for _ in range(self.size.probe_repeats):
            self.report.op(pipeline.run_simulate, cfg, p("log.jsonl"), p("catalog.jsonl"),
                           p("truth.tsv"))
        for _ in range(self.size.probe_repeats):
            self.report.op(pipeline.run_extract, self.fx.cfg, self.fx.log, p("triples.tsv"),
                           split_dir=self.probe_dir)
        self.report.op(pipeline.run_pretrain, cfg, p("catalog.jsonl"), p("vectors.txt"))

    def rank_with(self, scorers: dict, local_queries, distributed_queries, skus, docs,
                  passes: int | None = None) -> dict:
        """Rank the catalog for each query with each scorer; local ones
        score every pair, distributed ones encode the catalog once and then
        make ``passes`` (by default ``size.passes``) passes over their
        queries (a query takes about a millisecond, so one pass gives the
        median few samples).  Returns each scorer's scores, one array per
        query of the first pass."""
        rep, results = self.report, {}
        for arch, scorer in scorers.items():
            kind = "local" if arch in LOCAL else "distributed"
            if kind == "local":
                queries, n = local_queries, 1
            else:
                queries, n = distributed_queries, passes or self.size.passes
                with self.span("bench.encode_catalog"):
                    enc = rep.op(encode_catalog, scorer, skus, docs)
                if enc is None:
                    continue
            results[arch] = []
            seconds = self.ranked[kind].setdefault(arch, [])
            for k in range(n):
                for query in queries:
                    out = (rep.op(rank_local, scorer, query, skus, docs) if kind == "local"
                           else rep.op(rank_cached, scorer, enc, query))
                    if out is not None:
                        seconds.append(out[1])
                        if k == 0:
                            results[arch].append(out[0])
        return results

    def ranking_rate(self, kind: str) -> float:
        """Queries per second at each model's median query: the number of
        models of the kind over the sum of their median seconds per query,
        each median over every query the model ranked in the run.  A burst
        of host load slows the few queries it overlaps, not the median; a
        per-round sum would take it in whole."""
        medians = [statistics.median(s) for s in self.ranked[kind].values() if s]
        return len(medians) / sum(medians)


class Study(Workload):
    def setup(self):
        self.config_path = os.path.join(self.work, "study.txt")
        write_config(self.config_path, self.seed, self.size.users, self.size.catalog,
                     {"max_epochs": self.size.study_epochs})
        self.out = os.path.join(self.work, "study")

    def round(self, r):
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            code = self.report.op(cli.main, ["benchmark", "--config", self.config_path,
                                             "--out-dir", self.out])
        if code not in (0, None):
            self.report.failed += 1
            print(f"prodrank benchmark exited with {code}", file=sys.stderr)
        if code != 0:
            return None
        with open(os.path.join(self.out, "report.txt"), encoding="utf-8") as f:
            return f.read(), log.getvalue()

    def probe(self, r):
        """Mining of the round's click log twice more: it is the study's
        shortest stage (a fifth of a second), and the extra calls on the
        same inputs give its median more samples.  Then ``run_eval`` of
        this round's trained kernel-pooling model, and ranking with it and
        with the two distributed encoders at their seeded initial weights
        (ranking cost does not depend on the weights' values); the
        distributed ones make two passes, as the study's rounds are long."""
        p = lambda name: os.path.join(self.out, name)
        cfg = RunConfig.load(self.config_path)
        for _ in range(2):
            self.report.op(pipeline.run_extract, cfg, p("log.jsonl"),
                           os.path.join(self.probe_dir, "triples.tsv"),
                           split_dir=self.probe_dir)
        vectors = p("vectors_pretrained.txt")
        self.report.op(pipeline.run_eval, cfg,
                       p("model_nd64.ckpt"), p("triples_test.tsv"), p("catalog.jsonl"), vectors)
        table = embeddings.load_vectors(vectors)
        scorers = {"kernel_pooling": load(p("model_nd64.ckpt"), vectors)}
        for arch in DISTRIBUTED:
            scorers[arch] = models.make_scorer(arch, table=table, seed=self.seed)
        docs = doc_tokens(p("catalog.jsonl"))
        queries = sorted({q for part in ("val", "test")
                          for q, _, _ in checks.read_triples(p(f"triples_{part}.tsv"))})
        self.probe_results = (scorers, queries, docs, self.rank_with(
            scorers, queries[:self.size.probe_queries], queries[:self.size.queries],
            sorted(docs), docs, passes=2))

    def after(self, outputs):
        done = [o for o in outputs if o is not None]
        if not done:
            return
        for later in done[1:]:
            self.report.check(checks.check_same("study report.txt", done[0][0], later[0]))
        report_text, log_text = done[-1]
        rep = self.report
        p = lambda name: os.path.join(self.out, name)
        docs = doc_tokens(p("catalog.jsonl"))
        splits = {part: checks.read_triples(p(f"triples_{part}.tsv"))
                  for part in ("train", "val", "test")}
        rep.check(checks.check_disjoint("study split", splits))

        losses = [float(x) for x in
                  re.findall(r"(?:train|val)_loss\s+(-?[\d.]+|nan|inf)", log_text)]
        rep.check(checks.check_finite("study training losses", losses))

        rows = re.findall(r"^(.*?)\s+\S+\s+\S+\s+\(rates ([\d.]+) / ([\d.]+)",
                          report_text, re.M)
        table = {label.strip(): (v, t) for label, v, t in rows}
        rep.check(None if len(table) == 3 and "tfidf baseline" in table else
                  f"study report.txt: expected tf-idf and two variant rows, found {sorted(table)}")
        if "tfidf baseline" not in table:
            return
        base_val, base_test = table.pop("tfidf baseline")
        self.quality["tfidf"] = float(base_test)
        for part, rate in (("val", base_val), ("test", base_test)):
            errors = checks.tfidf_errors(docs, splits[part], text.normalize)
            rep.check(checks.check_printed_rate(f"study tf-idf {part} rate", rate, errors,
                                                len(splits[part])))
        vectors = p("vectors_pretrained.txt")
        for label, (_, test_rate) in table.items():
            frozen = label.endswith("frozen")
            self.quality["kernel_pooling_frozen" if frozen else "kernel_pooling"] = float(test_rate)
            scorer = load(p("model_nd64_frozen.ckpt" if frozen else "model_nd64.ckpt"), vectors)
            scores = [[scorer.score(text.normalize(q), docs[s]) for s in (r, i)]
                      for q, r, i in splits["test"]]
            rep.check(checks.check_finite(f"study {label} scores", np.ravel(scores)))
            rel, irr = zip(*scores)
            errors = int(np.sum(~(np.array(rel) > np.array(irr))))
            rep.check(checks.check_printed_rate(f"study {label} test rate", test_rate,
                                                errors, len(splits["test"])))
            if not frozen:
                rep.check(checks.check_beats(f"study {label}", float(test_rate),
                                             float(base_test)))
        kernel_pooling_checks(rep, "study", p("model_nd64.ckpt"), vectors, splits["test"], docs)
        gradient_checks(rep, "study", load(p("model_nd64.ckpt"), vectors),
                        splits["train"][0], docs, self.seed)
        scorers, queries, docs, results = self.probe_results
        ranking_checks(rep, "study probe", scorers, queries, sorted(docs), docs, results)


class Rank(Workload):
    def setup(self):
        self.fx = fx = Fixture(self.work, self.seed, self.size)
        for arch in ARCHS:
            pipeline.run_train(fx.arch_config(arch), fx.train, fx.val, fx.catalog,
                               fx.vectors, fx.ckpt[arch])
        self.probe_cfg = self._probe_config()
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x9B0)))
        p = lambda name: os.path.join(self.probe_dir, name)
        _sample_lines(fx.train, p("train.tsv"), self.size.probe_train, rng)
        _sample_lines(fx.val, p("val.tsv"), self.size.probe_val, rng)
        self.trained: list = []  # each round's probe training results and checkpoints

    def round(self, r):
        fx, rep = self.fx, self.report
        evals = {arch: rep.op(pipeline.run_eval, fx.cfg, fx.ckpt[arch], fx.test,
                              fx.catalog, fx.vectors) for arch in ARCHS}
        scorers = {arch: load(fx.ckpt[arch], fx.vectors) for arch in ARCHS}
        ranked = self.rank_with(scorers, fx.queries[:self.size.local_queries], fx.queries,
                                fx.skus, fx.docs)
        rates = {arch: (e["baseline"].rate, e["model"].rate) if e else None
                 for arch, e in evals.items()}
        return evals, ranked, rates, scorers

    def probe(self, r):
        """Training on a small sample of the split and the embedding
        movement of the fine-tuned kernel-pooling table, then the
        simulation, mining and skip-gram probe."""
        fx = self.fx
        p = lambda name: os.path.join(self.probe_dir, name)
        trained = {}
        for arch in ARCHS:
            tuned = p("tuned.txt") if arch == "kernel_pooling" else None
            trained[arch] = self.report.op(
                pipeline.run_train, fx.arch_config(arch), p("train.tsv"), p("val.tsv"),
                fx.catalog, fx.vectors, p(f"{arch}.ckpt"), tuned_vectors_path=tuned)
        blobs = {}
        for arch in ARCHS:
            with open(p(f"{arch}.ckpt"), "rb") as f:
                blobs[arch] = f.read()
        self.trained.append((trained, blobs))
        self.report.op(pipeline.run_inspect, fx.vectors, p("tuned.txt"))
        self.probe_data_stages()

    def after(self, outputs):
        fx, rep = self.fx, self.report
        first = outputs[0]
        for later in outputs[1:]:
            rep.check(checks.check_same("rank error rates", first[2], later[2]))
            same = all(len(first[1][a]) == len(later[1][a]) and
                       all(np.array_equal(x, y) for x, y in zip(first[1][a], later[1][a]))
                       for a in first[1])
            rep.check(None if same else "rank: a repeated round ranked differently")
        evals, ranked, _, scorers = first
        splits = fx.splits()
        rep.check(checks.check_disjoint("rank split", splits))
        tfidf = checks.tfidf_errors(fx.docs, splits["test"], text.normalize)
        for arch, result in evals.items():
            if result is not None:
                eval_checks(rep, f"rank {arch} eval", result, scorers[arch],
                            splits["test"], fx.docs, tfidf)
                self.quality["tfidf"] = result["baseline"].rate
                self.quality[arch] = result["model"].rate
        kernel_pooling_checks(rep, "rank", fx.ckpt["kernel_pooling"], fx.vectors,
                              splits["test"], fx.docs)
        ranking_checks(rep, "rank", scorers, fx.queries, fx.skus, fx.docs, ranked)
        for k, arch in enumerate(ARCHS):
            gradient_checks(rep, "rank", scorers[arch], splits["train"][k], fx.docs,
                            self.seed + k)
        # the training probe: the same checkpoints every round, finite losses
        for _, blobs in self.trained[1:]:
            rep.check(checks.check_same("rank probe checkpoints", self.trained[0][1], blobs))
        for arch, result in self.trained[-1][0].items():
            if result is not None:
                # epoch 0 is the untrained evaluation, with no training loss
                rep.check(checks.check_finite(
                    f"rank probe {arch} losses",
                    [e.val_loss for e in result.reports]
                    + [e.train_loss for e in result.reports[1:]]))


CLASSES = {"study": Study, "rank": Rank}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def micro_benchmarks(size: int = 60, repeats: int = 5) -> dict[str, float]:
    """µs per pair of each architecture's forward and forward+backward pass
    on fixed seeded inputs (independent of the workload seed)."""
    rng = np.random.default_rng(20180619)
    vocab = [f"w{i}" for i in range(200)]
    table = embeddings.unit_normalize(
        embeddings.EmbeddingTable(vocab, rng.standard_normal((len(vocab), 50))))
    pairs = [([vocab[i] for i in rng.integers(len(vocab), size=3)],
              [vocab[i] for i in rng.integers(len(vocab), size=24)]) for _ in range(size)]
    out = {}
    for arch in ARCHS:
        scorer = models.make_scorer(arch, table=table)
        fwd, both = [], []
        for _ in range(repeats):
            t0 = now()
            for q, d in pairs:
                scorer.score_graph(q, d)
            t1 = now()
            for q, d in pairs:
                scorer.score_graph(q, d).backward()
            t2 = now()
            fwd.append((t1 - t0) / size * 1e6)
            both.append((t2 - t1) / size * 1e6)
        out[f"{arch}.fwd_us"] = statistics.median(fwd)
        out[f"{arch}.fwdbwd_us"] = statistics.median(both)
    return out


UNITS = {"simulate_sessions_per_s": "sessions/s", "extract_requests_per_s": "requests/s",
         "pretrain_tokens_per_s": "tokens/s", "train_triples_per_s": "triples/s",
         "eval_pairs_per_s": "pairs/s", "rank_local_queries_per_s": "queries/s",
         "rank_distributed_queries_per_s": "queries/s"}


def run(workload: str, seed: int, seconds: float, traced: bool, work: str,
        trace_path, t_process: float, size: Size = FULL) -> tuple[dict, dict]:
    """Set up, run rounds for ``seconds`` and check.  Returns the result
    object the benchmark prints and the test error rates of the run."""
    report = Report()
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracing.install(tracer)
    clock, stage_calls = stage_clock()
    try:
        w = CLASSES[workload](work, seed, size, report, tracer)
        w.setup()
        setup_s = now() - t_process
        outputs, walls = [], []
        deadline = now() + seconds
        r = 0
        while True:
            clock.run_id = w.r = r
            if tracer is not None:
                tracer.run_id = r
            t0 = now()
            outputs.append(w.round(r))
            walls.append(now() - t0)
            with w.span("bench.probe"):
                w.probe(r)
            r += 1
            if now() >= deadline:
                break
        clock.run_id = tracing.POST_RUN
        if tracer is not None:
            tracer.run_id = tracing.POST_RUN
        w.after(outputs)
    finally:
        clock.restore()
        if tracer is not None:
            tracer.restore()

    wall_s = statistics.median(walls)
    if traced:
        metrics = tracing.per_layer(tracer, r, micro_benchmarks(), wall_s)
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.dump(trace_path)
    else:
        rates = stage_rates(stage_calls, BASE_SETTINGS["sg_epochs"])
        for kind in ("local", "distributed"):
            rates[f"rank_{kind}_queries_per_s"] = w.ranking_rate(kind)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **{name: (rates[name], unit) for name, unit in UNITS.items()},
        }
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, w.quality
