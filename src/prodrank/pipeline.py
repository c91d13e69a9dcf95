"""Stage functions behind the command-line interface.

Each stage reads and writes plain files, so any prefix of the pipeline
can be re-run or swapped out.  ``run_benchmark`` is nothing more than the
stages composed through a scratch directory plus a final report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from . import clicksim as cs
from . import extraction as ex
from .catalog import generate_catalog, read_catalog, write_catalog
from .config import RunConfig
from .embeddings import load_vectors, save_vectors, train_skipgram, unit_normalize
from .evaluation import MovementReport, moved_word_pairs, pairwise_error_rate
from .models import load_scorer, make_scorer, save_scorer
from .text import build_vocabulary
from .training import TrainResult, train


def _say(log, message: str) -> None:
    if log:
        log(message)


def run_simulate(cfg: RunConfig, log_path, catalog_path, truth_path, log=None) -> dict:
    """Catalog + click log + ground-truth relevance, all persisted."""
    catalog = generate_catalog(cfg.catalog_size, seed=cfg.seed,
                               stuffers_per_noun=cfg.stuffers_per_noun)
    write_catalog(catalog, catalog_path)
    params = cs.SimulationParams(alpha1=cfg.alpha1, alpha2=cfg.alpha2,
                                 max_queries=cfg.max_queries)
    sessions = cs.generate_clicklog(
        catalog, cfg.users, params, seed=cfg.seed,
        log_path=log_path, truth_path=truth_path,
        sessions_per_user=(cfg.sessions_min, cfg.sessions_max),
        months=cfg.months, timeout=cfg.timeout, page_size=cfg.page_size,
    )
    n_requests = sum(len(s.requests) for s in sessions)
    n_clicks = sum(len(r.clicks) for s in sessions for r in s.requests)
    _say(log, f"simulated {len(sessions)} sessions, {n_requests} requests, "
              f"{n_clicks} clicks over {cfg.users} users")
    return {"sessions": len(sessions), "requests": n_requests, "clicks": n_clicks}


def run_extract(cfg: RunConfig, log_path, out_path, split_dir=None, log=None) -> dict:
    """Mine triples from a click log; optionally also write the temporal
    train/validation/test split next to them."""
    requests = cs.read_log(log_path)
    sessions = ex.sessionize(requests, inactivity_timeout=cfg.timeout)
    triples = ex.extract_all(sessions, rho=cfg.rho)
    ex.write_triples(triples, out_path)
    stats_line = str(ex.dataset_stats(triples)) if triples else "no triples"
    _say(log, f"{len(sessions)} sessions -> {len(triples)} triples -> {out_path}")
    _say(log, stats_line)
    info = {"triples": len(triples), "stats_line": stats_line}
    if split_dir is not None:
        os.makedirs(split_dir, exist_ok=True)
        span = cfg.months * cs.SECONDS_PER_MONTH
        split = ex.temporal_split(
            triples,
            ex.SplitSpec(int(cfg.train_cut * span), int(cfg.val_cut * span)),
        )
        names = {"train": "triples_train.tsv", "validation": "triples_val.tsv",
                 "test": "triples_test.tsv"}
        for part, filename in names.items():
            ex.write_triples(split[part], os.path.join(split_dir, filename))
        ratio_line = ex.split_ratio_report(split)
        _say(log, ratio_line)
        info["split"] = {k: len(v) for k, v in split.items()}
        info["ratio_line"] = ratio_line
    return info


def run_pretrain(cfg: RunConfig, catalog_path, vectors_path, log=None) -> None:
    """Skip-gram vectors over the catalog's document texts."""
    catalog = read_catalog(catalog_path)
    corpus = [sku.doc_tokens() for sku in catalog]
    table = train_skipgram(corpus, cfg.dim, window=cfg.window,
                           negatives=cfg.negatives, epochs=cfg.sg_epochs,
                           seed=cfg.seed, lr=cfg.sg_lr)
    table = unit_normalize(table)
    save_vectors(table, vectors_path)
    _say(log, f"pretrained {len(table)} vectors of dim {cfg.dim} -> {vectors_path}")


def _scorer_kwargs(cfg: RunConfig) -> dict:
    kwargs = dict(n_d=cfg.n_d, seed=cfg.seed)
    if cfg.architecture in ("kernel_pooling", "hybrid_local"):
        kwargs["n_q"] = cfg.n_q
    if cfg.architecture == "kernel_pooling":
        kwargs["linear"] = cfg.linear
    return kwargs


def run_train(cfg: RunConfig, train_path, val_path, catalog_path, vectors_path,
              checkpoint_path, tuned_vectors_path=None, log=None) -> TrainResult:
    """Fit one ranker variant and checkpoint it."""
    catalog = read_catalog(catalog_path)
    docs = {sku.sku_id: sku.doc_tokens() for sku in catalog}
    train_triples = ex.read_triples(train_path)
    val_triples = ex.read_triples(val_path)
    table = load_vectors(vectors_path)
    scorer = make_scorer(cfg.architecture, table=table, **_scorer_kwargs(cfg))
    result = train(scorer, train_triples, val_triples, docs, cfg, log=log)
    save_scorer(scorer, checkpoint_path)
    if tuned_vectors_path is not None:
        save_vectors(scorer.embedding_table(), tuned_vectors_path)
    _say(log, f"best epoch {result.best_epoch} "
              f"(val error {result.best_val_error:.4f}) -> {checkpoint_path}")
    return result


def run_eval(cfg: RunConfig, checkpoint_path, triples_path, catalog_path,
             vectors_path, log=None) -> dict:
    """Error rate of a checkpoint next to the lexical baseline."""
    catalog = read_catalog(catalog_path)
    docs = {sku.sku_id: sku.doc_tokens() for sku in catalog}
    triples = ex.read_triples(triples_path)
    vocab = build_vocabulary(list(docs.values()))
    baseline = pairwise_error_rate(make_scorer("tfidf", vocab=vocab), triples, docs)
    scorer = load_scorer(checkpoint_path, load_vectors(vectors_path))
    report = pairwise_error_rate(scorer, triples, docs, baseline)
    _say(log, baseline.line("tfidf baseline"))
    _say(log, report.line(scorer.descriptor()))
    return {"baseline": baseline, "model": report, "descriptor": scorer.descriptor()}


def run_inspect(before_path, after_path, top_k: int = 10, log=None) -> MovementReport:
    """Embedding movement between two vector files."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    report = moved_word_pairs(load_vectors(before_path), load_vectors(after_path))
    _say(log, report.text(top_k=top_k))
    return report


@dataclass
class BenchmarkVariant:
    label: str
    n_d: int
    frozen: bool
    best_epoch: int
    val_rate: float
    test_rate: float
    val_rel: float
    test_rel: float


@dataclass
class BenchmarkResult:
    report: str
    triples: int
    split_sizes: dict
    baseline_val_rate: float
    baseline_test_rate: float
    variants: list[BenchmarkVariant]
    movement: MovementReport | None


def run_benchmark(cfg: RunConfig, out_dir, log=None) -> BenchmarkResult:
    """The full synthetic study: simulate -> extract -> pretrain -> one
    (trainable, frozen) training pair per truncation length -> evaluate,
    composed through the files each stage leaves in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)

    run_simulate(cfg, path("log.jsonl"), path("catalog.jsonl"), path("truth.tsv"),
                 log=log)
    extract_info = run_extract(cfg, path("log.jsonl"), path("triples.tsv"),
                               split_dir=out_dir, log=log)
    for part, count in extract_info["split"].items():
        if count == 0:
            raise RuntimeError(f"benchmark aborted: empty {part} split "
                               f"(extracted {extract_info['triples']} triples)")
    run_pretrain(cfg, path("catalog.jsonl"), path("vectors_pretrained.txt"), log=log)

    variants: list[BenchmarkVariant] = []
    movement: MovementReport | None = None
    for n_d in cfg.truncation_grid():
        for frozen in (False, True):
            variant = replace(cfg, n_d=n_d, frozen=frozen)
            tag = f"nd{n_d}" + ("_frozen" if frozen else "")
            ckpt = path(f"model_{tag}.ckpt")
            tuned = None if frozen else path(f"vectors_tuned_nd{n_d}.txt")
            result = run_train(variant, path("triples_train.tsv"), path("triples_val.tsv"),
                               path("catalog.jsonl"), path("vectors_pretrained.txt"),
                               ckpt, tuned_vectors_path=tuned, log=log)
            val, test = [run_eval(variant, ckpt, path(f"triples_{part}.tsv"),
                                  path("catalog.jsonl"), path("vectors_pretrained.txt"),
                                  log=log) for part in ("val", "test")]
            base_val, base_test = val["baseline"], test["baseline"]
            label = f"{cfg.architecture} Nd={n_d}" + (" frozen" if frozen else "")
            variants.append(BenchmarkVariant(
                label, n_d, frozen, result.best_epoch,
                val["model"].rate, test["model"].rate,
                val["model"].relative_pct, test["model"].relative_pct))
            if not frozen and movement is None:
                movement = run_inspect(path("vectors_pretrained.txt"), tuned)

    lines = [
        "== synthetic product search benchmark ==",
        f"seed {cfg.seed}  catalog {cfg.catalog_size}  users {cfg.users}  "
        f"months {cfg.months}  architecture {cfg.architecture}",
        extract_info["stats_line"],
        extract_info["ratio_line"],
        "",
        "variant                                validation      test   (% of tf-idf error)",
        f"{'tfidf baseline':38s} {100.00:10.2f} {100.00:9.2f}   "
        f"(rates {base_val.rate:.4f} / {base_test.rate:.4f})",
    ]
    for v in variants:
        lines.append(f"{v.label:38s} {v.val_rel:10.2f} {v.test_rel:9.2f}   "
                     f"(rates {v.val_rate:.4f} / {v.test_rate:.4f}, best epoch {v.best_epoch})")
    if movement is not None:
        lines += ["", "moved word pairs (pretrained -> fine-tuned):",
                  movement.text(top_k=8)]
    report = "\n".join(lines) + "\n"
    with open(path("report.txt"), "w", encoding="utf-8") as f:
        f.write(report)
    _say(log, report)
    return BenchmarkResult(report, extract_info["triples"], extract_info["split"],
                           base_val.rate, base_test.rate, variants, movement)
