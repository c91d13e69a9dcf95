"""Command-line entry point.

One subcommand per pipeline stage plus ``benchmark`` for the whole
study.  Configuration comes from defaults, then an optional --config
file, then repeated --set key=value overrides, then dedicated flags.
Exit codes: 0 success, 1 stage failure (one-line diagnostic on stderr),
2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import RunConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodrank",
        description="Synthetic product-search ranking pipeline.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value config file")
    common.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        help="override one config key (repeatable)")
    common.add_argument("--seed", type=int, help="override the config seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a catalog, click log, and relevance truth")
    p.add_argument("--users", type=int, help="number of simulated users")
    p.add_argument("--out", default="log.jsonl", help="click log path")
    p.add_argument("--catalog-out", help="catalog path (default: catalog.jsonl beside --out)")
    p.add_argument("--truth-out", help="relevance truth path (default: truth.tsv beside --out)")

    p = sub.add_parser("extract", parents=[common],
                       help="mine training triples from a click log")
    p.add_argument("--in", dest="log_in", required=True, help="click log path")
    p.add_argument("--rho", type=int, help="negative-sampling rank cutoff")
    p.add_argument("--out", default="triples.tsv", help="triples path")
    p.add_argument("--split-dir", help="also write the temporal split here")

    p = sub.add_parser("pretrain", parents=[common],
                       help="train skip-gram vectors on catalog text")
    p.add_argument("--in", dest="catalog_in", required=True, help="catalog path")
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--out", default="vectors.txt", help="vector file path")

    p = sub.add_parser("train", parents=[common], help="fit a ranker")
    p.add_argument("--train", required=True, help="training triples path")
    p.add_argument("--val", required=True, help="validation triples path")
    p.add_argument("--catalog", required=True, help="catalog path")
    p.add_argument("--vectors", required=True, help="pretrained vector file")
    p.add_argument("--arch", help="architecture tag")
    p.add_argument("--nd", type=int, help="document truncation length")
    p.add_argument("--frozen", action="store_true", default=None,
                   help="freeze the embedding table")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--tuned-vectors", help="also dump the fine-tuned vectors here")

    p = sub.add_parser("eval", parents=[common],
                       help="error rate of a checkpoint vs the tf-idf baseline")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--vectors", required=True)

    p = sub.add_parser("inspect-embeddings", parents=[common],
                       help="report word pairs that moved between similarity bins")
    p.add_argument("--before", required=True, help="vector file before fine-tuning")
    p.add_argument("--after", required=True, help="vector file after fine-tuning")
    p.add_argument("--top-k", type=int, default=10)

    p = sub.add_parser("benchmark", parents=[common],
                       help="run the full synthetic study end to end")
    p.add_argument("--out-dir", default="benchmark_out", help="artifact directory")

    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig.load(args.config, tuple(args.set))
    if args.seed is not None:
        cfg.seed = args.seed
    for flag, key in (("users", "users"), ("rho", "rho"), ("dim", "dim"),
                      ("arch", "architecture"), ("nd", "n_d"), ("frozen", "frozen")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _sibling(path, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        cfg = _config_from(args)
        if args.command == "simulate":
            catalog_out = args.catalog_out or _sibling(args.out, "catalog.jsonl")
            truth_out = args.truth_out or _sibling(args.out, "truth.tsv")
            pipeline.run_simulate(cfg, args.out, catalog_out, truth_out, log=print)
        elif args.command == "extract":
            pipeline.run_extract(cfg, args.log_in, args.out,
                                 split_dir=args.split_dir, log=print)
        elif args.command == "pretrain":
            pipeline.run_pretrain(cfg, args.catalog_in, args.out, log=print)
        elif args.command == "train":
            pipeline.run_train(cfg, args.train, args.val, args.catalog, args.vectors,
                               args.out, tuned_vectors_path=args.tuned_vectors, log=print)
        elif args.command == "eval":
            pipeline.run_eval(cfg, args.checkpoint, args.triples, args.catalog,
                              args.vectors, log=print)
        elif args.command == "inspect-embeddings":
            pipeline.run_inspect(args.before, args.after, top_k=args.top_k, log=print)
        elif args.command == "benchmark":
            pipeline.run_benchmark(cfg, args.out_dir, log=print)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
