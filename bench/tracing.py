"""Span tracing for the traced benchmark run (``--trace 1``).

Spans are recorded from the benchmark's own files: each wrapped public
function of a ``prodrank`` module gets a span (name, start, end, parent,
run id) and, where a per-layer metric needs it, a count taken from its
arguments or result at the same boundary.  Spans live in flat arrays in
memory and are written out once, when the run ends.  Per-layer times are
self times: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP_RUN = -1   # run id of spans recorded during set-up
POST_RUN = -2    # run id of spans recorded after the timed rounds

ARCHS = ("kernel_pooling", "siamese", "dssm_like", "hybrid_local")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = SETUP_RUN
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.run_id, key)] += value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, span: bool = True) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``restore``.

        ``on_result(tracer, args, kwargs, result, seconds)`` records counts
        at the call boundary; ``seconds`` is the span's duration.
        ``span=False`` records counts only, for functions too small to time.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result, tracer.end[idx] - tracer.start[idx])
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(tracer, args, kwargs, result, 0.0)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def totals(self, runs: list[int]) -> tuple[dict, dict, dict]:
        """(self seconds, total seconds, span count) per name over ``runs``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        keep = np.isin(a["run"], runs)
        n = len(self.names)
        self_s = np.bincount(a["name_id"][keep], weights=own[keep], minlength=n)
        total_s = np.bincount(a["name_id"][keep], weights=dur[keep], minlength=n)
        calls = np.bincount(a["name_id"][keep], minlength=n)
        return ({nm: float(self_s[i]) for i, nm in enumerate(self.names)},
                {nm: float(total_s[i]) for i, nm in enumerate(self.names)},
                {nm: int(calls[i]) for i, nm in enumerate(self.names)})

    def dump(self, path) -> None:
        counts = sorted(self.counts.items())
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            count_run=np.array([r for (r, _), _ in counts], dtype=np.int32),
            count_key=np.array([k for (_, k), _ in counts], dtype=str),
            count_value=np.array([v for _, v in counts], dtype=np.float64),
            **self.arrays())


# ---------------------------------------------------------------------------
# What the traced run wraps
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every ``prodrank`` module.  A function
    imported by name into another module is wrapped under each name, so
    calls through any binding are seen."""
    import prodrank
    from prodrank import (autodiff, catalog, cli, clicksim, config, embeddings,
                          evaluation, extraction, models, pipeline, text, training)

    w = tracer.wrap

    # pipeline stages: the top of every workload's call tree
    for stage in ("simulate", "extract", "pretrain", "train", "eval", "inspect", "benchmark"):
        w(pipeline, f"run_{stage}", f"pipeline.run_{stage}")
    w(cli, "main", "cli.main")
    w(config.RunConfig, "load", "config.load")

    # catalog
    for owner in (catalog, pipeline):
        w(owner, "generate_catalog", "catalog.generate")

    # clicksim
    def sessions(t, args, kwargs, result, seconds):
        t.count("clicksim.sessions", len(result))
        t.count("clicksim.requests", sum(len(s.requests) for s in result))
    w(clicksim, "generate_clicklog", "clicksim.generate_clicklog", sessions)
    w(clicksim, "write_log", "clicksim.write_log")
    w(clicksim, "read_log", "clicksim.read_log")

    # text: normalize is imported by name into most modules
    for owner in (text, catalog, clicksim, extraction, training, evaluation, prodrank):
        w(owner, "normalize", "text.normalize")

    # extraction
    w(extraction, "sessionize", "extraction.sessionize")
    w(extraction, "extract_all", "extraction.extract_all",
      lambda t, a, k, r, dt: t.count("extraction.triples", len(r)))

    def refinement(t, args, kwargs, result, seconds):
        t.count("extraction.is_refinement_calls")
        t.count("extraction.refinement_hits", bool(result))
    w(extraction, "is_refinement", "extraction.is_refinement", refinement, span=False)

    def split(t, args, kwargs, result, seconds):
        t.count("extraction.split_in", len(args[0]))
        t.count("extraction.split_kept", sum(len(v) for v in result.values()))
    w(extraction, "temporal_split", "extraction.temporal_split", split)

    # embeddings
    for owner in (embeddings, models):
        w(owner, "embed_sequence", "embeddings.embed_sequence")

    def skipgram(t, args, kwargs, result, seconds):
        epochs = kwargs.get("epochs", args[4] if len(args) > 4 else 5)
        t.count("embeddings.skipgram_tokens", epochs * sum(len(s) for s in args[0]))
    for owner in (embeddings, pipeline):
        w(owner, "train_skipgram", "embeddings.train_skipgram", skipgram)
        w(owner, "load_vectors", "embeddings.load_vectors")
        w(owner, "save_vectors", "embeddings.save_vectors")

    # autodiff
    w(autodiff.Tensor, "backward", "autodiff.backward")
    w(autodiff, "save_checkpoint", "autodiff.save_checkpoint")
    w(autodiff, "load_checkpoint", "autodiff.load_checkpoint")

    # models
    for cls in (models.KernelPoolingScorer, models.SiameseScorer,
                models.DssmScorer, models.HybridLocalScorer):
        w(cls, "score_graph", "models.score_graph")
    for cls in (models.SiameseScorer, models.DssmScorer):
        w(cls, "encode", "models.encode")
    for owner in (models, pipeline):
        w(owner, "load_scorer", "models.load_scorer")
        w(owner, "save_scorer", "models.save_scorer")

    # training
    w(training.Adam, "step", "training.adam_step")
    w(training, "evaluate_triples", "training.evaluate_triples")

    def trained(t, args, kwargs, result, seconds):
        arch = getattr(args[0], "architecture", "?")
        t.count(f"training.{arch}.triples", len(args[1]) * (len(result.reports) - 1))
        t.count(f"training.{arch}.seconds", seconds)

    for owner in (training, pipeline):
        w(owner, "train", "training.train", trained)

    def hinge(t, args, kwargs, result, seconds):
        # margin_loss is also called by evaluate_triples; only the training
        # loop's calls decide whether a triple takes a backward pass
        if t.current() == "training.train":
            t.count("training.triples_seen")
            t.count("training.hinge_active", result > 0.0)
    w(training, "margin_loss", "training.margin_loss", hinge, span=False)

    # evaluation
    for owner in (evaluation, pipeline):
        w(owner, "pairwise_error_rate", "evaluation.pairwise_error_rate",
          lambda t, a, k, r, dt: t.count("evaluation.pairs", 2 * r.total))
        w(owner, "moved_word_pairs", "evaluation.moved_word_pairs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rounds: int, micro: dict[str, float],
              wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per timed round (a round's own operations and the
    probes after it), from self times and counts.

    ``micro`` holds the fixed-input µs-per-pair figures; ``wall_s`` is the
    traced rounds' median wall time (the untraced one's twin).
    """
    runs = list(range(rounds))
    self_s, total_s, calls = tracer.totals(runs)
    counts: dict[str, float] = defaultdict(float)
    for (run, key), value in tracer.counts.items():
        if 0 <= run < rounds:
            counts[key] += value

    def s(name):  # self seconds per round
        return self_s.get(name, 0.0) / rounds

    def n(name):  # calls per round
        return calls.get(name, 0) / rounds

    def c(key):  # count per round
        return counts.get(key, 0.0) / rounds

    out: dict[str, tuple[float, str]] = {
        "bench.wall_s": (wall_s, "s"),
        "autodiff.backward_calls": (n("autodiff.backward"), "count"),
        "autodiff.backward_s": (s("autodiff.backward"), "s"),
        "autodiff.save_checkpoint_s": (s("autodiff.save_checkpoint"), "s"),
        "autodiff.load_checkpoint_s": (s("autodiff.load_checkpoint"), "s"),
        "training.adam_steps": (n("training.adam_step"), "count"),
        "training.adam_step_s": (s("training.adam_step"), "s"),
        "training.evaluate_triples_s": (s("training.evaluate_triples"), "s"),
        "training.hinge_active_share": (
            _ratio(counts["training.hinge_active"], counts["training.triples_seen"]), "ratio"),
    }
    for arch in ARCHS:
        out[f"training.{arch}.triples_per_s"] = (
            _ratio(counts[f"training.{arch}.triples"], counts[f"training.{arch}.seconds"]),
            "triples/s")
    for arch in ARCHS:
        out[f"models.{arch}.fwd_us"] = (micro[f"{arch}.fwd_us"], "us")
        out[f"models.{arch}.fwdbwd_us"] = (micro[f"{arch}.fwdbwd_us"], "us")
    out.update({
        "models.score_graph_calls": (n("models.score_graph"), "count"),
        "models.score_graph_s": (s("models.score_graph"), "s"),
        "models.encode_calls": (n("models.encode"), "count"),
        "models.encode_catalog_s": (total_s.get("bench.encode_catalog", 0.0) / rounds, "s"),
        "embeddings.embed_sequence_calls": (n("embeddings.embed_sequence"), "count"),
        "embeddings.embed_sequence_s": (s("embeddings.embed_sequence"), "s"),
        "embeddings.train_skipgram_s": (s("embeddings.train_skipgram"), "s"),
        "embeddings.skipgram_tokens": (c("embeddings.skipgram_tokens"), "count"),
        "embeddings.load_vectors_s": (s("embeddings.load_vectors"), "s"),
        "embeddings.save_vectors_s": (s("embeddings.save_vectors"), "s"),
        "catalog.generate_s": (s("catalog.generate"), "s"),
        "clicksim.generate_clicklog_s": (s("clicksim.generate_clicklog"), "s"),
        "clicksim.sessions": (c("clicksim.sessions"), "count"),
        "clicksim.requests": (c("clicksim.requests"), "count"),
        "clicksim.write_log_s": (s("clicksim.write_log"), "s"),
        "clicksim.read_log_s": (s("clicksim.read_log"), "s"),
        "text.normalize_calls": (n("text.normalize"), "count"),
        "text.normalize_s": (s("text.normalize"), "s"),
        "extraction.sessionize_s": (s("extraction.sessionize"), "s"),
        "extraction.extract_all_s": (s("extraction.extract_all"), "s"),
        "extraction.is_refinement_calls": (c("extraction.is_refinement_calls"), "count"),
        "extraction.refinement_hit_share": (
            _ratio(counts["extraction.refinement_hits"],
                   counts["extraction.is_refinement_calls"]), "ratio"),
        "extraction.triples": (c("extraction.triples"), "count"),
        "extraction.temporal_split_s": (s("extraction.temporal_split"), "s"),
        "extraction.split_kept_share": (
            _ratio(counts["extraction.split_kept"], counts["extraction.split_in"]), "ratio"),
        "evaluation.pairwise_error_rate_s": (s("evaluation.pairwise_error_rate"), "s"),
        "evaluation.pairs": (c("evaluation.pairs"), "count"),
        "evaluation.moved_word_pairs_s": (s("evaluation.moved_word_pairs"), "s"),
    })
    # a stage's whole time, children included, so the stages add up to wall_s
    for stage in ("simulate", "extract", "pretrain", "train", "eval", "inspect"):
        out[f"pipeline.run_{stage}_s"] = (total_s.get(f"pipeline.run_{stage}", 0.0) / rounds, "s")
    return out
