"""Pairwise error-rate evaluation and embedding-movement analysis.

Error rates are reported relative to the lexical baseline, as a
percentage (baseline itself reads 100.00).  The movement report tracks
token pairs whose cosine similarity jumped between kernel-center bins
from pre-trained to fine-tuned embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .embeddings import EmbeddingTable
from .extraction import TrainingTriple
from .models import Scorer, default_kernel_bank
from .text import Tokens, normalize  # noqa: F401  (bench/tracing.py wraps it here)
from .training import evaluate_triples


@dataclass
class ErrorRateReport:
    errors: int
    total: int
    rate: float
    baseline_rate: float
    relative_pct: float  # rate / baseline_rate * 100

    def line(self, label: str = "model") -> str:
        return (f"{label:24s} errors {self.errors:6d}/{self.total:<6d} "
                f"rate {self.rate:.4f}  rel {self.relative_pct:7.2f}%")


def pairwise_error_rate(
    scorer: Scorer,
    triples: list[TrainingTriple],
    doc_tokens: dict[str, Tokens],
    baseline: "ErrorRateReport | float | None" = None,
) -> ErrorRateReport:
    """Fraction of triples where the clicked item fails to outscore the
    passed-over one, as counted by ``training.evaluate_triples``: ties and
    NaN scores are errors.  Without a baseline the report is normalized to
    itself, so the baseline's own report reads exactly 100.00."""
    _, rate = evaluate_triples(scorer, triples, doc_tokens)
    errors = round(rate * len(triples))
    if baseline is None:
        base_rate = rate
    elif isinstance(baseline, ErrorRateReport):
        base_rate = baseline.rate
    else:
        base_rate = float(baseline)
    rel = 100.0 * rate / base_rate if base_rate > 0 else (0.0 if rate == 0 else float("inf"))
    return ErrorRateReport(errors, len(triples), rate, base_rate, rel)


def _cosine_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return vectors / safe


@dataclass
class PairMove:
    token_a: str
    token_b: str
    cos_before: float
    cos_after: float
    bin_before: float
    bin_after: float


@dataclass
class MovementReport:
    moves: list[PairMove]        # pairs that changed bins, largest shift first
    decoupled: int               # moved to a lower-similarity bin
    coupled: int                 # moved to a higher-similarity bin
    bin_centers: tuple

    @property
    def decouple_ratio(self) -> float:
        return self.decoupled / self.coupled if self.coupled else float("inf")

    def text(self, top_k: int = 10) -> str:
        lines = ["From μ   To μ    Word Pairs", "-" * 64]
        by_bin: dict[tuple, list[PairMove]] = {}
        for m in self.moves:
            by_bin.setdefault((m.bin_before, m.bin_after), []).append(m)
        for (b0, b1), moves in sorted(by_bin.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            pairs = ", ".join(f"({m.token_a}, {m.token_b})" for m in moves[:top_k])
            lines.append(f"{b0:5.2f} -> {b1:5.2f}   {pairs}")
        if not self.moves:
            lines.append("(no pairs changed bins)")
        ratio = f"{self.decouple_ratio:.2f}" if self.coupled else "n/a"
        lines.append(
            f"decoupled {self.decoupled}  coupled {self.coupled}  ratio {ratio}"
        )
        return "\n".join(lines)


def moved_word_pairs(
    table_before: EmbeddingTable,
    table_after: EmbeddingTable,
    bin_edges=None,
    max_pairs: int = 200000,
    seed: int = 0,
) -> MovementReport:
    """Token pairs whose cosine similarity crossed kernel-center bins.

    Each pair's before/after cosine is snapped to the nearest point of
    the ``bin_edges`` grid (defaults to the kernel means); a pair counts
    as moved when the two grid points differ.  Decoupled = landed lower,
    coupled = higher.
    """
    if table_before.tokens != table_after.tokens:
        raise ValueError("embedding movement needs identical vocabularies")
    if bin_edges is None:
        bin_edges = default_kernel_bank().means
    centers = np.asarray(sorted(set(float(c) for c in bin_edges)))
    if centers.size < 2:
        raise ValueError("need at least two bin centers")

    n = len(table_before.tokens)
    pairs = list(combinations(range(n), 2))
    if len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[int(k)] for k in np.sort(keep)]

    before = _cosine_rows(table_before.vectors)
    after = _cosine_rows(table_after.vectors)
    moves: list[PairMove] = []
    decoupled = coupled = 0
    for i, j in pairs:
        cb = float(before[i] @ before[j])
        ca = float(after[i] @ after[j])
        b0 = float(centers[np.argmin(np.abs(centers - cb))])
        b1 = float(centers[np.argmin(np.abs(centers - ca))])
        if b0 == b1:
            continue
        if b1 < b0:
            decoupled += 1
        else:
            coupled += 1
        moves.append(PairMove(table_before.tokens[i], table_before.tokens[j],
                              cb, ca, b0, b1))
    moves.sort(key=lambda m: -abs(m.cos_after - m.cos_before))
    return MovementReport(moves, decoupled, coupled, tuple(float(c) for c in centers))
