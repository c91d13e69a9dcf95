"""Error-rate reporting and embedding-movement analysis."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from prodrank.autodiff import Tensor
from prodrank.embeddings import EmbeddingTable, unit_normalize
from prodrank.evaluation import (
    ErrorRateReport,
    MovementReport,
    moved_word_pairs,
    pairwise_error_rate,
)
from prodrank.extraction import TrainingTriple
from prodrank.models import Scorer, default_kernel_bank

from oracles import moved_word_pairs_loop


class _ScriptScorer(Scorer):
    architecture = "script"

    def __init__(self, fn):
        self.fn = fn

    def score_graph(self, q_tokens, d_tokens):
        return Tensor(np.asarray(self.fn(q_tokens, d_tokens), dtype=np.float64))


def _triples(n=4):
    docs = {}
    out = []
    for i in range(n):
        docs[f"r{i}"] = ["good", str(i)]
        docs[f"x{i}"] = ["bad", str(i)]
        out.append(TrainingTriple(f"query {i}", f"r{i}", f"x{i}", timestamp=i))
    return out, docs


# ---------------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------------


def test_perfect_scorer_zero_rate():
    triples, docs = _triples()
    scorer = _ScriptScorer(lambda q, d: 1.0 if "good" in d else -1.0)
    rep = pairwise_error_rate(scorer, triples, docs)
    assert rep.errors == 0
    assert rep.total == 4
    assert rep.rate == 0.0
    assert rep.relative_pct == 0.0


def test_nan_scorer_rate_one():
    # a diverged model must not read as perfect
    triples, docs = _triples()
    rep = pairwise_error_rate(_ScriptScorer(lambda q, d: float("nan")), triples, docs)
    assert rep.errors == 4
    assert rep.rate == 1.0


def test_constant_scorer_rate_one():
    # a scorer that cannot break ties misorders every pair by definition
    triples, docs = _triples()
    rep = pairwise_error_rate(_ScriptScorer(lambda q, d: 0.0), triples, docs)
    assert rep.rate == 1.0
    assert rep.relative_pct == 100.0  # self-normalized


def test_relative_to_float_baseline():
    triples, docs = _triples(n=4)
    # misorder exactly one of four
    scorer = _ScriptScorer(lambda q, d: (1.0 if "good" in d else -1.0) * (-1 if "0" in d else 1))
    rep = pairwise_error_rate(scorer, triples, docs, baseline=0.5)
    assert rep.errors == 1
    assert rep.rate == 0.25
    assert rep.baseline_rate == 0.5
    assert rep.relative_pct == pytest.approx(50.0)


def test_relative_to_report_baseline():
    triples, docs = _triples()
    base = pairwise_error_rate(_ScriptScorer(lambda q, d: 0.0), triples, docs)
    rep = pairwise_error_rate(
        _ScriptScorer(lambda q, d: 1.0 if "good" in d else -1.0), triples, docs, baseline=base
    )
    assert rep.baseline_rate == 1.0
    assert rep.relative_pct == 0.0


def test_zero_baseline_with_errors_is_inf():
    triples, docs = _triples()
    rep = pairwise_error_rate(_ScriptScorer(lambda q, d: 0.0), triples, docs, baseline=0.0)
    assert math.isinf(rep.relative_pct)


def test_empty_triples_rejected():
    with pytest.raises(ValueError, match="empty triple list"):
        pairwise_error_rate(_ScriptScorer(lambda q, d: 0.0), [], {})


def test_report_line_layout():
    rep = ErrorRateReport(5, 100, 0.05, 0.10, 50.0)
    assert rep.line("kernel_pooling") == (
        "kernel_pooling           errors      5/100    rate 0.0500  rel   50.00%"
    )
    base = ErrorRateReport(50, 100, 0.5, 0.5, 100.0)
    assert base.line("tfidf").endswith("rate 0.5000  rel  100.00%")


# ---------------------------------------------------------------------------
# embedding movement
# ---------------------------------------------------------------------------


def _table(tokens, vectors):
    return EmbeddingTable(list(tokens), np.asarray(vectors, dtype=np.float64))


def test_no_movement_on_identical_tables(rng):
    vecs = rng.standard_normal((6, 4))
    t = _table([f"t{i}" for i in range(6)], vecs)
    rep = moved_word_pairs(t, t)
    assert rep.moves == []
    assert rep.decoupled == rep.coupled == 0
    assert "(no pairs changed bins)" in rep.text()
    assert "ratio n/a" in rep.text()


def test_default_bins_are_kernel_centers():
    t = _table(["a", "b"], np.eye(2))
    rep = moved_word_pairs(t, t)
    assert rep.bin_centers == tuple(sorted(float(m) for m in default_kernel_bank().means))


def test_planted_decoupling_is_reported():
    # (a, b) cosine drops 0.8 -> 0.1; every other pair stays in its bin
    before = _table(["a", "b", "c"], [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]])
    after = _table(["a", "b", "c"], [[1.0, 0.0], [0.1, math.sqrt(0.99)], [0.0, 1.0]])
    rep = moved_word_pairs(before, after, bin_edges=(0.8, 0.1, -0.5))
    assert rep.decoupled == 1
    assert rep.coupled == 0
    assert math.isinf(rep.decouple_ratio)
    (m,) = rep.moves
    assert (m.token_a, m.token_b) == ("a", "b")
    assert m.cos_before == pytest.approx(0.8)
    assert m.cos_after == pytest.approx(0.1)
    assert (m.bin_before, m.bin_after) == (0.8, 0.1)
    text = rep.text()
    assert text.splitlines()[0] == "From μ   To μ    Word Pairs"
    assert " 0.80 ->  0.10   (a, b)" in text
    assert "decoupled 1  coupled 0  ratio n/a" in text


def test_planted_coupling_counts_other_way():
    before = _table(["a", "b"], [[1.0, 0.0], [0.1, math.sqrt(0.99)]])
    after = _table(["a", "b"], [[1.0, 0.0], [0.8, 0.6]])
    rep = moved_word_pairs(before, after, bin_edges=(0.8, 0.1, -0.5))
    assert rep.coupled == 1
    assert rep.decoupled == 0
    assert rep.decouple_ratio == 0.0
    assert "ratio 0.00" in rep.text()


def test_text_top_k_truncates_within_bin():
    s = math.sqrt(0.99)
    before = _table(
        ["a", "b", "c", "d"],
        [[1, 0, 0, 0], [0.8, 0.6, 0, 0], [0, 0, 1, 0], [0, 0, 0.8, 0.6]],
    )
    after = _table(
        ["a", "b", "c", "d"],
        [[1, 0, 0, 0], [0.1, s, 0, 0], [0, 0, 1, 0], [0, 0, 0.1, s]],
    )
    rep = moved_word_pairs(before, after, bin_edges=(0.8, 0.1, -0.5))
    assert rep.decoupled == 2
    full = rep.text()
    assert "(a, b), (c, d)" in full
    short = rep.text(top_k=1)
    assert "(a, b)" in short and "(c, d)" not in short


def test_vocabulary_mismatch_rejected():
    t1 = _table(["a", "b"], np.eye(2))
    t2 = _table(["a", "c"], np.eye(2))
    with pytest.raises(ValueError, match="identical vocabularies"):
        moved_word_pairs(t1, t2)


def test_single_bin_center_rejected():
    t = _table(["a", "b"], np.eye(2))
    with pytest.raises(ValueError, match="at least two bin centers"):
        moved_word_pairs(t, t, bin_edges=(0.5, 0.5))


def test_pair_sampling_is_deterministic(rng):
    tokens = [f"t{i}" for i in range(30)]
    b = rng.standard_normal((30, 6))
    a = b + 0.8 * rng.standard_normal((30, 6))
    tb, ta = _table(tokens, b), _table(tokens, a)
    r1 = moved_word_pairs(tb, ta, max_pairs=100, seed=4)
    r2 = moved_word_pairs(tb, ta, max_pairs=100, seed=4)
    assert r1.moves == r2.moves
    assert r1.decoupled == r2.decoupled and r1.coupled == r2.coupled
    assert len(r1.moves) <= 100


def test_sampled_pairs_follow_combinations_order(rng):
    # sample indices into the list of all pairs in combinations order,
    # then keep the pairs that changed bins, largest shift first
    tokens = [f"t{i}" for i in range(40)]
    b = rng.standard_normal((40, 6))
    a = b + 0.8 * rng.standard_normal((40, 6))
    rep = moved_word_pairs(_table(tokens, b), _table(tokens, a), max_pairs=150, seed=7)
    pairs = list(combinations(range(40), 2))
    keep = np.sort(np.random.default_rng(7).choice(len(pairs), size=150, replace=False))
    ub = b / np.linalg.norm(b, axis=1, keepdims=True)
    ua = a / np.linalg.norm(a, axis=1, keepdims=True)
    centers = np.array(sorted(set(float(m) for m in default_kernel_bank().means)))
    snap = lambda c: centers[np.argmin(np.abs(centers - c))]
    want = []
    for k in keep:
        i, j = pairs[k]
        cb, ca = float(ub[i] @ ub[j]), float(ua[i] @ ua[j])
        if snap(cb) != snap(ca):
            want.append((tokens[i], tokens[j], cb, ca))
    want.sort(key=lambda m: -abs(m[3] - m[2]))
    assert len(want) > 20
    assert [(m.token_a, m.token_b, m.cos_before, m.cos_after) for m in rep.moves] == want


def test_pair_sampling_memory_independent_of_all_pairs(rng):
    # 1,500 tokens have 1,124,250 pairs; listing them all peaked at 69 MB
    tokens = [f"t{i}" for i in range(1500)]
    t = _table(tokens, rng.standard_normal((1500, 8)))
    tracemalloc.start()
    try:
        moved_word_pairs(t, t, max_pairs=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_moves_sorted_by_shift_magnitude(rng):
    tokens = [f"t{i}" for i in range(12)]
    b = rng.standard_normal((12, 5))
    a = b + 0.7 * rng.standard_normal((12, 5))
    rep = moved_word_pairs(_table(tokens, b), _table(tokens, a))
    shifts = [abs(m.cos_after - m.cos_before) for m in rep.moves]
    assert shifts == sorted(shifts, reverse=True)
    assert rep.decoupled + rep.coupled == len(rep.moves)


@pytest.mark.parametrize("n, max_pairs", [(100, 200000), (120, 5000)],
                         ids=["all-pairs", "sampled"])
def test_movement_matches_pair_loop(rng, n, max_pairs):
    # both cases span more than one vectorized chunk of pairs
    tokens = [f"t{i}" for i in range(n)]
    b = rng.standard_normal((n, 8))
    a = b + 0.6 * rng.standard_normal((n, 8))
    tb, ta = _table(tokens, b), _table(tokens, a)
    rep = moved_word_pairs(tb, ta, max_pairs=max_pairs, seed=3)
    pairs = list(combinations(range(n), 2))
    if len(pairs) > max_pairs:
        keep = np.sort(np.random.default_rng(3).choice(len(pairs), size=max_pairs, replace=False))
        pairs = [pairs[k] for k in keep]
    want = moved_word_pairs_loop(unit_normalize(tb).vectors, unit_normalize(ta).vectors,
                                 default_kernel_bank().means, pairs)
    want.sort(key=lambda m: -abs(m[3] - m[2]))
    assert len(want) > 100
    assert [(m.token_a, m.token_b, m.cos_before, m.cos_after, m.bin_before, m.bin_after)
            for m in rep.moves] == [(tokens[i], tokens[j], *rest) for i, j, *rest in want]
    assert rep.decoupled == sum(m[5] < m[4] for m in want)
    assert rep.coupled == sum(m[5] > m[4] for m in want)
