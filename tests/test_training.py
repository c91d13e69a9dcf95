"""Trainer, optimizer, and loss behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from prodrank.autodiff import Tensor, dot
from prodrank.catalog import generate_catalog
from prodrank.clicksim import SimulationParams, generate_clicklog
from prodrank.embeddings import EmbeddingTable, unit_normalize
from prodrank.extraction import TrainingTriple, extract_all
from prodrank.models import (
    DssmScorer,
    HybridLocalScorer,
    KernelPoolingScorer,
    Scorer,
    SiameseScorer,
    TfIdfScorer,
)
from prodrank.text import build_vocabulary
from prodrank.training import (
    MARGIN,
    Adam,
    EpochReport,
    TrainConfig,
    evaluate_triples,
    margin_loss,
    train,
)
from prodrank.text import normalize


def make_table(tokens, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    raw = EmbeddingTable(list(tokens), rng.standard_normal((len(tokens), dim)))
    return unit_normalize(raw)


def separable_problem(n=16, dim=8):
    """Each query token appears in its relevant doc and nowhere else, so the
    exact-match kernel alone separates every pair."""
    tokens = [f"q{i}" for i in range(n)] + [f"alt{i}" for i in range(n)]
    docs = {}
    triples = []
    for i in range(n):
        docs[f"r{i}"] = [f"q{i}"]
        docs[f"x{i}"] = [f"alt{i}"]
        triples.append(TrainingTriple(f"q{i}", f"r{i}", f"x{i}", timestamp=i))
    table = make_table(tokens, dim=dim, seed=7)
    return table, docs, triples


class _ScriptScorer(Scorer):
    """Scores from a plain function; no parameters, no learning."""

    architecture = "script"

    def __init__(self, fn):
        self.fn = fn

    def score_graph(self, q_tokens, d_tokens):
        return Tensor(np.asarray(self.fn(q_tokens, d_tokens), dtype=np.float64))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_margin_loss_examples():
    assert margin_loss(2.0, 0.0) == 0.0
    assert margin_loss(0.0, 0.0) == 1.0
    assert margin_loss(0.3, 0.5) == pytest.approx(1.2)
    assert margin_loss(1.0, 0.0) == 0.0  # gap exactly met
    assert margin_loss(1.5, 1.0) == pytest.approx(0.5)
    assert MARGIN == 1.0


def test_margin_loss_nonnegative(rng):
    for _ in range(200):
        a, b = rng.normal(size=2) * 10
        lo = margin_loss(a, b)
        assert lo >= 0.0
        assert lo == pytest.approx(max(0.0, b - a + 1.0))


def test_margin_loss_propagates_nan():
    # a diverged score must not hide inside max(0, nan)
    assert math.isnan(margin_loss(float("nan"), 0.0))
    assert math.isnan(margin_loss(0.0, float("nan")))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_matches_hand_formula():
    p = Tensor(np.array([2.0, -3.0, 0.5]), requires_grad=True)
    g = np.array([0.5, -2.0, 0.0])
    opt = Adam([p], lr=0.01)
    p.grad = g.copy()
    opt.step()
    # after one step the bias-corrected moments collapse to g and |g|
    expected = np.array([2.0, -3.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0] - 3.0) < 0.05


def test_adam_zero_grad_and_none_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step()  # grad is None: parameter must not move
    assert p.data[0] == 1.0
    p.grad = np.array([1.0])
    opt.zero_grad()
    assert p.grad is None


def test_adam_lr_is_mutable():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=1.0)
    p.grad = np.array([1.0])
    opt.step()
    moved_big = abs(p.data[0])
    opt.lr = 1e-6
    p.grad = np.array([1.0])
    before = p.data[0]
    opt.step()
    assert abs(p.data[0] - before) < 1e-5 < moved_big


def test_adam_requires_parameters():
    with pytest.raises(ValueError, match="at least one parameter"):
        Adam([])


# ---------------------------------------------------------------------------
# config and reporting
# ---------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig()  # defaults are legal
    with pytest.raises(ValueError, match="lr must be > 0, got 0.0"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="lr_decay must be < 1, got 1.0"):
        TrainConfig(lr_decay=1.0)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="patience must be >= 1, got 0"):
        TrainConfig(patience=0)


def test_epoch_report_line_format():
    r0 = EpochReport(0, float("nan"), 1.0, 1.0, 1e-4)
    assert r0.line() == (
        "epoch  0  train_loss      --  val_loss  1.0000  val_error 1.0000  lr 1.0e-04"
    )
    r3 = EpochReport(3, 0.1234, 0.5, 0.25, 1e-5)
    assert r3.line() == (
        "epoch  3  train_loss  0.1234  val_loss  0.5000  val_error 0.2500  lr 1.0e-05"
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_perfect_scorer():
    docs = {"r": ["good"], "x": ["bad"]}
    triples = [TrainingTriple("q", "r", "x", timestamp=0)]
    scorer = _ScriptScorer(lambda q, d: 1.0 if d == ["good"] else -1.0)
    loss, err = evaluate_triples(scorer, triples, docs)
    assert err == 0.0
    assert loss == 0.0  # gap of 2 clears the margin


def test_evaluate_constant_scorer_all_ties_are_errors():
    docs = {"r": ["a"], "x": ["b"], "r2": ["c"]}
    triples = [
        TrainingTriple("q", "r", "x", timestamp=0),
        TrainingTriple("q", "r2", "x", timestamp=1),
    ]
    scorer = _ScriptScorer(lambda q, d: 0.0)
    loss, err = evaluate_triples(scorer, triples, docs)
    assert err == 1.0
    assert loss == pytest.approx(1.0)


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError, match="empty triple list"):
        evaluate_triples(_ScriptScorer(lambda q, d: 0.0), [], {})


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_toy_separable_reaches_zero_error():
    table, docs, triples = separable_problem()
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    config = TrainConfig(batch_size=8, max_epochs=20, seed=0)
    result = train(scorer, triples, triples, docs, config)
    assert result.best_val_error == 0.0
    assert any(r.val_error == 0.0 for r in result.reports[1:])
    # restored weights reproduce the selected epoch exactly
    _, err = evaluate_triples(scorer, triples, docs)
    assert err == 0.0


def test_epoch_zero_row_and_zero_epochs():
    table, docs, triples = separable_problem(n=4)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    result = train(scorer, triples, triples, docs, TrainConfig(max_epochs=0))
    assert len(result.reports) == 1
    assert result.best_epoch == 0
    assert math.isnan(result.reports[0].train_loss)
    # zero-initialized head scores everything 0: all ties, all errors
    assert result.reports[0].val_error == 1.0


def test_best_epoch_never_worse_than_start():
    table, docs, triples = separable_problem(n=8)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    result = train(scorer, triples, triples, docs, TrainConfig(batch_size=4, max_epochs=5))
    assert result.best_val_error <= result.reports[0].val_error
    _, err = evaluate_triples(scorer, triples, docs)
    assert err == result.best_val_error


def test_same_seed_bit_identical():
    runs = []
    for _ in range(2):
        table, docs, triples = separable_problem(n=8)
        scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
        result = train(scorer, triples, triples, docs,
                       TrainConfig(batch_size=4, max_epochs=3, seed=11))
        runs.append((scorer, result))
    (s1, r1), (s2, r2) = runs
    for p1, p2 in zip(s1.parameters(), s2.parameters()):
        assert np.array_equal(p1.data, p2.data)
    for a, b in zip(r1.reports, r2.reports):
        assert a.val_loss == b.val_loss and a.val_error == b.val_error
        assert a.train_loss == b.train_loss or (
            math.isnan(a.train_loss) and math.isnan(b.train_loss)
        )


def test_frozen_embedding_stays_fixed_but_head_trains():
    table, docs, triples = separable_problem(n=8)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    emb_before = scorer.embedding.data.copy()
    head_before = scorer.w.data.copy()
    result = train(scorer, triples, triples, docs,
                   TrainConfig(batch_size=4, max_epochs=3, frozen=True))
    assert np.array_equal(scorer.embedding.data, emb_before)
    assert not np.array_equal(scorer.w.data, head_before)
    assert result.best_val_error == 0.0  # exact-match signal survives freezing


def test_unfrozen_embedding_moves():
    table, docs, triples = separable_problem(n=8)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    emb_before = scorer.embedding.data.copy()
    train(scorer, triples, triples, docs, TrainConfig(batch_size=4, max_epochs=3))
    assert not np.array_equal(scorer.embedding.data, emb_before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostics():
    tokens = ["qa", "qb", "red", "blue", "oak", "sofa"]
    table = make_table(tokens, dim=6, seed=2)
    docs = {"A": ["red"], "B": ["blue", "blue"], "C": ["oak", "red"], "D": ["sofa"]}
    triples = [
        TrainingTriple("qa", "A", "B", timestamp=0),
        TrainingTriple("qb", "C", "D", timestamp=1),
    ]
    val = [TrainingTriple("qa", "B", "A", timestamp=2)]
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8, linear=True)
    config = TrainConfig(lr=1e308, max_epochs=5)
    with pytest.raises(RuntimeError, match="training diverged"):
        train(scorer, triples, val, docs, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frozen_table_leaves_the_tape_only_while_training():
    table, docs, triples = separable_problem(n=8)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8, linear=True)
    train(scorer, triples, triples, docs, TrainConfig(batch_size=4, max_epochs=2, frozen=True))
    assert scorer.embedding.grad is None  # no gradient was computed for it
    assert scorer.embedding in scorer.trainable_parameters()
    # restored on the way out of a failed run too
    with pytest.raises(RuntimeError, match="training diverged"):
        train(scorer, triples, triples, docs, TrainConfig(lr=1e308, max_epochs=5, frozen=True))
    assert scorer.embedding in scorer.trainable_parameters()


def test_empty_triples_rejected():
    table, docs, triples = separable_problem(n=4)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    with pytest.raises(ValueError, match="non-empty train and validation"):
        train(scorer, [], triples, docs)
    with pytest.raises(ValueError, match="non-empty train and validation"):
        train(scorer, triples, [], docs)


def test_missing_doc_tokens_reported():
    table, docs, triples = separable_problem(n=4)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    del docs["x2"]
    with pytest.raises(ValueError, match="doc_tokens missing 1 skus"):
        train(scorer, triples, triples, docs)


def test_parameterless_scorer_rejected():
    vocab = build_vocabulary([["a"], ["b"]])
    docs = {"r": ["a"], "x": ["b"]}
    triples = [TrainingTriple("a", "r", "x", timestamp=0)]
    with pytest.raises(ValueError, match="no trainable parameters"):
        train(TfIdfScorer(vocab), triples, triples, docs)


def test_plateau_decays_lr_down_to_floor():
    # identical token lists on both sides: scores tie forever, gradients
    # cancel, validation loss is flat, so the schedule must fire on patience
    tokens = ["same", "thing", "q"]
    table = make_table(tokens, dim=6, seed=3)
    docs = {"dup_a": ["same", "thing"], "dup_b": ["same", "thing"]}
    triples = [TrainingTriple("q", "dup_a", "dup_b", timestamp=i) for i in range(6)]
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    result = train(scorer, triples, triples, docs,
                   TrainConfig(max_epochs=6, patience=2, lr_decay=0.1, min_lr=1e-6))
    assert [r.val_loss for r in result.reports] == [1.0] * 7
    # the report shows the rate the epoch ran at; decay lands afterwards
    expected = [1e-4] * 3 + [1e-5] * 2 + [1e-6] * 2
    assert [r.lr for r in result.reports] == pytest.approx(expected, rel=1e-9)
    assert result.best_epoch == 0


def _descent_instance(arch, seed):
    rng = np.random.default_rng(seed)
    pool = [f"t{i}" for i in range(12)]
    table = make_table(pool, dim=6, seed=seed)
    if arch == "kernel_pooling":
        scorer = KernelPoolingScorer(table, n_q=4, n_d=8, seed=seed)
    elif arch == "siamese":
        scorer = SiameseScorer(table, n_d=8, out_dim=5, channels=4, seed=seed)
    elif arch == "dssm_like":
        scorer = DssmScorer(table, n_d=8, hidden=5, out_dim=5, seed=seed)
    else:
        scorer = HybridLocalScorer(table, n_q=4, n_d=8, channels=4, seed=seed)
    q = list(rng.choice(pool, size=2))
    while True:
        d1 = sorted(rng.choice(pool, size=3))
        d2 = sorted(rng.choice(pool, size=3))
        if d1 != d2:
            return scorer, q, list(d1), list(d2)


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_one_tiny_step_descends(arch):
    """A single Adam step at lr 1e-6 on one violating pair lowers its loss."""
    for seed in range(25):
        scorer, q, d1, d2 = _descent_instance(arch, seed)
        # orient the pair so the hinge is active
        if scorer.score(q, d1) <= scorer.score(q, d2):
            rel, irr = d1, d2
        else:
            rel, irr = d2, d1
        opt = Adam(scorer.trainable_parameters(), lr=1e-6)
        opt.zero_grad()
        f_rel = scorer.score_graph(q, rel)
        f_irr = scorer.score_graph(q, irr)
        before = margin_loss(f_rel.data.item(), f_irr.data.item())
        assert before >= 1.0
        f_irr.backward(1.0)
        f_rel.backward(-1.0)
        opt.step()
        after = margin_loss(scorer.score(q, rel), scorer.score(q, irr))
        assert after < before, f"{arch} seed {seed}: {before} -> {after}"


def test_train_log_callback_receives_lines():
    table, docs, triples = separable_problem(n=4)
    scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
    lines = []
    result = train(scorer, triples, triples, docs,
                   TrainConfig(batch_size=4, max_epochs=2), log=lines.append)
    assert len(lines) == len(result.reports) == 3
    assert lines[0].startswith("epoch  0  train_loss      --")
    assert all(line == r.line() for line, r in zip(lines, result.reports))


# ---------------------------------------------------------------------------
# the batch path: one tape per minibatch
# ---------------------------------------------------------------------------


class _PerPair(Scorer):
    """A scorer's per-pair tape without its batch path, so the trainer
    scores it one triple at a time."""

    architecture = "per_pair"

    def __init__(self, inner):
        self.inner = inner

    def score_graph(self, q_tokens, d_tokens):
        return self.inner.score_graph(q_tokens, d_tokens)

    def parameters(self):
        return self.inner.parameters()


def _per_pair_epoch(scorer, triples, docs, config):
    """The first epoch's updates as a loop over triples, each active hinge
    backpropagated on its own two per-pair tapes."""
    opt = Adam(scorer.trainable_parameters(), lr=config.lr)
    order = np.random.default_rng(np.random.SeedSequence((config.seed, 1))).permutation(len(triples))
    for lo in range(0, len(triples), config.batch_size):
        batch = order[lo:lo + config.batch_size]
        opt.zero_grad()
        for k in batch:
            t = triples[k]
            f_rel = scorer.score_graph(normalize(t.query), docs[t.rel_sku])
            f_irr = scorer.score_graph(normalize(t.query), docs[t.irrel_sku])
            if margin_loss(f_rel.data.item(), f_irr.data.item()) > 0.0:
                f_irr.backward(1.0 / len(batch))
                f_rel.backward(-1.0 / len(batch))
        opt.step()


@pytest.mark.parametrize("frozen", [False, True])
def test_batched_training_matches_per_pair_training(frozen):
    table, docs, triples = separable_problem(n=12)
    # a query token no document holds, and a document cut at N_d
    docs["r0"] = ["q0"] * 9
    triples.append(TrainingTriple("q3 nowhere", "r3", "x5", timestamp=12))
    config = TrainConfig(batch_size=5, max_epochs=1, lr=0.03, frozen=frozen)
    weights = []
    for trainer in ("batched", "per_pair_trainer", "per_pair_loop"):
        scorer = KernelPoolingScorer(table, n_q=4, n_d=8)
        rng = np.random.default_rng(5)
        for p in scorer.parameters():
            p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
        if trainer == "per_pair_loop":
            scorer.embedding.requires_grad = not frozen
            _per_pair_epoch(scorer, triples, docs, config)
        else:
            result = train(scorer if trainer == "batched" else _PerPair(scorer),
                           triples, triples, docs, config)
            assert result.best_epoch == 1 and result.reports[1].train_loss > 0.0
        weights.append([p.data.copy() for p in scorer.parameters()])
    for other in weights[1:]:
        for a, b in zip(weights[0], other):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_training_batch_memory_bound():
    """One minibatch of 128 triples, forward and backward, on the data
    shape of the benchmark's small study: 1,500 users, 400 SKUs, a
    50-dimensional table over the catalog's words and N_q, N_d = 10, 64.
    Building every (distinct query token, distinct SKU) row of the batch
    peaked at 4.5 MB; building only the rows it needs, at 2.0 MB."""
    catalog = generate_catalog(400, seed=0)
    triples = extract_all(generate_clicklog(catalog, 1500, SimulationParams(), seed=0))
    docs = {sku.sku_id: sku.doc_tokens() for sku in catalog}
    words = sorted({t for d in docs.values() for t in d})
    scorer = KernelPoolingScorer(make_table(words, dim=50, seed=1), n_q=10, n_d=64)
    scorer.w.data[:] = 0.1
    rng = np.random.default_rng(0)
    batch = [triples[k] for k in rng.permutation(len(triples))[:128]]
    pairs = [(normalize(t.query), docs[s]) for t in batch for s in (t.rel_sku, t.irrel_sku)]
    seed = np.tile([-1.0, 1.0], 128) / 128
    tracemalloc.start()
    try:
        dot(scorer.score_batch(pairs), Tensor(seed)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scorer.embedding.grad is not None
    assert peak < 3 * 2**20
