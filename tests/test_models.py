"""Scorer architectures: interaction matrix, kernel pooling, tf-idf,
distributed encoders, hybrid head, persistence."""

import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodrank.autodiff import (
    LOG_FLOOR,
    ComputeGraph,
    Tensor,
    add,
    dot,
    finite_difference_check,
    load_checkpoint,
    matmul,
    reshape,
    save_checkpoint,
    tanh,
)
from prodrank.embeddings import EmbeddingTable, embed_sequence, load_vectors, unit_normalize
from prodrank.models import (
    KernelBank,
    TfIdfScorer,
    default_kernel_bank,
    distributed_encode,
    kernel_features,
    load_scorer,
    make_scorer,
    save_scorer,
)
from prodrank.text import build_vocabulary

from oracles import kernel_features_loop, tfidf_score_loop

COMPAT = Path(__file__).parent / "data" / "compat"


def unit_table(tokens, dim, seed=0):
    rng = np.random.default_rng(seed)
    return unit_normalize(EmbeddingTable(tokens, rng.normal(size=(len(tokens), dim))))


# ---------------------------------------------------------------------------
# Interaction matrix: dot products of embedded query and document rows
# ---------------------------------------------------------------------------


def interaction(q, d, t, n_q, n_d):
    return dot(embed_sequence(q, n_q, t), embed_sequence(d, n_d, t)).data


def test_interaction_self_similarity_is_one():
    m = interaction(["a"], ["a"], unit_table(["a"], 4), 1, 1)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0)


def test_interaction_orthogonal_is_zero():
    t = EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert interaction(["a"], ["b"], t, 1, 1)[0, 0] == 0.0


def test_interaction_padding_rows_zero(rng):
    t = unit_table(["a", "b", "c"], 5)
    m = interaction(["a", "b"], ["c", "a", "b"], t, 4, 6)
    assert np.all(m[2:, :] == 0.0)
    assert np.all(m[:, 3:] == 0.0)
    # the kernel scorer pools only the real query rows, at most n_q of them
    s = make_scorer("kernel_pooling", table=t, n_q=4, n_d=6)
    s.w.data = rng.normal(size=s.w.data.shape)
    for q in (["a", "b"], ["a", "b", "c", "a", "b", "c"]):
        m = _FakeMatrix(interaction(q, ["c", "a"], t, 4, 6), min(len(q), 4))
        want = np.tanh(s.w.data @ kernel_features(m, s.bank).data + s.b.data).item()
        assert s.score(q, ["c", "a"]) == pytest.approx(want, abs=1e-15)


def test_interaction_dim_mismatch():
    a = EmbeddingTable(["a"], np.ones((1, 3)))
    b = EmbeddingTable(["a"], np.ones((1, 4)))
    with pytest.raises(ValueError, match="do not pair"):
        dot(embed_sequence(["a"], 1, a), embed_sequence(["a"], 1, b))


def test_interaction_entries_bounded_for_unit_vectors(rng):
    t = unit_table([f"t{i}" for i in range(12)], 6, seed=2)
    toks = [f"t{i}" for i in range(12)]
    for _ in range(20):
        m = interaction(list(rng.choice(toks, 3)), list(rng.choice(toks, 7)), t, 4, 8)
        assert np.all(m >= -1.0 - 1e-6) and np.all(m <= 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Kernel features
# ---------------------------------------------------------------------------


def test_default_bank_layout():
    bank = default_kernel_bank()
    assert len(bank) == 11
    assert bank.means[0] == 1.0 and bank.widths[0] == 1e-3
    assert np.allclose(bank.means[1:], [0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5, -0.7, -0.9])
    assert np.all(bank.widths[1:] == 0.1)


def test_bank_validation():
    with pytest.raises(ValueError, match="decreasing"):
        KernelBank(np.array([0.5, 0.5]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="positive"):
        KernelBank(np.array([0.5, 0.3]), np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="matching"):
        KernelBank(np.array([0.5]), np.array([0.1, 0.1]))


@pytest.mark.parametrize("means, widths", [
    ([0.5, np.nan], [0.1, 0.1]),
    ([0.5, 0.3], [0.1, np.nan]),
    ([np.inf, 0.3], [0.1, 0.1]),
    ([0.5, 0.3], [0.1, 1e-170]),  # 2 * width**2 underflows to 0
    ([0.5, 0.3], [0.1, 1e-160]),  # 2 * width**2 is subnormal, its reciprocal inf
], ids=["nan-mean", "nan-width", "inf-mean", "underflowing-width", "subnormal-width"])
def test_bank_rejects_damaged_values(means, widths):
    with pytest.raises(ValueError, match="finite|2 \\* width"):
        KernelBank(np.array(means), np.array(widths))


class _FakeMatrix:
    """Interaction-matrix stand-in with directly chosen values."""

    def __init__(self, values, n_q_real):
        from prodrank.autodiff import Tensor

        self.values = Tensor(np.asarray(values, dtype=float))
        self.n_q_real = n_q_real


def test_kernel_single_entry_at_mean():
    bank = KernelBank(np.array([0.4]), np.array([0.2]))
    phi = kernel_features(_FakeMatrix([[0.4]], 1), bank)
    assert phi.data[0] == pytest.approx(0.0, abs=1e-12)  # log(exp(0)) = 0


def test_kernel_floor_engages_far_from_mean():
    bank = KernelBank(np.array([1.0]), np.array([1e-3]))
    phi = kernel_features(_FakeMatrix([[-1.0, -1.0], [-1.0, -1.0]], 2), bank)
    assert phi.data[0] == pytest.approx(2 * np.log(LOG_FLOOR))


def test_kernel_padding_rows_excluded():
    bank = KernelBank(np.array([0.0]), np.array([0.1]))
    full = kernel_features(_FakeMatrix([[0.0, 0.0]], 1), bank)
    padded = kernel_features(_FakeMatrix([[0.0, 0.0], [0.0, 0.0]], 1), bank)
    assert padded.data[0] == pytest.approx(full.data[0])


def test_kernel_matches_double_loop(rng):
    bank = default_kernel_bank()
    for _ in range(100):
        m = rng.uniform(-1, 1, size=(2, 3))
        n_real = int(rng.integers(1, 3))
        got = kernel_features(_FakeMatrix(m, n_real), bank).data
        want = kernel_features_loop(m, n_real, bank.means, bank.widths)
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# tf-idf
# ---------------------------------------------------------------------------


@pytest.fixture
def corpus_vocab(tiny_catalog):
    return build_vocabulary([s.doc_tokens() for s in tiny_catalog])


def test_tfidf_no_shared_tokens(corpus_vocab):
    assert TfIdfScorer(corpus_vocab).score(["zebra"], ["oak", "chair"]) == 0.0


def test_tfidf_single_shared_token(corpus_vocab):
    got = TfIdfScorer(corpus_vocab).score(["velvet"], ["velvet", "sofa"])
    assert got == pytest.approx(corpus_vocab.idf("velvet"))


def test_tfidf_counts_multiplicity(corpus_vocab):
    one = TfIdfScorer(corpus_vocab).score(["red"], ["red", "table"])
    two = TfIdfScorer(corpus_vocab).score(["red"], ["red", "red", "table"])
    assert two == pytest.approx(2 * one)


def test_tfidf_bag_of_words_permutation_invariant(corpus_vocab, rng):
    doc = ["red", "oak", "chair", "sturdy", "classic", "red"]
    q = ["red", "chair"]
    base = TfIdfScorer(corpus_vocab).score(q, doc)
    for _ in range(10):
        shuffled = [doc[i] for i in rng.permutation(len(doc))]
        assert TfIdfScorer(corpus_vocab).score(q, shuffled) == pytest.approx(base)


def test_tfidf_matches_brute_force(rng):
    words = [f"w{i}" for i in range(25)]
    docs = [
        [words[j] for j in rng.integers(0, 25, size=rng.integers(1, 15))]
        for _ in range(20)
    ]
    vocab = build_vocabulary(docs)
    df = {t: vocab.doc_freq[t] for t in vocab.doc_freq}
    for _ in range(50):
        q = [words[j] for j in rng.integers(0, 25, size=rng.integers(1, 5))]
        d = docs[rng.integers(len(docs))]
        assert TfIdfScorer(vocab).score(q, d) == pytest.approx(
            tfidf_score_loop(q, d, df, vocab.n_docs), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Kernel-pooling scorer
# ---------------------------------------------------------------------------


def test_kernel_scorer_zero_weights_gives_tanh_bias():
    t = unit_table(["a", "b"], 4)
    s = make_scorer("kernel_pooling", table=t, n_q=3, n_d=4)
    assert s.score(["a"], ["b"]) == pytest.approx(np.tanh(0.0))
    s.b.data[:] = 0.7
    assert s.score(["a"], ["b"]) == pytest.approx(np.tanh(0.7))


def test_kernel_scorer_linear_flag():
    t = unit_table(["a", "b"], 4)
    s = make_scorer("kernel_pooling", table=t, n_q=3, n_d=4, linear=True)
    s.b.data[:] = 0.7
    assert s.score(["a"], ["b"]) == pytest.approx(0.7)


def test_exact_match_kernel_increases_with_shared_token():
    t = unit_table(["a", "b", "c"], 6, seed=4)
    s = make_scorer("kernel_pooling", table=t, n_q=4, n_d=6)
    before = kernel_features(
        _FakeMatrix(interaction(["a", "b"], ["c", "c"], t, 4, 6), 2), s.bank
    ).data[0]
    after = kernel_features(
        _FakeMatrix(interaction(["a", "b"], ["c", "c", "a"], t, 4, 6), 2), s.bank
    ).data[0]
    assert after > before


# ---------------------------------------------------------------------------
# Kernel pooling in vocabulary space: score_batch against the per-pair form
# ---------------------------------------------------------------------------

BATCH_VOCAB = [f"t{i}" for i in range(8)]
# two tokens outside the table: their vectors are zero, like padding
BATCH_TOKENS = st.sampled_from(BATCH_VOCAB + ["unk1", "unk2"])


def per_pair_score(s, q, d):
    """The per-pair tape: the interaction matrix of the padded query and
    document rows, ``kernel_features`` over its real query rows, the head."""
    m = SimpleNamespace(values=dot(embed_sequence(q, s.n_q, s.table, s.embedding),
                                   embed_sequence(d, s.n_d, s.table, s.embedding)),
                        n_q_real=min(len(q), s.n_q))
    h = add(matmul(s.w, reshape(kernel_features(m, s.bank), (len(s.bank), 1))), s.b)
    return reshape(h if s.linear else tanh(h), ())


def _grads(params):
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None
    return grads


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(st.lists(BATCH_TOKENS, max_size=6),   # N_q is 4
                                st.lists(BATCH_TOKENS, max_size=9)),  # N_d is 6
                      min_size=1, max_size=6),
       repeats=st.integers(0, 3), linear=st.booleans(), frozen=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_score_batch_matches_per_pair_reference(pairs, repeats, linear, frozen, seed):
    rng = np.random.default_rng(seed)
    s = make_scorer("kernel_pooling", table=unit_table(BATCH_VOCAB, 5, seed=3),
                    n_q=4, n_d=6, linear=linear)
    for p in s.parameters():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    s.embedding.requires_grad = not frozen
    pairs = pairs + pairs[:repeats]
    weights = rng.normal(size=len(pairs))
    batch = s.score_batch(pairs)
    dot(batch, Tensor(weights)).backward()
    assert (s.embedding.grad is None) is frozen
    got = _grads(s.parameters())
    want_scores = []
    for (q, d), wt in zip(pairs, weights):
        ref = per_pair_score(s, q, d)
        ref.backward(wt)
        want_scores.append(ref.data.item())
    want = _grads(s.parameters())
    assert batch.data.shape == (len(pairs),)
    assert np.allclose(batch.data, want_scores, rtol=1e-10, atol=1e-10)
    for p, g, w in zip(s.parameters(), got, want):
        assert np.allclose(g, w, rtol=1e-10, atol=1e-10), p.name


def test_score_graph_is_the_one_pair_batch():
    s = make_scorer("kernel_pooling", table=unit_table(BATCH_VOCAB, 5, seed=3), n_q=4, n_d=6)
    s.w.data[:] = np.linspace(-1.0, 1.0, len(s.bank))
    pairs = [(["t1", "t2"], ["t2", "t5", "t1"]), ([], ["t3"]), (["unk1"], [])]
    batch = s.score_batch(pairs).data
    for (q, d), b in zip(pairs, batch):
        one = s.score_graph(q, d)
        assert one.data.shape == () and one.data.item() == pytest.approx(b, abs=1e-12)


def test_one_pair_memory_does_not_grow_with_the_table():
    """One pair's kernel values span its own document's tokens, not the
    table: 10 query tokens against every row of a 20,000-token table
    would hold 11 x 10 x 20,000 floats, 17.6 MB."""
    vocab = [f"w{i}" for i in range(20_000)]
    s = make_scorer("kernel_pooling", table=unit_table(vocab, 4, seed=3), n_q=10, n_d=64)
    q, d = vocab[:10], vocab[::400]
    tracemalloc.start()
    try:
        s.score(q, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Distributed encoders
# ---------------------------------------------------------------------------


def test_dssm_oov_inputs_encode_to_same_constant():
    t = unit_table(["a", "b"], 5)
    s = make_scorer("dssm_like", table=t, n_d=8)
    v1 = s.encode(["nope"])
    v2 = s.encode(["also", "missing", "tokens"])
    assert np.allclose(v1, v2)


def test_encoder_output_dims():
    t = unit_table(["a", "b"], 5)
    assert make_scorer("dssm_like", table=t, out_dim=7).encode(["a"]).shape == (7,)
    assert make_scorer("siamese", table=t, out_dim=9).encode(["a"]).shape == (9,)


def test_dssm_padding_invariant():
    t = unit_table(["a", "b", "c"], 5)
    short = make_scorer("dssm_like", table=t, n_d=4, seed=1)
    long = make_scorer("dssm_like", table=t, n_d=16, seed=1)
    assert np.allclose(short.encode(["a", "c"]), long.encode(["a", "c"]))


def test_distributed_score_self_nonnegative():
    t = unit_table(["a", "b"], 5)
    for arch in ("siamese", "dssm_like"):
        s = make_scorer(arch, table=t)
        assert s.score(["a", "b"], ["a", "b"]) >= 0.0


def test_distributed_score_symmetric():
    t = unit_table(["a", "b", "c"], 5)
    for arch in ("siamese", "dssm_like"):
        s = make_scorer(arch, table=t)
        ab = s.score(["a", "b"], ["c"])
        ba = s.score(["c"], ["a", "b"])
        assert ab == pytest.approx(ba, abs=1e-12)


def test_cached_score_matches_direct():
    t = unit_table(["a", "b", "c"], 5)
    for arch in ("siamese", "dssm_like"):
        s = make_scorer(arch, table=t)
        q, d = ["a", "c"], ["b", "b", "a"]
        cached = s.score_cached(s.encode(q), s.encode(d))
        assert cached == pytest.approx(s.score(q, d), abs=1e-6)


def test_distributed_wrapper_checks_architecture():
    t = unit_table(["a"], 3)
    s = make_scorer("hybrid_local", table=t)
    with pytest.raises(ValueError, match="architecture mismatch"):
        distributed_encode(["a"], s)


def test_distributed_encode_wrapper_works():
    t = unit_table(["a", "b"], 4)
    s = make_scorer("siamese", table=t)
    assert np.allclose(distributed_encode(["a"], s), s.encode(["a"]))


# ---------------------------------------------------------------------------
# Hybrid head
# ---------------------------------------------------------------------------


def test_hybrid_zero_interaction_gives_tanh_bias():
    t = unit_table(["a"], 4)
    s = make_scorer("hybrid_local", table=t, n_q=3, n_d=5)
    assert s.score(["oov"], ["gone"]) == pytest.approx(np.tanh(0.0))
    s.b.data[:] = 0.3
    assert s.score(["oov"], ["gone"]) == pytest.approx(np.tanh(0.3))


def test_hybrid_scalar_output_for_various_sizes():
    t = unit_table(["a", "b", "c"], 4)
    for n_q, n_d in ((3, 5), (4, 8), (10, 64)):
        s = make_scorer("hybrid_local", table=t, n_q=n_q, n_d=n_d)
        out = s.score_graph(["a", "b"], ["c", "a", "b"])
        assert out.data.shape == ()


# ---------------------------------------------------------------------------
# Gradients through full scorers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_scorer_finite_difference(arch, rng):
    t = unit_table([f"t{i}" for i in range(8)], 5, seed=11)
    s = make_scorer(arch, table=t, n_d=6, **({"n_q": 3} if arch in ("kernel_pooling", "hybrid_local") else {}))
    for p in s.trainable_parameters():
        p.data = rng.normal(0.0, 0.3, size=p.data.shape)
    q = ["t0", "t3"]
    d = ["t1", "t4", "t0", "t6"]
    graph = ComputeGraph(lambda: s.score_graph(q, d), s.trainable_parameters())
    assert finite_difference_check(graph) <= 1e-4


# ---------------------------------------------------------------------------
# Construction and persistence
# ---------------------------------------------------------------------------


def test_make_scorer_validation(corpus_vocab):
    with pytest.raises(ValueError, match="vocabulary"):
        make_scorer("tfidf")
    with pytest.raises(ValueError, match="embedding table"):
        make_scorer("kernel_pooling")
    with pytest.raises(ValueError, match="unknown architecture"):
        make_scorer("transformer", table=unit_table(["a"], 3))


def test_descriptors():
    t = unit_table(["a", "b"], 5)
    assert (
        make_scorer("kernel_pooling", table=t, n_q=10, n_d=64).descriptor()
        == "kernel_pooling:K=11,dim=5,Nq=10,Nd=64,linear=0"
    )
    assert make_scorer("siamese", table=t, n_d=32).descriptor() == "siamese:dim=5,Nd=32,C=5,V=5,w=3"
    assert make_scorer("dssm_like", table=t).descriptor() == "dssm_like:dim=5,Nd=64,h=5,V=5"
    assert (
        make_scorer("hybrid_local", table=t, n_q=4, n_d=8).descriptor()
        == "hybrid_local:dim=5,Nq=4,Nd=8,C=4,w=3"
    )


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_save_load_round_trip(arch, tmp_path, rng):
    t = unit_table([f"t{i}" for i in range(6)], 4, seed=5)
    s = make_scorer(arch, table=t, n_d=6, **({"n_q": 3} if arch in ("kernel_pooling", "hybrid_local") else {}))
    for p in s.trainable_parameters():
        p.data = rng.normal(size=p.data.shape)
    path = tmp_path / "model.ckpt"
    save_scorer(s, path)
    back = load_scorer(path, t)
    q, d = ["t0", "t2"], ["t3", "t1", "t5"]
    assert back.descriptor() == s.descriptor()
    assert back.score(q, d) == pytest.approx(s.score(q, d), abs=1e-15)


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_recorded_checkpoints_score_as_recorded(arch):
    # tests/data/compat holds a dim-4 vector file, one checkpoint per
    # architecture (n_d 6, random weights) and the scores of fixed pairs,
    # all written by commit afab448.  Matching them pins what a gradient
    # check cannot: the conv_w flattening and hybrid_local's orientation.
    recorded = json.loads((COMPAT / "scores.json").read_text())
    scorer = load_scorer(COMPAT / f"{arch}.ckpt", load_vectors(COMPAT / "vectors.txt"))
    for (q, d), want in zip(recorded["pairs"], recorded["scores"][arch], strict=True):
        assert scorer.score(q, d) == pytest.approx(want, abs=1e-12)


def test_load_scorer_dim_mismatch(tmp_path):
    t4 = unit_table(["a", "b"], 4)
    t5 = unit_table(["a", "b"], 5)
    save_scorer(make_scorer("dssm_like", table=t4), tmp_path / "m.ckpt")
    with pytest.raises(ValueError, match="dimension mismatch"):
        load_scorer(tmp_path / "m.ckpt", t5)


def test_load_scorer_refuses_nan_kernel_width(tmp_path):
    t = unit_table(["a", "b"], 4)
    save_scorer(make_scorer("kernel_pooling", table=t), tmp_path / "m.ckpt")
    descriptor, tensors = load_checkpoint(tmp_path / "m.ckpt")
    tensors["kernel_widths"][3] = np.nan
    save_checkpoint(tmp_path / "m.ckpt", descriptor, tensors)
    with pytest.raises(ValueError, match="finite"):
        load_scorer(tmp_path / "m.ckpt", t)


def test_save_scorer_rejects_tfidf(corpus_vocab, tmp_path):
    with pytest.raises(ValueError, match="cannot checkpoint"):
        save_scorer(make_scorer("tfidf", vocab=corpus_vocab), tmp_path / "m.ckpt")


def test_load_scorer_refuses_reordered_vocabulary(tmp_path):
    t = unit_table(["a", "b", "c"], 4)
    save_scorer(make_scorer("kernel_pooling", table=t), tmp_path / "m.ckpt")
    reversed_table = EmbeddingTable(t.tokens[::-1], t.vectors[::-1].copy())
    with pytest.raises(ValueError, match="vocabulary mismatch"):
        load_scorer(tmp_path / "m.ckpt", reversed_table)


def test_checkpoint_descriptor_carries_vocab_hash(tmp_path):
    t = unit_table(["a", "b"], 4)
    s = make_scorer("siamese", table=t, n_d=8)
    save_scorer(s, tmp_path / "m.ckpt")
    descriptor, _ = load_checkpoint(tmp_path / "m.ckpt")
    head, _, vocab = descriptor.rpartition(",vocab=")
    assert head == s.descriptor()
    assert vocab and "," not in vocab and "=" not in vocab


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_truncated_checkpoint_never_loads(arch, tmp_path):
    t = unit_table(["a", "b", "c"], 4)
    s = make_scorer(arch, table=t, n_d=4, **({"n_q": 3} if arch in ("kernel_pooling", "hybrid_local") else {}))
    save_scorer(s, tmp_path / "full.ckpt")
    blob = (tmp_path / "full.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    # every proper prefix, and the whole file with bytes appended
    for bad in [blob[:n] for n in range(len(blob))] + [blob + b"garbage"]:
        cut.write_bytes(bad)
        with pytest.raises(ValueError):
            load_scorer(cut, t)
