"""Scorer architectures: interaction matrix, kernel pooling, tf-idf,
distributed encoders, hybrid head, persistence."""

import numpy as np
import pytest

from prodrank.autodiff import ComputeGraph, LOG_FLOOR, finite_difference_check, load_checkpoint
from prodrank.embeddings import EmbeddingTable, embed_sequence, unit_normalize
from prodrank.models import (
    KernelBank,
    TfIdfScorer,
    default_kernel_bank,
    distributed_encode,
    interaction_matrix,
    kernel_features,
    load_scorer,
    make_scorer,
    save_scorer,
)
from prodrank.text import build_vocabulary

from oracles import kernel_features_loop, tfidf_score_loop


def unit_table(tokens, dim, seed=0):
    rng = np.random.default_rng(seed)
    return unit_normalize(EmbeddingTable(tokens, rng.normal(size=(len(tokens), dim))))


# ---------------------------------------------------------------------------
# Interaction matrix
# ---------------------------------------------------------------------------


def test_interaction_self_similarity_is_one():
    t = unit_table(["a"], 4)
    q = embed_sequence(["a"], 1, t)
    d = embed_sequence(["a"], 1, t)
    m = interaction_matrix(q, d)
    assert m.values.data.shape == (1, 1)
    assert m.values.data[0, 0] == pytest.approx(1.0)


def test_interaction_orthogonal_is_zero():
    t = EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    m = interaction_matrix(embed_sequence(["a"], 1, t), embed_sequence(["b"], 1, t))
    assert m.values.data[0, 0] == 0.0


def test_interaction_padding_rows_zero():
    t = unit_table(["a", "b", "c"], 5)
    q = embed_sequence(["a", "b"], 4, t)
    d = embed_sequence(["c", "a", "b"], 6, t)
    m = interaction_matrix(q, d)
    assert m.n_q_real == 2 and m.n_d_real == 3
    assert np.all(m.values.data[2:, :] == 0.0)
    assert np.all(m.values.data[:, 3:] == 0.0)


def test_interaction_dim_mismatch():
    a = EmbeddingTable(["a"], np.ones((1, 3)))
    b = EmbeddingTable(["a"], np.ones((1, 4)))
    with pytest.raises(ValueError, match="dimensions differ"):
        interaction_matrix(embed_sequence(["a"], 1, a), embed_sequence(["a"], 1, b))


def test_interaction_entries_bounded_for_unit_vectors(rng):
    t = unit_table([f"t{i}" for i in range(12)], 6, seed=2)
    toks = [f"t{i}" for i in range(12)]
    for _ in range(20):
        q = embed_sequence(list(rng.choice(toks, 3)), 4, t)
        d = embed_sequence(list(rng.choice(toks, 7)), 8, t)
        m = interaction_matrix(q, d).values.data
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


class _FakeMatrix:
    """Interaction-matrix stand-in with directly chosen values."""

    def __init__(self, values, n_q_real):
        from prodrank.autodiff import Tensor

        self.values = Tensor(np.asarray(values, dtype=float))
        self.n_q_real = n_q_real
        self.n_d_real = np.asarray(values).shape[1]


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
    q = embed_sequence(["a", "b"], 4, t)
    before = kernel_features(
        interaction_matrix(q, embed_sequence(["c", "c"], 6, t)), s.bank
    ).data[0]
    after = kernel_features(
        interaction_matrix(q, embed_sequence(["c", "c", "a"], 6, t)), s.bank
    ).data[0]
    assert after > before


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


def test_load_scorer_dim_mismatch(tmp_path):
    t4 = unit_table(["a", "b"], 4)
    t5 = unit_table(["a", "b"], 5)
    save_scorer(make_scorer("dssm_like", table=t4), tmp_path / "m.ckpt")
    with pytest.raises(ValueError, match="dimension mismatch"):
        load_scorer(tmp_path / "m.ckpt", t5)


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
