"""Embedding tables, sequence embedding, normalization, vector files,
and the skip-gram pre-trainer."""

import numpy as np
import pytest

from prodrank.autodiff import Tensor, asum
from prodrank.embeddings import (
    EmbeddingTable,
    embed_sequence,
    load_vectors,
    save_vectors,
    train_skipgram,
    unit_normalize,
)


@pytest.fixture
def table():
    return EmbeddingTable(
        ["red", "oak", "chair"],
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )


def test_table_lookup(table):
    assert table.dim == 2
    assert len(table) == 3
    assert table.ids_of(["oak", "pine", "oak"]) == [1, -1, 1]
    assert np.array_equal(table.vectors[table.ids_of(["oak"])[0]], [0.0, 1.0])


def test_table_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="does not match"):
        EmbeddingTable(["a", "b"], np.zeros((3, 2)))


def test_table_duplicate_token_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingTable(["a", "a"], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# embed_sequence
# ---------------------------------------------------------------------------


def test_empty_sequence_is_all_padding(table):
    emb = embed_sequence([], 3, table)
    assert emb.data.shape == (3, 2)
    assert np.all(emb.data == 0.0)


def test_truncation_to_n_positions(table):
    emb = embed_sequence(["red", "oak", "chair", "red", "oak"], 3, table)
    assert emb.data.shape == (3, 2)
    assert np.array_equal(emb.data[0], [1.0, 0.0])
    assert np.array_equal(emb.data[2], [1.0, 1.0])


def test_padding_after_single_token(table):
    emb = embed_sequence(["chair"], 3, table)
    assert np.array_equal(emb.data, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_oov_token_embeds_to_zero_column(table):
    emb = embed_sequence(["red", "mystery", "oak"], 4, table)
    assert np.array_equal(emb.data[2], [0.0, 1.0])
    assert np.all(emb.data[1] == 0.0)
    assert np.all(emb.data[3] == 0.0)  # padding looks the same


def test_bad_n_positions_rejected(table):
    with pytest.raises(ValueError, match="n_positions"):
        embed_sequence(["red"], 0, table)


def test_embed_never_nan(table):
    emb = embed_sequence(["red", "??", ""], 5, table)
    assert np.all(np.isfinite(emb.data))


def test_differentiable_path_reaches_table(table):
    param = Tensor(table.vectors.copy(), requires_grad=True)
    emb = embed_sequence(["oak", "oov"], 2, table, param=param)
    asum(emb).backward()
    assert param.grad is not None
    assert np.array_equal(param.grad[1], [1.0, 1.0])  # oak row
    assert np.all(param.grad[0] == 0.0)  # untouched rows stay zero


# ---------------------------------------------------------------------------
# unit_normalize
# ---------------------------------------------------------------------------


def test_unit_normalize_three_four_five():
    t = EmbeddingTable(["a"], np.array([[3.0, 4.0]]))
    out = unit_normalize(t)
    assert np.allclose(out.vectors, [[0.6, 0.8]])


def test_unit_normalize_keeps_zero_vectors():
    t = EmbeddingTable(["a", "b"], np.array([[0.0, 0.0], [2.0, 0.0]]))
    out = unit_normalize(t)
    assert np.array_equal(out.vectors[0], [0.0, 0.0])
    assert np.array_equal(out.vectors[1], [1.0, 0.0])


def test_unit_normalize_random_norms(rng):
    t = EmbeddingTable([f"t{i}" for i in range(50)], rng.normal(size=(50, 7)) * 3)
    out = unit_normalize(t)
    norms = np.linalg.norm(out.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_unit_normalize_idempotent(rng):
    t = EmbeddingTable([f"t{i}" for i in range(20)], rng.normal(size=(20, 5)))
    once = unit_normalize(t)
    twice = unit_normalize(once)
    assert np.allclose(once.vectors, twice.vectors, atol=1e-15)


# ---------------------------------------------------------------------------
# vector files
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, rng):
    t = EmbeddingTable([f"tok{i}" for i in range(9)], rng.normal(size=(9, 4)))
    p = tmp_path / "vec.txt"
    save_vectors(t, p)
    back = load_vectors(p)
    assert back.tokens == t.tokens
    assert np.array_equal(back.vectors, t.vectors)  # bit-exact round trip


def test_vector_file_shape(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0 3.0 4.0\nb 5.0 6.0 7.0 8.0\n")
    t = load_vectors(p)
    assert len(t) == 2 and t.dim == 4


def test_vector_file_dim_mismatch(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0 3.0 4.0\nb 5.0 6.0 7.0\n")
    with pytest.raises(ValueError, match="vec.txt:2"):
        load_vectors(p)


def test_vector_file_bad_number(tmp_path):
    p = tmp_path / "vec.txt"
    for bad in ("oops", "nan", "inf", "-inf"):
        p.write_text(f"a 1.0 {bad}\n")
        with pytest.raises(ValueError, match="vec.txt:1"):
            load_vectors(p)


def test_vector_file_empty(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_vectors(p)


def test_save_rejects_spacey_token(tmp_path):
    t = EmbeddingTable(["bad token"], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="bad token"):
        save_vectors(t, tmp_path / "vec.txt")


# ---------------------------------------------------------------------------
# skip-gram
# ---------------------------------------------------------------------------


def test_skipgram_cooccurrence_ordering():
    # x and y always together, z always alone -> cos(x,y) > cos(x,z)
    corpus = [["x", "y"]] * 80 + [["z", "w"]] * 80
    t = unit_normalize(train_skipgram(corpus, dim=8, epochs=10, seed=3))
    x, y, z = t.vectors[t.ids_of(["x", "y", "z"])]
    cos_xy = float(x @ y)
    cos_xz = float(x @ z)
    assert cos_xy > cos_xz


def test_skipgram_deterministic():
    corpus = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]]
    t1 = train_skipgram(corpus, dim=6, epochs=2, seed=9)
    t2 = train_skipgram(corpus, dim=6, epochs=2, seed=9)
    assert t1.tokens == t2.tokens
    assert np.array_equal(t1.vectors, t2.vectors)


def test_skipgram_shape(rng):
    words = [f"w{i}" for i in range(30)]
    corpus = [
        [words[j] for j in rng.integers(0, 30, size=6)] for _ in range(100)
    ]
    t = train_skipgram(corpus, dim=8, epochs=1, seed=0)
    assert t.vectors.shape == (len(t.tokens), 8)
    assert set(t.tokens) == {w for s in corpus for w in s}


def test_skipgram_negative_draw_past_cdf_end(monkeypatch):
    # token counts 1, 5, 5 leave the noise CDF ending just below the
    # largest uniform draw, so an unclamped sampler indexes past the table
    corpus = [["a"] + ["b"] * 5 + ["c"] * 5]
    top = np.nextafter(1.0, 0.0)
    noise = np.array([1.0, 5.0, 5.0]) ** 0.75
    assert np.cumsum(noise / noise.sum())[-1] < top
    real = np.random.default_rng

    class TopDraws:
        """Real draws for the initial vectors, the top draw for negatives."""

        def __init__(self, seed):
            self._rng = real(seed)

        def random(self, size):
            return self._rng.random(size) if isinstance(size, tuple) else np.full(size, top)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", TopDraws)
    t = train_skipgram(corpus, dim=4, epochs=1, seed=0)
    assert t.tokens == ["a", "b", "c"] and np.all(np.isfinite(t.vectors))


def test_skipgram_degenerate_corpus():
    with pytest.raises(ValueError, match="degenerate"):
        train_skipgram([["only"], ["only", "only"]], dim=4)
    with pytest.raises(ValueError, match="degenerate"):
        train_skipgram([], dim=4)
