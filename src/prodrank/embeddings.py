"""Word-embedding tables, the padded/truncated local embedding of a token
sequence, unit normalization, and a small skip-gram pre-trainer.

Conventions shared with the scorers: out-of-vocabulary tokens map to the
zero vector (same as padding), and a sequence embeds to a (dim, N) matrix
whose first ``min(len(tokens), N)`` columns are real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, gather_rows, transpose


@dataclass
class EmbeddingTable:
    """token -> dense vector map backed by one (V, dim) array."""

    tokens: list[str]
    vectors: np.ndarray
    _ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.tokens):
            raise ValueError(
                f"vector array {self.vectors.shape} does not match {len(self.tokens)} tokens"
            )
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("duplicate token in embedding table")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Row index of a token, -1 when unknown."""
        return self._ids.get(token, -1)

    def vector(self, token: str) -> np.ndarray:
        i = self.id_of(token)
        return self.vectors[i] if i >= 0 else np.zeros(self.dim)


@dataclass
class LocalEmbedding:
    """A token sequence as a (dim, N) matrix: one vector per column,
    zero columns past ``n_real``."""

    matrix: Tensor
    n_real: int


def embed_sequence(
    tokens: list[str], n_positions: int, table: EmbeddingTable, param: Tensor | None = None
) -> LocalEmbedding:
    """Embed ``tokens`` into a fixed-width (dim, n_positions) matrix.

    The sequence is truncated to ``n_positions`` columns; shorter
    sequences are zero-padded on the right.  Unknown tokens give zero
    columns.  Pass the table's vectors wrapped as a trainable ``param``
    tensor to make the result differentiable w.r.t. the table.
    """
    if n_positions < 1:
        raise ValueError(f"n_positions must be >= 1, got {n_positions}")
    ids = np.full(n_positions, -1, dtype=np.int64)
    n_real = min(len(tokens), n_positions)
    for j in range(n_real):
        ids[j] = table.id_of(tokens[j])
    if param is None:
        known = ids >= 0
        mat = np.zeros((n_positions, table.dim))
        mat[known] = table.vectors[ids[known]]
        return LocalEmbedding(transpose(Tensor(mat)), n_real)
    return LocalEmbedding(transpose(gather_rows(param, ids)), n_real)


def unit_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every nonzero vector to unit 2-norm; zero vectors stay zero."""
    norms = np.linalg.norm(table.vectors, axis=1, keepdims=True)
    scale = np.where(norms > 0.0, norms, 1.0)
    return EmbeddingTable(list(table.tokens), table.vectors / scale)


def save_vectors(table: EmbeddingTable, path) -> None:
    """Write one line per token: ``token v1 v2 ... vk`` (full precision)."""
    with open(path, "w", encoding="utf-8") as f:
        for token, row in zip(table.tokens, table.vectors):
            if " " in token or not token:
                raise ValueError(f"token {token!r} cannot be written to the vector format")
            f.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_vectors(path) -> EmbeddingTable:
    """Read the ``save_vectors`` format back; exact round-trip."""
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    dim = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                row = np.array([float(v) for v in parts[1:]])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: unparsable vector entry ({e})") from None
            if dim is None:
                dim = row.size
                if dim == 0:
                    raise ValueError(f"{path}:{lineno}: no vector components")
            elif row.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} components, found {row.size}"
                )
            tokens.append(parts[0])
            rows.append(row)
    if not tokens:
        raise ValueError(f"{path}: empty vector file")
    return EmbeddingTable(tokens, np.vstack(rows))


def train_skipgram(
    corpus: list[list[str]],
    dim: int = 300,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
    lr: float = 0.025,
) -> EmbeddingTable:
    """Skip-gram with negative sampling over a tokenized corpus.

    Single-threaded and fully determined by ``seed``.  Dynamic window
    (radius drawn uniformly from 1..window per position), unigram^0.75
    negative-sampling distribution, linear learning-rate decay.
    """
    sentences = [s for s in corpus if s]
    tokens: list[str] = []
    ids: dict[str, int] = {}
    for s in sentences:
        for t in s:
            if t not in ids:
                ids[t] = len(tokens)
                tokens.append(t)
    if len(tokens) < 2:
        raise ValueError(
            f"degenerate corpus: skip-gram needs >= 2 distinct tokens, found {len(tokens)}"
        )
    counts = np.zeros(len(tokens))
    encoded = []
    for s in sentences:
        row = np.array([ids[t] for t in s], dtype=np.int64)
        np.add.at(counts, row, 1)
        encoded.append(row)

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(tokens), dim)) - 0.5) / dim
    w_out = np.zeros((len(tokens), dim))
    noise = counts**0.75
    cum = np.cumsum(noise / noise.sum())
    # rounding can leave the sum below 1; draws lie in [0, 1), so an exact
    # 1 here clamps every searchsorted index to the last token
    cum[-1] = 1.0

    total = max(1, epochs * sum(len(row) for row in encoded))
    step = 0
    for _ in range(epochs):
        for si in rng.permutation(len(encoded)):
            row = encoded[si]
            for pos in range(len(row)):
                alpha = lr * max(1e-4, 1.0 - step / total)
                step += 1
                center = row[pos]
                radius = int(rng.integers(1, window + 1))
                for cpos in range(max(0, pos - radius), min(len(row), pos + radius + 1)):
                    if cpos == pos:
                        continue
                    targets = np.empty(negatives + 1, dtype=np.int64)
                    targets[0] = row[cpos]
                    targets[1:] = np.searchsorted(cum, rng.random(negatives))
                    v = w_in[center]
                    u = w_out[targets]
                    scores = 1.0 / (1.0 + np.exp(-(u @ v)))
                    scores[0] -= 1.0  # residual: prediction minus label
                    g = -alpha * scores
                    w_in[center] = v + g @ u
                    np.add.at(w_out, targets, np.outer(g, v))
    return EmbeddingTable(tokens, w_in)
