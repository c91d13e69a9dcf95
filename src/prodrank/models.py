"""Scoring functions f(query, document) for product ranking.

Five architectures under one contract: a tf-idf lexical baseline, a
kernel-pooling model over the token-similarity interaction matrix, two
distributed encoders (convolutional "siamese" and a sum-then-mlp variant)
scored by dot product of their encodings, and a hybrid that runs a small
convolutional head over the interaction matrix itself.

All trainable scorers share one embedding table; the interaction matrix
between a query and a document holds pairwise dot products of their token
vectors (cosines once the table is unit-normalized).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embeddings import EmbeddingTable, LocalEmbedding, embed_sequence
from .text import Vocabulary


@dataclass
class KernelBank:
    """RBF kernel means and widths for soft term-frequency pooling."""

    means: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.widths = np.asarray(self.widths, dtype=np.float64)
        if self.means.ndim != 1 or self.means.shape != self.widths.shape or self.means.size < 1:
            raise ValueError("kernel bank needs matching nonempty mean/width lists")
        if np.any(self.widths <= 0):
            raise ValueError("kernel widths must be positive")
        if np.any(np.diff(self.means) >= 0):
            raise ValueError("kernel means must be strictly decreasing")

    def __len__(self) -> int:
        return self.means.size


def default_kernel_bank() -> KernelBank:
    """Eleven kernels: one near-exact-match at 1.0 plus ten soft bins."""
    means = [1.0] + [round(0.9 - 0.2 * i, 1) for i in range(10)]
    widths = [1e-3] + [0.1] * 10
    return KernelBank(np.array(means), np.array(widths))


@dataclass
class InteractionMatrix:
    """Pairwise query-token x document-token similarities, with the count
    of real (non-padding) rows and columns."""

    values: Tensor
    n_q_real: int
    n_d_real: int


def interaction_matrix(q: LocalEmbedding, d: LocalEmbedding) -> InteractionMatrix:
    """All pairwise dot products between query and document token vectors."""
    if q.matrix.shape[0] != d.matrix.shape[0]:
        raise ValueError(
            f"embedding dimensions differ: query {q.matrix.shape[0]} vs document {d.matrix.shape[0]}"
        )
    values = ad.dot(ad.transpose(q.matrix), ad.transpose(d.matrix))
    return InteractionMatrix(values, q.n_real, d.n_real)


def kernel_features(m: InteractionMatrix, bank: KernelBank) -> Tensor:
    """Soft term-frequency feature vector, one entry per kernel.

    Each kernel k pools every interaction row i into
    ``log(max(sum_j exp(-(M_ij - mu_k)^2 / (2 sigma_k^2)), 1e-10))`` and
    the features sum those row scores over the real query rows only.
    Padding document columns are left in the row sums; they add a
    parameter-independent constant per kernel.
    """
    n_q, n_d = m.values.shape
    mask = np.zeros(n_q)
    mask[: m.n_q_real] = 1.0
    m3 = ad.reshape(m.values, (1, n_q, n_d))
    diff = ad.add(m3, Tensor(-bank.means.reshape(-1, 1, 1)))
    z = ad.mul(ad.mul(diff, diff), Tensor(-1.0 / (2.0 * bank.widths**2).reshape(-1, 1, 1)))
    row_sums = ad.asum(ad.exp(z), axis=2)  # (K, n_q)
    return ad.asum(ad.mul(ad.log(row_sums), Tensor(mask)), axis=1)


class Scorer:
    """Uniform contract: score a (query tokens, document tokens) pair.

    ``score_graph`` returns the score as a differentiable scalar tensor;
    ``score`` is the plain-float convenience wrapper.
    """

    architecture: str = "?"

    def score_graph(self, q_tokens: list[str], d_tokens: list[str]) -> Tensor:
        raise NotImplementedError

    def score(self, q_tokens: list[str], d_tokens: list[str]) -> float:
        return self.score_graph(q_tokens, d_tokens).data.item()

    def parameters(self) -> list[Tensor]:
        return []

    def trainable_parameters(self) -> list[Tensor]:
        return [p for p in self.parameters() if p.requires_grad]

    def descriptor(self) -> str:
        return self.architecture


class TfIdfScorer(Scorer):
    """f = sum_t tf_q(t) * tf_d(t) * idf(t) over the full, untruncated texts."""

    architecture = "tfidf"

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    def score(self, q_tokens: list[str], d_tokens: list[str]) -> float:
        tf_q = Counter(q_tokens)
        tf_d = Counter(d_tokens)
        if len(tf_d) < len(tf_q):
            tf_q, tf_d = tf_d, tf_q
        return float(
            sum(n * tf_d[t] * self.vocab.idf(t) for t, n in tf_q.items() if t in tf_d)
        )

    def score_graph(self, q_tokens, d_tokens) -> Tensor:
        return Tensor(self.score(q_tokens, d_tokens))


class _EmbeddingScorer(Scorer):
    """Shared machinery for scorers built on the embedding table."""

    # (descriptor key, attribute) pairs in descriptor order.  Each
    # attribute is also a constructor keyword, except ``dim`` and
    # ``n_kernels``, which the table and the kernel bank fix.
    FIELDS: tuple[tuple[str, str], ...] = ()

    def __init__(self, table: EmbeddingTable):
        self.table = table
        self._params: list[Tensor] = []
        self.embedding = self._param("embedding", table.vectors.copy())

    def _param(self, name: str, data: np.ndarray) -> Tensor:
        """A trainable tensor, recorded so ``parameters()`` lists it in
        creation order (the order of checkpoint tensors and of Adam)."""
        tensor = Tensor(data, requires_grad=True, name=name)
        self._params.append(tensor)
        return tensor

    def parameters(self) -> list[Tensor]:
        return list(self._params)

    @property
    def dim(self) -> int:
        return self.table.dim

    def descriptor(self) -> str:
        """``arch:key=value,...`` with one integer per entry of ``FIELDS``."""
        values = ",".join(f"{key}={int(getattr(self, attr))}" for key, attr in self.FIELDS)
        return f"{self.architecture}:{values}"

    def embedding_table(self) -> EmbeddingTable:
        """Current (possibly trained) vectors as a fresh table."""
        return EmbeddingTable(list(self.table.tokens), self.embedding.data.copy())

    def _embed(self, tokens: list[str], n_positions: int) -> LocalEmbedding:
        return embed_sequence(tokens, n_positions, self.table, self.embedding)

    def _mlp_layer(self, w: Tensor, b: Tensor, x: Tensor, final: bool = False) -> Tensor:
        """One column-vector mlp layer: tanh(W x + b), linear if ``final``."""
        h = ad.add(ad.matmul(w, x), b)
        return h if final else ad.tanh(h)


class KernelPoolingScorer(_EmbeddingScorer):
    """Kernel-pooled soft term frequencies fed to a one-layer head."""

    architecture = "kernel_pooling"
    FIELDS = (("K", "n_kernels"), ("dim", "dim"), ("Nq", "n_q"), ("Nd", "n_d"),
              ("linear", "linear"))

    def __init__(
        self,
        table: EmbeddingTable,
        bank: KernelBank | None = None,
        n_q: int = 10,
        n_d: int = 64,
        linear: bool = False,
        seed: int = 0,
    ):
        super().__init__(table)
        self.bank = bank if bank is not None else default_kernel_bank()
        self.n_q = n_q
        self.n_d = n_d
        self.linear = bool(linear)
        k = len(self.bank)
        # single linear map over kernel features: no symmetry to break, so
        # start at zero and let the first gradient step pick the signs
        self.w = self._param("head_w", np.zeros((1, k)))
        self.b = self._param("head_b", np.zeros((1, 1)))

    @property
    def n_kernels(self) -> int:
        return len(self.bank)

    def score_graph(self, q_tokens, d_tokens) -> Tensor:
        q = self._embed(q_tokens, self.n_q)
        d = self._embed(d_tokens, self.n_d)
        phi = kernel_features(interaction_matrix(q, d), self.bank)
        h = self._mlp_layer(self.w, self.b, ad.reshape(phi, (len(self.bank), 1)), final=self.linear)
        return ad.reshape(h, ())


class SiameseScorer(_EmbeddingScorer):
    """Convolutional encoder shared by both sides; score is the dot
    product of the two encodings, so document vectors can be precomputed."""

    architecture = "siamese"
    FIELDS = (("dim", "dim"), ("Nd", "n_d"), ("C", "channels"), ("V", "out_dim"), ("w", "width"))

    def __init__(
        self,
        table: EmbeddingTable,
        n_d: int = 64,
        out_dim: int | None = None,
        channels: int | None = None,
        width: int = 3,
        seed: int = 0,
    ):
        super().__init__(table)
        dim = table.dim
        self.n_d = n_d
        self.width = width
        self.channels = channels if channels is not None else dim
        self.out_dim = out_dim if out_dim is not None else dim
        rng = np.random.default_rng(seed)
        self.wc = self._param("conv_w", rng.normal(
            0.0, 1.0 / np.sqrt(dim * width), size=(self.channels, dim * width)))
        self.w1 = self._param("enc_w", rng.normal(
            0.0, 1.0 / np.sqrt(self.channels), size=(self.out_dim, self.channels)))
        self.b1 = self._param("enc_b", np.zeros((self.out_dim, 1)))

    def encode_graph(self, tokens: list[str]) -> Tensor:
        # both sides use the document width so the encoder is side-agnostic
        e = self._embed(tokens, self.n_d)
        c = ad.tanh(ad.conv1d(e.matrix, self.wc, self.width))
        pooled = ad.reshape(ad.max_pool(c, axis=1), (self.channels, 1))
        v = ad.tanh(ad.add(ad.matmul(self.w1, pooled), self.b1))
        return ad.reshape(v, (self.out_dim,))

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array(self.encode_graph(tokens).data)

    def score_graph(self, q_tokens, d_tokens) -> Tensor:
        return ad.dot(self.encode_graph(q_tokens), self.encode_graph(d_tokens))

    def score_cached(self, q_vector: np.ndarray, d_vector: np.ndarray) -> float:
        return float(q_vector @ d_vector)


class DssmScorer(_EmbeddingScorer):
    """Sum the token vectors, then a three-layer tanh mlp; dot-product score."""

    architecture = "dssm_like"
    FIELDS = (("dim", "dim"), ("Nd", "n_d"), ("h", "hidden"), ("V", "out_dim"))

    def __init__(
        self,
        table: EmbeddingTable,
        n_d: int = 64,
        hidden: int | None = None,
        out_dim: int | None = None,
        seed: int = 0,
    ):
        super().__init__(table)
        dim = table.dim
        self.n_d = n_d
        self.hidden = hidden if hidden is not None else dim
        self.out_dim = out_dim if out_dim is not None else dim
        rng = np.random.default_rng(seed)

        def layer(rows, cols, tag):
            w = self._param(f"{tag}_w", rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols)))
            return w, self._param(f"{tag}_b", np.zeros((rows, 1)))

        self.w1, self.b1 = layer(self.hidden, dim, "l1")
        self.w2, self.b2 = layer(self.hidden, self.hidden, "l2")
        self.w3, self.b3 = layer(self.out_dim, self.hidden, "l3")

    def encode_graph(self, tokens: list[str]) -> Tensor:
        e = self._embed(tokens, self.n_d)
        s = ad.reshape(ad.asum(e.matrix, axis=1), (self.table.dim, 1))
        h = self._mlp_layer(self.w1, self.b1, s)
        h = self._mlp_layer(self.w2, self.b2, h)
        v = self._mlp_layer(self.w3, self.b3, h)
        return ad.reshape(v, (self.out_dim,))

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array(self.encode_graph(tokens).data)

    def score_graph(self, q_tokens, d_tokens) -> Tensor:
        return ad.dot(self.encode_graph(q_tokens), self.encode_graph(d_tokens))

    def score_cached(self, q_vector: np.ndarray, d_vector: np.ndarray) -> float:
        return float(q_vector @ d_vector)


class HybridLocalScorer(_EmbeddingScorer):
    """Convolution over the interaction matrix itself, pooled and fed to a
    one-layer head: a local-interaction model with a learned composition."""

    architecture = "hybrid_local"
    FIELDS = (("dim", "dim"), ("Nq", "n_q"), ("Nd", "n_d"), ("C", "channels"), ("w", "width"))

    def __init__(
        self,
        table: EmbeddingTable,
        n_q: int = 10,
        n_d: int = 64,
        channels: int | None = None,
        width: int = 3,
        seed: int = 0,
    ):
        super().__init__(table)
        self.n_q = n_q
        self.n_d = n_d
        self.width = width
        self.channels = channels if channels is not None else n_q
        rng = np.random.default_rng(seed)
        self.wc = self._param("conv_w", rng.normal(
            0.0, 1.0 / np.sqrt(n_q * width), size=(self.channels, n_q * width)))
        self.w = self._param("head_w", rng.normal(
            0.0, 1.0 / np.sqrt(self.channels), size=(1, self.channels)))
        self.b = self._param("head_b", np.zeros((1, 1)))

    def score_graph(self, q_tokens, d_tokens) -> Tensor:
        q = self._embed(q_tokens, self.n_q)
        d = self._embed(d_tokens, self.n_d)
        m = interaction_matrix(q, d)
        c = ad.tanh(ad.conv1d(m.values, self.wc, self.width))
        pooled = ad.reshape(ad.max_pool(c, axis=1), (self.channels, 1))
        out = ad.tanh(ad.add(ad.matmul(self.w, pooled), self.b))
        return ad.reshape(out, ())


def distributed_encode(tokens, scorer: Scorer) -> np.ndarray:
    """A distributed scorer's cacheable encoding of one token list."""
    if scorer.architecture not in ("siamese", "dssm_like"):
        raise ValueError(
            f"architecture mismatch: need siamese or dssm_like, got {scorer.architecture}"
        )
    return scorer.encode(tokens)


# ---------------------------------------------------------------------------
# Construction and persistence
# ---------------------------------------------------------------------------

CLASSES: dict[str, type[_EmbeddingScorer]] = {
    cls.architecture: cls
    for cls in (KernelPoolingScorer, SiameseScorer, DssmScorer, HybridLocalScorer)
}


def make_scorer(architecture: str, table: EmbeddingTable | None = None,
                vocab: Vocabulary | None = None, **kwargs) -> Scorer:
    """Build a scorer by architecture tag.

    ``tfidf`` needs ``vocab``; every other architecture needs ``table``.
    Keyword arguments pass through to the architecture's constructor.
    """
    if architecture == "tfidf":
        if vocab is None:
            raise ValueError("tfidf scorer requires a vocabulary")
        return TfIdfScorer(vocab)
    if table is None:
        raise ValueError(f"{architecture} scorer requires an embedding table")
    if architecture not in CLASSES:
        raise ValueError(
            f"unknown architecture {architecture!r}; "
            f"expected one of {', '.join(['tfidf', *CLASSES])}"
        )
    return CLASSES[architecture](table, **kwargs)


def _vocab_hash(tokens: list[str]) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()[:16]


def save_scorer(scorer: Scorer, path) -> None:
    """Checkpoint a trainable scorer: descriptor plus named weight tensors.

    The embedding matrix is stored in the checkpoint; the token list is
    not, only its hash in the descriptor's ``vocab`` field, so loading
    requires an embedding table with the same tokens in the same order.
    """
    if not isinstance(scorer, _EmbeddingScorer):
        raise ValueError(f"cannot checkpoint architecture {scorer.architecture!r}")
    tensors = {p.name: p.data for p in scorer.parameters()}
    if isinstance(scorer, KernelPoolingScorer):
        tensors["kernel_means"] = scorer.bank.means
        tensors["kernel_widths"] = scorer.bank.widths
    descriptor = f"{scorer.descriptor()},vocab={_vocab_hash(scorer.table.tokens)}"
    ad.save_checkpoint(path, descriptor, tensors)


def load_scorer(path, table: EmbeddingTable) -> Scorer:
    """Rebuild a checkpointed scorer against a token table.

    The table supplies the vocabulary and must be the one the checkpoint
    was saved with; the checkpoint's trained embedding matrix replaces
    the table's vectors.
    """
    descriptor, tensors = ad.load_checkpoint(path)
    arch, _, rest = descriptor.partition(":")
    if arch not in CLASSES:
        raise ValueError(f"unknown architecture {arch!r} in checkpoint {path}")
    cls = CLASSES[arch]
    try:
        fields = dict(item.split("=", 1) for item in rest.split(","))
        kwargs = {attr: int(fields[key]) for key, attr in cls.FIELDS}
        vocab = fields["vocab"]
    except (KeyError, ValueError):
        raise ValueError(f"checkpoint {path} has a malformed descriptor {descriptor!r}") from None
    if kwargs.pop("dim") != table.dim:
        raise ValueError(
            f"embedding dimension mismatch: checkpoint {fields['dim']}, table {table.dim}"
        )
    if vocab != _vocab_hash(table.tokens):
        raise ValueError(f"vocabulary mismatch: checkpoint {path} was saved with other tokens")

    def tensor(name: str) -> np.ndarray:
        if name not in tensors:
            raise ValueError(f"checkpoint {path} is missing tensor {name!r}")
        return tensors[name]

    if cls is KernelPoolingScorer:
        kwargs["bank"] = KernelBank(tensor("kernel_means"), tensor("kernel_widths"))
        if kwargs.pop("n_kernels") != len(kwargs["bank"]):
            raise ValueError(f"checkpoint {path}: K disagrees with its kernel bank")
    scorer = cls(table, **kwargs)
    for p in scorer.parameters():
        if tensor(p.name).shape != p.data.shape:
            raise ValueError(
                f"checkpoint tensor {p.name!r} has shape {tensors[p.name].shape}, "
                f"expected {p.data.shape}"
            )
        p.data = np.array(tensors[p.name])
    return scorer
