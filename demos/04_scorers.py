"""The five ranking architectures side by side on one tiny catalog.

One lexical baseline (tf-idf) and four neural rankers that share an
embedding table: kernel pooling and a convolutional hybrid work on the
query x document similarity matrix; the siamese and summing encoders
compress each side to a vector first, which makes document vectors
cacheable.
"""

from types import SimpleNamespace

import numpy as np

from prodrank.autodiff import dot
from prodrank.embeddings import EmbeddingTable, embed_sequence, unit_normalize
from prodrank.models import (
    default_kernel_bank,
    distributed_encode,
    kernel_features,
    make_scorer,
)
from prodrank.text import build_vocabulary, normalize

titles = {
    "sku1": "red oak chair",
    "sku2": "red oak table",
    "sku3": "blue velvet sofa",
    "sku4": "oak bookshelf",
}
docs = {k: normalize(v) for k, v in titles.items()}
vocab = build_vocabulary(list(docs.values()))
tokens = sorted({t for d in docs.values() for t in d} | {"red", "chair"})
rng = np.random.default_rng(0)
table = unit_normalize(EmbeddingTable(tokens, rng.standard_normal((len(tokens), 12))))

query = normalize("red chair")
print(f"query: {query}\n")

print("== scores per architecture (untrained) ==")
for arch in ("tfidf", "kernel_pooling", "siamese", "dssm_like", "hybrid_local"):
    kwargs = {"vocab": vocab} if arch == "tfidf" else {"table": table, "n_d": 8, "seed": 2}
    scorer = make_scorer(arch, **kwargs)
    scores = {sku: scorer.score(query, d) for sku, d in docs.items()}
    ranked = sorted(scores, key=scores.get, reverse=True)
    row = "  ".join(f"{sku}:{scores[sku]:+.3f}" for sku in ranked)
    print(f"  {scorer.descriptor():45s} {row}")

# Kernel pooling's features: each RBF kernel counts soft matches at one
# similarity level, so an exact-match query token lights up the mu=1 kernel.
# kernel_features reads the query x document similarities and the number
# of real query rows.
m = SimpleNamespace(values=dot(embed_sequence(query, 4, table), embed_sequence(docs["sku1"], 8, table)),
                    n_q_real=len(query))
phi = kernel_features(m, default_kernel_bank()).data.reshape(-1)
print("\n== kernel features for (red chair, red oak chair) ==")
for mu, value in zip(default_kernel_bank().means, phi):
    bar = "#" * max(0, int(value + 25) // 2)
    print(f"  mu {mu:+.1f}: {value:8.3f} {bar}")

# The kernel-pooling scorer scores a whole list of pairs on one tape, in
# vocabulary space; each entry equals the per-pair score.  A weight on the
# exact-match kernel alone makes the scores rank by shared tokens.
kp = make_scorer("kernel_pooling", table=table, n_d=8, seed=2)
kp.w.data[0, 0] = 0.05
batch = kp.score_batch([(query, d) for d in docs.values()]).data
assert np.allclose(batch, [kp.score(query, d) for d in docs.values()], rtol=0, atol=1e-12)
print("\n== kernel pooling, one batch of 4 pairs ==")
print("  " + "  ".join(f"{sku}:{v:+.3f}" for sku, v in zip(docs, batch)))

# Distributed models can pre-encode the catalog once and score new
# queries with dot products.
siamese = make_scorer("siamese", table=table, n_d=8, seed=2)
cache = {sku: distributed_encode(d, siamese) for sku, d in docs.items()}
qv = distributed_encode(query, siamese)
direct = {sku: siamese.score(query, d) for sku, d in docs.items()}
cached = {sku: siamese.score_cached(qv, v) for sku, v in cache.items()}
print("\n== siamese: direct vs cached scoring ==")
for sku in docs:
    print(f"  {sku}: direct {direct[sku]:+.6f}  cached {cached[sku]:+.6f}")
assert max(abs(direct[s] - cached[s]) for s in docs) < 1e-12
