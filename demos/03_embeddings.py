"""Skip-gram pre-training and the embedding table used by every neural ranker.

Co-occurring tokens should land near each other; unrelated ones should
not.  The demo trains on a synthetic corpus with two obvious clusters,
then shows lookup semantics (unknown tokens, padding) and the plain-text
vector file format.
"""

import numpy as np

from prodrank.embeddings import (
    embed_sequence,
    load_vectors,
    save_vectors,
    train_skipgram,
    unit_normalize,
)

# Two token families that never mix.
corpus = [["red", "oak", "chair"]] * 60 + [["steel", "desk", "lamp"]] * 60
table = train_skipgram(corpus, dim=16, window=2, negatives=4, epochs=8, seed=3)
table = unit_normalize(table)

def cos(a, b):
    u, v = table.vectors[table.ids_of([a, b])]
    return float(u @ v)

print("== cosine similarity after skip-gram ==")
print(f"  (red, oak)     co-occur:   {cos('red', 'oak'):+.3f}")
print(f"  (steel, desk)  co-occur:   {cos('steel', 'desk'):+.3f}")
print(f"  (red, lamp)    never mix:  {cos('red', 'lamp'):+.3f}")
assert cos("red", "oak") > cos("red", "lamp")

# Sequence embedding: fixed number of rows, truncation past the limit,
# zero rows for padding and unknown tokens.
e = embed_sequence(["red", "mystery", "oak"], 5, table).data
print("\n== embed_sequence(['red', 'mystery', 'oak'], 5 positions) ==")
print(f"  matrix shape {e.shape}, one token vector per row")
print(f"  row 1 (unknown token) is zero: {not e[1].any()}")
print(f"  rows 3-4 (padding) are zero:   {not e[3:].any()}")
assert not e[1].any() and not e[3:].any()

# Vectors persist as one `token v1 ... vk` line each, full precision.
import tempfile, os

with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as f:
    path = f.name
save_vectors(table, path)
back = load_vectors(path)
os.unlink(path)
assert np.array_equal(back.vectors, table.vectors)
print("\nvector file round trip is bit-exact")
