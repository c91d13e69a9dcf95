"""Product text normalization: from raw catalog strings to token lists.

Catalog feeds and query logs arrive with HTML fragments, accents, unit
glyphs, and inconsistent casing.  Everything downstream (retrieval,
vocabularies, embeddings) works on the output of `normalize`, so this
demo walks through what it does and how rewrite rules extend it.
"""

from prodrank.text import Vocabulary, build_vocabulary, load_rules, normalize

raw_examples = [
    "Mid-Century <b>Walnut</b> Desk &amp; Chair",
    "Café-style table, 75 cm × 120 cm",
    "CLASSIC   sofa!!!  (velvet)",
]

print("== basic normalization ==")
for raw in raw_examples:
    print(f"  {raw!r:55} -> {normalize(raw)}")

# Normalization is idempotent: feeding the output back changes nothing.
tokens = normalize(raw_examples[0])
assert normalize(" ".join(tokens)) == tokens
print("\nidempotent: re-normalizing the output is a no-op")

# Domain-specific rewrites (synonyms, unit spellings) come from a
# pattern<TAB>replacement file applied after the generic cleanup.
import tempfile, os

rules_text = "colour\tcolor\nsettee\tsofa\n"
with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as f:
    f.write(rules_text)
    rules_path = f.name
rules = load_rules(rules_path)
os.unlink(rules_path)
print("\n== custom rewrite rules ==")
print(f"  'Grey Colour Settee' -> {normalize('Grey Colour Settee', rules=rules)}")

# A vocabulary tracks document frequency, which gives the idf used by the
# lexical baseline.
docs = [normalize(t) for t in [
    "red oak chair", "blue oak chair", "red pine table", "oak bookshelf",
]]
vocab = build_vocabulary(docs)
print("\n== vocabulary over four tiny documents ==")
for token in ["oak", "chair", "red", "bookshelf"]:
    print(f"  {token:10} df {vocab.doc_freq[token]}  idf {vocab.idf(token):.4f}")
print(f"  {'plastic':10} (unknown -> idf {vocab.idf('plastic')})")
