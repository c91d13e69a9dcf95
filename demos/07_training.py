"""End-to-end: simulate, mine, pre-train, fit a ranker, compare to tf-idf.

A compact version of the full benchmark.  The kernel-pooling model
starts as a coin flip (its head is zero-initialized, every pair ties)
and within a couple of epochs cuts the lexical baseline's pairwise
error dramatically, because the simulator's clicks encode relevance the
baseline cannot see past keyword-stuffed titles.
"""

from prodrank.catalog import generate_catalog
from prodrank.clicksim import SimulationParams, generate_clicklog
from prodrank.embeddings import train_skipgram, unit_normalize
from prodrank.evaluation import pairwise_error_rate
from prodrank.extraction import extract_all
from prodrank.models import make_scorer
from prodrank.text import build_vocabulary
from prodrank.training import TrainConfig, train

catalog = generate_catalog(400, seed=1)
sessions = generate_clicklog(catalog, 500, SimulationParams(), seed=1)
triples = extract_all(sessions, rho=3)
docs = {s.sku_id: s.doc_tokens() for s in catalog}
cut = int(len(triples) * 0.8)
train_set, val_set = triples[:cut], triples[cut:]
print(f"{len(train_set)} training / {len(val_set)} validation triples\n")

table = unit_normalize(train_skipgram([s.doc_tokens() for s in catalog],
                                      dim=24, epochs=2, seed=1))
scorer = make_scorer("kernel_pooling", table=table, n_d=16)

print("== training ==")
result = train(scorer, train_set, val_set, docs,
               TrainConfig(batch_size=256, max_epochs=4), log=print)
print(f"kept epoch {result.best_epoch} (val error {result.best_val_error:.4f})\n")

vocab = build_vocabulary(list(docs.values()))
baseline = pairwise_error_rate(make_scorer("tfidf", vocab=vocab), val_set, docs)
model = pairwise_error_rate(scorer, val_set, docs, baseline)
print("== held-out pairwise error ==")
print(baseline.line("tfidf baseline"))
print(model.line("kernel pooling"))
