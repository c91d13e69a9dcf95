"""What fine-tuning does to the embedding space.

Click-trained rankers reshape word geometry for ranking, not for
general similarity: tokens that co-occur but separate relevant from
irrelevant items get pushed apart ("decoupled"), a few get pulled
together.  The report bins each token pair's cosine by the kernel
centers and lists pairs that jumped bins.
"""

from prodrank.catalog import generate_catalog
from prodrank.clicksim import SimulationParams, generate_clicklog
from prodrank.embeddings import train_skipgram, unit_normalize
from prodrank.evaluation import moved_word_pairs
from prodrank.extraction import extract_all
from prodrank.models import make_scorer
from prodrank.training import TrainConfig, train

catalog = generate_catalog(1000, seed=6)
sessions = generate_clicklog(catalog, 1000, SimulationParams(), seed=6)
triples = extract_all(sessions, rho=3)
docs = {s.sku_id: s.doc_tokens() for s in catalog}
cut = int(len(triples) * 0.8)

before = unit_normalize(train_skipgram([s.doc_tokens() for s in catalog],
                                       dim=24, epochs=2, seed=6))
# an aggressive learning rate so the movement is visible at demo scale
scorer = make_scorer("kernel_pooling", table=before, n_d=16)
train(scorer, triples[:cut], triples[cut:], docs,
      TrainConfig(lr=1e-3, batch_size=128, max_epochs=6))
after = scorer.embedding_table()

report = moved_word_pairs(before, after)
print(report.text(top_k=6))
print(f"\n{len(report.moves)} pairs changed similarity bins; "
      f"decoupling dominates when the ratio is well above 1")
