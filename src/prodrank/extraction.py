"""Mining pairwise training triples out of a click log.

The signal: within one session, a user first issues a vague query, clicks
nothing, then refines it (the refined query's tokens properly contain the
vague one's) and clicks a result.  The clicked SKU makes a relevant
example for the refined query; the top-ranked SKUs of the vague,
clickless results page make irrelevant ones — the user saw them and
walked away.

A (vague, refined) request pair inside a session yields triples when all
of these hold:
  (1) the vague request has no clicks;
  (2) the refined request has at least one click;
  (3) the vague query's token multiset is properly contained in the
      refined query's;
  (4) negatives are taken from the vague page at ranks 1..rho;
  (5) the clicked SKU does not appear anywhere on the vague page.
Any ordered pair of requests in the session qualifies, adjacent or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .clicksim import DEFAULT_TIMEOUT, SearchRequest, Session
from .text import normalize


@dataclass(frozen=True)
class TrainingTriple:
    """One pairwise example with enough provenance to audit it later."""

    query: str
    rel_sku: str
    irrel_sku: str
    timestamp: int
    session_id: str = ""
    rel_rank: int = 0
    irrel_rank: int = 0


@dataclass
class SplitSpec:
    """Time boundaries: train before ``train_end``, validation before
    ``val_end``, test afterwards."""

    train_end: int
    val_end: int

    def __post_init__(self):
        if not self.train_end < self.val_end:
            raise ValueError(
                f"split boundaries must be strictly increasing, got "
                f"train_end={self.train_end}, val_end={self.val_end}"
            )


def sessionize(
    requests: list[SearchRequest], inactivity_timeout: int = DEFAULT_TIMEOUT
) -> list[Session]:
    """Group requests into per-user sessions split at inactivity gaps.

    Requests are sorted by (user, timestamp) first, so any ordering is
    accepted.  Session ids are ``user:ordinal``.
    """
    sessions: list[Session] = []
    current: Session | None = None
    ordinal = 0
    last_user = None
    last_ts = 0
    for r in sorted(requests, key=lambda r: (r.user, r.timestamp)):
        fresh = (
            current is None
            or r.user != last_user
            or r.timestamp - last_ts > inactivity_timeout
        )
        if fresh:
            ordinal = 0 if r.user != last_user else ordinal + 1
            current = Session(user=r.user, session_id=f"{r.user}:{ordinal}", intent="")
            sessions.append(current)
        current.requests.append(r)
        last_user, last_ts = r.user, r.timestamp
    return sessions


def is_refinement(q_earlier: str, q_later: str) -> bool:
    """True iff the earlier query's tokens are a proper sub-multiset of
    the later query's."""
    need = Counter(normalize(q_earlier))
    have = Counter(normalize(q_later))
    if sum(need.values()) >= sum(have.values()):
        return False
    return all(have[t] >= n for t, n in need.items())


def extract_triples(session: Session, rho: int = 3) -> list[TrainingTriple]:
    """Apply conditions (1)-(5) to every ordered request pair."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    triples: list[TrainingTriple] = []
    requests = session.requests
    for i, earlier in enumerate(requests):
        if earlier.clicks:  # condition (1)
            continue
        early_ranked = [sku for sku, _ in sorted(earlier.impressions, key=lambda p: p[1])]
        if not early_ranked:
            continue
        early_set = set(early_ranked)
        n_neg = min(rho, len(early_ranked))
        for later in requests[i + 1 :]:
            if not later.clicks:  # condition (2)
                continue
            if not is_refinement(earlier.query, later.query):  # condition (3)
                continue
            by_rank = {rank: sku for sku, rank in later.impressions}
            for r_click in later.clicks:
                rel = by_rank[r_click]
                if rel in early_set:  # condition (5)
                    continue
                for r in range(1, n_neg + 1):  # condition (4)
                    triples.append(
                        TrainingTriple(
                            query=later.query,
                            rel_sku=rel,
                            irrel_sku=early_ranked[r - 1],
                            timestamp=later.timestamp,
                            session_id=session.session_id,
                            rel_rank=r_click,
                            irrel_rank=r,
                        )
                    )
    return triples


def extract_all(sessions: list[Session], rho: int = 3) -> list[TrainingTriple]:
    """Extraction over independent sessions, concatenated in input order."""
    out: list[TrainingTriple] = []
    for session in sessions:
        out.extend(extract_triples(session, rho))
    return out


def temporal_split(
    triples: list[TrainingTriple], spec: SplitSpec
) -> dict[str, list[TrainingTriple]]:
    """Partition by time window, then enforce query disjointness.

    Validation drops every triple whose query string occurs in the train
    window; test drops queries occurring in the train or validation
    windows.  Window membership (not post-filter survival) defines
    "seen", so the result is order-independent.
    """
    train = [t for t in triples if t.timestamp < spec.train_end]
    val_window = [t for t in triples if spec.train_end <= t.timestamp < spec.val_end]
    test_window = [t for t in triples if t.timestamp >= spec.val_end]
    train_q = {t.query for t in train}
    val_q = {t.query for t in val_window}
    return {
        "train": train,
        "validation": [t for t in val_window if t.query not in train_q],
        "test": [t for t in test_window if t.query not in train_q and t.query not in val_q],
    }


def split_ratio_report(split: dict[str, list[TrainingTriple]]) -> str:
    """Sizes and the train:validation:test ratio normalized to test = 1."""
    n_train = len(split["train"])
    n_val = len(split["validation"])
    n_test = len(split["test"])
    if n_test > 0:
        ratio = f"({n_train / n_test:.1f}:{n_val / n_test:.1f}:1)"
    else:
        ratio = "(test empty)"
    return (
        f"split sizes: train {n_train}, validation {n_val}, test {n_test}; "
        f"ratio {ratio}"
    )


@dataclass
class DatasetStats:
    n_examples: int
    n_unique_queries: int
    n_unique_rel: int
    n_unique_irrel: int
    n_both_sides: int

    def __str__(self) -> str:
        return (
            f"examples {self.n_examples}, unique queries {self.n_unique_queries}, "
            f"unique relevant SKUs {self.n_unique_rel}, "
            f"unique irrelevant SKUs {self.n_unique_irrel}, "
            f"SKUs on both sides {self.n_both_sides}"
        )


def dataset_stats(triples: list[TrainingTriple]) -> DatasetStats:
    queries = {t.query for t in triples}
    rel = {t.rel_sku for t in triples}
    irrel = {t.irrel_sku for t in triples}
    return DatasetStats(len(triples), len(queries), len(rel), len(irrel), len(rel & irrel))


def write_triples(triples: list[TrainingTriple], path) -> None:
    """Tab-separated: query, relevant SKU, irrelevant SKU, timestamp."""
    with open(path, "w", encoding="utf-8") as f:
        for t in triples:
            f.write(f"{t.query}\t{t.rel_sku}\t{t.irrel_sku}\t{t.timestamp}\n")


def read_triples(path) -> list[TrainingTriple]:
    triples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                ts = int(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad timestamp {parts[3]!r}") from None
            triples.append(TrainingTriple(parts[0], parts[1], parts[2], ts))
    return triples
