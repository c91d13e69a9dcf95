"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written the slow, literal way -- plain
Python loops, no shared helpers with the library under test -- so that a bug
in the fast path cannot hide in its own oracle.  Queries fed to these
functions are pre-tokenized or plain lowercase space-separated strings, so
``str.split`` is the only tokenizer the oracles need.
"""

import math
from collections import Counter

import numpy as np

LOG_FLOOR = 1e-10


def doc_freq_loop(docs):
    """Document frequency per token, counting each doc at most once."""
    df = Counter()
    for tokens in docs:
        for t in set(tokens):
            df[t] += 1
    return dict(df)


def tfidf_score_loop(query_tokens, doc_tokens, doc_freq, n_docs):
    """Sum over shared terms of tf_query * tf_doc * ln(n_docs / df)."""
    tf_q = Counter(query_tokens)
    tf_d = Counter(doc_tokens)
    score = 0.0
    for term, fq in tf_q.items():
        df = doc_freq.get(term, 0)
        if df == 0 or tf_d[term] == 0:
            continue
        score += fq * tf_d[term] * math.log(n_docs / df)
    return score


def kernel_features_loop(matrix, n_q_real, means, widths):
    """Double-loop kernel pooling over an interaction matrix.

    For each kernel k: sum over the first ``n_q_real`` rows of
    log(max(sum_j exp(-(m_ij - mu_k)^2 / (2 sigma_k^2)), floor)).
    Doc columns are never masked.
    """
    matrix = np.asarray(matrix, dtype=float)
    feats = []
    for mu, sigma in zip(means, widths):
        total = 0.0
        for i in range(n_q_real):
            row_sum = 0.0
            for j in range(matrix.shape[1]):
                diff = matrix[i, j] - mu
                row_sum += math.exp(-(diff * diff) / (2.0 * sigma * sigma))
            total += math.log(max(row_sum, LOG_FLOOR))
        feats.append(total)
    return np.array(feats)


def conv1d_loop(x, w, width):
    """Valid 1-D convolution, weight layout w[c, f * width + j]."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    k, n = x.shape
    c = w.shape[0]
    out = np.zeros((c, n - width + 1))
    for ch in range(c):
        for p in range(n - width + 1):
            acc = 0.0
            for f in range(k):
                for j in range(width):
                    acc += w[ch, f * width + j] * x[f, p + j]
            out[ch, p] = acc
    return out


def _is_proper_submultiset(smaller, larger):
    a = Counter(smaller)
    b = Counter(larger)
    if sum(a.values()) >= sum(b.values()):
        return False
    for tok, cnt in a.items():
        if b[tok] < cnt:
            return False
    return True


def extract_triples_literal(requests, rho):
    """Literal transcription of the five mining conditions.

    ``requests`` is a time-ordered list of dicts with keys ``timestamp``,
    ``query``, ``ranked`` (sku ids, best first) and ``clicked`` (sku ids).
    Returns a set of (query, rel_sku, irrel_sku, timestamp) tuples.
    """
    out = set()
    for i in range(len(requests)):
        for j in range(len(requests)):
            if not i < j:
                continue  # ordered pairs only
            earlier, later = requests[i], requests[j]
            if len(earlier["clicked"]) != 0:
                continue  # (1) earlier request must be clickless
            if len(later["clicked"]) == 0:
                continue  # (2) later request must have a click
            if not _is_proper_submultiset(
                earlier["query"].split(), later["query"].split()
            ):
                continue  # (3) proper refinement
            n_neg = min(rho, len(earlier["ranked"]))
            for sku in later["clicked"]:
                if sku in earlier["ranked"]:
                    continue  # (5) clicked sku must be absent from the earlier page
                for r in range(n_neg):  # (4) top-rho of the earlier page
                    out.add((later["query"], sku, earlier["ranked"][r], later["timestamp"]))
    return out


def _slot_options(queries, pages):
    """Every (query, page, click subset) a single request can take."""
    options = []
    for q in queries:
        for page in pages:
            for click_bits in range(2 ** len(page)):
                clicked = [page[b] for b in range(len(page)) if click_bits >> b & 1]
                options.append((q, list(page), clicked))
    return options


def enumerate_micro_sessions(max_queries=3, max_impressions=4):
    """Every tiny session shape: query chains, page contents, click patterns.

    Yields lists of request dicts in ``extract_triples_literal`` form.
    Two tiers keep the cross product honest but bounded: sessions of one
    or two requests draw from the full universe (refinements, a token
    swap, stagnation, overlapping and disjoint pages, every click
    subset); three-request sessions draw from a reduced universe -- a
    strict refinement chain over two disjoint pages -- which still
    exercises every multi-step condition.  About 25k sessions total.
    """
    queries = ["red", "red chair", "red chair oak", "blue chair"]
    pages = [["s1"], ["s1", "s2"], ["s1", "s2", "s3", "s4"], ["s3", "s4"]]
    pages = [p for p in pages if len(p) <= max_impressions]
    full = _slot_options(queries, pages)
    chain = _slot_options(
        ["red", "red chair", "red chair oak"], [["s1", "s2"], ["s3", "s4"]]
    )

    def stamp(slots):
        return [
            {"timestamp": 100 + 10 * i, "query": q, "ranked": page, "clicked": clicked}
            for i, (q, page, clicked) in enumerate(slots)
        ]

    if max_queries >= 1:
        for a in full:
            yield stamp([a])
    if max_queries >= 2:
        for a in full:
            for b in full:
                yield stamp([a, b])
    if max_queries >= 3:
        for a in chain:
            for b in chain:
                for c in chain:
                    yield stamp([a, b, c])


def moved_word_pairs_loop(before, after, centers, pairs):
    """Embedding movement one pair at a time: each pair's cosine before
    and after, each snapped to the nearest centre (the lower one on a
    tie); returns ``(token index a, token index b, cos before, cos after,
    centre before, centre after)`` for the pairs whose centre changed, in
    ``pairs`` order.  ``before`` and ``after`` hold unit rows."""
    centers = sorted(centers)
    out = []
    for i, j in pairs:
        cb = float(before[i] @ before[j])
        ca = float(after[i] @ after[j])
        snapped = []
        for c in (cb, ca):
            best = centers[0]
            for m in centers[1:]:
                if abs(m - c) < abs(best - c):
                    best = m
            snapped.append(best)
        if snapped[0] != snapped[1]:
            out.append((i, j, cb, ca, snapped[0], snapped[1]))
    return out
