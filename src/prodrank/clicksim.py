"""Generative click simulator with known ground-truth relevance.

The per-request layer is a position-based model: examination depends only
on rank, attraction and satisfaction are per-item Bernoulli draws, and a
click requires examination AND attraction AND satisfaction AND the
session-level intent match.  The session layer chains requests: the user
issues progressively refined queries, and continuation after a matched
request is itself a Bernoulli draw.

Two deliberate modeling choices matter downstream.  Satisfaction is tied
to the session's underlying intent (all intent tokens present in the SKU
title -> 0.95, else 0.05), because the user knows what they want even
while typing a vaguer query.  Attractiveness is drawn per SKU, uniform on
[0.2, 0.9], independent of satisfaction — attractive-but-wrong results do
get clicked, so click counts alone are a biased relevance signal.

Every latent draw (intent match M, continuation N, and per-impression
E/A/S vectors) is retained on the session for oracle tests.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .catalog import Sku
from .text import Tokens, build_vocabulary, normalize

SIGMA_RELEVANT = 0.95
SIGMA_IRRELEVANT = 0.05
DEFAULT_TIMEOUT = 1800  # seconds of inactivity that ends a session
SECONDS_PER_MONTH = 30 * 86400  # sessions start in [0, months * SECONDS_PER_MONTH)


def default_gamma(n_ranks: int = 10) -> np.ndarray:
    """Examination probability per rank: 1 / (1 + 0.3 (r - 1))."""
    r = np.arange(1, n_ranks + 1)
    return 1.0 / (1.0 + 0.3 * (r - 1))


def ground_truth_sigma(intent_tokens: Tokens, title_tokens: Tokens) -> float:
    """Relevance of a SKU to an intent: does the title cover every intent
    token (with multiplicity)?"""
    need = Counter(intent_tokens)
    have = Counter(title_tokens)
    covered = all(have[t] >= n for t, n in need.items())
    return SIGMA_RELEVANT if covered else SIGMA_IRRELEVANT


@dataclass
class SimulationParams:
    """Parameters of the click model.

    ``attractiveness`` and ``satisfaction`` are keyed by (context, sku_id)
    where the context is the query for standalone request simulation and
    the session intent inside generated sessions.  Missing entries are an
    error, never silently defaulted.
    """

    alpha1: float = 0.7  # P(intent matched by this request)
    alpha2: float = 0.65  # P(user continues | matched)
    gamma: np.ndarray = field(default_factory=default_gamma)
    attractiveness: dict = field(default_factory=dict)
    satisfaction: dict = field(default_factory=dict)
    max_queries: int = 4

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        for name, value in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if np.any(self.gamma < 0) or np.any(self.gamma > 1):
            raise ValueError("gamma entries must be probabilities")

    def attraction_of(self, context: str, sku_id: str) -> float:
        try:
            return self.attractiveness[(context, sku_id)]
        except KeyError:
            raise ValueError(
                f"missing attractiveness entry for ({context!r}, {sku_id!r})"
            ) from None

    def satisfaction_of(self, context: str, sku_id: str) -> float:
        try:
            return self.satisfaction[(context, sku_id)]
        except KeyError:
            raise ValueError(
                f"missing satisfaction entry for ({context!r}, {sku_id!r})"
            ) from None


@dataclass
class SearchRequest:
    timestamp: int
    user: str
    query: str
    impressions: list  # [(sku_id, rank)] with ranks 1..n
    clicks: list  # clicked ranks, ascending

    def clicked_skus(self) -> list[str]:
        by_rank = {rank: sku for sku, rank in self.impressions}
        return [by_rank[r] for r in self.clicks]


@dataclass
class RequestTrace:
    """Latent Bernoulli draws behind one request."""

    m: bool
    examined: np.ndarray
    attracted: np.ndarray
    satisfied: np.ndarray


@dataclass
class Session:
    user: str
    session_id: str
    intent: str
    requests: list[SearchRequest] = field(default_factory=list)
    traces: list[RequestTrace] = field(default_factory=list)
    matched: list[bool] = field(default_factory=list)  # M_i per request
    continued: list[bool] = field(default_factory=list)  # N_i per request


def simulate_request(
    query: str,
    ranked_skus: list[str],
    m_i: bool,
    params: SimulationParams,
    rng: np.random.Generator,
    *,
    timestamp: int = 0,
    user: str = "",
    sat_context: str | None = None,
) -> tuple[SearchRequest, RequestTrace]:
    """One results page: draw examination/attraction/satisfaction per
    impression (three independent vectors, in that order) and click where
    all of them and the intent match hold."""
    n = len(ranked_skus)
    if n > len(params.gamma):
        raise ValueError(f"gamma defines {len(params.gamma)} ranks but {n} impressions given")
    context = query if sat_context is None else sat_context
    alpha = np.array([params.attraction_of(context, sku) for sku in ranked_skus])
    sigma = np.array([params.satisfaction_of(context, sku) for sku in ranked_skus])
    examined = rng.random(n) < params.gamma[:n]
    attracted = rng.random(n) < alpha
    satisfied = rng.random(n) < sigma
    clicked = examined & attracted & satisfied if m_i else np.zeros(n, dtype=bool)
    request = SearchRequest(
        timestamp=timestamp,
        user=user,
        query=query,
        impressions=[(sku, r + 1) for r, sku in enumerate(ranked_skus)],
        clicks=[int(r + 1) for r in np.flatnonzero(clicked)],
    )
    return request, RequestTrace(m_i, examined, attracted, satisfied)


def simulate_session(
    intent: str,
    query_chain: list[str],
    catalog: list[Sku],
    retrieval_fn,
    params: SimulationParams,
    rng: np.random.Generator,
    *,
    user: str = "u0",
    session_id: str = "u0:0",
    start_ts: int = 0,
) -> Session:
    """Chain requests until the user stops.

    Per step: draw the intent match M_i, simulate the request, then the
    continuation N_i (forced to 1 when M_i=0 — an unmatched page never
    satisfies, so the user keeps trying until the chain or patience runs
    out).
    """
    if not catalog:
        raise ValueError("cannot simulate against an empty catalog")
    session = Session(user=user, session_id=session_id, intent=intent)
    ts = start_ts
    for i, query in enumerate(query_chain[: params.max_queries]):
        m_i = bool(rng.random() < params.alpha1)
        request, trace = simulate_request(
            query,
            retrieval_fn(query),
            m_i,
            params,
            rng,
            timestamp=ts,
            user=user,
            sat_context=intent,
        )
        continue_i = True if not m_i else bool(rng.random() < params.alpha2)
        session.requests.append(request)
        session.traces.append(trace)
        session.matched.append(m_i)
        session.continued.append(continue_i)
        if not continue_i:
            break
        ts += int(rng.integers(60, 300))
    return session


class TfIdfRetriever:
    """Ranked lexical retrieval over the catalog's full document text.

    Scores match the tf-idf scorer exactly; results are cached per query
    string and ties break by catalog order.
    """

    def __init__(self, skus: list[Sku], n_ranks: int = 10):
        if not skus:
            raise ValueError("cannot build a retriever over an empty catalog")
        self.sku_ids = [sku.sku_id for sku in skus]
        docs = [sku.doc_tokens() for sku in skus]
        self.vocab = build_vocabulary(docs)
        self.n_ranks = n_ranks
        self._postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        per_token: dict[str, list] = {}
        for doc_idx, tokens in enumerate(docs):
            for token, tf in Counter(tokens).items():
                per_token.setdefault(token, []).append((doc_idx, tf))
        for token, pairs in per_token.items():
            idx, tf = zip(*pairs)
            self._postings[token] = (np.array(idx), np.array(tf, dtype=np.float64))
        self._cache: dict[str, list[str]] = {}

    def __call__(self, query: str) -> list[str]:
        cached = self._cache.get(query)
        if cached is None:
            cached = self._cache[query] = self._rank(query)
        return cached

    def _rank(self, query: str) -> list[str]:
        scores = np.zeros(len(self.sku_ids))
        for token, tf_q in Counter(normalize(query)).items():
            posting = self._postings.get(token)
            if posting is None:
                continue
            idx, tf = posting
            scores[idx] += tf_q * tf * self.vocab.idf(token)
        order = np.argsort(-scores, kind="stable")[: self.n_ranks]
        return [self.sku_ids[i] for i in order if scores[i] > 0.0]


def _sample_intent(sku: Sku, rng: np.random.Generator) -> str:
    """An intent is the product noun followed by one or (usually) two of
    its title attributes.  Noun first: shoppers start from the product
    type and tack qualifiers on, so query chains refine noun-first."""
    tokens = [sku.noun] if sku.noun else sku.title_tokens()[:1]
    attrs = list(sku.attributes)
    if attrs:
        take = 2 if len(attrs) >= 2 and rng.random() < 0.65 else 1
        order = rng.permutation(len(attrs))[:take]
        tokens.extend(attrs[i] for i in order)
    return " ".join(tokens)


def _query_chain(intent: str) -> list[str]:
    tokens = intent.split()
    return [" ".join(tokens[: i + 1]) for i in range(len(tokens))]


def generate_clicklog(
    catalog: list[Sku],
    n_users: int,
    params: SimulationParams | None = None,
    seed: int = 0,
    *,
    log_path=None,
    truth_path=None,
    sessions_per_user: tuple[int, int] = (1, 4),
    months: int = 8,
    timeout: int = DEFAULT_TIMEOUT,
    page_size: int = 5,
) -> list[Session]:
    """Simulate ``n_users`` users over a ``months``-long window.

    Deterministic given the seed: every session runs on its own RNG
    stream keyed (seed, user index, session index), so the output is
    independent of generation order.  Per-SKU attractiveness comes from a
    dedicated stream.  Optionally writes the click log and the
    ground-truth relevance file.
    """
    if not catalog:
        raise ValueError("cannot simulate against an empty catalog")
    if params is None:
        params = SimulationParams()
    retriever = TfIdfRetriever(catalog, n_ranks=page_size)
    span = months * SECONDS_PER_MONTH
    alpha_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA1FA)))
    sku_alpha = dict(zip((s.sku_id for s in catalog), alpha_rng.uniform(0.2, 0.9, len(catalog))))
    title_tokens = {s.sku_id: s.title_tokens() for s in catalog}

    lo, hi = sessions_per_user
    sessions: list[Session] = []
    for u in range(n_users):
        user = f"u{u:05d}"
        meta_rng = np.random.default_rng(np.random.SeedSequence((seed, u, 0)))
        n_sessions = int(meta_rng.integers(lo, hi + 1))
        starts = np.sort(meta_rng.integers(0, span, size=n_sessions))
        last_end = -10 * timeout
        for j in range(n_sessions):
            # keep sessions of one user well past the inactivity timeout apart
            start = int(max(starts[j], last_end + 2 * timeout + 60))
            rng = np.random.default_rng(np.random.SeedSequence((seed, u, j + 1)))
            target = catalog[int(rng.integers(len(catalog)))]
            intent = _sample_intent(target, rng)
            intent_tokens = intent.split()
            chain = _query_chain(intent)
            # fill the per-(intent, sku) parameter entries this session can touch
            for query in chain[: params.max_queries]:
                for sku_id in retriever(query):
                    key = (intent, sku_id)
                    if key not in params.satisfaction:
                        params.attractiveness[key] = sku_alpha[sku_id]
                        params.satisfaction[key] = ground_truth_sigma(
                            intent_tokens, title_tokens[sku_id]
                        )
            session = simulate_session(
                intent,
                chain,
                catalog,
                retriever,
                params,
                rng,
                user=user,
                session_id=f"{user}:{j}",
                start_ts=start,
            )
            sessions.append(session)
            last_end = session.requests[-1].timestamp if session.requests else start

    if log_path is not None:
        write_log([r for s in sessions for r in s.requests], log_path)
    if truth_path is not None:
        truth = {}
        for s in sessions:
            for request in s.requests:
                for sku_id, _ in request.impressions:
                    truth[(s.intent, sku_id)] = params.satisfaction[(s.intent, sku_id)]
        write_truth(truth, truth_path)
    return sessions


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_log(requests: list[SearchRequest], path) -> None:
    """Line-delimited JSON, sorted by (timestamp, user, query)."""
    ordered = sorted(requests, key=lambda r: (r.timestamp, r.user, r.query))
    with open(path, "w", encoding="utf-8") as f:
        for r in ordered:
            f.write(
                json.dumps(
                    {
                        "ts": r.timestamp,
                        "user": r.user,
                        "query": r.query,
                        "impressions": [[sku, rank] for sku, rank in r.impressions],
                        "clicks": r.clicks,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def _exact_int(value) -> int:
    """``value`` itself when it is an int; floats, strings and bools are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def read_log(path) -> list[SearchRequest]:
    requests = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                request = SearchRequest(
                    timestamp=_exact_int(rec["ts"]),
                    user=rec["user"],
                    query=rec["query"],
                    impressions=[(sku, _exact_int(rank)) for sku, rank in rec["impressions"]],
                    clicks=[_exact_int(r) for r in rec["clicks"]],
                )
                if not (isinstance(request.user, str) and isinstance(request.query, str)
                        and all(isinstance(sku, str) for sku, _ in request.impressions)):
                    raise TypeError("user, query and impression SKUs must be strings")
                clicks = request.clicks
                if clicks and not set(clicks) <= {rank for _, rank in request.impressions}:
                    raise ValueError(f"clicks {clicks} include a rank that was not shown")
                requests.append(request)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: bad log record ({e})") from None
    return requests


def write_truth(truth: dict, path) -> None:
    """Tab-separated (intent query, sku, sigma), sorted for byte stability."""
    with open(path, "w", encoding="utf-8") as f:
        for (query, sku_id), sigma in sorted(truth.items()):
            f.write(f"{query}\t{sku_id}\t{sigma}\n")


def read_truth(path) -> dict:
    truth = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                truth[(parts[0], parts[1])] = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad sigma value {parts[2]!r}") from None
    return truth
