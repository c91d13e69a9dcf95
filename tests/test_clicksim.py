"""Click-model simulation: per-request draws, session chaining, the
retriever, log generation and the file formats."""

import numpy as np
import pytest

from prodrank.clicksim import (
    SIGMA_IRRELEVANT,
    SIGMA_RELEVANT,
    SearchRequest,
    SimulationParams,
    TfIdfRetriever,
    default_gamma,
    generate_clicklog,
    ground_truth_sigma,
    read_log,
    read_truth,
    simulate_request,
    simulate_session,
    write_log,
    write_truth,
)
from prodrank.models import TfIdfScorer
from prodrank.text import build_vocabulary, normalize


def flat_params(skus, query, alpha=1.0, sigma=1.0, **kw):
    """Params with one (query, sku) entry per sku, constant alpha/sigma."""
    return SimulationParams(
        attractiveness={(query, s): alpha for s in skus},
        satisfaction={(query, s): sigma for s in skus},
        **kw,
    )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_default_gamma_curve():
    g = default_gamma()
    assert g.shape == (10,)
    assert g[0] == 1.0
    assert g[1] == pytest.approx(1 / 1.3)
    assert np.all(np.diff(g) < 0)


def test_ground_truth_sigma_containment():
    assert ground_truth_sigma(["red", "chair"], ["red", "oak", "chair"]) == SIGMA_RELEVANT
    assert ground_truth_sigma(["red", "chair"], ["blue", "chair"]) == SIGMA_IRRELEVANT
    # multiset containment: two reds needed, one present
    assert ground_truth_sigma(["red", "red"], ["red", "chair"]) == SIGMA_IRRELEVANT
    assert ground_truth_sigma([], ["anything"]) == SIGMA_RELEVANT


def test_params_validate_probabilities():
    with pytest.raises(ValueError, match="alpha1"):
        SimulationParams(alpha1=1.5)
    with pytest.raises(ValueError, match="gamma"):
        SimulationParams(gamma=np.array([0.5, -0.1]))


# ---------------------------------------------------------------------------
# simulate_request
# ---------------------------------------------------------------------------


def test_unmatched_request_never_clicks(rng):
    params = flat_params(["s1", "s2", "s3"], "q")
    for _ in range(50):
        r, trace = simulate_request("q", ["s1", "s2", "s3"], False, params, rng)
        assert r.clicks == []
        assert trace.m is False


def test_sure_thing_clicks_everything(rng):
    params = flat_params(["s1", "s2"], "q", gamma=np.ones(5))
    r, trace = simulate_request("q", ["s1", "s2"], True, params, rng)
    assert r.clicks == [1, 2]
    assert np.all(trace.examined) and np.all(trace.attracted) and np.all(trace.satisfied)


def test_request_schema(rng):
    params = flat_params(["s1", "s2"], "q")
    r, _ = simulate_request("q", ["s1", "s2"], True, params, rng, timestamp=42, user="u9")
    assert r.timestamp == 42 and r.user == "u9"
    assert r.impressions == [("s1", 1), ("s2", 2)]
    assert r.clicked_skus() == [r.impressions[c - 1][0] for c in r.clicks]


def test_missing_parameter_entry_errors(rng):
    params = SimulationParams(attractiveness={("q", "s1"): 0.5}, satisfaction={})
    with pytest.raises(ValueError, match="missing attractiveness"):
        simulate_request("q", ["s2"], True, params, rng)
    params2 = SimulationParams(attractiveness={("q", "s1"): 0.5}, satisfaction={})
    with pytest.raises(ValueError, match="missing satisfaction"):
        simulate_request("q", ["s1"], True, params2, rng)


def test_too_many_impressions_for_gamma(rng):
    params = flat_params(["s1", "s2"], "q", gamma=np.array([1.0]))
    with pytest.raises(ValueError, match="gamma defines 1 ranks"):
        simulate_request("q", ["s1", "s2"], True, params, rng)


def test_sat_context_overrides_query_key(rng):
    params = flat_params(["s1"], "the intent")
    r, _ = simulate_request(
        "vague", ["s1"], True, params, rng, sat_context="the intent"
    )
    assert r.query == "vague"  # entry lookup used the intent key


def test_click_conjunction_invariants(rng):
    params = flat_params(["s1", "s2", "s3", "s4"], "q", alpha=0.6, sigma=0.5)
    for _ in range(300):
        r, t = simulate_request("q", ["s1", "s2", "s3", "s4"], True, params, rng)
        for rank in r.clicks:
            i = rank - 1
            assert t.examined[i] and t.attracted[i] and t.satisfied[i]
        # and the converse: all four conditions held -> clicked
        joint = t.examined & t.attracted & t.satisfied
        assert r.clicks == [int(i + 1) for i in np.flatnonzero(joint)]


def test_request_ctr_matches_closed_form():
    # 2e4 requests x 5 ranks = 1e5 impressions, fixed alpha/sigma
    rng = np.random.default_rng(123)
    alpha, sigma = 0.55, 0.8
    skus = ["s1", "s2", "s3", "s4", "s5"]
    params = flat_params(skus, "q", alpha=alpha, sigma=sigma)
    n = 20_000
    clicks = np.zeros(5)
    for _ in range(n):
        r, _ = simulate_request("q", skus, True, params, rng)
        for rank in r.clicks:
            clicks[rank - 1] += 1
    expect = params.gamma[:5] * alpha * sigma
    se = np.sqrt(expect * (1 - expect) / n)
    assert np.all(np.abs(clicks / n - expect) <= 3 * se)


# ---------------------------------------------------------------------------
# simulate_session
# ---------------------------------------------------------------------------


def session_setup(chain_len=10):
    from prodrank.catalog import Sku

    catalog = [Sku("s1", "thing", "")]
    queries = [" ".join(["q"] * (i + 1)) for i in range(chain_len)]
    intent = queries[-1]
    params = SimulationParams(
        attractiveness={(intent, "s1"): 0.5},
        satisfaction={(intent, "s1"): 0.5},
        max_queries=chain_len,
    )
    return intent, queries, catalog, (lambda q: ["s1"]), params


def test_session_stops_immediately_when_continuation_zero(rng):
    intent, chain, catalog, retrieve, params = session_setup()
    params.alpha1, params.alpha2 = 1.0, 0.0
    s = simulate_session(intent, chain, catalog, retrieve, params, rng)
    assert len(s.requests) == 1
    assert s.matched == [True] and s.continued == [False]


def test_session_runs_chain_out_when_never_matched(rng):
    intent, chain, catalog, retrieve, params = session_setup(chain_len=6)
    params.alpha1 = 0.0
    s = simulate_session(intent, chain, catalog, retrieve, params, rng)
    assert len(s.requests) == 6
    assert s.matched == [False] * 6
    assert s.continued == [True] * 6  # M=0 forces N=1
    assert all(r.clicks == [] for r in s.requests)


def test_session_respects_max_queries(rng):
    intent, chain, catalog, retrieve, params = session_setup(chain_len=8)
    params.alpha1 = 0.0
    params.max_queries = 3
    s = simulate_session(intent, chain, catalog, retrieve, params, rng)
    assert len(s.requests) == 3


def test_session_timestamps_strictly_increase(rng):
    intent, chain, catalog, retrieve, params = session_setup()
    params.alpha1 = 0.0
    s = simulate_session(intent, chain, catalog, retrieve, params, rng, start_ts=500)
    ts = [r.timestamp for r in s.requests]
    assert ts[0] == 500
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_empty_catalog_rejected(rng):
    intent, chain, _, retrieve, params = session_setup()
    with pytest.raises(ValueError, match="empty catalog"):
        simulate_session(intent, chain, [], retrieve, params, rng)


def test_session_length_matches_two_state_chain():
    # each step ends the session with prob p = alpha1 * (1 - alpha2)
    intent, chain, catalog, retrieve, params = session_setup(chain_len=10)
    params.alpha1 = params.alpha2 = 0.5
    p = 0.5 * 0.5
    n = 10_000
    rng = np.random.default_rng(99)
    lengths = np.array([
        len(simulate_session(intent, chain, catalog, retrieve, params, rng).requests)
        for _ in range(n)
    ])
    # E[min(Geometric(p), 10)] via the tail-sum formula
    expect = sum((1 - p) ** (i - 1) for i in range(1, 11))
    se = lengths.std(ddof=1) / np.sqrt(n)
    assert abs(lengths.mean() - expect) <= 3 * se


# ---------------------------------------------------------------------------
# retriever
# ---------------------------------------------------------------------------


def test_retriever_scores_match_tfidf(tiny_catalog):
    r = TfIdfRetriever(tiny_catalog, n_ranks=10)
    vocab = build_vocabulary([s.doc_tokens() for s in tiny_catalog])
    docs = {s.sku_id: s.doc_tokens() for s in tiny_catalog}
    tfidf = TfIdfScorer(vocab)
    for query in ("red oak", "table", "velvet sofa", "oak chair red"):
        ranked = r(query)
        scores = [tfidf.score(normalize(query), docs[sid]) for sid in ranked]
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)
        n_positive = sum(
            tfidf.score(normalize(query), d) > 0 for d in docs.values()
        )
        assert len(ranked) == min(10, n_positive)


def test_retriever_tie_break_is_catalog_order(tiny_catalog):
    r = TfIdfRetriever(tiny_catalog)
    ranked = r("chair")  # sku0 and sku1 tie on one chair occurrence each
    assert ranked.index("sku0") < ranked.index("sku1")


def test_retriever_unknown_query_empty(tiny_catalog):
    assert TfIdfRetriever(tiny_catalog)("zeppelin") == []


def test_retriever_caches(tiny_catalog):
    r = TfIdfRetriever(tiny_catalog)
    assert r("oak") is r("oak")


def test_retriever_n_ranks_cap(tiny_catalog):
    r = TfIdfRetriever(tiny_catalog, n_ranks=2)
    assert len(r("oak")) == 2


def test_retriever_empty_catalog():
    with pytest.raises(ValueError, match="empty catalog"):
        TfIdfRetriever([])


# ---------------------------------------------------------------------------
# generate_clicklog
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    from prodrank.catalog import generate_catalog

    catalog = generate_catalog(n_skus=120, seed=3)
    root = tmp_path_factory.mktemp("log")
    sessions = generate_clicklog(
        catalog,
        n_users=60,
        seed=3,
        log_path=root / "log.jsonl",
        truth_path=root / "truth.tsv",
    )
    return catalog, sessions, root


def test_generated_sessions_deterministic(small_log, tmp_path):
    from prodrank.catalog import generate_catalog

    catalog, _, root = small_log
    generate_clicklog(
        generate_catalog(n_skus=120, seed=3),
        n_users=60,
        seed=3,
        log_path=tmp_path / "log.jsonl",
        truth_path=tmp_path / "truth.tsv",
    )
    assert (tmp_path / "log.jsonl").read_bytes() == (root / "log.jsonl").read_bytes()
    assert (tmp_path / "truth.tsv").read_bytes() == (root / "truth.tsv").read_bytes()


def test_clicks_reference_impressed_ranks(small_log):
    _, sessions, _ = small_log
    for s in sessions:
        for r in s.requests:
            ranks = {rank for _, rank in r.impressions}
            assert ranks == set(range(1, len(r.impressions) + 1))
            assert set(r.clicks) <= ranks


def test_unmatched_always_continues(small_log):
    _, sessions, _ = small_log
    for s in sessions:
        for m, n in zip(s.matched, s.continued):
            if not m:
                assert n  # M=0 => N=1
        # every request before the last was a continuation
        assert all(s.continued[:-1])


def test_truth_file_matches_title_containment(small_log):
    catalog, _, root = small_log
    titles = {s.sku_id: s.title_tokens() for s in catalog}
    truth = read_truth(root / "truth.tsv")
    assert truth  # nonempty
    for (intent, sku_id), sigma in truth.items():
        assert sigma == ground_truth_sigma(intent.split(), titles[sku_id])


def test_log_round_trip(small_log):
    _, sessions, root = small_log
    requests = [r for s in sessions for r in s.requests]
    back = read_log(root / "log.jsonl")
    key = lambda r: (r.timestamp, r.user, r.query)
    assert sorted(back, key=key) == sorted(requests, key=key)


def test_log_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text('{"ts": 1, "user": "u", "query": "q", "impressions": [], "clicks": []}\nnot json\n')
    with pytest.raises(ValueError, match="log.jsonl:2"):
        read_log(p)


def test_log_missing_field_rejected(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text('{"ts": 1, "user": "u"}\n')
    with pytest.raises(ValueError, match="log.jsonl:1"):
        read_log(p)


def test_truth_parse_errors(tmp_path):
    p = tmp_path / "truth.tsv"
    p.write_text("q\ts1\n")
    with pytest.raises(ValueError, match="3 tab-separated"):
        read_truth(p)
    p.write_text("q\ts1\tnot-a-float\n")
    with pytest.raises(ValueError, match="bad sigma"):
        read_truth(p)


def test_write_log_sorted_and_stable(tmp_path):
    reqs = [
        SearchRequest(20, "b", "q", [("s1", 1)], []),
        SearchRequest(10, "a", "q", [("s2", 1)], [1]),
    ]
    p = tmp_path / "log.jsonl"
    write_log(reqs, p)
    lines = p.read_text().splitlines()
    assert '"ts": 10' in lines[0] and '"ts": 20' in lines[1]


def test_truth_write_read_round_trip(tmp_path):
    truth = {("red chair", "s1"): 0.95, ("blue sofa", "s2"): 0.05}
    p = tmp_path / "truth.tsv"
    write_truth(truth, p)
    assert read_truth(p) == truth
