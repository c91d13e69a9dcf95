"""Correctness checks the benchmark applies to the program's outputs.

Each check is computed apart from the program (its own tf-idf, its own
kernel-pooling loops, its own central differences, its own file parsing)
or tests a property the method must have.  A check returns ``None`` when
it holds and a one-line message when it does not, so the self-check can
feed each one a corrupted value and see it fail.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np


# -- files, parsed without the program's readers ---------------------------


def read_triples(path) -> list[tuple[str, str, str]]:
    """(query, relevant SKU, irrelevant SKU) rows of a triples file."""
    with open(path, encoding="utf-8") as f:
        return [tuple(line.rstrip("\n").split("\t")[:3]) for line in f if line.strip()]


def read_catalog_text(path) -> dict[str, str]:
    """SKU id -> the scoring text (title, a space, the auxiliary fields)."""
    docs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                docs[rec["sku_id"]] = rec["title"] + " " + rec["extra"]
    return docs


def read_vector_tokens(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.split(" ", 1)[0] for line in f if line.strip()]


# -- independent computations ----------------------------------------------


def tfidf_errors(doc_tokens: dict[str, list[str]], triples, query_tokens) -> int:
    """Pairwise errors of tf-idf, sum over query terms of
    tf_q * tf_d * ln(N / df), computed here from the tokenized catalog."""
    df: Counter = Counter()
    for tokens in doc_tokens.values():
        df.update(set(tokens))
    n_docs = len(doc_tokens)
    tf = {sku: Counter(tokens) for sku, tokens in doc_tokens.items()}

    def score(q, sku):
        tf_d = tf[sku]
        return float(sum(n * tf_d[t] * math.log(n_docs / df[t])
                         for t, n in Counter(q).items() if t in tf_d))

    errors = 0
    for query, rel, irr in triples:
        q = query_tokens(query)
        errors += not (score(q, rel) > score(q, irr))
    return errors


def kernel_pooling_score(descriptor: str, tensors: dict, tokens: list[str],
                         q: list[str], d: list[str]) -> float:
    """One kernel-pooling score with plain loops over query rows, document
    columns and kernels, from the checkpoint's table and head weights."""
    fields = dict(item.split("=") for item in descriptor.split(":", 1)[1].split(","))
    n_q, n_d, linear = int(fields["Nq"]), int(fields["Nd"]), fields["linear"] == "1"
    table = tensors["embedding"]
    ids = {t: i for i, t in enumerate(tokens)}
    zero = np.zeros(table.shape[1])

    def vec(t):
        return table[ids[t]] if t in ids else zero

    q_vecs = [vec(t) for t in q[:n_q]]
    d_vecs = [vec(t) for t in d[:n_d]] + [zero] * (n_d - min(len(d), n_d))
    sims = [[float(np.dot(qv, dv)) for dv in d_vecs] for qv in q_vecs]
    w = tensors["head_w"].reshape(-1)
    h = float(tensors["head_b"].reshape(-1)[0])
    for k, (mu, sigma) in enumerate(zip(tensors["kernel_means"], tensors["kernel_widths"])):
        phi = 0.0
        for row in sims:
            soft_tf = sum(math.exp(-(m - mu) ** 2 / (2.0 * sigma * sigma)) for m in row)
            phi += math.log(max(soft_tf, 1e-10))
        h += float(w[k]) * phi
    return h if linear else math.tanh(h)


def central_difference(f, param: np.ndarray, index: tuple, step: float) -> float:
    """Richardson-extrapolated central difference of ``f()`` with respect
    to ``param[index]``, which is perturbed in place and restored."""
    orig = param[index]

    def diff(h):
        param[index] = orig + h
        up = f()
        param[index] = orig - h
        down = f()
        param[index] = orig
        return (up - down) / (2.0 * h)

    return (4.0 * diff(step / 2.0) - diff(step)) / 3.0


# -- checks ------------------------------------------------------------------


def check_equal_rate(label: str, reported: float, errors: int, total: int) -> str | None:
    if total <= 0 or reported != errors / total:
        return f"{label}: reported rate {reported!r}, recomputed {errors}/{total}"
    return None


def check_printed_rate(label: str, printed: str, errors: int, total: int) -> str | None:
    """A rate printed in a report, at the report's precision."""
    decimals = len(printed.partition(".")[2])
    if total <= 0 or f"{errors / total:.{decimals}f}" != printed:
        return f"{label}: report prints {printed}, recomputed {errors}/{total}"
    return None


def check_pairwise_errors(label: str, reported_errors: int, rel_scores, irr_scores) -> str | None:
    """Recount errors from raw scores; NaN and ties count as errors."""
    rel = np.asarray(rel_scores, dtype=np.float64)
    irr = np.asarray(irr_scores, dtype=np.float64)
    errors = int(np.sum(~(rel > irr)))
    if errors != reported_errors:
        return f"{label}: reported {reported_errors} errors, raw scores give {errors}"
    return None


def check_close(label: str, program: list[float], oracle: list[float],
                tol: float = 1e-9) -> str | None:
    a = np.asarray(program, dtype=np.float64)
    b = np.asarray(oracle, dtype=np.float64)
    if a.shape != b.shape or not np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))):
        worst = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("nan")
        return f"{label}: program and oracle differ (max abs diff {worst:.3g})"
    return None


def check_gradients(label: str, analytic: list[float], numeric: list[float],
                    rtol: float = 1e-4, atol: float = 1e-7) -> str | None:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    bad = ~(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + atol)
    if bad.any():
        i = int(np.argmax(bad))
        return f"{label}: backward {a[i]!r} vs central difference {b[i]!r}"
    return None


def check_top1(label: str, cached_best: int, direct_scores, tol: float = 1e-9) -> str | None:
    """The cached ranking's top item is a top item of direct scoring."""
    direct = np.asarray(direct_scores, dtype=np.float64)
    best = float(np.max(direct))
    if not direct[cached_best] >= best - tol * max(1.0, abs(best)):
        return (f"{label}: cached top-1 scores {direct[cached_best]!r} directly, "
                f"direct top-1 scores {best!r}")
    return None


def check_disjoint(label: str, splits: dict[str, list]) -> str | None:
    queries = {name: {row[0] for row in rows} for name, rows in splits.items()}
    names = sorted(queries)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            shared = queries[a] & queries[b]
            if shared:
                return (f"{label}: {a} and {b} share {len(shared)} queries, "
                        f"e.g. {sorted(shared)[0]!r}")
    return None


def check_beats(label: str, model_rate: float, baseline_rate: float) -> str | None:
    if not model_rate < baseline_rate:
        return f"{label}: error {model_rate!r} is not below tf-idf's {baseline_rate!r}"
    return None


def check_finite(label: str, values) -> str | None:
    a = np.asarray(list(values), dtype=np.float64)
    if a.size == 0 or not np.all(np.isfinite(a)):
        return f"{label}: {int(np.sum(~np.isfinite(a)))} of {a.size} values are not finite"
    return None


def check_same(label: str, first, again) -> str | None:
    if first != again:
        return f"{label}: a repeated round gave different output"
    return None
