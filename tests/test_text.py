"""Normalization and vocabulary statistics."""

import math
import string

import numpy as np
import pytest

from prodrank.text import Vocabulary, build_vocabulary, load_rules, normalize

from oracles import doc_freq_loop


def test_basic_lowercase_split():
    assert normalize("Red OAK Chair") == ["red", "oak", "chair"]


def test_markup_stripped():
    assert normalize("<b>red</b> chair <br/>") == ["red", "chair"]


def test_accents_fold_to_ascii():
    assert normalize("café crème") == ["cafe", "creme"]


def test_symbols_vanish():
    # trademark sign has no ASCII decomposition -> dropped entirely
    assert normalize("Brand™ chair") == ["brand", "chair"]


def test_unit_abbreviations():
    assert normalize("6' folding table") == ["6", "feet", "folding", "table"]
    assert normalize('24" monitor') == ["24", "inch", "monitor"]


def test_punctuation_to_whitespace():
    assert normalize("red,white/blue-striped!") == ["red", "white", "blue", "striped"]


def test_degenerate_inputs():
    assert normalize("") == []
    assert normalize("   \t\n ") == []
    assert normalize("™®!!!") == []


def test_idempotent_on_random_strings():
    # normalize(join(normalize(x))) == normalize(x), fuzzed
    alphabet = string.ascii_letters + string.digits + string.punctuation + " \t'\"éñ™<>"
    rng = np.random.default_rng(42)
    chars = np.array(list(alphabet))
    for _ in range(10_000):
        s = "".join(rng.choice(chars, size=rng.integers(0, 30)))
        once = normalize(s)
        assert normalize(" ".join(once)) == once


def test_custom_rules_applied_in_order(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_text("# comment line\nfoo\tbar\nbar\tbaz\n")
    rules = load_rules(p)
    assert normalize("foo", rules) == ["baz"]


def test_rules_file_rejects_missing_tab(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_text("no-tab-here\n")
    with pytest.raises(ValueError, match="rules.tsv:1"):
        load_rules(p)


def test_doc_freq_counts_documents_not_occurrences():
    docs = [["a", "a", "b"], ["a"], ["b", "c"]]
    vocab = build_vocabulary(docs)
    assert vocab.doc_freq == doc_freq_loop(docs)
    assert vocab.doc_freq["a"] == 2


def test_idf_values():
    vocab = build_vocabulary([["a", "b"], ["a"], ["a", "c"], ["d"]])
    assert vocab.idf("a") == pytest.approx(math.log(4 / 3))
    assert vocab.idf("b") == pytest.approx(math.log(4))
    assert vocab.idf("missing") == 0.0


def test_idf_of_ubiquitous_token_is_zero():
    vocab = build_vocabulary([["a"], ["a"], ["a"]])
    assert vocab.idf("a") == 0.0


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_vocabulary_over_random_corpora_matches_loop():
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(40)]
    for _ in range(50):
        docs = [
            [words[j] for j in rng.integers(0, 40, size=rng.integers(1, 12))]
            for _ in range(rng.integers(1, 20))
        ]
        vocab = build_vocabulary(docs)
        assert vocab.doc_freq == doc_freq_loop(docs)
        assert vocab.n_docs == len(docs)
