"""Text normalization, tokenization, vocabulary and idf statistics.

Everything downstream (scorers, the click simulator, triple extraction)
operates on the token lists produced here.  Normalization is regex-only:
no stemming, no analyzers, no language models.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass
from importlib import resources

Tokens = list[str]

_TAG_RE = re.compile(r"<[^>]*>")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9\s]+")

_DEFAULT_RULES: list[tuple[re.Pattern, str]] | None = None


def load_rules(path) -> list[tuple[re.Pattern, str]]:
    """Load an ordered normalization rule list.

    File format: one rule per line, ``pattern<TAB>replacement``, UTF-8,
    ``#`` lines are comments.  Patterns are applied in file order.
    """
    rules = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected pattern<TAB>replacement")
            pattern, replacement = line.rstrip("\n").split("\t", 1)
            rules.append((re.compile(pattern), replacement))
    return rules


def default_rules() -> list[tuple[re.Pattern, str]]:
    """The rule table shipped with the package (unit abbreviations)."""
    global _DEFAULT_RULES
    if _DEFAULT_RULES is None:
        ref = resources.files("prodrank.data").joinpath("normalize_rules.tsv")
        with resources.as_file(ref) as path:
            _DEFAULT_RULES = load_rules(path)
    return _DEFAULT_RULES


def normalize(raw: str, rules: list[tuple[re.Pattern, str]] | None = None) -> Tokens:
    """Normalize raw text into a list of lowercase ASCII tokens.

    Steps, in order: strip markup tags, canonically decompose and drop
    non-ASCII characters (accents fold to their base letter, symbols like
    a trademark sign vanish), lowercase, apply the abbreviation rule list
    (e.g. an apostrophe right after digits becomes the token "feet"),
    replace remaining punctuation with whitespace, split.

    Idempotent: normalizing the joined output is the identity.
    Degenerate input yields an empty list.
    """
    if rules is None:
        rules = default_rules()
    text = _TAG_RE.sub(" ", raw)
    text = unicodedata.normalize("NFD", text)
    text = text.encode("ascii", "ignore").decode("ascii")
    text = text.lower()
    for pattern, replacement in rules:
        text = pattern.sub(replacement, text)
    text = _NON_ALNUM_RE.sub(" ", text)
    return text.split()


@dataclass
class Vocabulary:
    """Document-frequency statistics over a corpus: ``doc_freq`` counts
    the number of *distinct* documents containing a token."""

    doc_freq: dict[str, int]
    n_docs: int

    def idf(self, token: str) -> float:
        """Inverse document frequency, ``ln(n_docs / doc_freq)``.

        Unknown tokens score 0 so they contribute nothing to any match.
        """
        df = self.doc_freq.get(token)
        if df is None:
            return 0.0
        return math.log(self.n_docs / df)


def build_vocabulary(corpus: list[Tokens]) -> Vocabulary:
    """Count document frequencies.

    Raises ValueError on an empty corpus.
    """
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    doc_freq: dict[str, int] = {}
    for doc in corpus:
        for token in set(doc):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    return Vocabulary(doc_freq=doc_freq, n_docs=len(corpus))
