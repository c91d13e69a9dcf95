"""Synthetic product catalog: SKU records with titles, auxiliary
marketing text, and a generator whose output has known structure.

A small set of SKUs are "keyword stuffers": their auxiliary text repeats
an attribute+noun phrase of an unrelated product many times.  Stuffed
text inflates linear tf weighting and pulls these SKUs to the top of
lexical retrieval for queries they cannot satisfy, which is exactly the
failure mode the neural rankers are supposed to learn around.  Ordinary
items restate their own title words once in the blurb, so a full-match
item still outranks everything except the stuffers.  Ground truth
relevance is always computed from the title alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .text import Tokens, normalize

NOUNS = [
    "bookshelf", "desk", "chair", "table", "sofa", "lamp", "dresser",
    "nightstand", "cabinet", "stool", "bench", "mattress", "wardrobe",
    "recliner", "ottoman", "headboard", "mirror", "rug", "futon",
    "loveseat", "armchair", "bookcase", "sideboard", "credenza", "cot",
    "daybed", "hammock", "vanity", "trunk", "chaise",
]
COLORS = [
    "white", "black", "gray", "brown", "beige", "navy", "green", "red",
    "ivory", "teal", "yellow", "purple", "olive", "coral", "charcoal",
    "cream",
]
MATERIALS = [
    "oak", "pine", "maple", "walnut", "bamboo", "metal", "glass",
    "leather", "velvet", "rattan",
]
BRANDS = [
    "duraline", "homecraft", "nestwood", "urbanest", "cozyline",
    "fernwood", "brightnook", "stellarhome", "vivantia", "modumax",
    "casaluna", "loftec", "wexley", "ardenne", "kivano", "solvik",
    "tremara", "bexley",
]
ACCESSORIES = [
    "doors", "wheels", "cushions", "armrests", "storage", "lighting",
    "canopy", "footrest", "hooks", "rollers", "padding", "drawers",
]
MARKETING = [
    "quality", "durable", "sturdy", "modern", "classic", "design", "easy",
    "assembly", "perfect", "home", "office", "style", "comfort", "premium",
    "finish", "compact", "spacious", "elegant", "versatile", "affordable",
]


@dataclass(frozen=True)
class Sku:
    """One catalog item.  ``attributes`` are the title's color/material
    tokens, kept separately so intent sampling never has to re-parse the
    title."""

    sku_id: str
    title: str
    extra: str
    noun: str = ""
    attributes: tuple = ()

    def title_tokens(self) -> Tokens:
        return normalize(self.title)

    def doc_tokens(self) -> Tokens:
        """Scoring text: title concatenated with the auxiliary fields."""
        return normalize(self.title + " " + self.extra)


def generate_catalog(
    n_skus: int = 2000, seed: int = 0, stuffers_per_noun: int = 2
) -> list[Sku]:
    """Deterministic catalog of ``n_skus`` items."""
    if n_skus < 1:
        raise ValueError(f"n_skus must be positive, got {n_skus}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCA7)))

    # Stuffing plan: a couple of dedicated stuffers per victim noun.  The
    # victim noun is repeated often enough (8 times) that the stuffer tops
    # lexical retrieval for that noun, but the count of such SKUs per noun
    # is small, so genuine matches are pushed down only a rank or two,
    # never off the page.  The paired attribute rides along at a low count
    # and just seasons the co-occurrence statistics.
    attr_pool = COLORS + MATERIALS
    victims = [
        (attr_pool[rng.integers(len(attr_pool))], noun)
        for noun in NOUNS
        for _ in range(stuffers_per_noun)
    ]
    victims = [victims[k] for k in rng.permutation(len(victims))]
    n_stuffers = min(len(victims), n_skus // 8)
    stuffer_plan = dict(
        zip((int(k) for k in rng.choice(n_skus, size=n_stuffers, replace=False)),
            victims[:n_stuffers])
    )

    skus = []
    for i in range(n_skus):
        noun = NOUNS[rng.integers(len(NOUNS))]
        attrs: list[str] = []
        title_parts: list[str] = []
        if rng.random() < 0.6:
            title_parts.append(BRANDS[rng.integers(len(BRANDS))])
        if rng.random() < 0.9:
            attrs.append(COLORS[rng.integers(len(COLORS))])
        if rng.random() < 0.8:
            attrs.append(MATERIALS[rng.integers(len(MATERIALS))])
        title_parts.extend(attrs)
        title_parts.append(noun)
        if rng.random() < 0.3:
            accessory = ACCESSORIES[rng.integers(len(ACCESSORIES))]
            title_parts.extend(["with", accessory])

        extra_parts = list(rng.choice(MARKETING, size=rng.integers(6, 13)))
        # blurbs restate the title's color/material/noun words twice
        extra_parts.extend(attrs * 2)
        extra_parts.extend([noun, noun])
        if i in stuffer_plan:
            victim_attr, victim_noun = stuffer_plan[i]
            extra_parts.extend([victim_noun] * 8 + [victim_attr] * 3)
        extra_parts = [str(t) for t in rng.permutation(extra_parts)]

        skus.append(
            Sku(
                sku_id=f"SKU{i:05d}",
                title=" ".join(title_parts),
                extra=" ".join(extra_parts),
                noun=noun,
                attributes=tuple(attrs),
            )
        )
    return skus


def write_catalog(skus: list[Sku], path) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for sku in skus:
            record = asdict(sku)
            record["attributes"] = list(sku.attributes)
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_catalog(path) -> list[Sku]:
    skus = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("not a JSON object")
                attributes = record.get("attributes", [])
                sku = Sku(
                    sku_id=record["sku_id"],
                    title=record["title"],
                    extra=record.get("extra", ""),
                    noun=record.get("noun", ""),
                    attributes=tuple(attributes),
                )
                if not isinstance(attributes, list) or not all(
                    isinstance(v, str)
                    for v in (sku.sku_id, sku.title, sku.extra, sku.noun, *sku.attributes)
                ):
                    raise TypeError("sku_id, title, extra and noun must be strings, "
                                    "attributes a list of strings")
                skus.append(sku)
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ValueError(f"{path}:{lineno}: bad catalog record ({e})") from None
    if not skus:
        raise ValueError(f"{path}: empty catalog")
    return skus
