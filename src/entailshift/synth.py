"""Synthetic concept-shift corpora with controllable difficulty.

Each generated example belongs to a topic, draws its tokens from that
topic's vocabulary (with per-token noise substituting words from other
topics), and carries both a pre-shift and a post-shift gold label derived
from topic-level relabeling rules. Generation is fully deterministic given
the seed: per-example RNG streams are keyed on (seed, topic, index), so the
corpus is byte-identical across runs and platforms.

A topic may declare an anchor word: a vocabulary token planted in (almost)
every example of the topic. Anchors let a preset guarantee that class
evidence co-occurs with the class's own surface word, standing in for the
lexical knowledge a pretrained encoder would bring.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .corpus import Dataset, Example, LabelSet, ShiftSpec
from .seeding import derive_seed


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic corpus."""

    name: str
    topics: Mapping[str, tuple[str, ...]]          # topic -> vocabulary
    pre_label_by_topic: Mapping[str, str]
    shift: ShiftSpec
    pre_labels: tuple[str, ...]
    post_labels: tuple[str, ...]
    n_per_topic: int = 400
    noise_rate: float = 0.05                       # per-token substitution rate
    tokens_per_text: int = 12
    two_segment: bool = False                      # query/title vs single text
    anchor_by_topic: Mapping[str, str] = field(default_factory=dict)
    anchor_repeats: int = 1                        # planted anchor slots per text
    lang: str = "en"

    def __post_init__(self) -> None:
        if not isinstance(self.topics, Mapping):
            raise ValueError(f"topics must map each topic to a list of words, got {self.topics!r}")
        for topic, vocab in self.topics.items():
            if not isinstance(vocab, (list, tuple)) or not all(isinstance(word, str) for word in vocab):
                raise ValueError(f"topic {topic!r}: vocabulary must be a list of words, got {vocab!r}")
        # Tuples, so a config shares no list with the JSON it was parsed from.
        object.__setattr__(self, "topics", {t: tuple(v) for t, v in self.topics.items()})
        for name in ("pre_label_by_topic", "anchor_by_topic"):
            value = getattr(self, name)
            if not isinstance(value, Mapping) or not all(
                    isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
                raise ValueError(f"{name} must map topic names to strings, got {value!r}")
            object.__setattr__(self, name, dict(value))
        for name in ("name", "lang"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"{name} must be a non-empty string, got {value!r}")
        for name in ("pre_labels", "post_labels"):
            labels = getattr(self, name)
            if not isinstance(labels, (list, tuple)) or not all(isinstance(label, str) for label in labels):
                raise ValueError(f"{name} must be a list of label strings, got {labels!r}")
            object.__setattr__(self, name, tuple(labels))
        if not self.topics:
            raise ValueError("at least one topic is required")
        seen: dict[str, str] = {}
        for topic, vocab in self.topics.items():
            if not vocab:
                raise ValueError(f"topic {topic!r} has an empty vocabulary")
            for word in vocab:
                if word in seen:
                    raise ValueError(
                        f"word {word!r} appears in both {seen[word]!r} and {topic!r}; "
                        "topic vocabularies must be disjoint"
                    )
                seen[word] = topic
        for topic in self.topics:
            if topic not in self.pre_label_by_topic:
                raise ValueError(f"topic {topic!r} has no pre-shift label")
            pre = self.pre_label_by_topic[topic]
            if pre not in self.pre_labels:
                raise ValueError(f"topic {topic!r}: pre label {pre!r} not in pre_labels {self.pre_labels!r}")
            if (post := self.shift.lookup(topic, pre)) not in self.post_labels:
                raise ValueError(f"topic {topic!r}: shifted label {post!r} not in post_labels {self.post_labels!r}")
        for topic, anchor in self.anchor_by_topic.items():
            if topic not in self.topics:
                raise ValueError(f"anchor declared for unknown topic {topic!r}")
            if anchor not in self.topics[topic]:
                raise ValueError(
                    f"anchor {anchor!r} is not in the vocabulary of topic {topic!r}"
                )
        for name in ("n_per_topic", "tokens_per_text", "anchor_repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.two_segment, bool):
            raise ValueError(f"two_segment must be true or false, got {self.two_segment!r}")
        if self.anchor_repeats < 1:
            raise ValueError("anchor_repeats must be at least 1")
        if type(self.noise_rate) not in (int, float) or not 0.0 <= self.noise_rate < 0.5:
            raise ValueError(f"noise_rate must be a number in [0, 0.5), got {self.noise_rate!r}")
        if self.n_per_topic < 1:
            raise ValueError("n_per_topic must be positive")
        if self.tokens_per_text < 2:
            raise ValueError("tokens_per_text must be at least 2")


def _draw_tokens(
    rng: np.random.Generator,
    vocab: tuple[str, ...],
    others: tuple[str, ...],
    count: int,
    noise_rate: float,
    anchor: str | None,
    anchor_repeats: int = 1,
) -> list[str]:
    base = rng.integers(0, len(vocab), size=count)
    tokens = [vocab[j] for j in base]
    if anchor is not None:
        if anchor_repeats == 1:
            tokens[int(rng.integers(0, count))] = anchor
        else:
            for slot in rng.choice(count, size=min(anchor_repeats, count), replace=False):
                tokens[int(slot)] = anchor
    # Noise replaces a token with a word from some other topic; the anchor
    # slot is not exempt, so anchors survive with rate 1 - noise_rate.
    if noise_rate > 0.0 and others:
        flags = rng.random(count) < noise_rate
        repl = rng.integers(0, len(others), size=count)
        tokens = [others[r] if f else t for t, f, r in zip(tokens, flags, repl)]
    return tokens


def synth_generate(config: SynthConfig, seed: int) -> Dataset:
    """Generate the corpus described by ``config``, deterministically."""
    all_words = [word for vocab in config.topics.values() for word in vocab]
    examples: list[Example] = []
    for topic, vocab in config.topics.items():
        others = tuple(w for w in all_words if w not in set(vocab))
        pre = config.pre_label_by_topic[topic]
        post = config.shift.lookup(topic, pre)
        anchor = config.anchor_by_topic.get(topic)
        for i in range(config.n_per_topic):
            rng = np.random.default_rng(derive_seed(seed, "ex", topic, i))
            if config.two_segment:
                query_len = max(2, config.tokens_per_text // 3)
                title_len = max(2, config.tokens_per_text - query_len)
                query = _draw_tokens(rng, vocab, others, query_len, config.noise_rate, None)
                # The anchor lives in the title segment.
                title = _draw_tokens(
                    rng, vocab, others, title_len, config.noise_rate, anchor,
                    config.anchor_repeats,
                )
                text_a, text_b = " ".join(query), " ".join(title)
            else:
                words = _draw_tokens(
                    rng, vocab, others, config.tokens_per_text, config.noise_rate, anchor,
                    config.anchor_repeats,
                )
                text_a, text_b = " ".join(words), None
            examples.append(
                Example(
                    id=f"{config.name}-{topic}-{i:04d}",
                    text_a=text_a,
                    text_b=text_b,
                    pre_label=pre,
                    post_label=post,
                    lang=config.lang,
                    topic=topic,
                )
            )
    return Dataset(
        examples=tuple(examples),
        pre_labels=LabelSet(config.pre_labels),
        post_labels=LabelSet(config.post_labels),
        name=config.name,
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def retail_shift() -> SynthConfig:
    """Product-search relevance after a label-schema shift.

    Before the shift everything was labeled under a coarse concept where
    these query/product pairs all counted as irrelevant; afterwards each
    topic maps to one of four match classes.

    The vocabularies are built so the two prompt wordings differ in exactly
    one respect, lexical overlap with content. Class names (and the prompt
    template words) share no word tokens and no character trigrams with any
    product text, so an informative prompt plays a single role, prompt
    identity, and its gradient signal is clean. Decoy animal words, by
    contrast, are frequent in the very topic each one labels under the
    fixed decoy assignment (a pet supplies catalog: "cat"/"catnip"/
    "catalog" in exact-match listings, "lion"/"lioness" in substitutes,
    and so on), so a token that is both a prompt key and a content
    regularity receives conflicting updates. That interference is what
    makes arbitrary wordings less stable under a small adaptation budget.
    """
    topics = {
        "exact": (
            "cat", "catnip", "catalog", "tomcat", "sku", "twin",
            "replica", "duplicate", "verbatim", "literal", "strict",
            "direct", "true", "specific", "same", "precise",
        ),
        "substitute": (
            "lion", "lioness", "dandelion", "billion", "alternative",
            "swap", "instead", "similar", "generic", "analog",
            "surrogate", "backup", "alike", "proxy", "fallback", "stopgap",
        ),
        "complement": (
            "zebra", "zebrafish", "brace", "bracket", "accessory",
            "addon", "pairing", "bundle", "extra", "adapter",
            "mount", "strap", "holder", "cable", "kit", "case",
        ),
        "irrelevant": (
            "dog", "bulldog", "dogma", "hotdog", "offtopic",
            "stray", "foreign", "disjointed", "outside", "misfit",
            "oddball", "spurious", "filler", "clutter", "junk", "noise",
        ),
    }
    return SynthConfig(
        name="retail_shift",
        topics=topics,
        pre_label_by_topic={t: "irrelevant" for t in topics},
        shift=ShiftSpec(rules={(t, "irrelevant"): t for t in topics}),
        pre_labels=("relevant", "irrelevant"),
        post_labels=("exact", "substitute", "complement", "irrelevant"),
        n_per_topic=400,
        noise_rate=0.0,
        tokens_per_text=20,
        two_segment=True,
        anchor_repeats=3,
        anchor_by_topic={
            "exact": "cat",
            "substitute": "lion",
            "complement": "zebra",
            "irrelevant": "dog",
        },
    )


def total_flip() -> SynthConfig:
    """Binary relevance where the shift inverts every label, noiselessly.

    A model carried over from the old concept is exactly wrong on the new
    one, which makes this the cleanest probe of catastrophic carry-over.
    """
    topics = {
        "alpha": (
            "launch", "orbit", "probe", "lander", "telescope", "antenna",
            "thruster", "payload", "docking", "capsule", "booster", "relay",
        ),
        "beta": (
            "sourdough", "proofing", "crumb", "knead", "hydration", "levain",
            "scoring", "bake", "crust", "starter", "ferment", "loaf",
        ),
    }
    return SynthConfig(
        name="total_flip",
        topics=topics,
        pre_label_by_topic={"alpha": "relevant", "beta": "irrelevant"},
        shift=ShiftSpec(rules={
            ("alpha", "relevant"): "irrelevant",
            ("beta", "irrelevant"): "relevant",
        }),
        pre_labels=("relevant", "irrelevant"),
        post_labels=("relevant", "irrelevant"),
        n_per_topic=400,
        noise_rate=0.0,
        tokens_per_text=12,
        two_segment=False,
    )


def news_shift() -> SynthConfig:
    """News relevance where one topic drops out of scope and two enter it."""
    topics = {
        "world": (
            "summit", "treaty", "border", "ceasefire", "embassy", "diplomat",
            "sanctions", "parliament", "coalition", "referendum", "envoy", "accord",
        ),
        "sports": (
            "midfielder", "playoff", "homerun", "goalkeeper", "sprint", "marathon",
            "tournament", "standings", "transfer", "injury", "coach", "derby",
        ),
        "business": (
            "earnings", "quarterly", "shares", "merger", "dividend", "forecast",
            "retailer", "startup", "ipo", "revenue", "margin", "layoffs",
        ),
        "scitech": (
            "genome", "quantum", "silicon", "battery", "algorithm", "satellite",
            "vaccine", "reactor", "chipmaker", "neural", "fusion", "sensor",
        ),
    }
    return SynthConfig(
        name="news_shift",
        topics=topics,
        pre_label_by_topic={
            "world": "relevant",
            "sports": "irrelevant",
            "business": "relevant",
            "scitech": "irrelevant",
        },
        shift=ShiftSpec(rules={
            ("world", "relevant"): "irrelevant",
            ("sports", "irrelevant"): "relevant",
            ("business", "relevant"): "relevant",
            ("scitech", "irrelevant"): "relevant",
        }),
        pre_labels=("relevant", "irrelevant"),
        post_labels=("relevant", "irrelevant"),
        n_per_topic=400,
        noise_rate=0.05,
        tokens_per_text=12,
        two_segment=False,
    )


PRESETS: dict[str, Callable[[], SynthConfig]] = {
    "retail_shift": retail_shift,
    "total_flip": total_flip,
    "news_shift": news_shift,
}


def preset_config(name: str, /, **overrides: object) -> SynthConfig:
    """Look up a preset by name and apply field overrides."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return replace(factory(), **overrides)  # type: ignore[arg-type]
