"""Seeded generator of OLID-format inputs for the benchmark.

Everything is drawn from one numpy generator seeded by the workload seed, so
the same seed writes byte-identical files. The generator does not import
offlang: the program only ever sees the files.

What it imitates, from the OLID paper's statistics:
- 13,240 training tweets, 33% OFF; among OFF 88% TIN / 12% UNT; among TIN
  62% IND / 28% GRP / 10% OTH, so the a/b/c hierarchy is always valid;
- tweet text with leading `@USER` runs and inline mentions, hashtags,
  trailing punctuation, mixed case and a closing `URL`;
- a Zipfian word distribution whose pool and exponent give about 21k
  distinct types over 13,240 tweets.

Labels carry a planted signal plus noise: an exact share of OFF tweets
contains three or four words of a small marker lexicon, and a few NOT tweets
do too. The
external embedding puts the marker words along one shared direction, as a
pretrained embedding would cluster a lexicon.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OLID_TWEETS = 13_240
POOL_SIZE = 31_000
ZIPF_EXPONENT = 1.1
ZIPF_SHIFT = 2.7
MEAN_WORDS = 18.0
MAX_WORDS = 55

OFF_RATE = 0.333
TIN_RATE = 0.88
C_RATES = (("IND", 0.62), ("GRP", 0.28), ("OTH", 0.10))

MARKERS = 60
MARKER_RANKS = (150, 2_000)  # mid-frequency: neither stopwords nor hapaxes
OFF_MARKER_P = 0.85  # share of OFF tweets that carry marker words
NOT_MARKER_P = 0.08  # label noise: share of NOT tweets that carry them too
MARKER_MIN = 3  # marker words per carrying tweet, plus one with probability 0.3
MARKER_SHIFT = 2.0  # marker words sit this far along one embedding direction

PUNCT = (".", ",", "!", "?", ";", ":", "(", ")", '"', "'")
PUNCT_P = np.array([0.3, 0.2, 0.2, 0.12, 0.03, 0.05, 0.02, 0.02, 0.03, 0.03])

_ONSETS = ("", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "ck", "ng", "st", "nd", "x")


@dataclass
class Lexicon:
    """Word pool in Zipf rank order plus the cumulative rank distribution."""

    words: list[str]
    cdf: np.ndarray
    markers: np.ndarray  # ranks of the marker words


@dataclass
class Corpus:
    """Generated rows plus what the benchmark needs to know about them."""

    rows: list[tuple[str, str, str, str, str]] = field(default_factory=list)
    clean_tokens: int = 0  # tokens the OLID cleaner yields, summed over rows
    types: set[str] = field(default_factory=set)  # distinct cleaned tokens


def make_lexicon(rng: np.random.Generator) -> Lexicon:
    """POOL_SIZE distinct letter-only words; shorter words get the frequent ranks."""
    seen: set[str] = {"user", "url"}
    words: list[str] = []
    while len(words) < POOL_SIZE:
        n = 2 * (POOL_SIZE - len(words))
        n_syl = rng.choice(4, size=n, p=[0.18, 0.42, 0.28, 0.12]) + 1
        parts = zip(
            rng.integers(len(_ONSETS), size=(n, 4)),
            rng.integers(len(_VOWELS), size=(n, 4)),
            rng.integers(len(_CODAS), size=(n, 4)),
        )
        for k, (on, vo, co) in zip(n_syl, parts):
            w = "".join(_ONSETS[on[j]] + _VOWELS[vo[j]] + _CODAS[co[j]] for j in range(k))
            if w not in seen and len(words) < POOL_SIZE:
                seen.add(w)
                words.append(w)
    tie = rng.random(POOL_SIZE)
    order = sorted(range(POOL_SIZE), key=lambda i: (len(words[i]), tie[i]))
    words = [words[i] for i in order]
    weights = 1.0 / (np.arange(POOL_SIZE) + ZIPF_SHIFT) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    markers = rng.choice(np.arange(*MARKER_RANKS), size=MARKERS, replace=False)
    return Lexicon(words, cdf, markers)


def _labels(rng: np.random.Generator, n: int) -> list[tuple[str, str, str]]:
    """Exact OLID-like label counts in a random order."""
    n_off = int(round(OFF_RATE * n))
    n_tin = int(round(TIN_RATE * n_off))
    c_counts = [int(round(rate * n_tin)) for _, rate in C_RATES]
    c_counts[0] = n_tin - sum(c_counts[1:])
    labels = [("NOT", "NULL", "NULL")] * (n - n_off) + [("OFF", "UNT", "NULL")] * (n_off - n_tin)
    for (name, _), count in zip(C_RATES, c_counts):
        labels += [("OFF", "TIN", name)] * count
    return [labels[i] for i in rng.permutation(n)]


def make_corpus(rng: np.random.Generator, lex: Lexicon, n: int, prefix: str, labelled: int | None = None) -> Corpus:
    """n tweets; only the first `labelled` (default all) carry a/b/c labels."""
    labelled = n if labelled is None else labelled
    labels = _labels(rng, labelled) + [("NULL", "NULL", "NULL")] * (n - labelled)
    offensive = np.array([a == "OFF" for a, _, _ in labels])

    lengths = np.minimum(1 + rng.poisson(MEAN_WORDS - 1, size=n), MAX_WORDS)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    total = int(starts[-1])
    ranks = np.searchsorted(lex.cdf, rng.random(total))
    # planted signal: an exact share of each class carries three or four marker
    # words, so the label noise is the same for every seed
    carries = np.zeros(n, dtype=bool)
    for cls, p in ((offensive, OFF_MARKER_P), (~offensive, NOT_MARKER_P)):
        rows = np.flatnonzero(cls)
        carries[rng.choice(rows, size=int(round(p * len(rows))), replace=False)] = True
    for i in np.flatnonzero(carries):
        k = min(MARKER_MIN + int(rng.random() < 0.3), int(lengths[i]))
        slots = starts[i] + rng.choice(int(lengths[i]), size=k, replace=False)
        ranks[slots] = rng.choice(lex.markers, size=k)

    style = rng.random(total)
    punct = np.where(rng.random(total) < 0.12, rng.choice(len(PUNCT), size=total, p=PUNCT_P), -1)
    inline = np.where(rng.random(total) < 0.02, np.searchsorted(lex.cdf, rng.random(total)), -1)
    mentions = np.where(rng.random(n) < 0.55, rng.geometric(0.55, size=n), 0)
    url = rng.random(n) < 0.1

    corpus = Corpus()
    words = lex.words
    for i in range(n):
        out = ["@USER"] * int(mentions[i])  # OLID tweets often open with a run of mentions
        for j in range(starts[i], starts[i + 1]):
            word = words[ranks[j]]
            u = style[j]
            tok = "#" + word if u < 0.04 else word.capitalize() if u < 0.16 else word.upper() if u < 0.21 else word
            if punct[j] >= 0:
                tok += PUNCT[punct[j]]
            out.append(tok)
            if inline[j] >= 0:  # an inline mention, never adjacent to another
                out += ["@USER", words[inline[j]]]
        if url[i]:
            out.append("URL")
        corpus.rows.append((f"{prefix}{i:05d}", " ".join(out), *labels[i]))

    # what the OLID cleaner makes of it: a mention run becomes one `user`
    # token and a trailing mark its own token
    corpus.clean_tokens = int(
        total + (mentions > 0).sum() + (punct >= 0).sum() + 2 * (inline >= 0).sum() + url.sum()
    )
    corpus.types = {words[r] for r in np.unique(ranks)} | {words[r] for r in np.unique(inline[inline >= 0])}
    corpus.types |= {PUNCT[p] for p in np.unique(punct[punct >= 0])}
    if mentions.any() or (inline >= 0).any():
        corpus.types.add("user")
    if url.any():
        corpus.types.add("url")
    return corpus


def write_olid(corpus: Corpus, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n")
        for row in corpus.rows:
            fh.write("\t".join(row) + "\n")


def write_embedding(rng: np.random.Generator, lex: Lexicon, types: set[str], path: Path, dim: int) -> int:
    """Text embedding `token v1..vd` for every type, markers along one direction."""
    marker_words = {lex.words[r] for r in lex.markers}
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    tokens = sorted(types)
    vectors = rng.normal(scale=0.1, size=(len(tokens), dim))
    for i, tok in enumerate(tokens):
        if tok in marker_words:
            vectors[i] += MARKER_SHIFT * direction
    fmt = "%s " + " ".join(["%.5f"] * dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for tok, row in zip(tokens, vectors):
            fh.write(fmt % (tok, *row))
    return len(tokens)


def generate(out_dir: Path, seed: int, train_tweets: int = OLID_TWEETS, labelled: int | None = None,
             test_tweets: int = 0, embedding_dim: int = 0) -> dict:
    """Write train.tsv (and test.tsv, embedding.txt when asked); return a summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lex = make_lexicon(rng)
    train = make_corpus(rng, lex, train_tweets, "tr", labelled)
    write_olid(train, out_dir / "train.tsv")
    summary = {
        "seed": seed,
        "train_tweets": train_tweets,
        "train_labelled": len(train.rows) if labelled is None else labelled,
        "train_clean_tokens": train.clean_tokens,
        "train_types": len(train.types),
    }
    if test_tweets:
        test = make_corpus(rng, lex, test_tweets, "te")
        write_olid(test, out_dir / "test.tsv")
        summary["test_tweets"] = test_tweets
    if embedding_dim:
        summary["embedding_rows"] = write_embedding(
            rng, lex, train.types, out_dir / "embedding.txt", embedding_dim
        )
    return summary

