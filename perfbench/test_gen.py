"""Checks of the benchmark's input generator against the offlang parser.

    python3 -m pytest perfbench/test_gen.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import gen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from offlang import corpus, embeddings  # noqa: E402


@pytest.fixture(scope="module")
def olid(tmp_path_factory):
    out = tmp_path_factory.mktemp("olid")
    summary = gen.generate(out, seed=7, labelled=None, test_tweets=300, embedding_dim=100)
    with open(out / "train.tsv", encoding="utf-8") as fh:
        records = corpus.parse_olid(fh)
    return out, summary, records


def test_parser_accepts_output_with_olid_label_rates(olid):
    out, summary, records = olid
    assert len(records) == gen.OLID_TWEETS == summary["train_tweets"]
    a = Counter(r.label_a for r in records)
    assert a["OFF"] / len(records) == pytest.approx(0.333, abs=0.001)
    b = Counter(r.label_b for r in records if r.label_a == "OFF")
    assert b["TIN"] / a["OFF"] == pytest.approx(0.88, abs=0.001)
    c = Counter(r.label_c for r in records if r.label_b == "TIN")
    assert c["IND"] / b["TIN"] == pytest.approx(0.62, abs=0.002)
    with open(out / "test.tsv", encoding="utf-8") as fh:
        test = corpus.parse_olid(fh)
    assert len(test) == 300 and not {r.id for r in test} & {r.id for r in records}


def test_vocabulary_is_olid_sized_and_counts_match_the_cleaner(olid):
    out, summary, records = olid
    token_lists = [corpus.tokenize(r.clean_text) for r in records]
    vocab = corpus.build_vocab(token_lists)
    assert 20_000 <= vocab.size - 2 <= 22_500
    assert vocab.size - 2 == summary["train_types"]
    assert sum(map(len, token_lists)) == summary["train_clean_tokens"]
    assert sum(r.user_count > 0 for r in records) > 0.4 * len(records)
    raw = " ".join(r.raw_text for r in records[:500])
    assert "#" in raw and "URL" in raw and any(ch.isupper() for ch in raw.replace("@USER", ""))


def test_embedding_covers_the_vocabulary(olid):
    out, summary, records = olid
    with open(out / "embedding.txt", encoding="utf-8") as fh:
        vectors = embeddings.load_text_embeddings(fh)
    assert len(vectors) == summary["embedding_rows"] == summary["train_types"]
    assert {len(v) for v in vectors.values()} == {100}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    gen.generate(tmp_path / "a", seed=3, train_tweets=400, labelled=300)
    gen.generate(tmp_path / "b", seed=3, train_tweets=400, labelled=300)
    gen.generate(tmp_path / "c", seed=4, train_tweets=400, labelled=300)
    first = (tmp_path / "a" / "train.tsv").read_bytes()
    assert first == (tmp_path / "b" / "train.tsv").read_bytes()
    assert first != (tmp_path / "c" / "train.tsv").read_bytes()
    with open(tmp_path / "a" / "train.tsv", encoding="utf-8") as fh:
        records = corpus.parse_olid(fh)
    assert sum(r.label_a is not None for r in records) == 300
