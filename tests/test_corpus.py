import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from offlang import corpus
from offlang.corpus import (
    CorpusError,
    TweetRecord,
    Vocabulary,
    build_vocab,
    clean,
    encode,
    encode_records,
    filter_task,
    label_indices,
    parse_olid,
    tokenize,
    user_count_stats,
)


class TestClean:
    def test_worked_example(self):
        # golden transformation of the documented example tweet
        raw = ("@USER @USER @USER It should scare every American!  "
               "She is playing Hockey with a warped puck!")
        expected = ("user it should scare every american ! "
                    "she is playing hockey with a warped puck !")
        assert clean(raw) == (expected, 3)

    def test_empty(self):
        assert clean("") == ("", 0)

    def test_hashtag_and_mentions(self):
        assert clean("#MAGA @USER @USER ok!") == ("maga user ok !", 2)

    def test_punctuation_isolated(self):
        text, _ = clean("wait... what?! (really)")
        assert text == "wait . . . what ? ! ( really )"

    def test_apostrophe_split(self):
        assert clean("don't")[0] == "don ' t"

    def test_non_adjacent_users_not_collapsed(self):
        text, count = clean("@USER said hi to @USER")
        assert count == 2
        assert text == "user said hi to user"

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        once, _ = clean(raw)
        twice, _ = clean(once)
        assert twice == once

    @given(st.text(max_size=80))
    def test_no_forbidden_chars(self, raw):
        text, _ = clean(raw)
        assert "#" not in text and "@" not in text
        assert text == text.lower()


class TestParseOlid:
    def test_documented_row(self):
        stream = io.StringIO(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "86426\t@USER She should ask a few native Americans what their take is.\tOFF\tUNT\tNULL\n"
        )
        (rec,) = parse_olid(stream)
        assert rec.id == "86426"
        assert rec.label_a == "OFF"
        assert rec.label_b == "UNT"
        assert rec.label_c is None
        assert rec.user_count == 1

    def test_empty_after_header(self):
        assert parse_olid(io.StringIO("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n")) == []

    def test_wrong_column_count(self):
        stream = io.StringIO(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "1\thello\tNOT\tNULL\n"
        )
        with pytest.raises(CorpusError, match="line 2"):
            parse_olid(stream)

    def test_unknown_label(self):
        stream = io.StringIO(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "1\thello\tMAYBE\tNULL\tNULL\n"
        )
        with pytest.raises(CorpusError, match="MAYBE"):
            parse_olid(stream)

    def test_hierarchy_violation_fails_loudly(self):
        stream = io.StringIO(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "1\thello\tNOT\tTIN\tNULL\n"
        )
        with pytest.raises(CorpusError, match="subtask_b"):
            parse_olid(stream)

    def test_repeated_id_names_both_lines(self):
        stream = io.StringIO(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "1\thello\tNOT\tNULL\tNULL\n"
            "2\tthere\tNOT\tNULL\tNULL\n"
            "1\tagain\tOFF\tUNT\tNULL\n"
        )
        with pytest.raises(CorpusError, match="line 4: duplicate tweet id '1', first on line 2"):
            parse_olid(stream)

    def test_two_column_test_file(self):
        stream = io.StringIO("id\ttweet\n9\t@USER hi there\n")
        (rec,) = parse_olid(stream)
        assert rec.label_a is None
        assert rec.clean_text == "user hi there"

    def test_fixture_parses(self, olid_records):
        assert len(olid_records) == 20
        assert all(r.clean_text == clean(r.raw_text)[0] for r in olid_records)


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [("user ok !", ["user", "ok", "!"]), ("", []), ("a  b", ["a", "b"])],
    )
    def test_cases(self, text, expected):
        assert tokenize(text) == expected


class TestVocabulary:
    def test_build_order(self):
        vocab = build_vocab([["a", "b"], ["a"]])
        assert vocab.size == 4
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_empty(self):
        assert build_vocab([]).size == 2

    def test_bijection(self):
        vocab = build_vocab([["x", "y", "z", "y"]])
        for tok, idx in vocab.token_to_index.items():
            assert vocab.index_to_token[idx] == tok

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab([["alpha", "beta"]])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.index_to_token == vocab.index_to_token
        assert loaded.content_hash() == vocab.content_hash()


class TestEncode:
    def test_front_padding(self):
        vocab = build_vocab([["a", "b"]])
        assert encode(["a", "b"], vocab, 5) == [0, 0, 0, 2, 3]

    def test_truncation_keeps_tail(self):
        vocab = build_vocab([[f"t{i}" for i in range(70)]])
        tokens = [f"t{i}" for i in range(70)]
        out = encode(tokens, vocab, 63)
        assert len(out) == 63
        assert out == [vocab.index(f"t{i}") for i in range(7, 70)]

    def test_unknown_token(self):
        vocab = build_vocab([["a"]])
        assert encode(["zzz"], vocab, 3) == [0, 0, 1]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            encode(["a"], build_vocab([["a"]]), 0)

    @given(st.lists(st.sampled_from(["a", "b", "zzz", "!"]), max_size=30))
    def test_always_fixed_length_in_range(self, tokens):
        vocab = build_vocab([["a", "b", "!"]])
        out = encode(tokens, vocab, 7)
        assert len(out) == 7
        assert all(0 <= i < vocab.size for i in out)

    @given(st.text(max_size=60))
    def test_clean_tokenize_encode_composition(self, raw):
        vocab = build_vocab([["user", "!", "hello"]])
        out = encode(tokenize(clean(raw)[0]), vocab, 9)
        assert len(out) == 9
        assert all(0 <= i < vocab.size for i in out)


class TestExamples:
    def test_encode_records_and_label_indices(self, olid_records):
        records = filter_task(olid_records, "c")
        vocab = build_vocab(tokenize(r.clean_text) for r in records)
        examples = corpus.Examples(*encode_records(records, vocab, 6), label_indices(records, "c"))
        assert len(examples) == 8
        assert (examples.indices.dtype, examples.user_count.dtype, examples.label.dtype) == (
            np.intp, np.float64, np.intp)
        assert examples.indices[0].tolist() == encode(tokenize(records[0].clean_text), vocab, 6)
        assert examples.user_count.tolist() == [r.user_count for r in records]
        assert examples.label.tolist() == [("IND", "GRP", "OTH").index(r.label_c) for r in records]

    def test_rows_select_every_field(self, olid_records):
        records = filter_task(olid_records, "b")
        examples = corpus.Examples(*encode_records(records, build_vocab([]), 4), label_indices(records, "b"))
        picked = examples[np.array([3, 0, 3])]
        assert len(picked) == 3 and len(examples[2:5]) == 3
        for field in ("indices", "user_count", "label"):
            assert np.array_equal(getattr(picked, field), getattr(examples, field)[[3, 0, 3]])

    def test_missing_label_names_the_record(self, olid_records):
        with pytest.raises(CorpusError, match="record 2 has no subtask_b label"):
            label_indices(olid_records, "b")


class TestFilterTask:
    def test_excludes_missing(self):
        rec = TweetRecord("1", "x", "x", 0, label_a="NOT")
        assert filter_task([rec], "b") == []

    def test_includes_full(self):
        rec = TweetRecord("1", "x", "x", 0, label_a="OFF", label_b="TIN", label_c="IND")
        assert filter_task([rec], "c") == [rec]

    def test_fixture_counts(self, olid_records):
        assert len(filter_task(olid_records, "a")) == 20
        assert len(filter_task(olid_records, "b")) == 11
        assert len(filter_task(olid_records, "c")) == 8


class TestUserCountStats:
    @staticmethod
    def _records(counts, label):
        return [
            TweetRecord(str(i), "", "", c, label_a=label) for i, c in enumerate(counts)
        ]

    def test_two_point_population_std(self):
        recs = self._records([1, 3], "OFF") + self._records([2], "NOT")
        stats = user_count_stats(recs, "a")
        assert stats["OFF"] == (2.0, 1.0)

    def test_single_value(self):
        recs = self._records([5], "OFF") + self._records([1], "NOT")
        assert user_count_stats(recs, "a")["OFF"] == (5.0, 0.0)

    def test_empty_class_error(self):
        recs = self._records([1, 2], "OFF")
        with pytest.raises(CorpusError, match="NOT"):
            user_count_stats(recs, "a")
