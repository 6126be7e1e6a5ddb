import hashlib
import io
import itertools
import multiprocessing
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from offlang import corpus, embeddings, nn, pool
from offlang.embeddings import (
    CbowTrainParams,
    FastTextModel,
    NgramConfig,
    build_embedding_matrix,
    cbow_pair_loss,
    extract_ngrams,
    fnv1a_32,
    load_fasttext,
    load_text_embeddings,
    load_vectors,
    ngram_strings,
    save_fasttext,
    train_cbow,
)
from offlang.gradcheck import check_cbow


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestNgrams:
    def test_single_char_word(self):
        cfg = NgramConfig()
        assert ngram_strings("a", cfg) == ["<a>"]
        assert len(extract_ngrams("a", cfg)) == 1

    def test_two_char_word(self):
        assert ngram_strings("ab", NgramConfig()) == ["<ab", "ab>", "<ab>"]

    def test_car_enumeration(self):
        # substrings of '<car>' (length 5) for n in 3..5
        assert ngram_strings("car", NgramConfig()) == ["<ca", "car", "ar>", "<car", "car>", "<car>"]
        assert len(extract_ngrams("car", NgramConfig())) == 6

    def test_bucket_ids_are_fnv_mod_buckets(self):
        cfg = NgramConfig(buckets=97)
        expected = [fnv1a_32(g.encode()) % 97 for g in ngram_strings("car", cfg)]
        assert extract_ngrams("car", cfg) == expected

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            extract_ngrams("", NgramConfig())

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_count_formula(self, word):
        cfg = NgramConfig()
        wrapped = len(word) + 2
        expected = sum(
            wrapped - n + 1 for n in range(cfg.min_ngram, min(cfg.max_ngram, wrapped) + 1)
        )
        assert len(extract_ngrams(word, cfg)) == expected

    def test_bad_config(self):
        with pytest.raises(ValueError):
            NgramConfig(min_ngram=4, max_ngram=3)

    # ASCII, then 2-, 3- and 4-byte UTF-8 characters, alone and mixed, and one-character words
    WORDS = ["car", "a", "é", "€", "🙂", "café", "€uro", "x🙂y", "naïve🙂🙂€", "ab", "abcdefghijklmnop"]

    @pytest.mark.parametrize("buckets", [1, 97, 2**32 + 1])
    @pytest.mark.parametrize("min_ngram, max_ngram", [(3, 6), (1, 1), (1, 9), (5, 6)])
    def test_array_hashing_equals_fnv_of_each_ngram(self, buckets, min_ngram, max_ngram):
        # 2**32 + 1 is a Python int that no uint32 array holds
        cfg = NgramConfig(min_ngram=min_ngram, max_ngram=max_ngram, buckets=buckets)
        ids, counts = embeddings._ngram_buckets(self.WORDS, cfg)
        expected = [[fnv1a_32(g.encode("utf-8")) % buckets for g in ngram_strings(w, cfg)] for w in self.WORDS]
        assert ids.tolist() == [b for word in expected for b in word]
        assert counts.tolist() == [len(word) for word in expected]

    @given(st.lists(st.text(min_size=1, max_size=9), min_size=1, max_size=6),
           st.integers(1, 4), st.integers(0, 3), st.integers(1, 2**33))
    def test_array_hashing_equals_extract_ngrams(self, words, min_ngram, extra, buckets):
        cfg = NgramConfig(min_ngram=min_ngram, max_ngram=min_ngram + extra, buckets=buckets)
        ids, counts = embeddings._ngram_buckets(words, cfg)
        assert ids.tolist() == [b for w in words for b in extract_ngrams(w, cfg)]
        assert counts.tolist() == [len(extract_ngrams(w, cfg)) for w in words]

    def test_array_hashing_leaves_lead_zeros_before_each_word(self):
        cfg = NgramConfig(min_ngram=5, buckets=97)  # "a" and "ab" have no n-grams
        ids, counts = embeddings._ngram_buckets(self.WORDS, cfg, lead=2)
        assert ids.tolist() == [b for w in self.WORDS for b in [0, 0] + extract_ngrams(w, cfg)]
        assert counts.tolist() == [len(extract_ngrams(w, cfg)) for w in self.WORDS]

    def test_array_hashing_rejects_an_empty_word(self):
        with pytest.raises(ValueError, match="empty word"):
            embeddings._ngram_buckets(["car", ""], NgramConfig())

    @pytest.mark.parametrize("block", [1, 4, 1024])
    @pytest.mark.parametrize("min_ngram", [3, 5])
    def test_constituents_are_the_word_then_its_ngram_rows(self, tmp_path, monkeypatch, block, min_ngram):
        # blocks smaller than the vocabulary, so the ids cross block boundaries; at
        # min_ngram 5 the one- and two-character words have no n-grams at all
        monkeypatch.setattr(embeddings, "_HASH_BLOCK", block)
        cfg = NgramConfig(min_ngram=min_ngram, buckets=97)
        tokens = self.WORDS + [f"w{i}" for i in range(7)]
        model = FastTextModel.init(tokens, 3, cfg, seed=0)
        save_fasttext(model, tmp_path / "ft.txt")
        loaded = load_fasttext(tmp_path / "ft.txt", NgramConfig(min_ngram=min_ngram))
        v = len(tokens)
        for m in (model, loaded):
            assert len(m._constituents) == v
            for i, t in enumerate(tokens):
                assert m.constituent_ids(t).tolist() == [i] + [v + b for b in extract_ngrams(t, cfg)]
            assert m.constituent_ids("🙂zz").tolist() == [v + b for b in extract_ngrams("🙂zz", cfg)]


class TestWordVector:
    @staticmethod
    def _tiny_model(dim=4, buckets=50):
        cfg = NgramConfig(buckets=buckets)
        return FastTextModel.init(["car", "new"], dim, cfg, seed=0)

    def test_mean_of_identical_vectors(self):
        m = self._tiny_model()
        v = np.full(m.dim, 0.25)
        m.word_in[:] = v
        m.bucket_vecs[:] = v
        assert np.allclose(m.word_vector("car"), v)

    def test_mean_formula_in_vocab(self):
        m = self._tiny_model()
        ids = m.constituent_ids("car")
        k = len(ids) - 1
        bucket_sum = m.bucket_vecs[ids[1:] - len(m.tokens)].sum(axis=0)
        expected = (m.word_in[0] + bucket_sum) / (k + 1)
        assert np.allclose(m.word_vector("car"), expected)

    def test_oov_uses_buckets_only(self):
        m = self._tiny_model()
        ids = m.constituent_ids("zzz")
        assert (ids >= len(m.tokens)).all()
        expected = m.bucket_vecs[ids - len(m.tokens)].mean(axis=0)
        assert np.allclose(m.word_vector("zzz"), expected)


class TestInputMatrix:
    def test_merge_keeps_the_init_draws_views_and_saved_bytes(self, tmp_path):
        tokens, dim, cfg = ["red", "blue", "green"], 4, NgramConfig(buckets=11)
        m = FastTextModel.init(tokens, dim, cfg, seed=5)
        rng = np.random.default_rng(5)
        scale = 0.5 / dim
        # the two draws of the two-array model: word rows, then bucket rows
        drawn = [rng.uniform(-scale, scale, size=(n, dim)) for n in (len(tokens), cfg.buckets)]
        assert m.inputs.tobytes() == np.vstack(drawn).tobytes()
        assert np.shares_memory(m.word_in, m.inputs) and np.shares_memory(m.bucket_vecs, m.inputs)
        assert m.word_in.shape == (3, dim) and m.bucket_vecs.shape == (11, dim)
        save_fasttext(m, tmp_path / "ft.txt")
        # sha256 of the file the two-array model saved
        digest = hashlib.sha256((tmp_path / "ft.txt").read_bytes()).hexdigest()
        assert digest == "8e09412002ec4a570b0d320ec51371f635b7f888e234c5aa4d3b0e68cc865210"


class TestTrainCbow:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_cbow([], NgramConfig(), CbowTrainParams(), dim=8)

    def test_single_token_documents_leave_model_at_init(self):
        params = CbowTrainParams(seed=4)
        trained = train_cbow([["x"], ["y"], ["x"]], NgramConfig(), params, dim=8)
        fresh = FastTextModel.init(trained.tokens, 8, NgramConfig(), seed=4)
        assert np.array_equal(trained.word_in, fresh.word_in)
        assert np.array_equal(trained.bucket_vecs, fresh.bucket_vecs)
        assert np.array_equal(trained.word_out, fresh.word_out)

    def test_bit_reproducible_given_seed(self):
        rng = np.random.default_rng(0)
        sents = [[f"t{i}" for i in rng.integers(0, 12, size=6)] for _ in range(40)]
        a = train_cbow(sents, NgramConfig(buckets=100), CbowTrainParams(epochs=2, seed=7), dim=8)
        b = train_cbow(sents, NgramConfig(buckets=100), CbowTrainParams(epochs=2, seed=7), dim=8)
        assert np.array_equal(a.word_in, b.word_in)
        assert np.array_equal(a.bucket_vecs, b.bucket_vecs)
        assert np.array_equal(a.word_out, b.word_out)

    def test_negative_sampling_gradient_vs_finite_differences(self):
        assert check_cbow(seed=0) <= 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_input_gradients_sum_every_occurrence_in_order(self, seed):
        rng = np.random.default_rng(seed)
        v, buckets, dim, alpha = 5, 7, 6, 0.025
        word_in, bucket_vecs, word_out = (rng.normal(size=(n, dim)) for n in (v, buckets, v))
        ctx = [rng.integers(0, v + buckets, size=n) for n in (3, 5, 2, 6)]
        # one id four times, in tokens of three lengths: twice within token 0,
        # then in tokens 1 and 3, so its shares differ and the order matters
        ctx[0][1] = ctx[1][2] = ctx[3][4] = ctx[0][0]
        center, negs = 1, np.array([2, 4, 2])

        # the update of the two-array trainer, spelled out: h as the mean of
        # token means, each distinct id's shares summed in occurrence order,
        # then one subtract per distinct row, word rows and bucket rows apart
        rows = np.vstack([word_in, bucket_vecs])
        h = np.array([rows[token].mean(axis=0) for token in ctx]).mean(axis=0)
        targets = np.concatenate([[center], negs])
        dscores = nn.sigmoid(word_out[targets] @ h) - np.r_[1.0, np.zeros(len(negs))]
        grad_h = dscores @ word_out[targets]
        summed = {}
        for token in ctx:
            share = grad_h / (len(ctx) * len(token))
            for rid in token.tolist():
                summed[rid] = summed[rid] + share if rid in summed else share
        ref_word_in, ref_buckets, ref_out = word_in.copy(), bucket_vecs.copy(), word_out.copy()
        np.subtract.at(ref_out, targets, alpha * dscores[:, None] * h)
        for rid in sorted(summed):
            if rid < v:
                ref_word_in[rid] -= alpha * summed[rid]
            else:
                ref_buckets[rid - v] -= alpha * summed[rid]

        # the one-matrix update: every occurrence applied in turn by one scatter
        inputs, out = rows.copy(), word_out.copy()
        _, (ids, grads), (targets, out_grads) = cbow_pair_loss(inputs[:v], inputs[v:], out, ctx, center, negs)
        assert ids.tolist() == np.concatenate(ctx).tolist()
        np.subtract.at(out, targets, alpha * out_grads)
        np.subtract.at(inputs, ids, alpha * grads)
        for new, ref in ((inputs[:v], ref_word_in), (inputs[v:], ref_buckets), (out, ref_out)):
            assert np.abs(new - ref).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_flat_scatter_equals_the_2d_scatter(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = 9, 7
        table = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 3, size=(n, 1))
        # many more occurrences than rows, so most rows repeat, some several times
        rows = rng.integers(0, n, size=25)
        values = rng.normal(size=(len(rows), dim))
        flat_table, ref = table.copy(), table.copy()
        embeddings._subtract_rows(flat_table.reshape(-1), rows, values, np.arange(dim))
        np.subtract.at(ref, rows, values)
        assert np.array_equal(flat_table, ref)

    def test_training_updates_equal_the_2d_scatter(self, monkeypatch):
        rng = np.random.default_rng(3)
        sents = [[f"t{i}" for i in rng.integers(0, 9, size=7)] for _ in range(30)]
        args = (sents, NgramConfig(buckets=40), CbowTrainParams(epochs=2, subsample=0.0, seed=3), 8)
        trained = train_cbow(*args)
        # the 2-D rule on the array the flat view belongs to; a flat copy has
        # no base, so an update that would miss the model fails here
        monkeypatch.setattr(embeddings, "_subtract_rows",
                            lambda flat, rows, values, cols: np.subtract.at(flat.base, rows, values))
        ref = train_cbow(*args)
        fresh = FastTextModel.init(trained.tokens, 8, NgramConfig(buckets=40), seed=3)
        assert np.array_equal(trained.inputs, ref.inputs) and np.array_equal(trained.word_out, ref.word_out)
        assert not np.array_equal(trained.inputs, fresh.inputs) and trained.word_out.any()

    @staticmethod
    def _reference_cbow(token_lists, cfg, params, dim):
        """The per-pair trainer spelled out: constituents from `extract_ngrams`,
        the rows gathered by a word/bucket mask, the labels as a vector and each
        update by the 2-D `np.subtract.at`; returns the model and its pair count."""
        tokens = list(dict.fromkeys(tok for sent in token_lists for tok in sent))
        model = FastTextModel.init(tokens, dim, cfg, params.seed)
        v = len(tokens)
        constituents = [np.array([i] + [v + b for b in extract_ngrams(t, cfg)]) for i, t in enumerate(tokens)]
        sentences = [np.array([tokens.index(tok) for tok in sent], dtype=int) for sent in token_lists]
        counts = np.bincount(np.concatenate(sentences), minlength=v)
        total = int(counts.sum())
        keep_prob = np.ones(v)
        if params.subsample > 0:
            f = counts / total
            keep_prob = np.minimum(1.0, (np.sqrt(f / params.subsample) + 1.0) * (params.subsample / f))
        noise = counts**0.75
        noise_cdf = np.cumsum(noise / noise.sum())
        noise_cdf[-1] = 1.0
        rng = np.random.default_rng(params.seed)
        processed = pairs = 0
        for _ in range(params.epochs):
            for sent in sentences:
                alpha = params.lr * max(1.0 - processed / (total * params.epochs), 0.0)
                processed += len(sent)
                kept = sent[rng.random(len(sent)) < keep_prob[sent]]
                for pos in range(len(kept)):
                    b = int(rng.integers(1, params.window + 1))
                    context = np.concatenate([kept[max(0, pos - b) : pos], kept[pos + 1 : pos + 1 + b]])
                    if len(context) == 0:
                        continue
                    center = int(kept[pos])
                    negs = np.searchsorted(noise_cdf, rng.random(params.negatives))
                    negs = negs[negs != center]
                    ctx = [constituents[c] for c in context]
                    lens = [len(c) for c in ctx]
                    ids = np.concatenate(ctx)
                    weights = np.repeat(1.0 / (len(lens) * np.array(lens)), lens)
                    rows = np.empty((len(ids), dim))
                    word = ids < v
                    rows[word] = model.word_in[ids[word]]
                    rows[~word] = model.bucket_vecs[ids[~word] - v]
                    h = weights @ rows
                    targets = np.concatenate([[center], negs]).astype(int)
                    labels = np.zeros(len(targets))
                    labels[0] = 1.0
                    out_rows = model.word_out[targets]
                    dscores = nn.sigmoid(out_rows @ h) - labels
                    grad_h = dscores @ out_rows
                    np.subtract.at(model.word_out, targets, alpha * (dscores[:, None] * h))
                    np.subtract.at(model.inputs, ids, alpha * (weights[:, None] * grad_h))
                    pairs += 1
        return model, pairs

    # sentences of 1 to 6 tokens under an 8-token window, tokens repeated within
    # a window, non-ASCII tokens, and 40 buckets, so that n-grams collide
    REFERENCE_SENTENCES = [["aa", "bb", "aa", "aa"], ["café", "bb"], ["🙂"], ["€", "aa", "€", "café", "dd", "bb"]]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_training_equals_the_reference_trainer(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["aa", "bb", "cc", "dd", "café", "€", "🙂", "naïve"]
        sents = self.REFERENCE_SENTENCES + [list(rng.choice(vocab, size=rng.integers(1, 7))) for _ in range(40)]
        args = (sents, NgramConfig(buckets=40), CbowTrainParams(window=8, epochs=2, subsample=0.05, seed=seed), 6)
        trained = train_cbow(*args)
        ref, pairs = self._reference_cbow(*args)
        assert pairs > 100
        # subsampling dropped some tokens, so the pairs are fewer than the tokens
        assert pairs < 2 * sum(len(s) for s in sents)
        assert trained.inputs.tobytes() == ref.inputs.tobytes()
        assert trained.word_out.tobytes() == ref.word_out.tobytes()

    def test_one_hooked_pair_loss_per_pair_with_one_sigmoid(self, monkeypatch):
        # the tracer counts pairs from the spans of embeddings.cbow_pair_loss,
        # looked up through the module global, and times the sigmoid inside it
        sigmoids, per_call = [], []
        monkeypatch.setattr(embeddings, "sigmoid", lambda *a, **k: sigmoids.append(1) or nn.sigmoid(*a, **k))
        original = embeddings.cbow_pair_loss

        def counting(*args):
            before = len(sigmoids)
            result = original(*args)
            per_call.append(len(sigmoids) - before)
            return result

        monkeypatch.setattr(embeddings, "cbow_pair_loss", counting)
        args = (self.REFERENCE_SENTENCES * 5, NgramConfig(buckets=40),
                CbowTrainParams(window=8, epochs=2, subsample=0.05, seed=0), 6)
        train_cbow(*args)
        _, pairs = self._reference_cbow(*args)
        assert len(per_call) == pairs > 0 and set(per_call) == {1}

    def test_topic_clusters_separate(self):
        rng = np.random.default_rng(11)
        a_toks = [f"apple{i}" for i in range(10)]
        b_toks = [f"brick{i}" for i in range(10)]
        sents = []
        for _ in range(250):
            sents.append(list(rng.choice(a_toks, size=8)))
            sents.append(list(rng.choice(b_toks, size=8)))
        m = train_cbow(
            sents,
            NgramConfig(buckets=500),
            CbowTrainParams(epochs=5, subsample=0.0, seed=1),
            dim=16,
        )
        vecs = {t: m.word_vector(t) for t in a_toks + b_toks}
        intra = np.mean(
            [cosine(vecs[x], vecs[y]) for x in a_toks for y in a_toks if x != y]
            + [cosine(vecs[x], vecs[y]) for x in b_toks for y in b_toks if x != y]
        )
        inter = np.mean([cosine(vecs[x], vecs[y]) for x in a_toks for y in b_toks])
        assert intra > inter

    def test_oov_composition_newcar_resembles_car(self):
        # fillers share no characters with 'new'/'car', so subword overlap
        # is what ties the unseen compound to its parts
        rng = np.random.default_rng(5)
        letters = [ch for ch in string.ascii_lowercase if ch not in set("carnew")]
        filler = ["".join(t) for t in itertools.islice(itertools.permutations(letters, 3), 60)]
        sents = []
        for _ in range(400):
            s = list(rng.choice(filler, size=7))
            s[3] = "car" if rng.random() < 0.5 else "new"
            sents.append(s)
        m = train_cbow(
            sents,
            NgramConfig(buckets=5000),
            CbowTrainParams(epochs=5, subsample=0.0, seed=2),
            dim=32,
        )
        assert "newcar" not in m.token_to_id
        nc = m.word_vector("newcar")
        target = cosine(nc, m.word_vector("car"))
        others = sorted(
            cosine(nc, m.word_vector(w)) for w in m.tokens if w not in ("car", "new")
        )
        p95 = others[int(0.95 * len(others))]
        assert target > p95


class TestLoadTextEmbeddings:
    def test_basic_line(self):
        out = load_text_embeddings(io.StringIO("hello 0.1 0.2\n"))
        assert set(out) == {"hello"}
        assert np.allclose(out["hello"], [0.1, 0.2])

    def test_empty_stream(self):
        assert load_text_embeddings(io.StringIO("")) == {}

    def test_arity_error_names_line(self):
        stream = io.StringIO("hello 0.1 0.2\nworld 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_text_embeddings(stream)

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="line 1"):
            load_text_embeddings(io.StringIO("hello x y\n"))

    def test_vec_header_and_trailing_spaces(self):
        out = load_text_embeddings(io.StringIO("2 3\nhello 0.1 0.2 0.3 \nworld 1 2 3 \n"))
        assert set(out) == {"hello", "world"}
        assert np.array_equal(out["world"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_names_line(self, bad):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_text_embeddings(io.StringIO(f"hello 0.1 0.2\nworld 0.1 {bad}\n"))

    def test_repeated_token_names_token_and_line(self):
        with pytest.raises(ValueError, match="line 3: repeated token 'tok'"):
            load_text_embeddings(io.StringIO("tok 1 2\nother 0 0\ntok 3 4\n"))


class TestEmbeddingMatrix:
    def test_pad_row_zero_and_unk_mean(self):
        vocab = corpus.build_vocab([["a"]])
        matrix = build_embedding_matrix(vocab, {"a": np.array([1.0, 1.0])})
        assert np.array_equal(matrix[0], np.zeros(2))
        assert np.array_equal(matrix[1], np.array([1.0, 1.0]))

    def test_missing_tokens_get_mean(self):
        vocab = corpus.build_vocab([["a", "b"]])
        matrix = build_embedding_matrix(vocab, {"a": np.array([2.0, 4.0])})
        assert np.array_equal(matrix[vocab.index("b")], np.array([2.0, 4.0]))

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            build_embedding_matrix(corpus.build_vocab([["a"]]), {})

    def test_paper_scale_entry_count(self):
        vocab = corpus.Vocabulary(f"tok{i}" for i in range(21_249))
        assert vocab.size == 21_251
        matrix = build_embedding_matrix(vocab, {"tok0": np.zeros(100)})
        assert matrix.size == 2_125_100

    def test_model_source_uses_subwords(self):
        m = FastTextModel.init(["a"], 4, NgramConfig(buckets=20), seed=0)
        vocab = corpus.build_vocab([["a", "zq"]])  # 'zq' is OOV for the model
        matrix = build_embedding_matrix(vocab, m)
        assert np.allclose(matrix[vocab.index("a")], m.word_vector("a"))
        assert np.allclose(matrix[vocab.index("zq")], m.word_vector("zq"))


def serial_save(model, path):
    """The one-process writer the block save replaced: two loops, one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.tokens)} {model.cfg.buckets} {model.dim}\n")
        for tok, row in zip(model.tokens, model.word_in):
            fh.write(tok + " " + " ".join(map(repr, row.tolist())) + "\n")
        for row in model.bucket_vecs:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


class TestBlockSave:
    BLOCK = 8  # rows per block, set through the byte budget

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize(
        "tokens, buckets, dim",
        [
            (["a", "b", "c"], 4, 5),  # fewer rows than a block
            ([f"w{i}" for i in range(BLOCK)], BLOCK, 5),  # exactly one block each
            ([f"w{i}" for i in range(3 * BLOCK + 5)], 4 * BLOCK + 3, 5),  # several blocks plus a remainder
            (["x", "y"], 5 * BLOCK + 1, 3),  # fewer words than a block
            (["café", "naïve", "😀", "東京", "ß" * 20, "plain"], 2 * BLOCK + 1, 4),  # non-ASCII tokens
            ([f"t{i}" for i in range(2 * BLOCK + 3)], 3 * BLOCK, 1),  # dim 1
        ],
    )
    def test_bytes_equal_the_serial_writer(self, tmp_path, monkeypatch, pools, cores, tokens, buckets, dim):
        monkeypatch.setattr(embeddings, "_SAVE_BLOCK_BYTES", embeddings._VALUE_TEXT_BYTES * dim * self.BLOCK)
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        m = FastTextModel.init(tokens, dim, NgramConfig(buckets=buckets), seed=len(tokens))
        m.inputs[1, 0] = -0.0  # reprs of other lengths than the init draws'
        m.inputs[-1, -1] = 1e16
        save_fasttext(m, tmp_path / "blocks.txt")
        serial_save(m, tmp_path / "serial.txt")
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        blocks = -(-len(tokens) // self.BLOCK) - (-buckets // self.BLOCK)
        assert pools == [min(cores, blocks)]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_bytes_equal_the_serial_writer_at_the_default_block_size(self, tmp_path, monkeypatch, cores):
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        m = FastTextModel.init(["a", "b"], 1, NgramConfig(buckets=60_000), seed=0)
        assert len(m.inputs) > 2 * (embeddings._SAVE_BLOCK_BYTES // embeddings._VALUE_TEXT_BYTES)  # 3 blocks
        save_fasttext(m, tmp_path / "blocks.txt")
        serial_save(m, tmp_path / "serial.txt")
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()

    def test_parent_memory_holds_blocks_not_the_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_SAVE_BLOCK_BYTES", 2**14)
        m = FastTextModel.init([f"w{i}" for i in range(50)], 16, NgramConfig(buckets=4000), seed=0)
        save_fasttext(m, tmp_path / "warm.txt")  # the pool's modules imported before tracing
        path = tmp_path / "ft.txt"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_fasttext(m, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 16 * 2**14  # the text spans more than 16 blocks
        assert peak < size / 4, (peak, size)


class TestSaveLoad:
    def test_roundtrip_word_vectors(self, tmp_path):
        sents = [["red", "blue", "red"], ["blue", "red"]]
        m = train_cbow(sents, NgramConfig(buckets=30), CbowTrainParams(epochs=1, seed=0), dim=6)
        path = tmp_path / "ft.txt"
        save_fasttext(m, path)
        header = path.read_text().splitlines()[0]
        assert header == f"{len(m.tokens)} 30 6"
        loaded = load_fasttext(path, NgramConfig())
        assert loaded.tokens == m.tokens
        assert np.array_equal(loaded.word_in, m.word_in)
        assert np.array_equal(loaded.bucket_vecs, m.bucket_vecs)
        for w in ("red", "blue", "purple"):
            assert np.allclose(loaded.word_vector(w), m.word_vector(w))

    def test_saved_text_is_repr_of_each_float(self, tmp_path):
        tokens, dim = ["a", "b"], 4
        special = [5e-324, 2.2e-308, -0.0, 0.0, 1e-300, -1e300, 3.0, -7.0, 0.1, 1 / 3, 123456789.0, 1e16]
        rng = np.random.default_rng(0)
        inputs = np.array(special + list(rng.normal(size=(len(tokens) + 3) * dim - len(special))))
        m = FastTextModel(tokens, dim, NgramConfig(buckets=3), inputs.reshape(-1, dim), np.zeros((2, dim)))
        save_fasttext(m, tmp_path / "ft.txt")
        # the per-element form the row-wise save replaced
        lines = [f"2 3 {dim}"] + [t + " " + " ".join(repr(float(x)) for x in row) for t, row in zip(tokens, m.word_in)]
        lines += [" ".join(repr(float(x)) for x in row) for row in m.bucket_vecs]
        assert (tmp_path / "ft.txt").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert "5e-324 2.2e-308 -0.0 0.0" in lines[1] and "123456789.0 1e+16" in lines[3]

    def test_load_vectors_tells_the_format_from_the_first_line(self, tmp_path):
        m = FastTextModel.init(["red", "blue"], 3, NgramConfig(2, 4, buckets=7), seed=0)
        save_fasttext(m, tmp_path / "ft.txt")
        loaded = load_vectors(tmp_path / "ft.txt", NgramConfig(2, 4, buckets=99))
        assert loaded.cfg == NgramConfig(2, 4, buckets=7)
        assert np.array_equal(loaded.word_vector("green"), m.word_vector("green"))
        (tmp_path / "plain.txt").write_text("red 1 2 3\n")
        assert list(load_vectors(tmp_path / "plain.txt", NgramConfig())) == ["red"]

    def test_non_finite_component_names_line(self, tmp_path):
        m = FastTextModel.init(["x", "y"], 3, NgramConfig(buckets=5), seed=0)
        m.bucket_vecs[1, 2] = np.nan
        save_fasttext(m, tmp_path / "ft.txt")
        with pytest.raises(ValueError, match="line 5: non-finite"):
            load_fasttext(tmp_path / "ft.txt", NgramConfig())

    def test_repeated_token_names_path_and_line(self, tmp_path):
        m = FastTextModel.init(["x", "y"], 3, NgramConfig(buckets=5), seed=0)
        path = tmp_path / "ft.txt"
        save_fasttext(m, path)
        path.write_text(path.read_text().replace("\ny ", "\nx "))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: repeated token 'x'")):
            load_fasttext(path, NgramConfig())

    def test_non_numeric_component_names_path_and_line(self, tmp_path):
        m = FastTextModel.init(["x", "y"], 3, NgramConfig(buckets=5), seed=0)
        path = tmp_path / "ft.txt"
        save_fasttext(m, path)
        lines = path.read_text().splitlines()
        lines[2] = "y x 0 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: non-numeric vector component")):
            load_fasttext(path, NgramConfig())

    @pytest.mark.parametrize("header", ["1 x 2", "-1 5 3", "1 5", "1 5 3 4", "1 0 2"])
    def test_bad_header_names_path(self, tmp_path, header):
        path = tmp_path / "ft.txt"
        path.write_text(header + "\n", encoding="utf-8")
        message = f"{path}: fasttext header {header!r} is not three non-negative integers V B d"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fasttext(path, NgramConfig())

    def test_header_larger_than_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "ft.txt"
        path.write_text("1 1000000000000 2\nx 0.5 0.5\n0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: expected 2 components, got 1")):
            load_fasttext(path, NgramConfig())

    def test_truncated_file_rejected(self, tmp_path):
        m = FastTextModel.init(["x"], 3, NgramConfig(buckets=5), seed=0)
        path = tmp_path / "ft.txt"
        save_fasttext(m, path)
        lines = path.read_text().splitlines()
        (tmp_path / "bad.txt").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            load_fasttext(tmp_path / "bad.txt", NgramConfig())
