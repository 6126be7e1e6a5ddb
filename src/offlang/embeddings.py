"""Subword-aware word embeddings: CBOW with negative sampling over word and
hashed character-n-gram vectors, plus a loader for external text-format
embeddings and the embedding-matrix builder that seeds the classifier.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import IO, Sequence

import numpy as np

from .corpus import PAD_INDEX, UNK_INDEX, Vocabulary, open_text
from .nn import sigmoid
from .pool import forked_map

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a hash; portable and deterministic across platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


@dataclass
class NgramConfig:
    min_ngram: int = 3
    max_ngram: int = 6
    buckets: int = 100_000

    def __post_init__(self):
        if not 1 <= self.min_ngram <= self.max_ngram:
            raise ValueError(f"min_ngram must be in [1, max_ngram], got [{self.min_ngram}, {self.max_ngram}]")
        if self.buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {self.buckets}")


def ngram_strings(word: str, cfg: NgramConfig) -> list[str]:
    """All character n-grams of '<word>' with min_ngram <= n <= max_ngram."""
    wrapped = f"<{word}>"
    grams = []
    for n in range(cfg.min_ngram, min(cfg.max_ngram, len(wrapped)) + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


def extract_ngrams(word: str, cfg: NgramConfig) -> list[int]:
    """Bucket ids of the word's character n-grams (FNV-1a mod bucket count)."""
    if not word:
        raise ValueError("cannot extract n-grams of an empty word")
    return [fnv1a_32(g.encode("utf-8")) % cfg.buckets for g in ngram_strings(word, cfg)]


# Tokens hashed per block by `_ngram_buckets`: a block's text and per-character
# arrays stay small next to the constituent arrays that outlive them.
_HASH_BLOCK = 1024


def _ngram_buckets(words: Sequence[str], cfg: NgramConfig, lead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The ids of `extract_ngrams` for every word, concatenated, each word's
    behind `lead` zeros, and each word's count. FNV-1a runs on one uint32
    array over every character position of the words' UTF-8 text: step n
    feeds each position the bytes of the n-th character from it, after which
    a position whose n characters end inside its word holds that n-gram's
    hash."""
    if not all(words):
        raise ValueError("cannot extract n-grams of an empty word")
    chars = np.array([len(w) + 2 for w in words])  # of '<word>'
    # n-grams per word and n, and where each word's n-grams of each n begin in the result
    per_n = np.maximum(chars[:, None] - np.arange(cfg.min_ngram, cfg.max_ngram + 1) + 1, 0)
    counts = per_n.sum(axis=1)
    first = (np.cumsum(counts + lead) - counts)[:, None] + np.cumsum(per_n, axis=1) - per_n
    # made before the text's arrays, so that freeing them leaves no hole below it
    ids = np.zeros(counts.sum() + lead * len(words), dtype=int)
    data = np.frombuffer("".join(f"<{w}>" for w in words).encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # the bytes that begin a character
    size = np.diff(starts, append=len(data))
    # each character's bytes in a row, zero-padded to the widest
    char_bytes = data[np.minimum(starts[:, None] + np.arange(size.max()), len(data) - 1)]
    word = np.repeat(np.arange(len(words)), chars)
    offset = np.arange(len(starts)) - (np.cumsum(chars) - chars)[word]  # of the character in its word
    room = chars[word] - offset
    h = np.full(len(starts), _FNV_OFFSET, dtype=np.uint32)
    for n in range(1, min(cfg.max_ngram, len(h)) + 1):  # no n-gram is longer than all the text
        fed, nth = h[: len(h) - n + 1], slice(n - 1, None)
        for j in range(char_bytes.shape[1]):
            step = (fed ^ char_bytes[nth, j]) * np.uint32(_FNV_PRIME)
            fed[:] = step if j == 0 else np.where(size[nth] > j, step, fed)
        if n >= cfg.min_ngram:
            at = np.flatnonzero(room >= n)
            ids[first[word[at], n - cfg.min_ngram] + offset[at]] = h[at]
    if cfg.buckets <= 0xFFFFFFFF:  # a hash is below 2**32, so a larger count leaves it as it is
        ids %= cfg.buckets
    return ids, counts


class TableSizeError(ValueError):
    """The input table of word and bucket rows cannot be allocated."""

    def __init__(self, rows: int, dim: int):
        super().__init__(f"the input table of {rows:,} rows x {dim} float64 values ({rows * dim * 8 / 2**30:,.1f} GiB) "
                         f"cannot be allocated")


@dataclass
class CbowTrainParams:
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025  # decayed linearly to 0 over all processed tokens
    subsample: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("window", "negatives", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.subsample < 0:
            raise ValueError(f"subsample must be >= 0, got {self.subsample}")


class FastTextModel:
    """Word vectors plus hashed n-gram bucket vectors and CBOW output vectors.

    A word's representation is the mean of its word input vector (when in
    vocabulary) and its n-gram bucket vectors, so out-of-vocabulary words
    still get vectors through their subwords. `inputs` holds the V word rows,
    then the B bucket rows, so a constituent id is a row number; `word_in` and
    `bucket_vecs` are views of the two parts.
    """

    def __init__(self, tokens: list[str], dim: int, cfg: NgramConfig, inputs: np.ndarray, word_out: np.ndarray):
        self.tokens = tokens
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        self.dim = dim
        self.cfg = cfg
        self.inputs = inputs
        self.word_in, self.bucket_vecs = inputs[: len(tokens)], inputs[len(tokens) :]
        self.word_out = word_out
        # each token's word id, then its n-grams' rows: views of one array per block
        v = len(tokens)
        self._constituents = []
        for start in range(0, v, _HASH_BLOCK):
            block = tokens[start : start + _HASH_BLOCK]
            ids, counts = _ngram_buckets(block, cfg, lead=1)
            ids += v
            ends = np.cumsum(counts + 1)
            heads = ends - counts - 1
            ids[heads] = np.arange(start, start + len(block))
            self._constituents += [ids[a:b] for a, b in zip(heads.tolist(), ends.tolist())]

    @classmethod
    def init(cls, tokens, dim, cfg, seed) -> "FastTextModel":
        rng = np.random.default_rng(seed)
        scale = 0.5 / dim
        rows = len(tokens) + cfg.buckets
        try:
            inputs = rng.uniform(-scale, scale, size=(rows, dim))
        except MemoryError:
            raise TableSizeError(rows, dim) from None
        return cls(tokens, dim, cfg, inputs, np.zeros((len(tokens), dim)))

    def constituent_ids(self, word: str) -> np.ndarray:
        wid = self.token_to_id.get(word)
        if wid is not None:
            return self._constituents[wid]
        if not word:
            raise ValueError("no vector for the empty string")
        return np.array([len(self.tokens) + b for b in extract_ngrams(word, self.cfg)])

    def word_vector(self, word: str) -> np.ndarray:
        """Mean of the word's input vector (if in vocab) and its bucket vectors."""
        ids = self.constituent_ids(word)
        if len(ids) == 0:
            raise ValueError(f"word {word!r} has no vector constituents")
        return self.inputs[ids].mean(axis=0)


def _gather(word_in: np.ndarray, bucket_vecs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Input rows of constituent ids: word rows are [0, V), bucket rows [V, V+B)."""
    v = len(word_in)
    # every row taken as a bucket row (a word id clips to bucket 0), then the word rows written over
    rows = bucket_vecs.take(ids - v, axis=0, mode="clip")
    word = ids < v
    rows[word] = word_in[ids[word]]
    return rows


def cbow_pair_loss(
    word_in: np.ndarray,
    bucket_vecs: np.ndarray,
    word_out: np.ndarray,
    context_constituents: Sequence[np.ndarray],
    center_id: int,
    negative_ids: np.ndarray,
):
    """Negative-sampling loss and gradients for one (context, center) pair.

    The hidden vector is the mean over context tokens of each token's mean
    constituent row, taken as one weighted sum over the occurrences. Returns
    (loss, (ids, input_grads), (targets, output_grads)): `ids` are the
    context's constituent ids in order, each occurrence with its weighted
    share of the hidden gradient; `targets` are the output rows. Both keep
    repeats, for `np.subtract.at` to apply each occurrence in turn.
    """
    lens = np.array([len(ids) for ids in context_constituents])
    ids = np.concatenate(context_constituents)
    token_weights = 1.0 / (len(lens) * lens)
    h = token_weights.repeat(lens) @ _gather(word_in, bucket_vecs, ids)

    targets = np.empty(len(negative_ids) + 1, dtype=int)
    targets[0] = center_id
    targets[1:] = negative_ids
    out_rows = word_out.take(targets, axis=0)
    probs = sigmoid(out_rows @ h)
    # loss = -log s(s_pos) - sum log s(-s_neg)
    loss = float(-np.log(np.maximum(probs[0], 1e-12)) - np.log(np.maximum(1.0 - probs[1:], 1e-12)).sum())

    dscores = probs  # the labels are 1 for the center and 0 for the negatives
    dscores[0] -= 1.0
    grad_h = dscores @ out_rows
    # each occurrence's row is its token's weight times grad_h, the product the weights vector would give
    grads = np.multiply.outer(token_weights, grad_h).repeat(lens, axis=0)
    return loss, (ids, grads), (targets, np.multiply.outer(dscores, h))


def _subtract_rows(flat: np.ndarray, rows: np.ndarray, values: np.ndarray, cols: np.ndarray) -> None:
    """Subtract `values[k]` from row `rows[k]` of the C-order array whose flat
    view is `flat`; rows may repeat, and each element takes every occurrence's
    share in turn, so the result is bit-equal to `np.subtract.at(a, rows,
    values)`. The 1-D index takes numpy's fast `ufunc.at` path."""
    np.subtract.at(flat, np.add.outer(rows * len(cols), cols).ravel(), values.ravel())


def train_cbow(
    token_lists: Sequence[list[str]], cfg: NgramConfig, params: CbowTrainParams, dim: int
) -> FastTextModel:
    """Train CBOW negative-sampling embeddings over tokenized sentences.

    Sequential SGD from one rng seeded by `params.seed`, so training is
    bit-reproducible from the seed.
    """
    tokens = list(dict.fromkeys(tok for sent in token_lists for tok in sent))
    if not tokens:
        raise ValueError("empty corpus: no tokens to train on")
    model = FastTextModel.init(tokens, dim, cfg, params.seed)
    sentences = [np.array([model.token_to_id[tok] for tok in sent], dtype=int) for sent in token_lists]
    counts = np.bincount(np.concatenate(sentences), minlength=len(tokens))
    total = int(counts.sum())

    keep_prob = np.ones(len(tokens))
    if params.subsample > 0:
        f = counts / total
        keep_prob = np.minimum(1.0, (np.sqrt(f / params.subsample) + 1.0) * (params.subsample / f))
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0
    total_tokens = total * params.epochs

    # flat views of the two C-contiguous arrays, for the 1-D scatter
    inputs_flat, out_flat = model.inputs.reshape(-1), model.word_out.reshape(-1)
    word_in, bucket_vecs, word_out, constituents = model.word_in, model.bucket_vecs, model.word_out, model._constituents
    cols = np.arange(dim)
    rng = np.random.default_rng(params.seed)
    processed = 0
    for _ in range(params.epochs):
        for sent in sentences:
            alpha = params.lr * max(1.0 - processed / total_tokens, 0.0)
            processed += len(sent)
            kept = sent[rng.random(len(sent)) < keep_prob[sent]].tolist()
            for pos, center in enumerate(kept):
                b = int(rng.integers(1, params.window + 1))
                context = kept[max(0, pos - b) : pos] + kept[pos + 1 : pos + 1 + b]
                if not context:
                    continue
                negs = noise_cdf.searchsorted(rng.random(params.negatives))
                negs = negs[negs != center]
                _, (ids, grads), (targets, out_grads) = cbow_pair_loss(
                    word_in, bucket_vecs, word_out, [constituents[c] for c in context], center, negs)
                # scaled in place (both are fresh arrays), so the flat index is
                # the update's one temporary and adds nothing to the peak memory
                out_grads *= alpha
                grads *= alpha
                _subtract_rows(out_flat, targets, out_grads, cols)
                _subtract_rows(inputs_flat, ids, grads, cols)
    return model


class VectorLineError(ValueError):
    """A malformed line of a vector file; the message starts with its line number."""


def _vector(parts: list[str], dim: int, line_no: int) -> np.ndarray:
    """The `dim` components of line `line_no`, checked numeric and finite."""
    if len(parts) != dim:
        raise VectorLineError(f"line {line_no}: expected {dim} components, got {len(parts)}")
    try:
        vector = np.array([float(x) for x in parts])
    except ValueError:
        raise VectorLineError(f"line {line_no}: non-numeric vector component") from None
    if not np.isfinite(vector).all():
        raise VectorLineError(f"line {line_no}: non-finite vector component")
    return vector


def _add_word(vectors: dict[str, np.ndarray], parts: list[str], dim: int, line_no: int) -> None:
    """Add the word line `token v1 ... vd`, split into `parts`; an empty token
    or one seen before is an error."""
    vector = _vector(parts[1:], dim, line_no)
    if parts[0] in vectors or not parts[0]:
        raise VectorLineError(f"line {line_no}: {'repeated' if parts[0] else 'empty'} token {parts[0]!r}")
    vectors[parts[0]] = vector


def _split_line(line: str) -> list[str]:
    return line.rstrip(" \n").split(" ")


def load_text_embeddings(stream: IO[str]) -> dict[str, np.ndarray]:
    """Parse `token v1 ... vd` lines; the first vector line fixes d.

    A first line of exactly two integers is the `count dim` header of a
    word2vec/fastText `.vec` file and is skipped; so are trailing spaces.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, line in enumerate(stream, start=1):
        parts = _split_line(line)
        if parts == [""] or (line_no == 1 and len(parts) == 2 and all(p.isdigit() for p in parts)):
            continue
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise VectorLineError(f"line {line_no}: no vector components")
        _add_word(vectors, parts, dim, line_no)
    return vectors


def load_vectors(path, cfg: NgramConfig):
    """Word vectors from a text file, its format told by the first line: the
    `V B d` header of `save_fasttext` loads a FastTextModel with `cfg`'s
    n-gram range (the file does not store it); anything else is read by
    `load_text_embeddings`. An error names the path and the line."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) == 3 and all(x.isdigit() for x in header):
            return load_fasttext(path, cfg)
        fh.seek(0)
        try:
            vectors = load_text_embeddings(fh)
        except VectorLineError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not vectors:
        raise ValueError(f"{path}: no word vectors")
    return vectors


def build_embedding_matrix(vocab: Vocabulary, source) -> np.ndarray:
    """V x d matrix: PAD row zero, UNK row = mean of the token rows.

    `source` is a FastTextModel (subwords cover every token) or a
    token -> vector map (missing tokens fall back to the mean vector).
    """
    words = vocab.index_to_token[2:]
    if isinstance(source, FastTextModel):
        dim = source.dim
        rows = [source.word_vector(w) for w in words]
    else:
        if not source:
            raise ValueError("cannot build a matrix from an empty embedding map")
        dim = len(next(iter(source.values())))
        found = [np.asarray(source[w], dtype=float) for w in words if w in source]
        fallback = np.mean(found, axis=0) if found else np.zeros(dim)
        rows = [np.asarray(source[w], dtype=float) if w in source else fallback for w in words]

    matrix = np.zeros((vocab.size, dim))
    if rows:
        matrix[2:] = np.vstack(rows)
        matrix[UNK_INDEX] = matrix[2:].mean(axis=0)
    matrix[PAD_INDEX] = 0.0
    return matrix


# The save's rows per block come from a byte budget for a block's text, at
# about 22 bytes per value (repr and separator, at CBOW's init scale). The
# blocks in flight bound the save's memory: at d=100 on 2 cores, 1,024-row
# blocks (about 2.2 MB of text) raised embed-train's peak RSS from 71.7 to
# 85 MB, and 256-row blocks to 75.7 (measured when rows went to the workers).
_SAVE_BLOCK_BYTES = 2**19
_VALUE_TEXT_BYTES = 22


def _text_block(model: FastTextModel, rows: tuple[int, int]) -> bytes:
    """The UTF-8 lines of the model's input rows start..stop: `token v1 .. vd`
    for word rows, `v1 .. vd` for bucket rows, each value its float's repr."""
    start, stop = rows
    # a block at a time: the whole table as Python floats would dwarf the array
    lines = [" ".join(map(repr, row)) for row in model.inputs[start:stop].tolist()]
    if start < len(model.tokens):
        lines = [f"{tok} {line}" for tok, line in zip(model.tokens[start:stop], lines)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_fasttext(model: FastTextModel, path) -> None:
    """Text format: header `V B d`, V word lines `token v1..vd`, B bucket lines.

    The word rows, then the bucket rows, are cut into blocks that forked
    workers format (`forked_map`; formatting calls no BLAS), each sent as its
    row range. The blocks are written in row order as they arrive, so the
    bytes do not depend on the worker count and the whole text is never held
    in memory.
    """
    step = max(1, _SAVE_BLOCK_BYTES // (_VALUE_TEXT_BYTES * model.dim))
    v, n = len(model.tokens), len(model.inputs)
    blocks = [(i, min(i + step, end)) for begin, end in ((0, v), (v, n)) for i in range(begin, end, step)]
    with open(path, "wb") as fh:
        fh.write(f"{v} {model.cfg.buckets} {model.dim}\n".encode())
        for text in forked_map(partial(_text_block, model), blocks):
            fh.write(text)


def load_fasttext(path, cfg: NgramConfig) -> FastTextModel:
    """Load a saved model for inference (word_vector / matrix building);
    word and bucket lines get the checks of `load_text_embeddings`, and an
    error names the path and the line."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or not all(x.isdecimal() for x in header) or int(header[1]) < 1:
            raise ValueError(f"{path}: fasttext header {' '.join(header)!r} is not three non-negative integers V B d "
                             f"with B >= 1")
        v, buckets, dim = (int(x) for x in header)
        words: dict[str, np.ndarray] = {}
        try:
            cfg = replace(cfg, buckets=buckets)
            for line_no in range(2, v + 2):
                _add_word(words, _split_line(fh.readline()), dim, line_no)
            # rows are collected, not preallocated from the header's B and d,
            # so a header that claims more rows than the file holds fails at
            # the file's end instead of in one huge allocation
            rows = [_vector(_split_line(fh.readline()), dim, line_no) for line_no in range(v + 2, v + buckets + 2)]
        except VectorLineError as exc:
            raise ValueError(f"{path}: {exc}") from None
    inputs = np.array([*words.values(), *rows]).reshape(v + buckets, dim)
    return FastTextModel(list(words), dim, cfg, inputs, np.zeros((v, dim)))
