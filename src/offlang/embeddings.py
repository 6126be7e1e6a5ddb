"""Subword-aware word embeddings: CBOW with negative sampling over word and
hashed character-n-gram vectors, plus a loader for external text-format
embeddings and the embedding-matrix builder that seeds the classifier.
"""

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .corpus import PAD_INDEX, UNK_INDEX, Vocabulary
from .nn import sigmoid

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
    n_min: int = 3
    n_max: int = 6
    buckets: int = 100_000

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.buckets < 1:
            raise ValueError("bucket count must be >= 1")


def ngram_strings(word: str, cfg: NgramConfig) -> list[str]:
    """All character n-grams of '<word>' with n_min <= n <= n_max."""
    wrapped = f"<{word}>"
    grams = []
    for n in range(cfg.n_min, min(cfg.n_max, len(wrapped)) + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


def extract_ngrams(word: str, cfg: NgramConfig) -> list[int]:
    """Bucket ids of the word's character n-grams (FNV-1a mod bucket count)."""
    if not word:
        raise ValueError("cannot extract n-grams of an empty word")
    return [fnv1a_32(g.encode("utf-8")) % cfg.buckets for g in ngram_strings(word, cfg)]


@dataclass
class CbowTrainParams:
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025  # decayed linearly to 0 over all processed tokens
    subsample: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.negatives < 1:
            raise ValueError("window and negatives must be >= 1")


class FastTextModel:
    """Word vectors plus hashed n-gram bucket vectors and CBOW output vectors.

    A word's representation is the mean of its word input vector (when in
    vocabulary) and its n-gram bucket vectors, so out-of-vocabulary words
    still get vectors through their subwords.
    """

    def __init__(
        self,
        tokens: list[str],
        counts: np.ndarray | None,
        dim: int,
        cfg: NgramConfig,
        word_in: np.ndarray,
        bucket_vecs: np.ndarray,
        word_out: np.ndarray,
    ):
        self.tokens = tokens
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        self.counts = counts
        self.dim = dim
        self.cfg = cfg
        self.word_in = word_in
        self.bucket_vecs = bucket_vecs
        self.word_out = word_out
        # virtual row ids: word rows are [0, V), bucket rows [V, V+B)
        self._constituents = [
            np.array([i] + [len(tokens) + b for b in extract_ngrams(t, cfg)])
            for i, t in enumerate(tokens)
        ]

    @classmethod
    def init(cls, tokens, counts, dim, cfg, seed) -> "FastTextModel":
        rng = np.random.default_rng(seed)
        scale = 0.5 / dim
        word_in = rng.uniform(-scale, scale, size=(len(tokens), dim))
        bucket_vecs = rng.uniform(-scale, scale, size=(cfg.buckets, dim))
        word_out = np.zeros((len(tokens), dim))
        return cls(tokens, counts, dim, cfg, word_in, bucket_vecs, word_out)

    def __contains__(self, word: str) -> bool:
        return word in self.token_to_id

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        v = len(self.tokens)
        out = np.empty((len(ids), self.dim))
        word_mask = ids < v
        out[word_mask] = self.word_in[ids[word_mask]]
        out[~word_mask] = self.bucket_vecs[ids[~word_mask] - v]
        return out

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
        return self._rows(ids).mean(axis=0)


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
    constituent row. Returns (loss, grad_rows, output_grads) where grad_rows
    maps virtual input-row id -> gradient and output_grads maps output-row id
    -> gradient; virtual ids place bucket rows after the word rows.
    """
    v = word_in.shape[0]
    k = len(context_constituents)
    reps = np.empty((k, word_in.shape[1]))
    for j, ids in enumerate(context_constituents):
        gathered = np.empty((len(ids), word_in.shape[1]))
        m = ids < v
        gathered[m] = word_in[ids[m]]
        gathered[~m] = bucket_vecs[ids[~m] - v]
        reps[j] = gathered.mean(axis=0)
    h = reps.mean(axis=0)

    targets = np.concatenate([[center_id], negative_ids]).astype(int)
    labels = np.zeros(len(targets))
    labels[0] = 1.0
    scores = word_out[targets] @ h
    probs = sigmoid(scores)
    # loss = -log s(s_pos) - sum log s(-s_neg)
    loss = float(-np.log(np.clip(probs[0], 1e-12, None)) - np.log(np.clip(1.0 - probs[1:], 1e-12, None)).sum())

    dscores = probs - labels
    grad_h = dscores @ word_out[targets]
    output_grads = (targets, dscores[:, None] * h)

    input_grads: dict[int, np.ndarray] = {}
    for ids in context_constituents:
        share = grad_h / (k * len(ids))
        for rid in ids:
            prev = input_grads.get(int(rid))
            input_grads[int(rid)] = share if prev is None else prev + share
    return loss, input_grads, output_grads


def _keep_probability(count: int, total: int, threshold: float) -> float:
    if threshold <= 0:
        return 1.0
    f = count / total
    p = (math.sqrt(f / threshold) + 1.0) * (threshold / f)
    return min(1.0, p)


def train_cbow(
    token_lists: Iterable[list[str]],
    cfg: NgramConfig | None = None,
    params: CbowTrainParams | None = None,
    dim: int = 100,
) -> FastTextModel:
    """Train CBOW negative-sampling embeddings over tokenized sentences.

    Sequential SGD from one rng seeded by `params.seed`, so training is
    bit-reproducible from the seed.
    """
    cfg = cfg or NgramConfig()
    params = params or CbowTrainParams()

    tokens: list[str] = []
    token_to_id: dict[str, int] = {}
    counts: list[int] = []
    sentences: list[np.ndarray] = []
    for sent in token_lists:
        ids = np.empty(len(sent), dtype=int)
        for j, tok in enumerate(sent):
            tid = token_to_id.get(tok)
            if tid is None:
                tid = len(tokens)
                token_to_id[tok] = tid
                tokens.append(tok)
                counts.append(0)
            counts[tid] += 1
            ids[j] = tid
        sentences.append(ids)
    if not tokens:
        raise ValueError("empty corpus: no tokens to train on")

    counts_arr = np.array(counts, dtype=float)
    total = int(counts_arr.sum())
    model = FastTextModel.init(tokens, counts_arr, dim=dim, cfg=cfg, seed=params.seed)

    keep_prob = np.array(
        [_keep_probability(int(c), total, params.subsample) for c in counts_arr]
    )
    noise = counts_arr**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0
    total_tokens = total * params.epochs

    rng = np.random.default_rng(params.seed)
    v = len(tokens)
    constituents = model._constituents
    word_in, bucket_vecs, word_out = model.word_in, model.bucket_vecs, model.word_out
    processed = 0
    for _ in range(params.epochs):
        for sent in sentences:
            alpha = params.lr * max(1.0 - processed / total_tokens, 0.0)
            processed += len(sent)
            kept = sent[rng.random(len(sent)) < keep_prob[sent]]
            for pos in range(len(kept)):
                b = int(rng.integers(1, params.window + 1))
                lo = max(0, pos - b)
                context = np.concatenate([kept[lo:pos], kept[pos + 1 : pos + 1 + b]])
                if len(context) == 0:
                    continue
                center = int(kept[pos])
                negs = np.searchsorted(noise_cdf, rng.random(params.negatives))
                negs = negs[negs != center]

                ctx_ids = [constituents[c] for c in context]
                _, input_grads, (targets, out_grads) = cbow_pair_loss(
                    word_in, bucket_vecs, word_out, ctx_ids, center, negs
                )
                # negatives may repeat; subtract.at accumulates duplicates
                np.subtract.at(word_out, targets, alpha * out_grads)
                for rid, grad in input_grads.items():
                    if rid < v:
                        word_in[rid] -= alpha * grad
                    else:
                        bucket_vecs[rid - v] -= alpha * grad
    return model


def load_text_embeddings(stream: IO[str]) -> dict[str, np.ndarray]:
    """Parse `token v1 ... vd` lines; the first line fixes d."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, line in enumerate(stream, start=1):
        parts = line.rstrip("\n").split(" ")
        if parts == [""]:
            continue
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise ValueError(f"line {line_no}: no vector components")
        elif len(parts) - 1 != dim:
            raise ValueError(
                f"line {line_no}: expected {dim} components, got {len(parts) - 1}"
            )
        try:
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric vector component") from None
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


def save_fasttext(model: FastTextModel, path) -> None:
    """Text format: header `V B d`, V word lines `token v1..vd`, B bucket lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.tokens)} {model.cfg.buckets} {model.dim}\n")
        for tok, row in zip(model.tokens, model.word_in):
            fh.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")
        for row in model.bucket_vecs:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_fasttext(path, cfg: NgramConfig | None = None) -> FastTextModel:
    """Load a saved model for inference (word_vector / matrix building)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed fasttext header")
        v, buckets, dim = (int(x) for x in header)
        cfg = cfg or NgramConfig()
        if buckets != cfg.buckets:
            cfg = NgramConfig(cfg.n_min, cfg.n_max, buckets)
        tokens = []
        word_in = np.empty((v, dim))
        for i in range(v):
            parts = fh.readline().split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: word line {i + 2} has wrong arity")
            tokens.append(parts[0])
            word_in[i] = [float(x) for x in parts[1:]]
        bucket_vecs = np.empty((buckets, dim))
        for i in range(buckets):
            parts = fh.readline().split(" ")
            if len(parts) != dim:
                raise ValueError(f"{path}: bucket line {v + i + 2} has wrong arity")
            bucket_vecs[i] = [float(x) for x in parts]
    return FastTextModel(tokens, None, dim, cfg, word_in, bucket_vecs, np.zeros((v, dim)))
