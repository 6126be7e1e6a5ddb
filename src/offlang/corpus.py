"""OLID corpus handling: parsing, cleaning, tokenization, vocabulary, encoding.

The cleaning pipeline lowercases tweets, strips '#'/'@', collapses repeated
'@USER' mentions (keeping their count as a feature), and isolates punctuation
so every mark is its own token.
"""

import hashlib
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

USER_MENTION = "@USER"

# Class-index order per task; positions define the integer label encoding.
TASK_LABELS = {
    "a": ("NOT", "OFF"),
    "b": ("UNT", "TIN"),
    "c": ("IND", "GRP", "OTH"),
}

OLID_HEADER = ("id", "tweet", "subtask_a", "subtask_b", "subtask_c")

_PUNCT_RE = re.compile(r"([.,!?;:()\"'])")


class CorpusError(ValueError):
    """Raised for malformed input files or label inconsistencies."""


@contextmanager
def open_text(path, newline=None):
    """`open(path)` for reading UTF-8 text, less a leading byte-order mark. A
    byte sequence that is not UTF-8, met while the block reads the file, ends
    in a CorpusError naming the path and the bad byte's offset in the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the decoder reads in chunks, so exc.start counts from the chunk's start
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            bad = exc.object[exc.start]
            raise CorpusError(f"{path}: not UTF-8 text: byte 0x{bad:02x} at offset {exc.start}") from None


@dataclass
class TweetRecord:
    id: str
    raw_text: str
    clean_text: str
    user_count: int
    label_a: Optional[str] = None
    label_b: Optional[str] = None
    label_c: Optional[str] = None

    def label_for(self, task: str) -> Optional[str]:
        return {"a": self.label_a, "b": self.label_b, "c": self.label_c}[task]


def clean(raw_text: str) -> tuple[str, int]:
    """Clean a raw tweet; returns (clean_text, user_count).

    Steps, in order: count '@USER' occurrences, collapse runs of '@USER'
    tokens to one, lowercase, drop residual '#'/'@', put whitespace around
    each punctuation mark in .,!?;:()"' and collapse whitespace.
    """
    user_count = raw_text.count(USER_MENTION)

    kept = []
    prev_was_user = False
    for tok in raw_text.split():
        is_user = tok == USER_MENTION
        if is_user and prev_was_user:
            continue
        kept.append(tok)
        prev_was_user = is_user

    text = " ".join(kept).lower()
    text = text.replace("#", "").replace("@", "")
    text = _PUNCT_RE.sub(r" \1 ", text)
    text = " ".join(text.split())
    return text, user_count


def tokenize(clean_text: str) -> list[str]:
    """Split cleaned text on whitespace; never yields empty tokens."""
    return clean_text.split()


def _check_hierarchy(record: TweetRecord, line_no: int) -> None:
    if record.label_b is not None and record.label_a != "OFF":
        raise CorpusError(
            f"line {line_no}: subtask_b={record.label_b} requires subtask_a=OFF "
            f"(got {record.label_a})"
        )
    if record.label_c is not None and record.label_b != "TIN":
        raise CorpusError(
            f"line {line_no}: subtask_c={record.label_c} requires subtask_b=TIN "
            f"(got {record.label_b})"
        )


def _parse_label(value: str, task: str, line_no: int) -> Optional[str]:
    if value == "NULL":
        return None
    if value not in TASK_LABELS[task]:
        raise CorpusError(f"line {line_no}: unknown subtask_{task} label {value!r}")
    return value


def parse_olid(stream: IO[str]) -> list[TweetRecord]:
    """Parse an OLID-format TSV stream into TweetRecords.

    The header must start with `id<TAB>tweet`, optionally followed by
    subtask_a / subtask_b / subtask_c columns in that order; "NULL" marks an
    absent label. Every data row must match the header's column count, and
    no two rows may share an id.
    """
    lines = iter(stream)
    try:
        header_line = next(lines)
    except StopIteration:
        raise CorpusError("empty stream: missing header row") from None

    header = tuple(h.strip() for h in header_line.rstrip("\r\n").split("\t"))
    if header != OLID_HEADER[: len(header)] or len(header) < 2:
        raise CorpusError(
            f"unexpected header {header!r}; expected a prefix of {OLID_HEADER!r}"
        )
    n_cols = len(header)

    records = []
    id_lines: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_cols:
            raise CorpusError(
                f"line {line_no}: expected {n_cols} tab-separated columns, got {len(fields)}"
            )
        first = id_lines.setdefault(fields[0], line_no)
        if first != line_no:
            raise CorpusError(f"line {line_no}: duplicate tweet id {fields[0]!r}, first on line {first}")
        raw = fields[1]
        clean_text, user_count = clean(raw)
        labels = {"a": None, "b": None, "c": None}
        for col, task in zip(fields[2:], "abc"):
            labels[task] = _parse_label(col, task, line_no)
        record = TweetRecord(
            id=fields[0],
            raw_text=raw,
            clean_text=clean_text,
            user_count=user_count,
            label_a=labels["a"],
            label_b=labels["b"],
            label_c=labels["c"],
        )
        _check_hierarchy(record, line_no)
        records.append(record)
    return records


def filter_task(records: Iterable[TweetRecord], task: str) -> list[TweetRecord]:
    """Keep only records labeled for `task`."""
    return [r for r in records if r.label_for(task) is not None]


class Vocabulary:
    """Token <-> index bijection with PAD=0 and UNK=1 reserved."""

    def __init__(self, tokens: Iterable[str] = ()):
        # distinct tokens in first-occurrence order, after the reserved two
        self.index_to_token: list[str] = list(dict.fromkeys([PAD_TOKEN, UNK_TOKEN, *tokens]))
        self.token_to_index: dict[str, int] = {tok: i for i, tok in enumerate(self.index_to_token)}

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def content_hash(self) -> str:
        """SHA-256 over the ordered token list; identifies the vocabulary."""
        joined = "\n".join(self.index_to_token).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.index_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open_text(path) as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise CorpusError(f"{path}: not a vocabulary file (missing PAD/UNK rows)")
        return cls(tokens[2:])


def build_vocab(token_lists: Iterable[list[str]]) -> Vocabulary:
    """Vocabulary over distinct tokens in first-occurrence order (min freq 1)."""
    return Vocabulary(tok for tokens in token_lists for tok in tokens)


def encode(tokens: list[str], vocab: Vocabulary, length: int) -> list[int]:
    """Fixed-length index sequence: front-padded, truncated keeping the tail.

    Unknown tokens map to UNK; padding uses PAD so the recurrent pass ends on
    real tokens.
    """
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    indices = [vocab.index(t) for t in tokens[-length:]]
    return [PAD_INDEX] * (length - len(indices)) + indices


@dataclass
class Examples:
    """An encoded example set, one row per tweet: token indices (N, L),
    @USER counts (N,) and class positions (N,). `examples[rows]` selects rows
    by an index array or a slice."""

    indices: np.ndarray
    user_count: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, rows) -> "Examples":
        return Examples(self.indices[rows], self.user_count[rows], self.label[rows])


def encode_records(
    records: Sequence[TweetRecord], vocab: Vocabulary, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The records' token indices (N, length) and @USER counts (N,)."""
    indices = [encode(tokenize(r.clean_text), vocab, length) for r in records]
    user_count = np.array([r.user_count for r in records], dtype=np.float64)
    return np.array(indices, dtype=np.intp).reshape(len(records), length), user_count


def label_indices(records: Iterable[TweetRecord], task: str) -> np.ndarray:
    """Each record's position of its `task` label in TASK_LABELS[task]."""
    names = TASK_LABELS[task]
    out = []
    for r in records:
        label = r.label_for(task)
        if label is None:
            raise CorpusError(f"record {r.id} has no subtask_{task} label")
        out.append(names.index(label))
    return np.array(out, dtype=np.intp)


def user_count_stats(
    records: Iterable[TweetRecord], task: str
) -> dict[str, tuple[float, float]]:
    """Per-class (mean, population std) of user_count for `task`."""
    by_class: dict[str, list[int]] = {name: [] for name in TASK_LABELS[task]}
    for r in records:
        label = r.label_for(task)
        if label is not None:
            by_class[label].append(r.user_count)
    stats = {}
    for name, counts in by_class.items():
        if not counts:
            raise CorpusError(f"no examples for class {name} in task {task}")
        n = len(counts)
        mean = sum(counts) / n
        var = sum((c - mean) ** 2 for c in counts) / n
        stats[name] = (mean, var**0.5)
    return stats


def write_clean_tsv(records: Iterable[TweetRecord], path) -> None:
    """Cleaned corpus as TSV: id, clean_text, user_count, label_a, label_b, label_c."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tclean_text\tuser_count\tlabel_a\tlabel_b\tlabel_c\n")
        for r in records:
            fh.write(
                "\t".join(
                    [
                        r.id,
                        r.clean_text,
                        str(r.user_count),
                        r.label_a or "NULL",
                        r.label_b or "NULL",
                        r.label_c or "NULL",
                    ]
                )
                + "\n"
            )
