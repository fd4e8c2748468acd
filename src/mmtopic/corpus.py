"""Multimodal corpus handling: preprocessing, vocabularies, the JSON-lines
dataset format, and planted-topic synthetic corpora.

Each document pairs a token list with two precomputed embedding vectors,
one for the text and one for the image. The toolkit never runs an encoder;
embeddings arrive as numbers and stay opaque. A :class:`Corpus` stores
columns: ids and image refs as tuples, tokens once, as :class:`TokenIds`,
and each embedding as a frozen (N, D) float64 matrix that models read
directly. Token strings, per-document records and bag-of-words counts are
derived from these when asked for.

Dataset format (UTF-8, one JSON object per line)::

    {"id": "d1", "text": "a brown dog ...",
     "text_embedding": [...], "image_embedding": [...],
     "image_ref": "optional-label"}

``tokens`` (a list of strings) may replace ``text`` when preprocessing has
already been done elsewhere; a line must carry exactly one of the two. A
sidecar vocabulary file (``<stem>.vocab.txt`` next to the dataset, or
``vocab.txt`` in the same directory, one term per line) pins the vocabulary;
otherwise it is built from the data. A corpus holds only its columns, so the
same dataset bytes load as equal corpora wherever the file lies, and
:attr:`Corpus.fingerprint` names the content, not the bytes it came from.

A columns file (``<stem>.columns.npz`` next to the dataset) holds a parsed
dataset's columns in binary, under a record of the SHA-256 of the dataset
bytes. :func:`load_corpus` reads it only when that record matches, and
rewrites it after parsing the JSON lines or re-encoding a stale token table.

Every output file the package writes goes through a temp file plus rename,
so a failed write keeps the previous file whole, and gets the mode a plain
``open`` gives it: 0666 less the umask.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import string
import sys
import zipfile
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_VOCAB_CAP = 2000

# The columns file's layout version, and what reading an unusable one raises.
_COLUMNS_VERSION = 1
_UNUSABLE = (OSError, EOFError, KeyError, IndexError, TypeError, ValueError,
             zipfile.BadZipFile)

# Per-document topic-mixture concentration used by the synthetic generator.
# Small enough that most documents are dominated by one planted topic, which
# keeps each topic's empirical top words inside its own word block.
_MIXTURE_CONCENTRATION = 0.03

# The JSON values each dataclass field annotation accepts, and their names.
_JSON_TYPES = {"str": (str, "string"), "int": (int, "integer"),
               "float": ((int, float), "number"), "ModelEntry": (dict, "object"),
               "dict": (dict, "object")}

# The bounds a field's metadata may state, each with its comparison.
_BOUNDS = {"min": (">=", operator.ge), "above": (">", operator.gt), "below": ("<", operator.lt)}


def _json_type_error(value, annotation: str) -> str | None:
    """None if a JSON value fits a field annotation, else the JSON type the
    annotation asks for. A ``tuple[X, ...]`` field takes an array of X, and
    no field takes a boolean."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        wanted = _json_type_error(value, annotation.removesuffix(" | None"))
        return wanted and f"{wanted} or null"
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").split(",")[0]
        if isinstance(value, list) and not any(_json_type_error(v, item) for v in value):
            return None
        return f"a JSON array of {_JSON_TYPES[item][1]}s"
    types, name = _JSON_TYPES[annotation]
    if isinstance(value, types) and not isinstance(value, bool):
        return None
    return f"a JSON {name}"


def _check_json_keys(d, cls, what: str) -> None:
    """Raise ``ValueError`` unless ``d`` is a JSON object of ``cls`` field names."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")


def _check_json_fields(obj, what: str) -> None:
    """Raise ``TypeError`` naming the first field of ``obj`` its annotation
    refuses, else apply :func:`_check_bounds`."""
    for f in fields(obj):
        wanted = _json_type_error(getattr(obj, f.name), str(f.type))
        if wanted:
            raise TypeError(f"{what} field {f.name!r} must be {wanted}, "
                            f"got {getattr(obj, f.name)!r}")
    _check_bounds(obj)


def _check_bounds(obj) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` that is a float
    field holding NaN, infinity or an integer beyond float range, or holds a
    value other than None outside a bound its metadata states (``min``: >=,
    ``above``: >, ``below``: <). Integers are compared, never converted."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type.startswith("float") and not (value is None or abs(value) <= sys.float_info.max):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        for key, bound in f.metadata.items():
            symbol, holds = _BOUNDS[key]
            if value is not None and not holds(value, bound):
                raise ValueError(f"{f.name} must be {symbol} {bound}")


class DatasetFormatError(ValueError):
    """A dataset file violates the JSON-lines document format."""


def _check_tokens(tokens, what: str, error=ValueError) -> None:
    """Raise ``error`` naming a token that is empty or holds whitespace, as no
    sidecar vocabulary term can; only such tokens change when joined and split."""
    if " ".join(tokens).split() != list(tokens):
        bad = next(t for t in tokens if t.split() != [t])
        raise error(f"{what} {bad!r} is empty or holds whitespace")


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line. Defaults to the bundled
    English list."""
    if path is None:
        text = resources.files("mmtopic.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def preprocess_tokens(raw_text: str, stopwords: frozenset[str] | set[str]) -> list[str]:
    """Lowercase and whitespace-split ``raw_text``, stripping punctuation at
    token boundaries, dropping tokens that contain any digit, and dropping
    stopwords. Returns the surviving tokens in order."""
    kept = []
    for token in raw_text.lower().split():
        token = token.strip(string.punctuation)
        if not token:
            continue
        if any(ch.isdigit() for ch in token):
            continue
        if token in stopwords:
            continue
        kept.append(token)
    return kept


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of distinct terms with a term -> index map."""

    terms: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_terms(cls, terms) -> "Vocabulary":
        terms = tuple(terms)
        index = {t: i for i, t in enumerate(terms)}
        if len(index) != len(terms):
            raise ValueError("vocabulary terms must be distinct")
        if not terms:
            raise ValueError("vocabulary must contain at least one term")
        _check_tokens(terms, "vocabulary term")
        return cls(terms=terms, index=index)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(token_ids: TokenIds, cap: int = DEFAULT_VOCAB_CAP) -> Vocabulary:
    """Build a vocabulary of the ``cap`` most frequent tokens in ``token_ids``.

    Terms are ordered by descending corpus frequency; frequency ties break
    lexicographically ascending, so the result is deterministic.
    """
    if cap < 1:
        raise ValueError(f"vocabulary cap must be >= 1, got {cap}")
    counts = np.bincount(token_ids.ids, minlength=len(token_ids.index)).tolist()
    ranked = sorted((-c, t) for t, c in zip(token_ids.index, counts) if c)
    if not ranked:
        raise ValueError("no distinct tokens: cannot build a vocabulary")
    return Vocabulary.from_terms(t for _, t in ranked[:cap])


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Token lists as integers: one flat int32 id array plus int64 document
    offsets, so document ``d`` is ``ids[offsets[d]:offsets[d + 1]]``.
    ``index`` maps every distinct token string to its id, its place in the
    table ``list(index)``; :meth:`from_token_lists` gives the ``leading``
    strings ids 0, 1, ... and the other tokens the next ids in order of
    first appearance. Construction checks that the offsets rise from 0 to
    the token count, that each id names an entry and that each entry's id is
    its place (no token is listed twice), and then freezes both arrays."""

    ids: np.ndarray
    offsets: np.ndarray
    index: dict[str, int] = field(repr=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False)  # metrics' memo

    def __post_init__(self):
        ids, offsets = self.ids, self.offsets
        if not (isinstance(ids, np.ndarray) and ids.dtype == np.int32 and ids.ndim == 1
                and isinstance(offsets, np.ndarray) and offsets.dtype == np.int64
                and offsets.ndim == 1 and offsets.size and offsets[0] == 0
                and offsets[-1] == ids.size and (np.diff(offsets) >= 0).all()):
            raise ValueError("token ids must be a 1-D int32 array, and offsets a 1-D "
                             "int64 array rising from 0 to the token count")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.index)):
            raise ValueError("a token id lies outside the token table")
        if any(i != place for place, i in enumerate(self.index.values())):
            raise ValueError("a token's id is not its place in the table")
        ids.flags.writeable = offsets.flags.writeable = False

    @classmethod
    def from_token_lists(cls, token_lists, leading=()) -> "TokenIds":
        token_lists, index = list(token_lists), {t: i for i, t in enumerate(leading)}
        ids = [index.setdefault(t, len(index)) for tokens in token_lists for t in tokens]
        return cls(np.array(ids, dtype=np.int32),
                   np.cumsum([0, *map(len, token_lists)], dtype=np.int64), index)

    def decode(self) -> tuple[tuple[str, ...], ...]:
        """One tuple of table strings per document."""
        words, bounds = np.array(list(self.index), dtype=object)[self.ids], self.offsets.tolist()
        return tuple(tuple(words[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class MultimodalDocument:
    id: str
    tokens: tuple[str, ...]
    text_embedding: np.ndarray
    image_embedding: np.ndarray
    image_ref: str | None = None


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable columns of N >= 1 documents over one vocabulary: ``ids`` and
    ``image_refs`` tuples, ``token_ids``, and the (N, Dt) ``text_embeddings``
    and (N, Di) ``image_embeddings`` float64 matrices (Dt, Di >= 1), frozen
    once validated. Construction also requires distinct string ids, string or
    None image refs, finite embedding values, tokens neither empty nor holding
    whitespace, and some in-vocabulary token.
    Two corpora are ``==`` when their :attr:`fingerprint` digests are equal.

    :attr:`tokens`, :attr:`documents` and :attr:`fingerprint` are built on
    first use and kept in the instance ``__dict__``, out of ``repr``; threads
    racing on a first use each build a whole value before the one assignment.
    """

    vocabulary: Vocabulary
    ids: tuple[str, ...]
    token_ids: TokenIds
    image_refs: tuple[str | None, ...]
    text_embeddings: np.ndarray
    image_embeddings: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if n < 1:
            raise ValueError("corpus must contain at least one document")
        matrices = (self.text_embeddings, self.image_embeddings)
        for name, matrix in zip(("text", "image"), matrices):
            if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                    and matrix.ndim == 2 and matrix.shape[1] >= 1):
                raise ValueError(f"{name}_embeddings must be a 2-D float64 array "
                                 "with at least one column")
            if not np.isfinite(matrix).all():
                raise ValueError(f"{name}_embeddings has non-finite values")
        tokens, terms = self.token_ids, self.vocabulary.terms
        if any(len(column) != n for column in (tokens.offsets[1:], self.image_refs, *matrices)):
            raise ValueError(f"every column must have one row per id ({n} ids)")
        if not all(isinstance(i, str) for i in self.ids) or len(set(self.ids)) != n:
            raise ValueError("ids must be distinct strings")
        if not all(r is None or isinstance(r, str) for r in self.image_refs):
            raise ValueError("each image ref must be a string or None")
        _check_tokens(tokens.index, "token")
        # Encode anew unless the terms lead the table, so a term's id is its
        # column, and the other ids (np.unique sorts them) first appear in order.
        _, first = np.unique(tokens.ids[tokens.ids >= len(terms)], return_index=True)
        if (list(tokens.index)[:len(terms)] != list(terms)
                or first.size != len(tokens.index) - len(terms) or (np.diff(first) < 0).any()):
            tokens = TokenIds.from_token_lists(tokens.decode(), leading=terms)
            object.__setattr__(self, "token_ids", tokens)
        if not (tokens.ids < len(terms)).any():
            raise ValueError("no document has any in-vocabulary token")
        for matrix in matrices:
            matrix.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    @property
    def num_documents(self) -> int:
        return len(self.ids)

    @property
    def text_dim(self) -> int:
        return self.text_embeddings.shape[1]

    @property
    def image_dim(self) -> int:
        return self.image_embeddings.shape[1]

    def _bow_codes(self, rows, block: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The in-vocabulary tokens of the documents at ``rows`` (a slice or positions) as
        codes place * V + id (a term's id is its column), place being a document's position
        in ``rows`` modulo ``block``; and the bounds of each document's codes."""
        tokens, v = self.token_ids, len(self.vocabulary)
        starts = tokens.offsets[:-1][rows]
        lengths = tokens.offsets[1:][rows] - starts
        ends = np.concatenate(([0], np.cumsum(lengths)))
        place = np.arange(lengths.size) if block is None else np.arange(lengths.size) % block
        # A token's place in ``ids``: its document's start plus its rank there.
        column = tokens.ids[np.arange(ends[-1]) + np.repeat(starts - ends[:-1], lengths)]
        oov = np.flatnonzero(column >= v)
        codes = np.repeat(place * v, lengths) + column
        return np.delete(codes, oov) if oov.size else codes, ends - np.searchsorted(oov, ends)

    def _bow_counts(self, codes: np.ndarray, rows: int) -> np.ndarray:
        """The (rows, V) float64 counts of codes place * V + id, by one ``bincount``."""
        v = len(self.vocabulary)
        counts = np.bincount(codes, weights=np.ones(codes.size), minlength=rows * v)
        # With no codes to count, bincount returns int64 whatever the weights.
        return counts.astype(np.float64, copy=False).reshape(rows, v)

    def bow_matrix(self, rows=slice(None)) -> np.ndarray:
        """In-vocabulary token counts of the documents at ``rows`` (a slice or
        an array of positions), shape (rows, V), float64, counted on each call."""
        codes, bounds = self._bow_codes(rows)
        return self._bow_counts(codes, bounds.size - 1)

    @cached_property
    def tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each document's tokens, decoded from :attr:`token_ids`."""
        return self.token_ids.decode()

    def token_lists(self) -> list[tuple[str, ...]]:
        return list(self.tokens)

    @cached_property
    def documents(self) -> tuple[MultimodalDocument, ...]:
        """One :class:`MultimodalDocument` per row, with read-only row views as embeddings."""
        return tuple(MultimodalDocument(*row) for row in zip(
            self.ids, self.tokens, self.text_embeddings, self.image_embeddings,
            self.image_refs))

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the content: the vocabulary terms, ids, image
        refs, :attr:`token_ids` (token table, ids and offsets), and both
        embedding matrices' shapes and little-endian bytes."""
        tokens, matrices = self.token_ids, (self.text_embeddings, self.image_embeddings)
        digest = hashlib.sha256(json.dumps(
            [self.vocabulary.terms, self.ids, self.image_refs, list(tokens.index),
             *(m.shape for m in matrices)]).encode())
        for array in (tokens.ids, tokens.offsets, *matrices):
            digest.update(np.ascontiguousarray(array, array.dtype.newbyteorder("<")))
        return digest.hexdigest()


def _parse_embedding(obj, name: str, lineno: int) -> np.ndarray:
    if name not in obj:
        raise DatasetFormatError(f"line {lineno}: missing required field {name!r}")
    try:
        arr = np.asarray(obj[name])  # ValueError for ragged nesting
        # Strings and booleans are not JSON numbers, alone or mixed in.
        if arr.dtype.kind not in "iuf" or (arr.ndim == 1 and bool in map(type, obj[name])):
            raise ValueError
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: field {name!r} is not a numeric array")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1 or arr.size == 0:
        raise DatasetFormatError(f"line {lineno}: field {name!r} must be a non-empty flat array")
    if not np.all(np.isfinite(arr)):
        raise DatasetFormatError(f"line {lineno}: field {name!r} contains non-finite values")
    return arr


def _find_sidecar_vocab(path: Path) -> Path | None:
    stem_sidecar = path.with_name(path.stem + ".vocab.txt")
    if stem_sidecar.exists():
        return stem_sidecar
    generic = path.with_name("vocab.txt")
    if generic.exists():
        return generic
    return None


def read_vocab_file(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text("utf-8").splitlines()
    return Vocabulary.from_terms(t.strip() for t in lines if t.strip())


def _sha256_file(path: str | Path):
    """A SHA-256 hash object over a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest


def _stopwords_digest(stopwords) -> str:
    return hashlib.sha256(json.dumps(sorted(stopwords)).encode()).hexdigest()


def _columns_path(path: Path) -> Path:
    return path.with_name(path.stem + ".columns.npz")


def _parse_dataset(path: Path, stopwords) -> tuple[tuple, dict]:
    """The :class:`Corpus` columns of a JSON-lines dataset, and the record
    that binds them: the SHA-256 of the very bytes parsed and, if a line
    carried ``text``, the digest of ``stopwords``."""
    rows = []
    seen: dict[str, int] = {}  # the line of each id
    # Rows go into growable buffers, so no per-line array outlives its line.
    embeddings = {"text_embedding": array("d"), "image_embedding": array("d")}
    digest, any_text = hashlib.sha256(), False
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            digest.update(line)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc.msg})")
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: not UTF-8 ({exc.reason})")
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"line {lineno}: expected a JSON object")
            if "id" not in obj:
                raise DatasetFormatError(f"line {lineno}: missing required field 'id'")
            for name, annotation in (("id", "str"), ("text", "str"), ("image_ref", "str | None")):
                if name in obj and (wanted := _json_type_error(obj[name], annotation)):
                    raise DatasetFormatError(f"line {lineno}: field {name!r} must be {wanted}")
            doc_id = obj["id"]
            if doc_id in seen:
                raise DatasetFormatError(
                    f"line {lineno}: id {doc_id!r} was already used on line {seen[doc_id]}")
            seen[doc_id] = lineno
            has_text = "text" in obj
            has_tokens = "tokens" in obj
            if has_text == has_tokens:
                raise DatasetFormatError(
                    f"line {lineno}: exactly one of 'text' or 'tokens' is required")
            if has_text:
                tokens = preprocess_tokens(obj["text"], stopwords)
                any_text = True
            else:
                tokens = obj["tokens"]
                if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                    raise DatasetFormatError(f"line {lineno}: 'tokens' must be a list of strings")
                _check_tokens(tokens, f"line {lineno}: token", DatasetFormatError)
            for name, buffer in embeddings.items():
                row = _parse_embedding(obj, name, lineno)
                if rows and row.size * len(rows) != len(buffer):
                    raise DatasetFormatError(
                        f"line {lineno}: {name} has dimension {row.size}, "
                        f"expected {len(buffer) // len(rows)}")
                buffer.frombytes(row.tobytes())
            rows.append((doc_id, tokens, obj.get("image_ref")))

    if not rows:
        raise DatasetFormatError(f"{path}: dataset contains no documents")
    record = {"sha256": digest.hexdigest()}
    if any_text:
        record["stopwords"] = _stopwords_digest(stopwords)
    ids, token_lists, image_refs = zip(*rows)
    text, image = (np.frombuffer(b).reshape(len(rows), -1) for b in embeddings.values())
    return (ids, TokenIds.from_token_lists(token_lists), image_refs, text, image), record


def _read_columns(path: Path, stopwords) -> tuple[tuple, dict]:
    """The :class:`Corpus` columns in ``path``'s columns file, and the record
    checked against them. Raises one of ``_UNUSABLE``, naming what differs,
    unless the record matches ``path``'s bytes (and ``stopwords``, if a line
    carried ``text``) and holds arrays of strings (or nulls, among the image
    refs), and its token arrays make :class:`TokenIds` over its token table."""
    with np.load(_columns_path(path), allow_pickle=False) as stored:
        raw = stored["record"]
        if raw.dtype != np.uint8 or raw.ndim != 1:
            raise ValueError("the record is not a uint8 vector")
        record = json.loads(raw.tobytes())
        if not isinstance(record, dict) or record.get("version") != _COLUMNS_VERSION:
            raise ValueError("the record is of another format version")
        if "stopwords" in record and record["stopwords"] != _stopwords_digest(stopwords):
            raise ValueError("the stopword set differs")
        if record.get("sha256") != _sha256_file(path).hexdigest():
            raise ValueError("the dataset bytes differ")
        for name, annotation in (("ids", "tuple[str, ...]"), ("table", "tuple[str, ...]"),
                                 ("image_refs", "tuple[str | None, ...]")):
            wanted = _json_type_error(record.get(name), annotation)
            if wanted:
                raise ValueError(f"the record's {name} is not {wanted}")
        index = {t: i for i, t in enumerate(record["table"])}
        return (tuple(record["ids"]), TokenIds(stored["token_ids"], stored["offsets"], index),
                tuple(record["image_refs"]), stored["text_embeddings"],
                stored["image_embeddings"]), record


def _write_columns(fh, corpus: Corpus, record: dict) -> None:
    """Write ``corpus``'s columns to ``fh`` as an uncompressed npz: ``record``
    plus the ids, image refs and the token table of :attr:`Corpus.token_ids`
    as UTF-8 JSON bytes, the tokens as its ids into that table, and the
    embeddings."""
    tokens = corpus.token_ids
    record = {**record, "version": _COLUMNS_VERSION, "ids": corpus.ids,
              "image_refs": corpus.image_refs, "table": list(tokens.index)}
    np.savez(fh, record=np.frombuffer(json.dumps(record).encode(), dtype=np.uint8),
             token_ids=tokens.ids, offsets=tokens.offsets,
             text_embeddings=corpus.text_embeddings, image_embeddings=corpus.image_embeddings)


def load_corpus(path: str | Path, *, cap: int = DEFAULT_VOCAB_CAP,
                stopwords: frozenset[str] | None = None) -> Corpus:
    """Load a JSON-lines dataset into a :class:`Corpus`.

    Lines carrying ``text`` are preprocessed with :func:`preprocess_tokens`;
    lines carrying ``tokens`` are taken verbatim. The vocabulary comes from a
    sidecar vocab file next to the dataset, or else from a frequency build
    capped at ``cap``.

    The columns come from the dataset's columns file when its record
    matches the dataset bytes (and ``stopwords``, if a line carried
    ``text``), else from the JSON lines. A parse or a re-encoded token table
    rewrites the columns file; a failed write is logged and ignored.

    Raises :class:`DatasetFormatError` naming the offending line for any
    malformed document, or a reused ``id``.
    """
    path = Path(path)
    if stopwords is None:
        stopwords = load_stopwords()
    sidecar = _find_sidecar_vocab(path)
    pinned = read_vocab_file(sidecar) if sidecar is not None else None

    def corpus(ids, token_ids, image_refs, text, image) -> Corpus:
        vocabulary = pinned if pinned is not None else build_vocabulary(token_ids, cap=cap)
        return Corpus(vocabulary, ids, token_ids, image_refs, text, image)

    try:
        columns, record = _read_columns(path, stopwords)
        if (loaded := corpus(*columns)).token_ids is columns[1]:  # not encoded anew
            return loaded
    except _UNUSABLE as exc:
        logger.debug("%s: columns file not used (%s); parsing the JSON lines", path, exc)
        columns = None
    if columns is None:
        columns, record = _parse_dataset(path, stopwords)
        loaded = corpus(*columns)
    try:
        with _atomic_file(_columns_path(path)) as fh:
            _write_columns(fh, loaded, record)
    except OSError as exc:
        logger.info("%s: columns file not written: %s", path, exc)
    return loaded


@contextmanager
def _atomic_file(path: Path):
    """A binary file open on a temp file in ``path``'s directory, renamed to
    ``path`` on a clean exit and deleted on any error, so readers never
    observe a partial file and concurrent writers cannot interleave. The
    temp file is created afresh under a random name with mode 0666, which
    the umask narrows as it does for a plain ``open``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file plus rename."""
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write ``corpus`` as a JSON-lines dataset plus a ``<stem>.vocab.txt``
    sidecar pinning the vocabulary and the dataset's columns file. The three
    are written to temp files first and renamed into place only once all
    are whole, so a failed save keeps the previous files. Loading the result
    reproduces the corpus bit for bit (floats round-trip exactly through
    JSON)."""
    path = Path(path)
    vocab = path.with_name(path.stem + ".vocab.txt")
    with (_atomic_file(path) as data, _atomic_file(vocab) as terms,
          _atomic_file(_columns_path(path)) as columns):
        digest = hashlib.sha256()
        for doc_id, tokens, text, image, ref in zip(
                corpus.ids, corpus.token_ids.decode(), corpus.text_embeddings,
                corpus.image_embeddings, corpus.image_refs):
            obj = {"id": doc_id, "tokens": tokens, "text_embedding": text.tolist(),
                   "image_embedding": image.tolist()}
            if ref is not None:
                obj["image_ref"] = ref
            line = (json.dumps(obj) + "\n").encode("utf-8")
            digest.update(line)
            data.write(line)
        terms.write(("\n".join(corpus.vocabulary.terms) + "\n").encode("utf-8"))
        _write_columns(columns, corpus, {"sha256": digest.hexdigest()})
    return path


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-topic synthetic corpus generator. Each
    field must hold its annotated JSON type (never a boolean), be finite and
    lie within its metadata's bounds."""

    num_topics_true: int = field(metadata={"min": 1})
    vocab_size: int
    docs: int = field(metadata={"min": 1})
    doc_length: float = field(metadata={"above": 0})
    embed_dim_text: int = field(metadata={"min": 1})
    embed_dim_image: int = field(metadata={"min": 1})
    topic_word_concentration: float = field(default=0.5, metadata={"above": 0})
    embedding_noise: float = field(default=0.0, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        _check_json_fields(self, "spec")
        if self.vocab_size < self.num_topics_true:
            raise ValueError("vocab_size must be >= num_topics_true "
                             "(each topic owns a disjoint word block)")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PlantedTopic:
    """Ground truth for one synthetic topic.

    ``terms`` ranks the topic's word block by descending planted probability.
    ``doc_weights`` holds the topic's mixture weight in every document, so
    stacking them column-wise recovers the full document-topic matrix.
    """

    index: int
    terms: tuple[str, ...]
    word_probs: np.ndarray
    text_centroid: np.ndarray
    image_centroid: np.ndarray
    doc_weights: np.ndarray


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / norms


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, list[PlantedTopic]]:
    """Generate a corpus with planted topics and its ground truth.

    Each topic owns a disjoint block of the vocabulary and a word
    distribution drawn over that block only. Every document draws a topic
    mixture from a sparse symmetric Dirichlet, samples tokens from the mixed
    word distribution, and gets embeddings equal to the unit-normalized
    mixture of per-topic centroid vectors plus Gaussian noise. With
    ``embedding_noise == 0`` the embeddings sit exactly on the normalized
    centroid mixtures. Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    k, v = spec.num_topics_true, spec.vocab_size

    width = max(4, len(str(v - 1)))
    terms = [f"w{i:0{width}d}" for i in range(v)]
    vocabulary = Vocabulary.from_terms(terms)

    # Disjoint word blocks covering the vocabulary; remainders go to the
    # leading topics one extra term each.
    blocks = np.array_split(np.arange(v), k)

    word_probs = np.zeros((k, v))
    for t in range(k):
        word_probs[t, blocks[t]] = rng.dirichlet(
            np.full(blocks[t].size, spec.topic_word_concentration))

    text_centroids = _unit_rows(rng.standard_normal((k, spec.embed_dim_text)))
    image_centroids = _unit_rows(rng.standard_normal((k, spec.embed_dim_image)))

    mixtures = rng.dirichlet(np.full(k, _MIXTURE_CONCENTRATION), size=spec.docs)

    id_width = max(5, len(str(spec.docs - 1)))
    chunks = []  # each document's token ids
    text_embeddings = np.empty((spec.docs, spec.embed_dim_text))
    image_embeddings = np.empty((spec.docs, spec.embed_dim_image))
    for d in range(spec.docs):
        mix = mixtures[d]
        length = max(1, int(rng.poisson(spec.doc_length)))
        p = mix @ word_probs
        p = p / p.sum()
        chunks.append(rng.choice(v, size=length, p=p))

        text_embeddings[d] = mix @ text_centroids
        text_embeddings[d] /= np.linalg.norm(text_embeddings[d])
        image_embeddings[d] = mix @ image_centroids
        image_embeddings[d] /= np.linalg.norm(image_embeddings[d])
        if spec.embedding_noise > 0:
            text_embeddings[d] += spec.embedding_noise * rng.standard_normal(spec.embed_dim_text)
            image_embeddings[d] += spec.embedding_noise * rng.standard_normal(spec.embed_dim_image)

    planted = []
    for t in range(k):
        order = blocks[t][np.argsort(-word_probs[t, blocks[t]], kind="stable")]
        planted.append(PlantedTopic(
            index=t,
            terms=tuple(terms[i] for i in order),
            word_probs=word_probs[t],
            text_centroid=text_centroids[t],
            image_centroid=image_centroids[t],
            doc_weights=mixtures[:, t].copy(),
        ))

    token_ids = TokenIds(np.concatenate(chunks).astype(np.int32),
                         np.cumsum([0, *map(len, chunks)], dtype=np.int64), vocabulary.index)
    return Corpus(vocabulary=vocabulary, token_ids=token_ids,
                  ids=tuple(f"doc{d:0{id_width}d}" for d in range(spec.docs)),
                  image_refs=tuple(f"img{d:0{id_width}d}" for d in range(spec.docs)),
                  text_embeddings=text_embeddings, image_embeddings=image_embeddings), planted
