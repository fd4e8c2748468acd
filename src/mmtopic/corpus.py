"""Multimodal corpus handling: preprocessing, vocabularies, the JSON-lines
dataset format, and planted-topic synthetic corpora.

Each document pairs a token list with two precomputed embedding vectors,
one for the text and one for the image. The toolkit never runs an encoder;
embeddings arrive as numbers and stay opaque. A :class:`Corpus` stores
columns: the ids, token lists and image refs as tuples, and the embeddings
once each, as frozen (N, D) float64 matrices that models read directly.
Per-document records (:attr:`Corpus.documents`) and bag-of-words counts
over the shared capped vocabulary (:meth:`Corpus.bow_matrix`) are derived
when asked for; neither is stored.

Dataset format (UTF-8, one JSON object per line)::

    {"id": "d1", "text": "a brown dog ...",
     "text_embedding": [...], "image_embedding": [...],
     "image_ref": "optional-label"}

``tokens`` (a list of strings) may replace ``text`` when preprocessing has
already been done elsewhere; a line must carry exactly one of the two. A
sidecar vocabulary file (``<stem>.vocab.txt`` next to the dataset, or
``vocab.txt`` in the same directory, one term per line) pins the vocabulary;
otherwise it is built from the data.

Every output file the package writes, except a saved dataset, goes through
:func:`atomic_write_bytes`: a temp file plus rename, so a failed write keeps
the previous file whole.
"""

from __future__ import annotations

import json
import os
import string
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, field, asdict
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

DEFAULT_VOCAB_CAP = 2000

# Per-document topic-mixture concentration used by the synthetic generator.
# Small enough that most documents are dominated by one planted topic, which
# keeps each topic's empirical top words inside its own word block.
_MIXTURE_CONCENTRATION = 0.03


class DatasetFormatError(ValueError):
    """A dataset file violates the JSON-lines document format."""


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
        return cls(terms=terms, index=index)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(token_lists, cap: int = DEFAULT_VOCAB_CAP) -> Vocabulary:
    """Build a vocabulary of the ``cap`` most frequent tokens.

    Terms are ordered by descending corpus frequency; frequency ties break
    lexicographically ascending, so the result is deterministic.
    """
    if cap < 1:
        raise ValueError(f"vocabulary cap must be >= 1, got {cap}")
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    if not counts:
        raise ValueError("no distinct tokens: cannot build a vocabulary")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_terms(t for t, _ in ranked[:cap])


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Token lists as integers: one flat int32 id array plus int64 document
    offsets, so document ``d`` is ``ids[offsets[d]:offsets[d + 1]]``.
    ``index`` maps every distinct token string, in-vocabulary or not, to
    its id; ids follow first appearance."""

    ids: np.ndarray
    offsets: np.ndarray
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_token_lists(cls, token_lists) -> "TokenIds":
        token_lists = list(token_lists)
        offsets = np.zeros(len(token_lists) + 1, dtype=np.int64)
        np.cumsum([len(tokens) for tokens in token_lists], out=offsets[1:])
        index: dict[str, int] = {}
        ids = np.fromiter((index.setdefault(t, len(index))
                           for tokens in token_lists for t in tokens),
                          dtype=np.int32, count=int(offsets[-1]))
        return cls(ids=ids, offsets=offsets, index=index)


@dataclass(frozen=True)
class MultimodalDocument:
    id: str
    tokens: tuple[str, ...]
    text_embedding: np.ndarray
    image_embedding: np.ndarray
    image_ref: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Immutable columns of N >= 1 documents over one vocabulary: ``ids``,
    ``tokens`` and ``image_refs`` tuples, and the (N, Dt) ``text_embeddings``
    and (N, Di) ``image_embeddings`` float64 matrices (Dt, Di >= 1), frozen
    once validated. Construction also requires finite embedding values and at
    least one in-vocabulary token in the corpus.

    :attr:`documents` and :attr:`token_ids` are built on first use and kept
    in the instance ``__dict__``, out of ``==`` and ``repr``. Threads that
    race on a first use each build a whole value before the one assignment.
    """

    vocabulary: Vocabulary
    ids: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]
    image_refs: tuple[str | None, ...]
    text_embeddings: np.ndarray
    image_embeddings: np.ndarray
    meta: dict = field(default_factory=dict)

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
        if any(len(column) != n for column in (self.tokens, self.image_refs, *matrices)):
            raise ValueError(f"every column must have one row per id ({n} ids)")
        index = self.vocabulary.index
        if not any(t in index for tokens in self.tokens for t in tokens):
            raise ValueError("no document has any in-vocabulary token")
        for matrix in matrices:
            matrix.flags.writeable = False

    @property
    def num_documents(self) -> int:
        return len(self.ids)

    @property
    def text_dim(self) -> int:
        return self.text_embeddings.shape[1]

    @property
    def image_dim(self) -> int:
        return self.image_embeddings.shape[1]

    def bow_matrix(self) -> np.ndarray:
        """In-vocabulary token counts, shape (N, V), float64, counted from
        :attr:`token_ids` on each call. Every distinct token id maps to its
        vocabulary column, or to V when out of vocabulary, and one float64
        ``bincount`` counts the in-vocabulary document x column codes."""
        tokens = self.token_ids
        n, v = self.num_documents, len(self.vocabulary)
        column = np.fromiter((self.vocabulary.index.get(t, v) for t in tokens.index),
                             dtype=np.int64, count=len(tokens.index))[tokens.ids]
        doc = np.repeat(np.arange(n, dtype=np.int64), np.diff(tokens.offsets))
        known = column < v
        codes = doc[known] * v + column[known]
        return np.bincount(codes, weights=np.ones(codes.size),
                           minlength=n * v).reshape(n, v)

    def token_lists(self) -> list[tuple[str, ...]]:
        return list(self.tokens)

    @cached_property
    def documents(self) -> tuple[MultimodalDocument, ...]:
        """One :class:`MultimodalDocument` per row, with read-only row views as embeddings."""
        return tuple(MultimodalDocument(*row) for row in zip(
            self.ids, self.tokens, self.text_embeddings, self.image_embeddings,
            self.image_refs))

    @cached_property
    def token_ids(self) -> TokenIds:
        """The documents' tokens as :class:`TokenIds`."""
        return TokenIds.from_token_lists(self.tokens)


def _parse_embedding(obj, name: str, lineno: int) -> np.ndarray:
    if name not in obj:
        raise DatasetFormatError(f"line {lineno}: missing required field {name!r}")
    try:
        arr = np.asarray(obj[name], dtype=np.float64)
    except (TypeError, ValueError):
        raise DatasetFormatError(f"line {lineno}: field {name!r} is not a numeric array")
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


def load_corpus(path: str | Path, *, cap: int = DEFAULT_VOCAB_CAP,
                stopwords: frozenset[str] | None = None,
                vocabulary: Vocabulary | None = None) -> Corpus:
    """Load a JSON-lines dataset into a :class:`Corpus`.

    Lines carrying ``text`` are preprocessed with :func:`preprocess_tokens`;
    lines carrying ``tokens`` are taken verbatim. The vocabulary comes from,
    in order of precedence: the ``vocabulary`` argument, a sidecar vocab file
    next to the dataset, or a frequency build capped at ``cap``.

    Raises :class:`DatasetFormatError` naming the offending line for any
    malformed document.
    """
    path = Path(path)
    if stopwords is None:
        stopwords = load_stopwords()

    rows = []
    # Rows go into growable buffers, so no per-line array outlives its line.
    embeddings = {"text_embedding": array("d"), "image_embedding": array("d")}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc.msg})")
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"line {lineno}: expected a JSON object")
            if "id" not in obj:
                raise DatasetFormatError(f"line {lineno}: missing required field 'id'")
            has_text = "text" in obj
            has_tokens = "tokens" in obj
            if has_text == has_tokens:
                raise DatasetFormatError(
                    f"line {lineno}: exactly one of 'text' or 'tokens' is required")
            if has_text:
                tokens = preprocess_tokens(str(obj["text"]), stopwords)
            else:
                raw = obj["tokens"]
                if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
                    raise DatasetFormatError(f"line {lineno}: 'tokens' must be a list of strings")
                tokens = raw
            for name, buffer in embeddings.items():
                row = _parse_embedding(obj, name, lineno)
                if rows and row.size * len(rows) != len(buffer):
                    raise DatasetFormatError(
                        f"line {lineno}: {name} has dimension {row.size}, "
                        f"expected {len(buffer) // len(rows)}")
                buffer.frombytes(row.tobytes())
            ref = obj.get("image_ref")
            rows.append((str(obj["id"]), tuple(tokens), None if ref is None else str(ref)))

    if not rows:
        raise DatasetFormatError(f"{path}: dataset contains no documents")
    ids, token_lists, image_refs = zip(*rows)
    text, image = (np.frombuffer(b).reshape(len(rows), -1) for b in embeddings.values())

    vocab_source = "argument"
    if vocabulary is None:
        sidecar = _find_sidecar_vocab(path)
        if sidecar is not None:
            vocabulary = read_vocab_file(sidecar)
            vocab_source = str(sidecar)
        else:
            vocabulary = build_vocabulary(token_lists, cap=cap)
            vocab_source = f"built (cap={cap})"

    meta = {"name": path.stem, "path": str(path), "vocab_source": vocab_source}
    return Corpus(vocabulary=vocabulary, ids=ids, tokens=token_lists, image_refs=image_refs,
                  text_embeddings=text, image_embeddings=image, meta=meta)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file and concurrent writers cannot interleave."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write ``corpus`` as a JSON-lines dataset plus a ``<stem>.vocab.txt``
    sidecar pinning the vocabulary. Loading the result reproduces the corpus
    bit for bit (floats round-trip exactly through JSON)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for d in corpus.documents:
            obj = {
                "id": d.id,
                "tokens": list(d.tokens),
                "text_embedding": d.text_embedding.tolist(),
                "image_embedding": d.image_embedding.tolist(),
            }
            if d.image_ref is not None:
                obj["image_ref"] = d.image_ref
            fh.write(json.dumps(obj) + "\n")
    sidecar = path.with_name(path.stem + ".vocab.txt")
    sidecar.write_text("\n".join(corpus.vocabulary.terms) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-topic synthetic corpus generator."""

    num_topics_true: int
    vocab_size: int
    docs: int
    doc_length: float
    embed_dim_text: int
    embed_dim_image: int
    topic_word_concentration: float = 0.5
    embedding_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_topics_true < 1:
            raise ValueError("num_topics_true must be >= 1")
        if self.vocab_size < self.num_topics_true:
            raise ValueError("vocab_size must be >= num_topics_true "
                             "(each topic owns a disjoint word block)")
        if self.docs < 1:
            raise ValueError("docs must be >= 1")
        if self.doc_length <= 0:
            raise ValueError("doc_length must be positive")
        if self.embed_dim_text < 1 or self.embed_dim_image < 1:
            raise ValueError("embedding dimensions must be >= 1")
        if self.topic_word_concentration <= 0:
            raise ValueError("topic_word_concentration must be positive")
        if self.embedding_noise < 0:
            raise ValueError("embedding_noise must be >= 0")

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
    word_ids: tuple[int, ...]
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
    token_lists = []
    text_embeddings = np.empty((spec.docs, spec.embed_dim_text))
    image_embeddings = np.empty((spec.docs, spec.embed_dim_image))
    for d in range(spec.docs):
        mix = mixtures[d]
        length = max(1, int(rng.poisson(spec.doc_length)))
        p = mix @ word_probs
        p = p / p.sum()
        token_ids = rng.choice(v, size=length, p=p)
        token_lists.append(tuple(terms[i] for i in token_ids))

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
            word_ids=tuple(int(i) for i in order),
            word_probs=word_probs[t],
            text_centroid=text_centroids[t],
            image_centroid=image_centroids[t],
            doc_weights=mixtures[:, t].copy(),
        ))

    meta = {"name": f"synthetic-k{k}", "synthetic_spec": spec.to_dict()}
    return Corpus(vocabulary=vocabulary, tokens=tuple(token_lists),
                  ids=tuple(f"doc{d:0{id_width}d}" for d in range(spec.docs)),
                  image_refs=tuple(f"img{d:0{id_width}d}" for d in range(spec.docs)),
                  text_embeddings=text_embeddings, image_embeddings=image_embeddings,
                  meta=meta), planted
