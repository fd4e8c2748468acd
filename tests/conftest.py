import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mmtopic
from mmtopic.corpus import (
    Corpus,
    SyntheticSpec,
    TokenIds,
    Vocabulary,
    generate_synthetic,
)


def fresh_python_env(**env: str) -> dict:
    """This process's environment plus ``env``, with this checkout's mmtopic
    first on the path of any interpreter started with it."""
    source_root = str(Path(mmtopic.__file__).parent.parent)
    return {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}


def run_fresh_python(source: str, *args: str, **env: str) -> str:
    """Standard output of ``source`` run in a fresh interpreter that imports
    this checkout's mmtopic, with ``env`` added to the environment. Fails
    the test on a non-zero exit."""
    result = subprocess.run([sys.executable, "-c", source, *args], env=fresh_python_env(**env),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def make_corpus(token_lists, *, text_dim=4, image_dim=3, seed=0,
                vocabulary=None) -> Corpus:
    """Small corpus with random embeddings over the given token lists. Each
    document draws its text then its image embedding, in document order."""
    rng = np.random.default_rng(seed)
    if vocabulary is None:
        terms = sorted({t for tokens in token_lists for t in tokens})
        vocabulary = Vocabulary.from_terms(terms)
    n = len(token_lists)
    embeddings = rng.standard_normal((n, text_dim + image_dim))
    return Corpus(vocabulary=vocabulary, ids=tuple(f"d{i}" for i in range(n)),
                  token_ids=TokenIds.from_token_lists(token_lists, leading=vocabulary.terms),
                  image_refs=tuple(f"img{i}" for i in range(n)),
                  text_embeddings=embeddings[:, :text_dim].copy(),
                  image_embeddings=embeddings[:, text_dim:].copy())


@pytest.fixture(scope="session")
def tiny_planted():
    """A small planted corpus shared by the faster model tests."""
    spec = SyntheticSpec(num_topics_true=3, vocab_size=60, docs=150, doc_length=25,
                         embed_dim_text=8, embed_dim_image=8,
                         topic_word_concentration=0.5, embedding_noise=0.02, seed=11)
    return generate_synthetic(spec)


@pytest.fixture
def tiny_corpus():
    return make_corpus([
        ["apple", "banana", "apple", "cherry"],
        ["banana", "cherry", "durian"],
        ["apple", "durian", "durian", "cherry", "banana"],
        ["cherry", "apple", "banana"],
    ])


@pytest.fixture
def full_disk(monkeypatch):
    """Make every file opened with ``os.fdopen`` accept half of its first
    write and then fail as a full disk does. Other file methods pass through."""
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fdopen",
                        lambda fd, *args, **kw: HalfWriter(real_fdopen(fd, *args, **kw)))
