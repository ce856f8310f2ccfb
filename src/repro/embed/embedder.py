"""Deterministic hash-projection embeddings over token n-grams.

Dense retrieval needs every element mapped to a fixed-dimension vector,
but this repo is dependency-free by policy — no pretrained model, no
tokenizer download, and bit-reproducible output across machines and
process restarts.  The classic answer is *signed feature hashing*
(Weinberger et al.'s hashing trick): every lexical feature of an element
(name tokens, their character n-grams, documentation terms) is hashed to
one of ``dim`` buckets with a ±1 sign, the signed counts are accumulated
and the vector L2-normalised.  Cosine between two such vectors is an
unbiased estimate of the cosine between the underlying (huge, sparse)
feature-count vectors, which is exactly the similarity signal the ANN
index and the :class:`~repro.harmony.voters.embedding.EmbeddingVoter`
retrieve on.

Hashing uses FNV-1a (64-bit) rather than Python's builtin ``hash`` —
the builtin is randomised per process for strings, which would make
embeddings differ across runs and break every golden test.

The accumulate/normalise inner loop is the hot path at registry scale
(13k elements × dozens of features each), so it sits behind an
:class:`EmbedBackend` seam: ``"python"`` is the dependency-free reference,
``"numpy"`` batches every element into one ``np.bincount`` +
row-normalise, and ``"auto"`` probes importlib once and falls back
silently.  Because the signed counts are exact small integers in
float64, both backends produce identical sums; only the final
sqrt/divide can differ, so backends agree to ≤1e-12
(``tests/embed/test_embedder_differential.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Selector strings :func:`resolve_embed_backend` accepts.
EMBED_BACKENDS = ("auto", "python", "numpy")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Backstop for the process-wide feature→slot memo (see ``_slot_memo``).
_SLOT_MEMO_LIMIT = 1 << 20

#: (dim, seed) → {feature: (bucket index, sign)} — shared across every
#: embedder with the same config so N-way workloads hash each vocabulary
#: entry once per process, not once per pair context.
_SLOT_MEMOS: Dict[Tuple[int, int], Dict[str, Tuple[int, float]]] = {}


def fnv1a64(text: str, seed: int = 0) -> int:
    """FNV-1a hash of *text*, deterministically folded with *seed*.

    >>> fnv1a64("name") == fnv1a64("name")
    True
    >>> fnv1a64("name", seed=1) != fnv1a64("name", seed=2)
    True
    """
    value = (_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK64
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


@dataclass(frozen=True)
class EmbedConfig:
    """Shape of the hash-projection embedding space."""

    #: vector dimensionality — 64 keeps a pure-python dot product cheap
    #: while hashing-trick collision noise stays ~1/sqrt(dim)
    dim: int = 64
    #: hash seed; changing it yields an independent projection
    seed: int = 2006
    #: character n-gram size for per-token subword features
    token_ngram: int = 3
    #: embed preprocessed documentation terms alongside name evidence
    use_documentation: bool = True

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"EmbedConfig.dim must be >= 1, got {self.dim}")

    def signature(self) -> Tuple:
        """Everything the produced vectors depend on (epoch-key input)."""
        return (self.dim, self.seed, self.token_ngram, self.use_documentation)


class EmbedBackend:
    """One implementation of the dense-vector number crunching.

    ``accumulate`` is the embedder's inner loop; ``pack`` / ``dots`` /
    ``sketch`` are the ANN index's (packing a set of vectors into the
    backend's preferred matrix form, scoring a query against rows, and
    computing sign-random-projection band keys).  All backends agree to
    ≤1e-12 on ``accumulate`` and ``dots``.
    """

    name: str = "base"

    def accumulate(
        self, slots_list: Sequence[Sequence[Tuple[int, float]]], dim: int
    ) -> List[List[float]]:
        """Signed-count accumulation + L2 normalisation, one vector per
        slot list.  All-zero feature sets yield the zero vector."""
        raise NotImplementedError

    def pack(self, vectors: Sequence[Sequence[float]]):
        """Backend-preferred matrix form of a list of row vectors."""
        raise NotImplementedError

    def dots(self, packed, query: Sequence[float],
             rows: Optional[Sequence[int]] = None) -> List[float]:
        """Dot products of *query* against packed rows (all, or *rows*)."""
        raise NotImplementedError

    def sketch(self, packed, planes) -> List[List[int]]:
        """Per-row LSH band keys under *planes* (see ``repro.embed.ann``)."""
        raise NotImplementedError

    def sketch_one(self, vector: Sequence[float], planes) -> List[int]:
        """Band keys of a single query vector."""
        return self.sketch(self.pack([list(vector)]), planes)[0]


class PythonEmbedBackend(EmbedBackend):
    """The dependency-free reference implementation."""

    name = "python"

    def accumulate(self, slots_list, dim):
        out: List[List[float]] = []
        for slots in slots_list:
            accum = [0.0] * dim
            for index, sign in slots:
                accum[index] += sign
            norm = math.sqrt(sum(v * v for v in accum))
            if norm > 0.0:
                accum = [v / norm for v in accum]
            out.append(accum)
        return out

    def pack(self, vectors):
        return [list(vector) for vector in vectors]

    def dots(self, packed, query, rows=None):
        if rows is None:
            return [
                sum(a * b for a, b in zip(row, query)) for row in packed
            ]
        return [
            sum(a * b for a, b in zip(packed[row], query)) for row in rows
        ]

    def sketch(self, packed, planes):
        bands, band_bits = planes.bands, planes.band_bits
        bits = planes.bits
        out: List[List[int]] = []
        for row in packed:
            keys: List[int] = []
            bit_index = 0
            for _ in range(bands):
                key = 0
                for _ in range(band_bits):
                    coords, weights = bits[bit_index]
                    total = 0.0
                    for coord, weight in zip(coords, weights):
                        total += row[coord] * weight
                    key = (key << 1) | (1 if total > 0.0 else 0)
                    bit_index += 1
                keys.append(key)
            out.append(keys)
        return out


def _probe_numpy():
    """numpy's module if importable, else ``None`` — never raises."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class NumpyEmbedBackend(EmbedBackend):
    """Vectorized accumulation and retrieval math (requires NumPy).

    One flattened ``np.bincount`` embeds a whole batch; packed vectors
    are a float64 matrix so ``dots`` is a single matvec and ``sketch``
    one (n × planes) matmul against the densified hyperplanes.
    """

    name = "numpy"

    def __init__(self) -> None:
        numpy = _probe_numpy()
        if numpy is None:
            raise ImportError(
                "embed_backend='numpy' requires NumPy, which is not "
                "importable; install it with `pip install .[fast]` (or "
                "`pip install numpy`), or use embed_backend='auto' to "
                "fall back to the pure-python reference backend"
            )
        self.numpy = numpy

    def accumulate(self, slots_list, dim):
        np = self.numpy
        count = len(slots_list)
        if count == 0:
            return []
        flat_index: List[int] = []
        flat_sign: List[float] = []
        for offset, slots in enumerate(slots_list):
            base = offset * dim
            for index, sign in slots:
                flat_index.append(base + index)
                flat_sign.append(sign)
        if flat_index:
            matrix = np.bincount(
                np.asarray(flat_index, dtype=np.intp),
                weights=np.asarray(flat_sign, dtype=np.float64),
                minlength=count * dim,
            ).reshape(count, dim)
        else:
            matrix = np.zeros((count, dim), dtype=np.float64)
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        norms[norms == 0.0] = 1.0  # zero vectors stay zero
        matrix /= norms[:, None]
        return matrix.tolist()

    def pack(self, vectors):
        np = self.numpy
        if not vectors:
            return np.zeros((0, 0), dtype=np.float64)
        return np.asarray([list(v) for v in vectors], dtype=np.float64)

    def dots(self, packed, query, rows=None):
        np = self.numpy
        q = np.asarray(list(query), dtype=np.float64)
        if rows is None:
            return (packed @ q).tolist()
        take = packed[np.asarray(list(rows), dtype=np.intp)]
        return (take @ q).tolist()

    def sketch(self, packed, planes):
        np = self.numpy
        dense = planes.dense(np)  # (dim, bands*band_bits)
        bits = (packed @ dense) > 0.0
        bands, band_bits = planes.bands, planes.band_bits
        shifts = (1 << np.arange(band_bits - 1, -1, -1, dtype=np.int64))
        keys = (
            bits.reshape(len(packed), bands, band_bits).astype(np.int64)
            * shifts
        ).sum(axis=2)
        return keys.tolist()


#: memoized backend singletons — ``auto`` probes importlib exactly once
#: per process
_RESOLVED: Dict[str, EmbedBackend] = {}


def resolve_embed_backend(selector: str = "auto") -> EmbedBackend:
    """Map a selector string to a backend instance.

    ``"python"`` always works; ``"numpy"`` raises an actionable
    ``ImportError`` when NumPy is absent; ``"auto"`` probes numpy →
    python, silently falling back, and memoizes the answer.
    """
    if selector not in EMBED_BACKENDS:
        raise ValueError(
            f"unknown embed backend {selector!r}; expected one of "
            f"{EMBED_BACKENDS}"
        )
    backend = _RESOLVED.get(selector)
    if backend is not None:
        return backend
    if selector == "python":
        backend = PythonEmbedBackend()
    elif selector == "numpy":
        backend = NumpyEmbedBackend()  # raises with remedy when absent
    else:  # auto
        backend = (
            NumpyEmbedBackend() if _probe_numpy() is not None
            else PythonEmbedBackend()
        )
    _RESOLVED[selector] = backend
    return backend


class HashEmbedder:
    """Signed-feature-hashing embedder (the hashing trick).

    Stateless apart from a shared feature→slot memo: the same feature
    string always lands in the same (bucket, sign) slot for a given
    ``(dim, seed)``, so the memo is safely process-wide.
    """

    def __init__(
        self,
        config: Optional[EmbedConfig] = None,
        backend: "EmbedBackend | str" = "python",
    ) -> None:
        self.config = config or EmbedConfig()
        self.backend = (
            resolve_embed_backend(backend) if isinstance(backend, str)
            else backend
        )
        memo_key = (self.config.dim, self.config.seed)
        self._slots_memo = _SLOT_MEMOS.setdefault(memo_key, {})

    def signature(self) -> Tuple:
        """Epoch-key contribution: config plus the resolved backend."""
        return self.config.signature() + (self.backend.name,)

    def slots(self, features: Iterable[str]) -> List[Tuple[int, float]]:
        """(bucket, ±1) slot per feature occurrence, memoized."""
        memo = self._slots_memo
        if len(memo) > _SLOT_MEMO_LIMIT:
            memo.clear()
        dim, seed = self.config.dim, self.config.seed
        out: List[Tuple[int, float]] = []
        for feature in features:
            slot = memo.get(feature)
            if slot is None:
                value = fnv1a64(feature, seed)
                # bucket from the high bits, sign from the low bit, so
                # the two stay independent for non-power-of-two dims
                slot = ((value >> 16) % dim,
                        1.0 if value & 1 == 0 else -1.0)
                memo[feature] = slot
            out.append(slot)
        return out

    def embed(self, features: Iterable[str]) -> List[float]:
        """The L2-normalised vector of one feature multiset."""
        return self.backend.accumulate([self.slots(features)],
                                       self.config.dim)[0]

    def embed_batch(
        self, features_list: Sequence[Iterable[str]]
    ) -> List[List[float]]:
        """Vectors for many feature multisets in one backend call."""
        slots_list = [self.slots(features) for features in features_list]
        return self.backend.accumulate(slots_list, self.config.dim)


class EmbeddingSnapshot:
    """A picklable doc-id → vector table shared across N-way workers.

    Mirrors ``repro.text.tfidf.CorpusSnapshot``: the parent process
    embeds every schema element once, ships the table to the pool
    initializer, and each worker's :class:`MatchContext` serves vectors
    from it instead of re-hashing — bit-identical by construction, since
    the vectors *are* the same floats.
    """

    __slots__ = ("_vectors", "signature")

    def __init__(self, vectors: Dict[str, Tuple[float, ...]],
                 signature: Tuple) -> None:
        self._vectors = vectors
        #: the producing embedder's :meth:`HashEmbedder.signature`
        self.signature = signature

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def doc_ids(self) -> List[str]:
        return sorted(self._vectors)

    def vector(self, doc_id: str) -> List[float]:
        return list(self._vectors[doc_id])
