"""Optimized string-similarity kernels: memoized, early-exit, bounded.

Drop-in mirrors of the hot functions in :mod:`repro.text.similarity`,
which stays the clarity-first **reference oracle**.  The differential
harness (``tests/text/test_kernels_differential.py``) proves the two
agree to within 1e-12 on hypothesis-generated inputs and on a frozen
golden corpus of real schema tokens, so the Harmony engine scores
through these without moving a single F1 digit.

What makes these fast:

* **process-wide token memo** — ``jaro_winkler_similarity`` caches its
  result keyed on the interned lowercase token pair (unordered: the
  measure is exactly symmetric).  Schema token vocabularies are tiny and
  recur across every candidate pair, so steady-state hit rates on the
  A12-large benchmark exceed 95%.
* **early-exit bounds** — ``jaro_winkler_upper_bound`` gives a cheap
  length-ratio cap (matches cannot exceed the shorter string), and
  ``levenshtein_distance(..., max_distance=k)`` runs a band-limited DP
  that aborts once the distance provably exceeds *k*; ``edit_similarity``
  exposes this as a ``cutoff``.  Bounded calls return an *upper bound*
  (guaranteed below the cutoff) instead of the exact value — exactness
  holds whenever the true value is at or above the cutoff.
* **Monge-Elkan row memo** — the per-token best-match row
  ``max(base(x, y) for y in ys)`` is cached against the interned token
  tuple ``ys``, so repeated path/name token lists (the structure voter
  compares every source path with every target path) cost one row each.
* **batch entry points** — ``score_pairs(pairs, measure)`` scores many
  pairs through the caches in one call, with an optional ``cutoff``.

Cache statistics are exposed via :func:`cache_stats` (the perf smoke
gate asserts on the token-cache hit rate) and reset via
:func:`clear_caches`.

>>> edit_similarity("NAME", "name")
1.0
>>> score_pairs([("name", "name"), ("po", "order")], measure="jaro_winkler")[0]
1.0
"""

from __future__ import annotations

import math
from sys import intern
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import similarity as reference
from .similarity import (  # noqa: F401  (re-exported: already near-optimal)
    dice_similarity,
    jaccard_similarity,
    longest_common_substring,
    substring_similarity,
)
from .tokenize import ngrams as _ngrams

__all__ = [
    "MongeElkanKernel",
    "blended_name_similarity",
    "cache_stats",
    "clear_caches",
    "dice_similarity",
    "edit_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaro_winkler_upper_bound",
    "levenshtein_distance",
    "longest_common_substring",
    "monge_elkan",
    "ngram_similarity",
    "note_cache_event",
    "score_pairs",
    "substring_similarity",
]

#: caches reset (not trimmed) when they outgrow this — far above any real
#: schema-token vocabulary, it is a leak backstop for pathological inputs.
MAX_CACHE_ENTRIES = 1_000_000


class CacheStats:
    """Hit/miss/eviction counters for one kernel cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_token_jw_stats = CacheStats()
_me_row_stats = CacheStats()
_ngram_stats = CacheStats()
_cosine_stats = CacheStats()

_jw_cache: Dict[Tuple[str, str, float], float] = {}
_me_row_cache: Dict[Tuple[str, Tuple[str, ...]], float] = {}
_ngram_cache: Dict[Tuple[str, int], frozenset] = {}


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Counters for every kernel cache, keyed by cache name.

    ``cosine`` counts the per-context documentation-cosine memo (see
    ``MatchContext.cosine``); the rest are process-wide.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, stats, cache in (
        ("token_jw", _token_jw_stats, _jw_cache),
        ("monge_elkan_rows", _me_row_stats, _me_row_cache),
        ("ngram_sets", _ngram_stats, _ngram_cache),
        ("cosine", _cosine_stats, None),
    ):
        out[name] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 4),
            "size": len(cache) if cache is not None else 0,
        }
    return out


def clear_caches() -> None:
    """Drop every process-wide cache and zero all statistics."""
    _jw_cache.clear()
    _me_row_cache.clear()
    _ngram_cache.clear()
    for stats in (_token_jw_stats, _me_row_stats, _ngram_stats, _cosine_stats):
        stats.reset()


def note_cache_event(cache: str, hit: bool) -> None:
    """Record a hit/miss for an externally-held kernel cache.

    ``MatchContext`` keeps its documentation-cosine memo per context
    (entries die with the context) but reports through here so one
    ``cache_stats()`` call covers the whole kernel layer.
    """
    stats = {"cosine": _cosine_stats}[cache]
    if hit:
        stats.hits += 1
    else:
        stats.misses += 1


# -- Levenshtein / edit similarity ------------------------------------------------


def levenshtein_distance(a: str, b: str, max_distance: Optional[int] = None) -> int:
    """Edit distance; band-limited when *max_distance* is given.

    Without *max_distance* the result equals the reference exactly.  With
    it, the DP only fills the diagonal band of width ``2k+1`` and aborts
    as soon as every band cell exceeds *k*; the contract is:

    * true distance ``<= max_distance`` → exact distance;
    * true distance ``>  max_distance`` → ``max_distance + 1``.

    >>> levenshtein_distance("kitten", "sitting")
    3
    >>> levenshtein_distance("kitten", "sitting", max_distance=1)
    2
    """
    if a == b:
        return 0
    len_a, len_b = len(a), len(b)
    if not len_a:
        return len_b
    if not len_b:
        return len_a
    if max_distance is None:
        return _levenshtein_full(a, b)
    k = max_distance
    if k < 0:
        raise ValueError("max_distance must be >= 0")
    if abs(len_a - len_b) > k:
        return k + 1
    infinity = k + 1
    previous = [j if j <= k else infinity for j in range(len_b + 1)]
    for i in range(1, len_a + 1):
        ch_a = a[i - 1]
        lo = max(1, i - k)
        hi = min(len_b, i + k)
        current = [infinity] * (len_b + 1)
        current[0] = i if i <= k else infinity
        band_min = current[0] if lo == 1 else infinity
        for j in range(lo, hi + 1):
            cost = 0 if ch_a == b[j - 1] else 1
            value = previous[j - 1] + cost
            if previous[j] + 1 < value:
                value = previous[j] + 1
            if current[j - 1] + 1 < value:
                value = current[j - 1] + 1
            if value > infinity:
                value = infinity
            current[j] = value
            if value < band_min:
                band_min = value
        if band_min >= infinity:
            return infinity
        previous = current
    return previous[len_b] if previous[len_b] <= k else infinity


def _levenshtein_full(a: str, b: str) -> int:
    """Unbounded DP, inner loop tightened (locals, no per-cell min() call)."""
    if len(a) < len(b):
        a, b = b, a  # fewer rows allocated; distance is symmetric
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        append = current.append
        left = i
        for j, ch_b in enumerate(b, start=1):
            value = previous[j - 1] + (0 if ch_a == ch_b else 1)
            up = previous[j] + 1
            if up < value:
                value = up
            if left + 1 < value:
                value = left + 1
            append(value)
            left = value
        previous = current
    return previous[-1]


def edit_similarity(a: str, b: str, cutoff: Optional[float] = None) -> float:
    """1 - normalized edit distance, case-insensitive.

    With *cutoff*, the Levenshtein DP is band-limited: when the true
    similarity is ``>= cutoff`` the exact value is returned; otherwise
    some value strictly below *cutoff* (an upper bound) comes back and
    the quadratic DP is cut short.

    >>> edit_similarity("NAME", "name")
    1.0
    >>> edit_similarity("abcdefgh", "zzzzzzzz", cutoff=0.9) < 0.9
    True
    """
    a, b = a.lower(), b.lower()
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    if cutoff is None or cutoff <= 0.0:
        return 1.0 - levenshtein_distance(a, b) / longest
    max_distance = int(math.floor((1.0 - cutoff) * longest + 1e-9))
    distance = levenshtein_distance(a, b, max_distance=max_distance)
    return 1.0 - distance / longest


# -- Jaro / Jaro-Winkler ----------------------------------------------------------


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity, case-insensitive; bit-identical to the reference.

    The match scan is O(|a| + |b|) instead of O(|a| · window): per-character
    position lists over *b* with monotone pointers replace the reference's
    inner window scan, selecting exactly the same greedy leftmost-unused
    matches (the window floor only ever grows, so a skipped position can
    never become eligible again).
    """
    a, b = a.lower(), b.lower()
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    len_a, len_b = len(a), len(b)
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    positions: Dict[str, List[int]] = {}
    for j, ch in enumerate(b):
        positions.setdefault(ch, []).append(j)
    pointers: Dict[str, int] = {}
    a_flags = [False] * len_a
    b_flags = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        plist = positions.get(ch)
        if plist is None:
            continue
        p = pointers.get(ch, 0)
        count = len(plist)
        lo = i - window
        while p < count and plist[p] < lo:
            p += 1
        if p < count and plist[p] <= i + window:
            j = plist[p]
            a_flags[i] = b_flags[j] = True
            matches += 1
            p += 1
        pointers[ch] = p
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    # keep the exact expression (and evaluation order) of the reference
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_upper_bound(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Cheap O(1) upper bound on ``jaro_winkler_similarity(a, b)``.

    At most ``min(|a|, |b|)`` characters can match, so Jaro is capped at
    ``(min/max + 2) / 3``; the Winkler boost is capped by a full 4-char
    prefix.  Used by :func:`score_pairs` to skip hopeless pairs when a
    *cutoff* is supplied.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    shorter, longer = sorted((len(a), len(b)))
    jaro_cap = (shorter / longer + 2.0) / 3.0
    prefix_cap = min(4, shorter)
    return jaro_cap + prefix_cap * prefix_scale * (1.0 - jaro_cap)


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Memoized Jaro-Winkler over interned lowercase token pairs.

    The measure is exactly symmetric, so the cache key is the unordered
    pair; schema token vocabularies recur constantly across candidate
    pairs, which is where the speedup comes from.
    """
    a = intern(a.lower())
    b = intern(b.lower())
    key = (a, b, prefix_scale) if a <= b else (b, a, prefix_scale)
    value = _jw_cache.get(key)
    if value is not None:
        _token_jw_stats.hits += 1
        return value
    _token_jw_stats.misses += 1
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix == 4:
            break
        prefix += 1
    value = jaro + prefix * prefix_scale * (1.0 - jaro)
    if len(_jw_cache) >= MAX_CACHE_ENTRIES:
        _jw_cache.clear()
        _token_jw_stats.evictions += 1
    _jw_cache[key] = value
    return value


# -- n-gram similarity ------------------------------------------------------------


def _ngram_set(text: str, n: int) -> frozenset:
    key = (text, n)
    value = _ngram_cache.get(key)
    if value is not None:
        _ngram_stats.hits += 1
        return value
    _ngram_stats.misses += 1
    value = frozenset(_ngrams(text, n))
    if len(_ngram_cache) >= MAX_CACHE_ENTRIES:
        _ngram_cache.clear()
        _ngram_stats.evictions += 1
    _ngram_cache[key] = value
    return value


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice coefficient over cached character n-gram sets."""
    set_a = _ngram_set(a, n)
    set_b = _ngram_set(b, n)
    if not set_a and not set_b:
        return 1.0
    denom = len(set_a) + len(set_b)
    if denom == 0:
        return 1.0
    return 2.0 * len(set_a & set_b) / denom


# -- Monge-Elkan ------------------------------------------------------------------


def _row_best(token: str, others: Tuple[str, ...]) -> float:
    """``max(jaro_winkler(token, y) for y in others)``, memoized per row."""
    key = (token, others)
    value = _me_row_cache.get(key)
    if value is not None:
        _me_row_stats.hits += 1
        return value
    _me_row_stats.misses += 1
    value = max(jaro_winkler_similarity(token, y) for y in others)
    if len(_me_row_cache) >= MAX_CACHE_ENTRIES:
        _me_row_cache.clear()
        _me_row_stats.evictions += 1
    _me_row_cache[key] = value
    return value


def monge_elkan(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    base: Optional[Callable[[str, str], float]] = None,
) -> float:
    """Monge-Elkan with per-token best-match rows memoized.

    *base* defaults to the memoized Jaro-Winkler; passing the reference
    ``jaro_winkler_similarity`` selects the same fast path (they are
    differentially proven equal).  Any other *base* falls back to direct
    evaluation — wrap it in a :class:`MongeElkanKernel` to memoize.
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    if base is None or base is jaro_winkler_similarity or base is reference.jaro_winkler_similarity:
        ta = tuple(intern(t.lower()) for t in tokens_a)
        tb = tuple(intern(t.lower()) for t in tokens_b)
        forward = sum(_row_best(x, tb) for x in ta) / len(ta)
        backward = sum(_row_best(y, ta) for y in tb) / len(tb)
        return (forward + backward) / 2.0

    def directed(xs: Sequence[str], ys: Sequence[str]) -> float:
        return sum(max(base(x, y) for y in ys) for x in xs) / len(xs)

    return (directed(tokens_a, tokens_b) + directed(tokens_b, tokens_a)) / 2.0


class MongeElkanKernel:
    """Monge-Elkan around a caller-supplied token measure, fully memoized.

    For bases that are not the stock Jaro-Winkler (Cupid's thesaurus
    token measure, say) the process-wide caches cannot be shared — two
    matchers may carry different thesauri.  Each kernel instance owns a
    token-pair memo and a best-match row memo instead; both die with the
    instance.  The pair memo keys on the *ordered* pair because arbitrary
    bases need not be symmetric.
    """

    def __init__(self, base: Callable[[str, str], float]) -> None:
        self.base = base
        self._pairs: Dict[Tuple[str, str], float] = {}
        self._rows: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self.hits = 0
        self.misses = 0

    def _pair(self, a: str, b: str) -> float:
        key = (a, b)
        value = self._pairs.get(key)
        if value is None:
            value = self.base(a, b)
            self._pairs[key] = value
        return value

    def _row(self, token: str, others: Tuple[str, ...]) -> float:
        key = (token, others)
        value = self._rows.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = max(self._pair(token, y) for y in others)
        self._rows[key] = value
        return value

    def similarity(self, tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
        if not tokens_a and not tokens_b:
            return 1.0
        if not tokens_a or not tokens_b:
            return 0.0
        ta, tb = tuple(tokens_a), tuple(tokens_b)
        forward = sum(self._row(x, tb) for x in ta) / len(ta)
        backward = sum(self._row(y, ta) for y in tb) / len(tb)
        return (forward + backward) / 2.0

    def cache_info(self) -> Dict[str, int]:
        return {
            "pairs": len(self._pairs),
            "rows": len(self._rows),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._pairs.clear()
        self._rows.clear()
        self.hits = 0
        self.misses = 0


def blended_name_similarity(
    a: str,
    b: str,
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
) -> float:
    """The name voter's four-measure max, with exact early exits.

    Returns a value equal to the reference blend (the plain ``max`` of
    edit, Jaro-Winkler, trigram and Monge-Elkan similarity) while doing
    less work: measures run cheapest-first with a running best, the
    whole-string Jaro-Winkler is skipped when its length-ratio upper
    bound cannot beat the best so far, and the edit DP is band-limited at
    the best so far.  Both shortcuts only suppress values that a ``max``
    would discard anyway, so the result is exact — the differential
    harness checks this blend directly.
    """
    best = ngram_similarity(a, b)
    monge = monge_elkan(tokens_a, tokens_b)
    if monge > best:
        best = monge
    if jaro_winkler_upper_bound(a, b) > best:
        winkler = jaro_winkler_similarity(a, b)
        if winkler > best:
            best = winkler
    edit = edit_similarity(a, b, cutoff=best)
    if edit > best:
        best = edit
    return best


# -- batch entry points -----------------------------------------------------------

#: measures usable with :func:`score_pairs`
_STRING_MEASURES: Dict[str, Callable[..., float]] = {
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "edit": edit_similarity,
    "ngram": ngram_similarity,
}


def score_pairs(
    pairs: Sequence[Tuple[Sequence[str], Sequence[str]]],
    measure: str = "jaro_winkler",
    cutoff: Optional[float] = None,
) -> List[float]:
    """Score many pairs through the kernel caches in one call.

    *measure* is one of ``jaro``, ``jaro_winkler``, ``edit``, ``ngram``
    (string pairs) or ``monge_elkan`` (token-sequence pairs).  With
    *cutoff*, pairs whose cheap upper bound already falls below it are
    skipped: the returned value is then that upper bound (strictly below
    *cutoff*), not the exact similarity — callers thresholding at
    *cutoff* see identical accept/reject decisions either way.
    """
    if measure == "monge_elkan":
        return [monge_elkan(a, b) for a, b in pairs]
    try:
        func = _STRING_MEASURES[measure]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure!r}; expected one of "
            f"{sorted(_STRING_MEASURES) + ['monge_elkan']}"
        ) from None
    out: List[float] = []
    for a, b in pairs:
        if cutoff is not None:
            if measure in ("jaro", "jaro_winkler"):
                bound = jaro_winkler_upper_bound(a, b)
                if bound < cutoff:
                    out.append(bound)
                    continue
            elif measure == "edit":
                out.append(edit_similarity(a, b, cutoff=cutoff))
                continue
        out.append(func(a, b))
    return out
