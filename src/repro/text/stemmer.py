"""Porter stemmer (M.F. Porter, 1980), implemented from scratch.

Harmony's linguistic preprocessing stems tokens so that ``shipping`` /
``shipped`` / ``ships`` all compare equal.  This is a faithful
implementation of the original algorithm's five steps
(:func:`porter_stem`); :func:`stem` memoizes it process-wide, because
a schema's vocabulary is small and every match stems it again — path
keys re-stem each ancestor's name, leaf tokens each descendant's, and
TF-IDF every documentation word.  ``kernels.clear_caches()`` drops the
memo with the similarity caches.
"""

from __future__ import annotations

from typing import Iterable, List

from .kernels import MAX_CACHE_ENTRIES, _stem_cache

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter measure m: the number of VC sequences in C?(VC){m}V?."""
    forms = ""
    for i in range(len(stem)):
        forms += "c" if _is_consonant(stem, i) else "v"
    m = 0
    i = 0
    # skip initial consonants
    while i < len(forms) and forms[i] == "c":
        i += 1
    while i < len(forms):
        # consume vowels
        while i < len(forms) and forms[i] == "v":
            i += 1
        if i < len(forms):  # a consonant cluster follows -> one VC
            m += 1
            while i < len(forms) and forms[i] == "c":
                i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o: stem ends cvc where the final c is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_suffix(word: str, suffix: str, replacement: str, m_min: int) -> str:
    """If *word* ends with *suffix* and the stem's measure > m_min, swap it."""
    stem = word[: -len(suffix)]
    if _measure(stem) > m_min:
        return stem + replacement
    return word


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def porter_stem(word: str) -> str:
    """Stem one word, case-folded, without the memo.

    >>> porter_stem("shipping")
    'ship'
    >>> porter_stem("relational")
    'relat'
    >>> porter_stem("aviation")
    'aviat'
    """
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a: plurals
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b: -ed / -ing
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        flag = False
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c: y -> i
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, replacement in _STEP2:
        if word.endswith(suffix):
            word = _replace_suffix(word, suffix, replacement, 0)
            break

    # Step 3
    for suffix, replacement in _STEP3:
        if word.endswith(suffix):
            word = _replace_suffix(word, suffix, replacement, 0)
            break

    # Step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: -len(suffix)]
            if suffix == "ion" and not stem_part.endswith(("s", "t")):
                continue
            if _measure(stem_part) > 1:
                word = stem_part
            break

    # Step 5a: remove final e
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part

    # Step 5b: ll -> l
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]

    return word


def stem(word: str) -> str:
    """Stem one word through the process-wide memo.

    >>> stem("shipping")
    'ship'
    >>> stem("Shipping")
    'ship'
    """
    value = _stem_cache.get(word)
    if value is None:
        if len(_stem_cache) >= MAX_CACHE_ENTRIES:
            _stem_cache.clear()
        value = _stem_cache[word] = porter_stem(word)
    return value


def stem_all(tokens: Iterable[str]) -> List[str]:
    """Stem every token in a stream."""
    return [stem(t) for t in tokens]
