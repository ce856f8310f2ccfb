"""Acronym voter: one name is the initialism of the other.

Government schemata are dense with initialisms (``FAA``, ``ETA``,
``ACID``).  This voter fires when one element's name, taken as a
character sequence, matches the initial letters of the other's tokens
(``poNum`` vs ``purchaseOrderNumber``), including subsequence initialisms
(``ssn`` vs ``socialSecurityNumber``).
"""

from __future__ import annotations

from typing import List, Sequence

from .base import CandidatePair, ColumnVoter, MatchContext


def _initials(tokens: Sequence[str]) -> str:
    return "".join(t[0] for t in tokens if t and t[0].isalpha())


def is_acronym_of(short: str, tokens: Sequence[str]) -> bool:
    """Is *short* the initialism of *tokens* (exactly, or as a prefix of a
    longer token list)?"""
    short = short.lower()
    if len(short) < 2 or not tokens:
        return False
    initials = _initials(tokens)
    return initials == short or (len(short) >= 3 and initials.startswith(short))


class AcronymVoter(ColumnVoter):
    name = "acronym"

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        return [
            _acronym_score(fs.acronym_tokens, ft.acronym_tokens)
            for fs, ft in context.pair_features(pairs)
        ]


def _acronym_score(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
    """The acronym vote for two names' identifier tokens."""
    # single-token name on one side, multi-token on the other
    for short_tokens, long_tokens in ((tokens_a, tokens_b), (tokens_b, tokens_a)):
        if len(short_tokens) == 1 and len(long_tokens) >= 2:
            if is_acronym_of(short_tokens[0], long_tokens):
                return 0.7
    # composite: greedily align short tokens against the long token list,
    # letting each short token be an initialism of several long tokens
    # (po ↔ purchase order) or a prefix (num ↔ number)
    for short_tokens, long_tokens in ((tokens_a, tokens_b), (tokens_b, tokens_a)):
        if 1 < len(short_tokens) < len(long_tokens):
            if _greedy_align(short_tokens, long_tokens):
                return 0.6
    if 1 < len(tokens_a) == len(tokens_b):
        if all(
            a == b or (len(a) >= 2 and b.startswith(a)) or (len(b) >= 2 and a.startswith(b))
            for a, b in zip(tokens_a, tokens_b)
        ):
            return 0.5
    return 0.0


def _greedy_align(short_tokens: Sequence[str], long_tokens: Sequence[str]) -> bool:
    """Can every short token be consumed against the long token list, as
    either an initialism of ≥2 consecutive long tokens or a prefix of one?"""
    position = 0
    for token in short_tokens:
        if position >= len(long_tokens):
            return False
        # initialism of the next len(token) long tokens
        span = len(token)
        if (
            span >= 2
            and position + span <= len(long_tokens)
            and _initials(long_tokens[position : position + span]) == token
        ):
            position += span
            continue
        # prefix/equality with the next long token
        candidate = long_tokens[position]
        if len(token) >= 2 and candidate.startswith(token):
            position += 1
            continue
        if token == candidate:
            position += 1
            continue
        return False
    return position == len(long_tokens)
