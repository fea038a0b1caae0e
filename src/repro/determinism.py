"""Stable, salt-free pseudo-randomness.

Python's built-in ``hash`` is salted per process for strings, so anything
that must be reproducible across runs (address churn schedules, snapshot
sampling, annotation gaps) goes through these helpers instead.  They are
keyed hashes over the repr of their arguments via BLAKE2b — deterministic,
well mixed, and cheap.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

_blake2b = hashlib.blake2b
_unpack_u64 = struct.Struct("<Q").unpack


def key_bytes(*parts: object) -> bytes:
    """The hash input for the argument tuple: per part, ``repr(part)`` as
    UTF-8 followed by a 0x1F field-separator byte (so ``("ab", "c")`` and
    ``("a", "bc")`` differ)."""
    if not parts:
        return b""
    return "\x1f".join(map(repr, parts)).encode("utf-8") + b"\x1f"


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of the argument tuple."""
    return _unpack_u64(_blake2b(key_bytes(*parts), digest_size=8).digest())[0]


def stable_prefix(*parts: object) -> hashlib.blake2b:
    """A hash state keyed on the leading *parts* of a key tuple.

    BLAKE2b over a stream equals BLAKE2b over the concatenated bytes, so
    ``stable_hash_from(stable_prefix(*a), key_bytes(*b))`` equals
    ``stable_hash(*a, *b)``; callers that hash many keys sharing a prefix
    build the prefix state once and pay only for each suffix.

    >>> prefix = stable_prefix(7, "adopt", "example.com")
    >>> stable_hash_from(prefix, key_bytes(2021, 5)) == stable_hash(
    ...     7, "adopt", "example.com", 2021, 5
    ... )
    True
    """
    return _blake2b(key_bytes(*parts), digest_size=8)


def stable_hash_from(prefix: hashlib.blake2b, suffix: bytes) -> int:
    """:func:`stable_hash` of a :func:`stable_prefix` key extended by
    *suffix* (the :func:`key_bytes` of the remaining parts)."""
    state = prefix.copy()
    state.update(suffix)
    return _unpack_u64(state.digest())[0]


def stable_uniform(*parts: object) -> float:
    """A deterministic float in [0, 1) derived from the arguments."""
    return stable_hash(*parts) / 2**64


def stable_choice(options: Sequence, *parts: object):
    """Pick one of *options* deterministically from the key parts."""
    if not options:
        raise ValueError("cannot choose from an empty sequence")
    return options[stable_hash(*parts) % len(options)]


def stable_weighted_choice(
    options: Sequence, weights: Sequence[float], *parts: object
):
    """Weighted deterministic choice."""
    if len(options) != len(weights) or not options:
        raise ValueError("options and weights must be equal-length and non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = stable_uniform(*parts) * total
    cumulative = 0.0
    for option, weight in zip(options, weights):
        cumulative += weight
        if point < cumulative:
            return option
    return options[-1]


def stable_sample_count(n: int, fraction: float, *parts: object) -> int:
    """Deterministic rounding of ``n * fraction`` (stochastic rounding
    keyed on the arguments, so expectation is exact)."""
    exact = n * fraction
    base = int(exact)
    if stable_uniform(*parts, "frac") < exact - base:
        base += 1
    return min(base, n)
