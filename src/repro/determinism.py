"""Stable, salt-free pseudo-randomness.

Python's built-in ``hash`` is salted per process for strings, so anything
that must be reproducible across runs (address churn schedules, snapshot
sampling, annotation gaps) goes through these helpers instead.  They are
keyed hashes over the repr of their arguments via BLAKE2b — deterministic,
well mixed, and cheap.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Sequence

_blake2b = hashlib.blake2b

#: A BLAKE2b-8 digest as its 64-bit hash value: ``unpack_u64(digest)[0]``.
unpack_u64 = struct.Struct("<Q").unpack

#: ``_KEY_FORMATS[n] % parts`` is the text of an n-part key: one ``%``
#: pass instead of a ``repr`` call per part, a join and a concatenation.
_KEY_FORMATS = tuple("%r\x1f" * n for n in range(16))


def key_bytes(*parts: object) -> bytes:
    """The hash input for the argument tuple: per part, ``repr(part)`` as
    UTF-8 followed by a 0x1F field-separator byte (so ``("ab", "c")`` and
    ``("a", "bc")`` differ)."""
    if len(parts) < len(_KEY_FORMATS):
        return (_KEY_FORMATS[len(parts)] % parts).encode("utf-8")
    return ("%r\x1f" * len(parts) % parts).encode("utf-8")


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of the argument tuple."""
    return unpack_u64(_blake2b(key_bytes(*parts), digest_size=8).digest())[0]


def stable_prefix(*parts: object) -> hashlib.blake2b:
    """A hash state keyed on the leading *parts* of a key tuple.

    BLAKE2b over a stream equals BLAKE2b over the concatenated bytes, so
    a ``.copy()`` of ``stable_prefix(*a)`` updated with ``key_bytes(*b)``
    hashes to ``stable_hash(*a, *b)``; callers that hash many keys
    sharing a prefix build the prefix state once and pay only for each
    suffix.

    >>> state = stable_prefix(7, "adopt", "example.com").copy()
    >>> state.update(key_bytes(2021, 5))
    >>> unpack_u64(state.digest())[0] == stable_hash(
    ...     7, "adopt", "example.com", 2021, 5
    ... )
    True
    """
    return _blake2b(key_bytes(*parts), digest_size=8)


def stable_uniform(*parts: object) -> float:
    """A deterministic float in [0, 1) derived from the arguments."""
    return stable_hash(*parts) / 2**64


@functools.cache
def uniform_threshold(p: float) -> int:
    """The integer ``T`` with ``h < T`` exactly when ``h / 2**64 < p``,
    for every 64-bit hash ``h``.

    So ``stable_uniform(*parts) < p`` is ``stable_hash(*parts) <
    uniform_threshold(p)``: a draw loop compares integers and makes no
    float per draw.  ``h / 2**64`` is correctly rounded and never
    decreases as ``h`` grows, so the draws below ``p`` are a prefix of
    ``[0, 2**64)``; ``T`` is found by bisecting on that same float
    comparison and is not ``p * 2**64`` in general (near 1.0 the
    quotient rounds up, so no ``h`` draws below ``p = 1``):

    >>> uniform_threshold(0.0)
    0
    >>> uniform_threshold(1.0) == 2**64 - 1024
    True
    >>> uniform_threshold(0.002)
    36893488147419100
    """
    low, high = 0, 2**64
    while low < high:
        middle = (low + high) // 2
        if middle / 2**64 < p:
            low = middle + 1
        else:
            high = middle
    return low


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
