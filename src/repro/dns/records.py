"""DNS resource record types used by the resolution substrate.

Only the record types the sibling-prefix methodology touches are modelled:
``A``, ``AAAA`` and ``CNAME``.  Address records carry the address as an
integer (see :mod:`repro.nettypes.addr`); CNAME records carry the target
owner name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.nettypes.addr import IPV4, IPV6, check_value


class RRType(enum.Enum):
    """The DNS record types the pipeline consumes."""

    A = "A"
    AAAA = "AAAA"
    CNAME = "CNAME"
    MX = "MX"

    @property
    def is_address(self) -> bool:
        return self in (RRType.A, RRType.AAAA)

    @property
    def ip_version(self) -> int:
        if self is RRType.A:
            return IPV4
        if self is RRType.AAAA:
            return IPV6
        raise ValueError(f"{self.name} records carry no address")


_LDH = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def normalize_name(name: str) -> str:
    """Lower-case *name* and strip a trailing root dot."""
    return name.rstrip(".").lower()


def validate_name(name: str) -> str:
    """Check *name* is a plausible absolute domain name; returns the
    normalised form.  We enforce LDH labels, label and name length limits —
    enough rigor to catch generator bugs without a full RFC 1035 parser.
    """
    normalized = normalize_name(name)
    if not normalized or len(normalized) > 253:
        raise ValueError(f"invalid domain name: {name!r}")
    for label in normalized.split("."):
        if not 1 <= len(label) <= 63:
            raise ValueError(f"invalid label {label!r} in {name!r}")
        if label[0] == "-" or label[-1] == "-":
            raise ValueError(f"label may not start/end with '-': {name!r}")
        if not _LDH.issuperset(label):
            raise ValueError(f"non-LDH character in {name!r}")
    return normalized


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One DNS record: ``name rrtype → address value or target name``.

    MX records carry both a ``target`` (the exchange host) and a
    ``preference``; lower preference wins.
    """

    name: str
    rrtype: RRType
    address: int | None = None
    target: str | None = None
    preference: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "name", validate_name(self.name))
        if self.rrtype.is_address:
            if self.address is None or self.target is not None:
                raise ValueError(f"{self.rrtype.name} record needs an address only")
            if self.preference is not None:
                raise ValueError("preference is MX-only")
            check_value(self.rrtype.ip_version, self.address)
        elif self.rrtype is RRType.MX:
            if self.target is None or self.address is not None:
                raise ValueError("MX record needs a target only")
            if self.preference is None or self.preference < 0:
                raise ValueError("MX record needs a non-negative preference")
            object.__setattr__(self, "target", validate_name(self.target))
        else:
            if self.target is None or self.address is not None:
                raise ValueError("CNAME record needs a target only")
            if self.preference is not None:
                raise ValueError("preference is MX-only")
            object.__setattr__(self, "target", validate_name(self.target))

    @classmethod
    def a(cls, name: str, address: int) -> "ResourceRecord":
        return cls(name, RRType.A, address=address)

    @classmethod
    def aaaa(cls, name: str, address: int) -> "ResourceRecord":
        return cls(name, RRType.AAAA, address=address)

    @classmethod
    def cname(cls, name: str, target: str) -> "ResourceRecord":
        return cls(name, RRType.CNAME, target=target)

    @classmethod
    def mx(cls, name: str, exchange: str, preference: int = 10) -> "ResourceRecord":
        return cls(name, RRType.MX, target=exchange, preference=preference)
