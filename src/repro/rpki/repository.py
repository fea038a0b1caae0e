"""Dated RPKI repository snapshots with trie-backed VRP lookup."""

from __future__ import annotations

import bisect
import datetime
from typing import Callable, Iterable, Iterator

from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.nettypes.trie import PatriciaTrie
from repro.rpki.roa import Roa
from repro.rpki.validation import RovStatus, validate_origin


class VrpSet:
    """All VRPs of one snapshot, indexed for covering-ROA lookup."""

    def __init__(self, roas: Iterable[Roa] = ()):
        self._tries: dict[int, PatriciaTrie] = {
            IPV4: PatriciaTrie(IPV4),
            IPV6: PatriciaTrie(IPV6),
        }
        self._count = 0
        for roa in roas:
            self.add(roa)

    def add(self, roa: Roa) -> None:
        trie = self._tries[roa.prefix.version]
        existing: tuple[Roa, ...] | None = trie.get(roa.prefix)
        if existing is None:
            trie.insert(roa.prefix, (roa,))
            self._count += 1
        elif roa not in existing:
            trie.insert(roa.prefix, existing + (roa,))
            self._count += 1

    def covering(self, announcement: Prefix) -> list[Roa]:
        trie = self._tries[announcement.version]
        found: list[Roa] = []
        for _, roas in trie.covering(announcement):
            found.extend(roas)
        return found

    def validate(self, announcement: Prefix, origin: int) -> RovStatus:
        return validate_origin(announcement, origin, self.covering(announcement))

    def validate_route(
        self, announcement: Prefix, origins: frozenset[int]
    ) -> RovStatus:
        """Best status over a MOAS origin set: VALID if any origin is
        authorized, NOT_FOUND only when no covering ROA exists at all."""
        statuses = {self.validate(announcement, origin) for origin in origins}
        if RovStatus.VALID in statuses:
            return RovStatus.VALID
        if RovStatus.INVALID in statuses:
            return RovStatus.INVALID
        return RovStatus.NOT_FOUND

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Roa]:
        for version in (IPV4, IPV6):
            for _, roas in self._tries[version].items():
                yield from roas


class RpkiRepository:
    """Monthly VRP-set snapshots, addressable by date.

    A snapshot is added either built (:meth:`add_snapshot`) or as a
    function that builds it (:meth:`add_snapshot_builder`); the latter
    runs on the snapshot's first lookup, so a reader of one month never
    pays for the others.
    """

    def __init__(self):
        self._dates: list[datetime.date] = []
        self._sets: dict[datetime.date, VrpSet] = {}
        self._builders: dict[datetime.date, Callable[[], VrpSet]] = {}

    def add_snapshot(self, date: datetime.date, vrps: VrpSet) -> None:
        self.add_snapshot_builder(date, lambda: vrps)

    def add_snapshot_builder(
        self, date: datetime.date, build: Callable[[], VrpSet]
    ) -> None:
        if date in self._builders or date in self._sets:
            raise ValueError(f"duplicate RPKI snapshot for {date}")
        self._builders[date] = build
        bisect.insort(self._dates, date)

    def at(self, date: datetime.date) -> VrpSet:
        index = bisect.bisect_right(self._dates, date)
        if index == 0:
            raise LookupError(f"no RPKI snapshot at or before {date}")
        snapshot_date = self._dates[index - 1]
        vrps = self._sets.get(snapshot_date)
        if vrps is None:
            vrps = self._sets[snapshot_date] = self._builders.pop(snapshot_date)()
        return vrps

    def validate(
        self, announcement: Prefix, origin: int, date: datetime.date
    ) -> RovStatus:
        return self.at(date).validate(announcement, origin)

    def validate_route(
        self, announcement: Prefix, origins: frozenset[int], date: datetime.date
    ) -> RovStatus:
        return self.at(date).validate_route(announcement, origins)

    def dates(self) -> list[datetime.date]:
        return list(self._dates)

    def __len__(self) -> int:
        return len(self._dates)
