"""Derive a dated RPKI repository from a synthetic universe.

Each organization has an RPKI adoption date (sampled at build time to
follow the Figure 18 adoption curve).  Once adopted, an org publishes
ROAs for most of its announced prefixes; a small deterministic fraction
are misconfigured (a covering ROA whose max_length is shorter than the
announcement, or a stale origin ASN), producing INVALID announcements
like the paper's 2-8% conflicting / invalid population.
"""

from __future__ import annotations

import datetime
import functools

from repro.dates import STUDY_END, STUDY_START, month_range
from repro.determinism import stable_choice, stable_uniform
from repro.obs.tracing import trace
from repro.rpki.repository import RpkiRepository, VrpSet
from repro.rpki.roa import RIRS, Roa
from repro.synth.universe import Universe

#: Share of an adopted org's prefixes that actually get a ROA.
_COVERED_FRACTION = 0.92

#: Of covered prefixes, how many get a loose max_length (+2 bits).
_LOOSE_MAXLEN_FRACTION = 0.3


def repository_from_universe(
    universe: Universe,
    start: tuple[int, int] = STUDY_START,
    end: tuple[int, int] = STUDY_END,
) -> RpkiRepository:
    """Monthly snapshots over [start, end] derived from org adoption.

    Whether and how an announcement is covered depends only on its
    prefix, so each announcement's ROA is decided once; a month's VRP
    set is then the ROAs active by the first of that month, built on
    the month's first lookup.
    """
    with trace("rpki.repository"):
        timeline = _roa_timeline(universe)
        repository = RpkiRepository()
        for year, month in month_range(start, end):
            snapshot_date = datetime.date(year, month, 1)
            repository.add_snapshot_builder(
                snapshot_date, functools.partial(_vrp_set, timeline, snapshot_date)
            )
    return repository


def _vrp_set(
    timeline: list[tuple[datetime.date, Roa]], snapshot_date: datetime.date
) -> VrpSet:
    with trace("rpki.vrp_set"):
        return VrpSet(roa for active, roa in timeline if active <= snapshot_date)


def _roa_timeline(universe: Universe) -> list[tuple[datetime.date, Roa]]:
    """(first date the ROA is published, ROA) per covered announcement,
    in announcement order."""
    seed = universe.config.seed
    invalid_fraction = universe.config.rpki_invalid_fraction
    timeline: list[tuple[datetime.date, Roa]] = []
    for announcement in universe.fabric.announcements:
        org = universe.population.org(announcement.org_id)
        if org.rpki_adoption is None:
            continue
        prefix = announcement.prefix
        text = str(prefix)
        if stable_uniform(seed, "roa-covered", text) > _COVERED_FRACTION:
            continue
        active = max(announcement.announced, org.rpki_adoption)
        origin = org.asn_for_family(prefix.version)
        rir = stable_choice(RIRS, "rir", text)
        if stable_uniform(seed, "roa-misconfig", text) < invalid_fraction:
            # Misconfiguration: a covering ROA that cannot match the
            # announcement — either too-short max_length via the
            # covering supernet, or a stale origin.
            if prefix.length > 1 and stable_uniform(seed, "mistype", text) < 0.5:
                supernet = prefix.supernet()
                roa = Roa(supernet, origin, max_length=supernet.length, rir=rir)
            else:
                roa = Roa(prefix, origin + 1_000_000, rir=rir)
        else:
            max_length = prefix.length
            if stable_uniform(seed, "roa-loose", text) < _LOOSE_MAXLEN_FRACTION:
                max_length = min(prefix.length + 2, prefix.bits)
            roa = Roa(prefix, origin, max_length=max_length, rir=rir)
        timeline.append((active, roa))
    return timeline
