"""Golden digests of generated data: generation must stay bit-identical.

Every synthetic universe, RPKI repository and event-script snapshot is a
pure function of its scenario (seed included).  These tests hash a
canonical text dump of each and compare it with a digest recorded once.
Any change to a single generated record — a domain's adoption month, an
announcement, one address in one snapshot, one ROA — changes the digest
and fails the test.  Speed-ups of the generator must keep every digest;
a deliberate change of the generated data must say so and re-record.

The dump is independent of ``PYTHONHASHSEED``: set-valued fields are
written sorted, everything else in generation order.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

from repro.dates import REFERENCE_DATE
from repro.rpki.builder import repository_from_universe
from repro.synth import build_universe
from repro.synth.events import build_event_universe

#: sha256 of each canonical dump, recorded before the generator was
#: optimised.  Never update one to make a change pass.
GOLDEN = {
    "tiny.fabric":
        "5dd3248293b00a70676e7a9f140c2cea2993de9e32ff14e02549531101487bdc",
    "tiny.snapshot":
        "31cead42a67e54affbd5cddc0bbe010169bfa5ba581169d5761d325c36b134d1",
    "tiny.rpki":
        "755da08e5bf57b8ff77b54879d75b67dd18f48451f5488a76476c88c39d61e4d",
    "medium.fabric":
        "3648d23f459d984a1c2fefe6154772268118ee3fef9771bbcbedd1defd952ebf",
    "medium.snapshot":
        "94474fbd5d8c2510e68a7d235ee751570177b2552e4505c3b7facd19cdb44cc6",
    "medium.rpki":
        "dd4770390c2d3251e68012e285d6bda17c7bc6485c209750219c2661a2c1aa01",
    "mixed.snapshots":
        "f3229122980ad3327ba8f8c6af75942e04b474de9142620ec4160e4e38a39273",
}


def _canon(value: object) -> str:
    """A repr that does not depend on set iteration order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={_canon(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    return repr(value)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _fabric_lines(universe):
    fabric = universe.fabric
    for org in universe.population.organizations.values():
        yield _canon(org)
    for deployment in fabric.deployments.values():
        yield _canon(deployment)
    for spec in fabric.domains.values():
        yield _canon(spec)
    for announcement in fabric.announcements:
        yield _canon(announcement)
    for network in fabric.agility_networks.values():
        yield _canon(network)
    yield _canon(fabric.monitoring)
    yield _canon(fabric.noise_sinks)


def _snapshot_lines(snapshot):
    yield repr(snapshot.date)
    for observation in snapshot.observations():
        yield _canon(observation)


def _rpki_lines(repository, dates):
    for date in dates:
        vrps = repository.at(date)
        yield f"{date} {len(vrps)}"
        for roa in vrps:
            yield _canon(roa)


def _universe_digests(name: str, rpki_dates) -> dict[str, str]:
    universe = build_universe(name)
    repository = repository_from_universe(universe)
    return {
        f"{name}.fabric": _digest(_fabric_lines(universe)),
        f"{name}.snapshot": _digest(
            _snapshot_lines(universe.snapshot_at(REFERENCE_DATE))
        ),
        f"{name}.rpki": _digest(
            _rpki_lines(repository, rpki_dates(repository))
        ),
    }


def test_tiny_universe_digests():
    # Every monthly VRP set of the small scenario.
    assert _universe_digests("tiny", lambda repo: repo.dates()) == {
        key: value for key, value in GOLDEN.items() if key.startswith("tiny.")
    }


def test_medium_universe_digests():
    # The reference month only: the one a `detect --with-rov` run reads.
    assert _universe_digests("medium", lambda repo: [REFERENCE_DATE]) == {
        key: value
        for key, value in GOLDEN.items()
        if key.startswith("medium.")
    }


def test_event_script_snapshot_digest():
    universe = build_event_universe("mixed")
    lines = (
        line
        for date in universe.dates
        for line in _snapshot_lines(universe.snapshot_at(date))
    )
    assert _digest(lines) == GOLDEN["mixed.snapshots"]
