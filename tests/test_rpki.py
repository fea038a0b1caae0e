"""Tests for ROAs, RFC 6811 validation, repositories, and pair taxonomy."""

import datetime

import pytest

from repro.dates import REFERENCE_DATE
from repro.nettypes.prefix import Prefix
from repro.rpki.builder import repository_from_universe
from repro.rpki.pair_status import PairRovStatus, classify_pair
from repro.rpki.repository import RpkiRepository, VrpSet
from repro.rpki.roa import Roa
from repro.rpki.validation import RovStatus, validate_origin


def p(text):
    return Prefix.parse(text)


class TestRoa:
    def test_defaults(self):
        roa = Roa(p("193.0.0.0/21"), 64500)
        assert roa.max_length == 21

    def test_max_length_bounds(self):
        Roa(p("193.0.0.0/21"), 64500, max_length=24)
        with pytest.raises(ValueError):
            Roa(p("193.0.0.0/21"), 64500, max_length=20)
        with pytest.raises(ValueError):
            Roa(p("193.0.0.0/21"), 64500, max_length=33)

    def test_invalid_asn_and_rir(self):
        with pytest.raises(ValueError):
            Roa(p("193.0.0.0/21"), -5)
        with pytest.raises(ValueError):
            Roa(p("193.0.0.0/21"), 64500, rir="NOTRIR")

    def test_covers_and_matches(self):
        roa = Roa(p("193.0.0.0/21"), 64500, max_length=24)
        assert roa.covers(p("193.0.0.0/24"))
        assert roa.matches(p("193.0.0.0/24"), 64500)
        assert not roa.matches(p("193.0.0.0/24"), 64501)  # wrong origin
        assert not roa.matches(p("193.0.0.0/25"), 64500)  # too specific
        assert not roa.covers(p("193.0.8.0/24"))  # outside


class TestValidation:
    def test_not_found(self):
        assert validate_origin(p("5.5.5.0/24"), 1, []) is RovStatus.NOT_FOUND

    def test_valid(self):
        vrps = [Roa(p("5.5.0.0/16"), 1, max_length=24)]
        assert validate_origin(p("5.5.5.0/24"), 1, vrps) is RovStatus.VALID

    def test_invalid_wrong_origin(self):
        vrps = [Roa(p("5.5.0.0/16"), 1, max_length=24)]
        assert validate_origin(p("5.5.5.0/24"), 2, vrps) is RovStatus.INVALID

    def test_invalid_too_specific(self):
        vrps = [Roa(p("5.5.0.0/16"), 1)]  # max_length 16
        assert validate_origin(p("5.5.5.0/24"), 1, vrps) is RovStatus.INVALID

    def test_any_matching_vrp_wins(self):
        vrps = [
            Roa(p("5.5.0.0/16"), 99),  # would be invalid alone
            Roa(p("5.5.5.0/24"), 1),
        ]
        assert validate_origin(p("5.5.5.0/24"), 1, vrps) is RovStatus.VALID


class TestVrpSetAndRepository:
    def test_trie_backed_lookup(self):
        vrps = VrpSet([Roa(p("5.5.0.0/16"), 1, max_length=24), Roa(p("5.5.5.0/24"), 2)])
        covering = vrps.covering(p("5.5.5.0/24"))
        assert len(covering) == 2
        assert vrps.validate(p("5.5.5.0/24"), 2) is RovStatus.VALID
        assert vrps.validate(p("5.6.0.0/24"), 1) is RovStatus.NOT_FOUND
        assert len(vrps) == 2
        assert len(list(iter(vrps))) == 2

    def test_duplicate_roa_ignored(self):
        roa = Roa(p("5.5.0.0/16"), 1)
        vrps = VrpSet([roa, roa])
        assert len(vrps) == 1

    def test_moas_roas_same_prefix(self):
        vrps = VrpSet([Roa(p("5.5.0.0/16"), 1), Roa(p("5.5.0.0/16"), 2)])
        assert vrps.validate(p("5.5.0.0/16"), 1) is RovStatus.VALID
        assert vrps.validate(p("5.5.0.0/16"), 2) is RovStatus.VALID
        assert vrps.validate(p("5.5.0.0/16"), 3) is RovStatus.INVALID

    def test_repository_dates(self):
        repository = RpkiRepository()
        repository.add_snapshot(datetime.date(2022, 1, 1), VrpSet())
        with pytest.raises(ValueError):
            repository.add_snapshot(datetime.date(2022, 1, 1), VrpSet())
        with pytest.raises(LookupError):
            repository.at(datetime.date(2021, 1, 1))
        assert repository.at(datetime.date(2022, 6, 1)) is not None

    def test_snapshot_builder_runs_once_on_first_lookup(self):
        built = []

        def build():
            built.append(1)
            return VrpSet([Roa(p("5.5.0.0/16"), 1)])

        repository = RpkiRepository()
        repository.add_snapshot_builder(datetime.date(2022, 1, 1), build)
        repository.add_snapshot(datetime.date(2023, 1, 1), VrpSet())
        assert built == []
        assert len(repository) == 2
        first = repository.at(datetime.date(2022, 6, 1))
        assert repository.at(datetime.date(2022, 1, 1)) is first
        assert repository.validate(p("5.5.0.0/16"), 1, datetime.date(2022, 2, 1)) is (
            RovStatus.VALID
        )
        assert built == [1]
        with pytest.raises(ValueError):
            repository.add_snapshot(datetime.date(2022, 1, 1), VrpSet())


class TestPairStatus:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (RovStatus.VALID, RovStatus.VALID, PairRovStatus.BOTH_VALID),
            (RovStatus.VALID, RovStatus.NOT_FOUND, PairRovStatus.VALID_NOTFOUND),
            (RovStatus.NOT_FOUND, RovStatus.VALID, PairRovStatus.VALID_NOTFOUND),
            (RovStatus.VALID, RovStatus.INVALID, PairRovStatus.VALID_INVALID),
            (RovStatus.INVALID, RovStatus.NOT_FOUND, PairRovStatus.INVALID_NOTFOUND),
            (RovStatus.INVALID, RovStatus.INVALID, PairRovStatus.BOTH_INVALID),
            (RovStatus.NOT_FOUND, RovStatus.NOT_FOUND, PairRovStatus.BOTH_NOTFOUND),
        ],
    )
    def test_classification(self, a, b, expected):
        assert classify_pair(a, b) is expected

    def test_has_valid_flag(self):
        assert PairRovStatus.BOTH_VALID.has_valid
        assert PairRovStatus.VALID_NOTFOUND.has_valid
        assert not PairRovStatus.BOTH_NOTFOUND.has_valid
        assert PairRovStatus.BOTH_INVALID.has_invalid
        assert not PairRovStatus.BOTH_VALID.has_invalid


class TestBuilder:
    @pytest.fixture(scope="class")
    def universe(self):
        from repro.synth import build_universe

        return build_universe("tiny")

    @pytest.fixture(scope="class")
    def repository(self, universe):
        return repository_from_universe(universe)

    def test_monthly_snapshots(self, repository):
        assert len(repository) == 49

    def test_adoption_grows(self, universe, repository):
        early = repository.at(datetime.date(2020, 9, 9))
        late = repository.at(REFERENCE_DATE)
        assert len(late) > len(early)

    def test_statuses_present(self, universe, repository):
        rib = universe.rib_at(REFERENCE_DATE)
        statuses = set()
        for route in rib.routes():
            statuses.add(
                repository.validate(route.prefix, route.origin, REFERENCE_DATE)
            )
        assert RovStatus.VALID in statuses
        assert RovStatus.NOT_FOUND in statuses

    def test_notfound_share_shrinks(self, universe, repository):
        def notfound_share(date):
            rib = universe.rib_at(date)
            routes = list(rib.routes())
            notfound = sum(
                1
                for route in routes
                if repository.validate(route.prefix, route.origin, date)
                is RovStatus.NOT_FOUND
            )
            return notfound / len(routes)

        assert notfound_share(REFERENCE_DATE) < notfound_share(
            datetime.date(2020, 9, 9)
        )
