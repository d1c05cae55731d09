import inspect
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistddp import ingest
from bistddp.baselines import fit_counts
from bistddp.geodata import PoiTable, SpatialRowCache
from bistddp.ingest import (
    CheckIns,
    Corpus,
    DuplicateUser,
    ParseResult,
    PreparedCorpus,
    Sample,
    SampleBatch,
    _foursquare_time,
    _gowalla_time,
    build_samples,
    chronological_split,
    encode_temporal_pattern,
    filter_min_activity,
    load_corpus,
    parse_foursquare,
    parse_gowalla,
    prepare,
    split_corpus,
    write_corpus,
)
from bistddp.numerics import BadInput
from bistddp.synthetic import corpus_from_events, overfit_corpus, planted_corpus, random_instance
from conftest import foursquare_lines


def fsq_line(user="u1", venue="v1", lat=40.7, lon=-74.0, tz=-240,
             when="Tue Apr 03 18:00:09 +0000 2012"):
    return f"{user}\t{venue}\tcat1\tCoffee Shop\t{lat}\t{lon}\t{tz}\t{when}"


def gow_line(user="7", when="2010-10-19T23:55:27Z", lat=30.2, lon=-97.7, loc="420315"):
    return f"{user}\t{when}\t{lat}\t{lon}\t{loc}"


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestParsers:
    def test_foursquare_single_line(self, tmp_path):
        res = parse_foursquare(write(tmp_path, "a.tsv", [fsq_line()]))
        assert len(res.checkins) == 1 and len(res.table) == 1
        expected = int(datetime(2012, 4, 3, 18, 0, 9, tzinfo=timezone.utc).timestamp())
        assert res.checkins.times.tolist() == [expected]
        assert res.checkins.tz.tolist() == [-240]
        assert res.checkins.users.tolist() == [0] and res.user_ids == ("u1",)
        assert res.checkins.pois.tolist() == [0] and res.table.ids == ("v1",)
        assert {c.dtype for c in (res.checkins.users, res.checkins.pois,
                                  res.checkins.times, res.checkins.tz)} == {np.dtype(np.int64)}
        assert res.table.lat.tolist() == [40.7] and res.table.lon.tolist() == [-74.0]
        assert res.table.lat.dtype == res.table.lon.dtype == np.float64

    def test_foursquare_bad_latitude_skipped(self, tmp_path):
        res = parse_foursquare(write(tmp_path, "a.tsv", [fsq_line(), fsq_line(lat="oops")]))
        assert len(res.checkins) == 1
        assert len(res.malformed) == 1
        assert res.malformed[0][0] == 2  # line number

    def test_foursquare_duplicate_venue_keeps_first_coords(self, tmp_path):
        lines = [
            fsq_line(venue="v9", lat=10.0, lon=20.0),
            fsq_line(venue="v9", lat=10.5, lon=20.5),
            fsq_line(venue="v2", lat=30.0, lon=40.0),
        ]
        res = parse_foursquare(write(tmp_path, "a.tsv", lines))
        # oracle: manual dedup of the three-line fixture
        assert len(res.checkins) == 3
        assert len(res.table) == 2
        v9 = res.table.ids.index("v9")
        assert (res.table.lat[v9], res.table.lon[v9]) == (10.0, 20.0)
        # POI indices follow first appearance; the rows point into the table
        assert res.checkins.pois.tolist() == [0, 0, 1]
        assert res.table.ids == ("v9", "v2")

    def test_foursquare_wrong_columns_and_time(self, tmp_path):
        res = parse_foursquare(write(tmp_path, "a.tsv", [
            fsq_line(),
            "too\tfew\tcolumns",
            fsq_line(when="Not A Time 2012"),
            fsq_line(tz="9999"),
        ]))
        assert len(res.checkins) == 1
        assert [ln for ln, _ in res.malformed] == [2, 3, 4]

    def test_foursquare_empty_file_raises(self, tmp_path):
        with pytest.raises(BadInput, match="a.tsv: no valid check-ins$"):
            parse_foursquare(write(tmp_path, "a.tsv", [""]))

    def test_gowalla_single_line(self, tmp_path):
        res = parse_gowalla(write(tmp_path, "g.tsv", [gow_line()]))
        expected = int(datetime(2010, 10, 19, 23, 55, 27, tzinfo=timezone.utc).timestamp())
        assert res.checkins.times.tolist() == [expected]
        assert res.checkins.tz.tolist() == [0]  # distribution carries no timezone
        assert res.user_ids == ("7",) and res.table.ids == ("420315",)

    def test_gowalla_bad_line_and_dedup(self, tmp_path):
        lines = [
            gow_line(loc="L1", lat=10.0),
            gow_line(loc="L1", lat=11.0),
            "bad line",
        ]
        res = parse_gowalla(write(tmp_path, "g.tsv", lines))
        assert len(res.checkins) == 2
        assert len(res.malformed) == 1
        l1 = res.table.ids.index("L1")
        assert (res.table.lat[l1], res.table.lon[l1]) == (10.0, -97.7)
        assert res.checkins.pois.tolist() == [0, 0] and res.checkins.users.tolist() == [0, 0]


def old_geopoint_error(lat_s, lon_s):
    """The per-line check of the former `GeoPoint`, kept as the oracle of the range rule."""
    try:
        lat, lon = float(lat_s), float(lon_s)
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude out of range: {lat}")
        if not (-180.0 <= lon <= 180.0):
            raise ValueError(f"longitude out of range: {lon}")
    except ValueError as exc:
        return str(exc)
    return None


# the ends of both ranges, the doubles just past them, NaN, the infinities and an overflow
_EDGE_COORDINATES = [
    *(f"{sign}{end}" for sign in ("", "-") for end in ("90", "90.0", "180", "180.0")),
    *(repr(sign * float(np.nextafter(end, 200.0))) for end in (90.0, 180.0) for sign in (1, -1)),
    "90.0001", "-180.5", "0", "-0.0", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
    "-1e999",
]
coordinate_texts = st.one_of(st.sampled_from(_EDGE_COORDINATES),
                             st.floats(-200.0, 200.0).map(repr))


@given(st.lists(st.tuples(coordinate_texts, coordinate_texts), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_one_range_rule_for_parser_table_and_corpus_file(pairs):
    errors = [old_geopoint_error(lat, lon) for lat, lon in pairs]
    lats, lons = [float(lat) for lat, _ in pairs], [float(lon) for _, lon in pairs]
    kept = [k for k, error in enumerate(errors) if error is None]
    with tempfile.TemporaryDirectory() as tmp:
        # the parsers skip exactly the lines the old check refused, with its messages
        for parse, line, poi in ((parse_foursquare, fsq_line, "venue"),
                                 (parse_gowalla, gow_line, "loc")):
            texts = [line(lat="1.5", lon="2.5")]  # one good line: the dump is never empty
            texts += [line(**{poi: f"w{k}"}, lat=lat, lon=lon) for k, (lat, lon) in enumerate(pairs)]
            res = parse(write(Path(tmp), "dump.tsv", texts))
            assert res.malformed == tuple((k + 2, e) for k, e in enumerate(errors) if e is not None)
            assert res.table.ids[1:] == tuple(f"w{k}" for k in kept)
            assert res.table.lat.tobytes() == np.array([1.5, *(lats[k] for k in kept)]).tobytes()
            assert res.table.lon.tobytes() == np.array([2.5, *(lons[k] for k in kept)]).tobytes()

        # a table refuses them too, naming the first bad POI
        ids = [f"p{k}" for k in range(len(pairs))]
        bad = [k for k, error in enumerate(errors) if error is not None]
        if bad:
            k = bad[0]
            with pytest.raises(BadInput, match=re.escape(f"POI {k} ('p{k}'): {errors[k]}")):
                PoiTable(ids, lats, lons)
        else:
            assert PoiTable(ids, lats, lons).lat.tolist() == lats

        # and so does a corpus file, naming the file and the line
        path = write(Path(tmp), "corpus.tsv", [
            f"STDDP2\t1\t{len(pairs)}\t1",
            *(f"P\t{poi}\t{lat}\t{lon}" for poi, (lat, lon) in zip(ids, pairs)),
            "U\tu0\t3", *(f"C\t0\t0\t{1_500_000_000 + 60 * i}\t0" for i in range(3))])
        if bad:
            with pytest.raises(BadInput) as err:
                load_corpus(path)
            assert str(err.value) == f"{path}:{bad[0] + 2}: {errors[bad[0]]}"
        else:
            table = load_corpus(path).corpus.poi_table
            assert table.lat.tobytes() == np.array(lats).tobytes()
            assert table.lon.tobytes() == np.array(lons).tobytes()


def make_checkins(spec):
    """spec: list of (user, poi, t) -> the ParseResult a parser would give for it.

    Users and POIs are indexed by first appearance; coordinates are
    synthesized per POI.
    """
    users, pois = {}, {}
    rows = [(users.setdefault(u, len(users)), pois.setdefault(p, len(pois)), 1_500_000_000 + t, 0)
            for u, p, t in spec]
    table = PoiTable(pois, [(i + 1) * 0.5 for i in range(len(pois))],
                     [(i + 1) * 0.25 for i in range(len(pois))])
    columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return ParseResult(table, tuple(users), CheckIns(*columns), ())


def reference_filter(parsed, min_user, min_poi_users, fixpoint=False):
    """`filter_min_activity` written one check-in at a time, with dicts and sets."""
    ci = parsed.checkins
    checkins = [(parsed.user_ids[u], parsed.table.ids[p], t, z) for u, p, t, z in
                zip(ci.users.tolist(), ci.pois.tolist(), ci.times.tolist(), ci.tz.tolist())]

    def one_pass(checkins):
        user_counts = Counter(u for u, _, _, _ in checkins)
        kept_users = {u for u, n in user_counts.items() if n >= min_user}
        poi_users = {}
        for u, p, _, _ in checkins:
            if u in kept_users:
                poi_users.setdefault(p, set()).add(u)
        kept_pois = {p for p, us in poi_users.items() if len(us) >= min_poi_users}
        return [c for c in checkins if c[0] in kept_users and c[1] in kept_pois]

    kept = one_pass(checkins)
    while fixpoint:
        again = one_pass(kept)
        if len(again) == len(kept):
            break
        kept = again
    if not kept:
        raise BadInput("no check-ins survive activity filtering")
    user_index = {}
    for u, _, _, _ in kept:  # dense user ids in order of first appearance
        user_index.setdefault(u, len(user_index))
    surviving_pois = {p for _, p, _, _ in kept}
    pois = [(p, lat, lon) for p, lat, lon in zip(parsed.table.ids, parsed.table.lat.tolist(),
                                                 parsed.table.lon.tolist()) if p in surviving_pois]
    table = PoiTable(*zip(*pois))
    poi_index = {p: i for i, (p, _, _) in enumerate(pois)}
    # grouped by user, each user's check-ins by time; sorted is stable, so
    # tied timestamps keep file order
    rows = sorted(((user_index[u], poi_index[p], t, z) for u, p, t, z in kept),
                  key=lambda row: (row[0], row[2]))
    return Corpus(table, tuple(user_index), CheckIns(*np.array(rows, dtype=np.int64).T))


def assert_same_table(got, expected):
    """Same ids in the same order, and the same coordinates bit for bit."""
    assert got.ids == expected.ids
    for name in ("lat", "lon"):
        column, want = getattr(got, name), getattr(expected, name)
        assert column.dtype == want.dtype == np.float64 and column.tobytes() == want.tobytes()


def assert_same_corpus(got, expected):
    assert got.user_ids == expected.user_ids
    assert_same_table(got.poi_table, expected.poi_table)
    for name in ("users", "pois", "times", "tz"):
        np.testing.assert_array_equal(getattr(got.checkins, name), getattr(expected.checkins, name))
        assert getattr(got.checkins, name).dtype == np.int64


def assert_same_columns(got, expected):
    """Equal split codes and sample columns, each of the same dtype."""
    pairs = [(got.split, expected.split)] + [
        (getattr(got.samples, f.name), getattr(expected.samples, f.name))
        for f in fields(SampleBatch)]
    for column, want in pairs:
        assert column.dtype == want.dtype
        np.testing.assert_array_equal(column, want)


def random_checkins(seed, min_user, min_poi_users):
    """Seeded check-ins in shuffled file order with the filter's hard cases planted.

    Timestamps fall on 60 distinct seconds, so users have tied check-ins;
    "lonely" has `min_user` check-ins, all at POIs nobody else visits, so
    the POI pass empties it; "x" keeps one check-in at "weak" after the
    first pass, and only a second pass drops x and then "weak".
    """
    rng = np.random.default_rng(seed)
    spec = [(f"u{u}", f"p{rng.integers(10)}", int(rng.integers(60)))
            for u in range(15) for _ in range(int(rng.integers(1, 3 * min_user)))]
    spec += [(f"h{h}", f"p{rng.integers(10)}", int(rng.integers(60)))
             for h in range(min_poi_users - 1) for _ in range(min_user)]
    spec += [(f"h{h}", "weak", int(rng.integers(60))) for h in range(min_poi_users - 1)]
    spec += [("lonely", f"solo{i % 2}", int(rng.integers(60))) for i in range(min_user)]
    spec += [("x", "dying", int(rng.integers(60))) for _ in range(min_user - 1)]
    spec += [("x", "weak", int(rng.integers(60)))]
    return make_checkins([spec[i] for i in rng.permutation(len(spec))])


FSQ_FORMAT, GOW_FORMAT = "%a %b %d %H:%M:%S %z %Y", "%Y-%m-%dT%H:%M:%SZ"
DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
EDIT_CHARS = "0123456789 :+-TZtzaJ\t\u0663\u00b2"  # with an Arabic-Indic 3 and a superscript 2


def two_digits(lo, hi):
    """Mostly in [lo, hi], sometimes any two digits (out of range for the field)."""
    return st.one_of(st.integers(lo, hi), st.integers(0, 99)).map("{:02d}".format)


@st.composite
def foursquare_times(draw):
    day = draw(st.sampled_from(DAY_NAMES + ("tue", "Tuesday", "Xyz")))
    month = draw(st.sampled_from(MONTH_NAMES + ("apr", "Sept")))
    zone = draw(st.sampled_from("+-")) + draw(two_digits(0, 14)) + draw(two_digits(0, 59))
    return (f"{day} {month} {draw(two_digits(1, 31))} {draw(two_digits(0, 23))}:"
            f"{draw(two_digits(0, 59))}:{draw(two_digits(0, 59))} {zone} "
            f"{draw(st.integers(0, 9999)):04d}")


@st.composite
def gowalla_times(draw):
    return (f"{draw(st.integers(0, 9999)):04d}-{draw(two_digits(1, 12))}-"
            f"{draw(two_digits(1, 31))}T{draw(two_digits(0, 23))}:{draw(two_digits(0, 59))}:"
            f"{draw(two_digits(0, 59))}Z")


@st.composite
def mutated(draw, texts, chars=EDIT_CHARS):
    """A text of `texts` after up to two one-character edits, inserting or writing `chars`."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(chars))
        text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                                     text[:i] + c + text[i + 1:]]))
    return text


def outcome(decode, text):
    """The decoded value's repr (tzinfo included), or the error's text."""
    try:
        return repr(decode(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTimeDecoders:
    """The parsers decode timestamps without strptime where the layout is
    exact; every string must still decode to strptime's value or fail with
    strptime's error."""

    @settings(max_examples=500, deadline=None)
    @given(mutated(foursquare_times()))
    @example("Tue Apr 03 18:00:09 +0000 2012")
    @example("Mon Apr 02 18:00:09 -0430 2012")  # day name of another date, as strptime allows
    @example("Tue Apr 03 18:00:09 +0075 2012")  # strptime's %z takes minutes 00-59 only
    @example("Tue Apr 03 18:00:09 +2400 2012")
    @example("Tue Feb 29 18:00:09 +0000 2011")
    @example("Tue Apr 03 18:00:60 +0000 2012")
    @example("Tue Apr 03 18:00:09 +0000 0000")
    @example("Tue Apr 3 18:00:09 +0000 2012")
    def test_foursquare_agrees_with_strptime(self, text):
        assert outcome(_foursquare_time, text) == outcome(
            lambda t: datetime.strptime(t, FSQ_FORMAT), text)

    @settings(max_examples=500, deadline=None)
    @given(mutated(gowalla_times()))
    @example("2010-10-19T23:55:27Z")
    @example("2010-10-19t23:55:27z")
    @example("2010-02-29T23:55:27Z")
    @example("2010-10-19T24:55:27Z")
    def test_gowalla_agrees_with_strptime(self, text):
        assert outcome(_gowalla_time, text) == outcome(
            lambda t: datetime.strptime(t, GOW_FORMAT), text)


class TestFilter:
    def test_user_below_threshold_removed(self):
        spec = [("a", f"p{i}", i) for i in range(9)]  # 9 check-ins
        spec += [("b", f"p{i % 3}", 100 + i) for i in range(12)]
        # POIs p0..p2 get both users; keep thresholds small so only the
        # user rule bites
        corpus = filter_min_activity(make_checkins(spec), min_user=10, min_poi_users=1)
        assert corpus.user_ids == ("b",)
        assert corpus.n_checkins == 12

    def test_poi_distinct_user_criterion(self):
        # POI "hot" is visited 15 times but by only 3 distinct users, so it
        # falls to the distinct-user rule; "popular" has 4 users and stays
        spec = []
        for n, u in enumerate(("a", "b", "c")):
            spec += [(u, "hot", n * 100 + i) for i in range(5)]
            spec += [(u, f"solo-{u}-{i}", n * 100 + 50 + i) for i in range(5)]
        for n, u in enumerate(("d", "e", "f", "g")):
            spec += [(u, "popular", 1000 + n * 100 + i) for i in range(10)]
        parsed = make_checkins(spec)
        with pytest.raises(BadInput, match="^no check-ins survive activity filtering$"):
            filter_min_activity(parsed, min_user=10, min_poi_users=10)
        corpus = filter_min_activity(parsed, min_user=10, min_poi_users=4)
        assert corpus.poi_table.ids == ("popular",)
        assert sorted(corpus.user_ids) == ["d", "e", "f", "g"]
        assert corpus.n_checkins == 40

    def test_matches_bruteforce_recount(self):
        rng = np.random.default_rng(0)
        spec = [(f"u{rng.integers(20)}", f"p{rng.integers(15)}", int(t))
                for t in rng.integers(0, 10_000, size=400)]

        # oracle: independent two-line recount
        user_n = Counter(u for u, _, _ in spec)
        kept_users = {u for u, n in user_n.items() if n >= 10}
        poi_users = {}
        for u, p, _ in spec:
            if u in kept_users:
                poi_users.setdefault(p, set()).add(u)
        kept_pois = {p for p, us in poi_users.items() if len(us) >= 10}
        expected = [(u, p) for u, p, _ in spec if u in kept_users and p in kept_pois]

        corpus = filter_min_activity(make_checkins(spec), 10, 10)
        assert corpus.n_checkins == len(expected)
        assert set(corpus.poi_table.ids) == kept_pois and len(corpus.poi_table) == len(kept_pois)
        got_users = set(corpus.user_ids)
        assert got_users == {u for u, _ in expected}

    def test_fixpoint_mode_cascades_beyond_single_pass(self):
        # x leans on POI "dying"; losing it pulls x under the user threshold
        # only on the second pass, which then unravels everything
        spec = [("x", "dying", 0), ("x", "dying", 1), ("x", "dying", 2), ("x", "weak", 3)]
        for n, s in enumerate(("s1", "s2")):
            spec += [(s, "weak", 10 + n)]
            spec += [(s, "core", 20 + 3 * n + i) for i in range(3)]
        spec += [("s3", "core", 40 + i) for i in range(4)]
        parsed = make_checkins(spec)
        single = filter_min_activity(parsed, min_user=4, min_poi_users=3)
        assert sorted(single.user_ids) == ["s1", "s2", "s3", "x"]
        assert single.n_checkins == 13  # x keeps its one "weak" check-in
        with pytest.raises(BadInput, match="^no check-ins survive activity filtering$"):
            filter_min_activity(parsed, min_user=4, min_poi_users=3, fixpoint=True)

    def test_matches_per_checkin_reference(self):
        seen = Counter()
        for seed in range(30):
            min_user, min_poi_users = [(3, 2), (4, 3), (5, 4)][seed % 3]
            parsed = random_checkins(seed, min_user, min_poi_users)
            single = filter_min_activity(parsed, min_user, min_poi_users)
            full = filter_min_activity(parsed, min_user, min_poi_users, fixpoint=True)
            assert_same_corpus(single, reference_filter(parsed, min_user, min_poi_users))
            assert_same_corpus(full, reference_filter(parsed, min_user, min_poi_users, True))
            # the planted cases are really there
            assert "lonely" not in single.user_ids
            assert "x" in single.user_ids and "x" not in full.user_ids
            assert "weak" in single.poi_table.ids
            assert "weak" not in full.poi_table.ids
            ci = single.checkins
            seen["ties"] += bool(np.any((np.diff(ci.times) == 0) & (np.diff(ci.users) == 0)))
            # the first surviving check-in, not the first line, orders the users
            parse_order = tuple(sorted(single.user_ids, key=parsed.user_ids.index))
            seen["reordered"] += single.user_ids != parse_order
        assert seen["ties"] == 30 and seen["reordered"] > 0, seen


class TestSplit:
    def test_split_10(self):
        assert chronological_split(10) == (8, 9)

    def test_split_7(self):
        assert chronological_split(7) == (5, 6)

    def test_split_3(self):
        assert chronological_split(3) == (2, 2)

    def test_split_exact_floors_across_sizes(self):
        for t in range(1, 200):
            tr, va = chronological_split(t)
            assert tr == int(0.8 * t) or tr == (8 * t) // 10
            assert 0 <= tr <= va <= t
        # an array of counts gives the same floors, count by count
        trs, vas = chronological_split(np.arange(200))
        assert [(tr, va) for tr, va in zip(trs.tolist(), vas.tolist())] == \
            [chronological_split(t) for t in range(200)]

    def test_segments_match_per_checkin_reference(self):
        for seed in range(10):  # users of 1 to 14 check-ins, all kept
            corpus = filter_min_activity(random_checkins(seed, 5, 4), 1, 1)
            assert split_corpus(corpus).tolist() == reference_segments(corpus)


class TestTemporalPattern:
    def test_saturday_1130_worked_example(self):
        # Sat Aug 25 2018, 11:30 local, offset 0
        utc = int(datetime(2018, 8, 25, 11, 30, tzinfo=timezone.utc).timestamp())
        assert encode_temporal_pattern(utc, 0) == (0, 1, 0, 1, 0, 0, 0)

    def test_monday_0800_morning_boundary(self):
        utc = int(datetime(2018, 8, 27, 8, 0, tzinfo=timezone.utc).timestamp())
        assert encode_temporal_pattern(utc, 0) == (1, 0, 1, 0, 0, 0, 0)

    def test_sunday_2300_rest(self):
        utc = int(datetime(2018, 8, 26, 23, 0, tzinfo=timezone.utc).timestamp())
        assert encode_temporal_pattern(utc, 0) == (0, 1, 0, 0, 0, 0, 1)

    def test_timezone_offset_shifts_local_day(self):
        # 23:30 UTC Friday + 120 minutes = 01:30 Saturday local
        utc = int(datetime(2018, 8, 24, 23, 30, tzinfo=timezone.utc).timestamp())
        assert encode_temporal_pattern(utc, 0)[0] == 1  # Friday, weekday
        assert encode_temporal_pattern(utc, 120)[1] == 1  # local Saturday

    @given(st.integers(min_value=0, max_value=4_000_000_000),
           st.integers(min_value=-720, max_value=840))
    @example(0, -720)  # local time before 1970-01-01
    @example(22 * 3600, 0)  # 22:00 sharp: the night session has just ended
    @settings(max_examples=300)
    def test_exactly_two_bits(self, utc, tz):
        bits = encode_temporal_pattern(utc, tz)
        assert sum(bits[:2]) == 1
        assert sum(bits[2:]) == 1
        assert bits == reference_pattern(utc, tz)

    def test_every_weekday_and_half_hour_in_a_batch(self):
        # two users step through all 336 (weekday, half hour) cells of a local
        # week, one at UTC and one at -9:30, from a Monday midnight
        base = 18519 * 86400
        events = [[(k % 4, base - 60 * tz + 1800 * (k - 1), tz) for k in range(338)]
                  for tz in (0, -570)]
        batch = PreparedCorpus(corpus_from_events([(0, 0)] * 4, events), 1).samples
        utc, tz = batch.target_utc, np.array([0, -570])[batch.users]
        assert len(batch) == 2 * 336 and np.bincount(batch.users).tolist() == [336, 336]
        expected = [reference_pattern(t, z) for t, z in zip(utc.tolist(), tz.tolist())]
        assert batch.pattern.dtype == np.float64
        np.testing.assert_array_equal(batch.pattern, np.array(expected, dtype=np.float64))
        assert [s.pattern for s in batch] == expected


def reference_pattern(utc, tz):
    """The 7 bits of a timestamp, from `datetime`'s weekday and the local minute of the day."""
    local = datetime.fromtimestamp(utc + 60 * tz, tz=timezone.utc)
    minute = 60 * local.hour + local.minute
    session = 4  # rest
    for k, (lo, hi) in enumerate([(480, 690), (690, 840), (840, 1050), (1050, 1320)]):
        if lo <= minute < hi:
            session = k
    bits = [0] * 7
    bits[local.weekday() >= 5] = bits[2 + session] = 1
    return tuple(bits)


def random_corpus(seed, n_users=3, n_pois=6, t=12):
    """Random histories whose tz offsets move check-ins across local midnight."""
    rng = np.random.default_rng(seed)
    coords = [(float(x), float(y))
              for x, y in zip(rng.uniform(-50, 50, n_pois), rng.uniform(-120, 120, n_pois))]
    events = []
    for u in range(n_users):
        when = 1_500_000_000 + u * 111
        mine = []
        for i in range(t):
            when += int(rng.integers(900, 90_000))
            mine.append((int(rng.integers(n_pois)), when, 60 * int(rng.integers(-12, 14))))
        events.append(mine)
    return corpus_from_events(coords, events)


def reference_segments(corpus):
    """Each check-in's segment code, found one check-in at a time: with T
    check-ins, position i is train while the i + 1 check-ins up to it are at
    most 80% of T, then val while they are at most 90%."""
    users = corpus.checkins.users.tolist()
    lengths, seen, codes = Counter(users), Counter(), []
    for u in users:
        i, t = seen[u], lengths[u]
        seen[u] += 1
        codes.append(0 if 10 * (i + 1) <= 8 * t else 1 if 10 * (i + 1) <= 9 * t else 2)
    return codes


def reference_samples(corpus, w):
    """`build_samples` written one sample at a time, as its definition reads:
    the samples in row order, then grouped by split, stably."""
    ci = corpus.checkins
    users, pois, times, tz = (c.tolist() for c in (ci.users, ci.pois, ci.times, ci.tz))
    segments = reference_segments(corpus)
    samples = []
    for i in range(w, len(users) - w):
        if any(users[j] != users[i] for j in range(i - w, i + w + 1)):
            continue  # fewer than w check-ins of the user on one side
        samples.append(Sample(
            user=users[i],
            target_poi=pois[i],
            target_utc=times[i],
            pattern=encode_temporal_pattern(times[i], tz[i]),
            fwd=tuple(pois[i - k] for k in range(1, w + 1)),
            bwd=tuple(pois[i + k] for k in range(1, w + 1)),
            interval_before=(times[i] - times[i - 1]) / 3600.0,
            interval_after=(times[i + 1] - times[i]) / 3600.0,
            split=("train", "val", "test")[segments[i]],
        ))
    return sorted(samples, key=lambda s: ("train", "val", "test").index(s.split))


def assert_plain(s):
    """`s` holds plain Python values, as the per-sample path made them."""
    ints = (s.user, s.target_poi, s.target_utc, *s.pattern, *s.fwd, *s.bwd)
    assert {type(v) for v in ints} == {int}
    assert type(s.interval_before) is type(s.interval_after) is float
    assert type(s.split) is str and type(s.fwd) is type(s.pattern) is tuple


class TestBuildSamples:
    def test_matches_per_sample_reference(self):
        for seed in range(5):
            corpus = random_corpus(seed, n_users=6, t=int(5 + 4 * seed))
            for w in (1, 2, 3):
                samples = build_samples(corpus, split_corpus(corpus), w)
                assert list(samples) == reference_samples(corpus, w)
                for s in samples:
                    assert_plain(s)

    def test_rows_indexing_and_splits_match_the_reference(self):
        # t=900 puts more than one iteration block (4,096 rows) in the batch
        for seed, t in ((1, 9), (3, 17), (5, 900)):
            corpus = random_corpus(seed, n_users=6, t=t)
            for w in (1, 2, 3):
                prep = PreparedCorpus(corpus, w)
                batch, expected = prep.samples, reference_samples(corpus, w)
                assert len(batch) == len(expected) > 0
                rows = list(batch)
                assert rows == expected
                assert [batch[i] for i in np.arange(len(batch))] == expected  # numpy ints
                assert [batch[i] for i in range(-len(batch), 0)] == expected
                for i in (len(batch), -len(batch) - 1):
                    with pytest.raises(IndexError):
                        batch[i]
                for tag in ("train", "val", "test"):
                    part = list(prep.samples_for(tag))
                    assert part == [s for s in expected if s.split == tag]
                    rows += part
                for s in rows + [batch[0], batch[np.int64(-1)]]:
                    assert_plain(s)
                again = SampleBatch.from_samples(list(batch))
                for f in fields(SampleBatch):
                    column, want = getattr(again, f.name), getattr(batch, f.name)
                    assert column.dtype == want.dtype, f.name
                    np.testing.assert_array_equal(column, want, err_msg=f.name)
                assert SampleBatch.from_samples(batch) is batch

    def test_samples_for_is_a_view_of_its_rows(self):
        prep = PreparedCorpus(random_corpus(5, n_users=6, t=900), 1)
        batch = prep.samples
        assert len(batch) > 5000
        for code, tag in enumerate(("train", "val", "test")):
            tracemalloc.start()
            try:
                view = prep.samples_for(tag)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096  # a copy of the train rows would take 240 KB
            copy = batch.take(batch.split == code)
            assert 0 < len(view) == len(copy)
            for f in fields(SampleBatch):
                column = getattr(view, f.name)
                assert np.shares_memory(column, getattr(batch, f.name)), f.name
                np.testing.assert_array_equal(column, getattr(copy, f.name), err_msg=f.name)

    def test_a_split_view_cannot_write_into_the_corpus(self):
        prep = PreparedCorpus(random_corpus(1, n_users=6, t=17), 1)
        copy = prep.samples_for("val").take(np.arange(2))  # indices: a copy, read-only too
        assert not np.shares_memory(copy.users, prep.samples.users)
        for batch in (prep.samples, prep.samples_for("val"), copy):
            for f in fields(SampleBatch):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(batch, f.name)[0] = 1

    def test_ungrouped_samples_are_refused(self):
        # the samples cannot be handed in, so only an assignment could ungroup them
        prep = PreparedCorpus(random_corpus(3, n_users=6, t=17), 1)
        assert set(prep.samples.split.tolist()) == {0, 1, 2}
        backwards = prep.samples.take(np.arange(len(prep.samples))[::-1])
        with pytest.raises(FrozenInstanceError):
            prep.samples = backwards

    def corpus(self, t=5):
        coords = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        events = [[(i % 4, 1_500_000_000 + i * 7200, 0) for i in range(t)]]
        return corpus_from_events(coords, events)

    def test_window_1_boundaries(self):
        corpus = self.corpus(5)
        samples = build_samples(corpus, split_corpus(corpus), w=1)
        assert len(samples) == 3
        assert [s.target_poi for s in samples] == [1, 2, 3]

    def test_window_2_single_sample(self):
        corpus = self.corpus(5)
        samples = build_samples(corpus, split_corpus(corpus), w=2)
        assert len(samples) == 1
        s = samples[0]
        assert s.fwd == (1, 0) and s.bwd == (3, 0)  # t-1, t-2 and t+1, t+2

    def test_sample_count_formula(self):
        for t in (2, 3, 6, 11):
            corpus = self.corpus(t)
            for w in (1, 2, 3):
                n = len(build_samples(corpus, split_corpus(corpus), w))
                assert n == max(0, t - 2 * w)

    def test_context_crosses_boundary_into_val(self):
        corpus = self.corpus(10)  # train_end=8: first val target is position 8
        samples = build_samples(corpus, split_corpus(corpus), w=1)
        val = [s for s in samples if s.split == "val"]
        assert len(val) == 1
        s = val[0]
        assert s.target_poi == 8 % 4
        assert s.fwd == (7 % 4,)  # last train check-in feeds the window
        assert s.interval_before == pytest.approx(2.0)

    def test_intervals_nonnegative_and_hours(self):
        corpus = self.corpus(8)
        for s in build_samples(corpus, split_corpus(corpus), w=1):
            assert s.interval_before == pytest.approx(2.0)
            assert s.interval_after == pytest.approx(2.0)


class TestPatternCode:
    def test_every_code_round_trips_through_rows(self):
        _, _, sample = random_instance(0)
        rows = [replace(sample, pattern=tuple(c >> b & 1 for b in range(7))) for c in range(128)]
        batch = SampleBatch.from_samples(rows)
        assert batch.pattern_code.dtype == np.uint8
        np.testing.assert_array_equal(batch.pattern_code, np.arange(128))
        np.testing.assert_array_equal(batch.pattern, np.array([r.pattern for r in rows], float))
        assert list(batch) == rows
        assert [batch[i].pattern for i in range(128)] == [r.pattern for r in rows]

    @pytest.mark.parametrize("pattern", [(2, 0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, -1),
                                         (1, 0, 1, 0, 0, 0)])
    def test_a_pattern_that_is_not_seven_bits_is_refused(self, pattern):
        _, _, sample = random_instance(0)
        with pytest.raises(ValueError):
            SampleBatch.from_samples([sample, replace(sample, pattern=pattern)])

    @pytest.mark.parametrize("w", [1, 2])
    def test_a_sample_takes_42_plus_16_w_bytes(self, w):
        # eight bytes a column and a context POI, one for the pattern code and
        # one for the split: a float pattern would add 55
        batch = PreparedCorpus(overfit_corpus().corpus, w).samples
        size = sum(getattr(batch, f.name).nbytes for f in fields(batch))
        assert size == (42 + 16 * w) * len(batch) > 0


class TestPreparedCorpus:
    def test_is_built_from_the_corpus_and_the_window_only(self):
        assert list(inspect.signature(PreparedCorpus).parameters) == ["corpus", "window"]
        assert not hasattr(PreparedCorpus, "from_corpus") and not hasattr(ingest, "CorpusSplit")
        prep = PreparedCorpus(random_corpus(3, n_users=6, t=17), 2)
        assert prep.split.dtype == np.int8 and not prep.split.flags.writeable
        np.testing.assert_array_equal(prep.split, split_corpus(prep.corpus))
        assert prep.samples.fwd.shape[1] == 2
        for name in ("corpus", "window", "split", "samples"):
            with pytest.raises(FrozenInstanceError):
                setattr(prep, name, getattr(prep, name))

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_the_file_gives_back_the_split_and_samples(self, tmp_path, w):
        # Split and samples handed in beside the window could disagree with it:
        # planted_corpus(0)'s 876 width-1 samples, passed with window 2, came
        # back from the file as 852 width-2 samples.
        prep = PreparedCorpus(planted_corpus(0).corpus, w)
        assert prep.samples.fwd.shape == (len(prep.samples), w)
        write_corpus(tmp_path / "corpus.tsv", prep)
        back = load_corpus(tmp_path / "corpus.tsv")
        assert back.window == w
        assert_same_columns(back, prep)


def mutable_parts(value, path="value") -> list[str]:
    """Where `value` can change in place: each writable array, each list or
    dict, and each dataclass that is not frozen, found through tuples,
    dataclass fields and `PoiTable` attributes."""
    if isinstance(value, np.ndarray):
        return [path] if value.flags.writeable else []
    if isinstance(value, (list, dict)):
        return [path]
    if isinstance(value, tuple):
        return [p for i, held in enumerate(value) for p in mutable_parts(held, f"{path}[{i}]")]
    if not (is_dataclass(value) or isinstance(value, PoiTable)):
        return []
    found = []
    if is_dataclass(value) and not type(value).__dataclass_params__.frozen:
        found.append(f"{path} (not frozen)")
    for name, held in vars(value).items():
        found += mutable_parts(held, f"{path}.{name}")
    return found


class TestInputValuesAreImmutable:
    def test_the_walk_finds_each_kind_of_mutable_part(self):
        @dataclass
        class Loose:
            ids: list
            column: np.ndarray
            index: dict
            table: PoiTable

        table = PoiTable(["a"], [1.0], [2.0])
        table.lat = np.zeros(1)
        assert mutable_parts((Loose(["a"], np.zeros(2), {}, table),)) == [
            "value[0] (not frozen)", "value[0].ids", "value[0].column", "value[0].index",
            "value[0].table.lat"]

    def test_nothing_reachable_from_parse_prepare_load_or_fit_counts_can_change(self, tmp_path):
        parsed = parse_foursquare(write(tmp_path, "dump.tsv", foursquare_lines() + ["bad"]))
        assert parsed.malformed and len(parsed.user_ids) == 20
        prep = prepare(parsed, 1)
        write_corpus(tmp_path / "corpus.tsv", prep)
        loaded = load_corpus(tmp_path / "corpus.tsv")
        values = {
            "parsed": parsed,
            "prepared": prep,
            "loaded": loaded,
            "planted": PreparedCorpus(planted_corpus(0).corpus, 2),
            "counts": fit_counts(loaded.corpus, loaded.split),
            "taken": loaded.samples.take(np.arange(3)),
            "from_samples": SampleBatch.from_samples(list(loaded.samples_for("test"))),
            "row": SpatialRowCache(loaded.corpus.poi_table).row(0),
        }
        for name, value in values.items():
            assert mutable_parts(value, name) == []

    def test_the_array_a_column_views_cannot_be_written_either(self):
        # at the parent, this write succeeded and changed c.pois through its base
        a = np.zeros((4, 3), dtype=np.int64)
        c = CheckIns(*a)
        with pytest.raises(ValueError, match="read-only"):
            a[1, 0] = 5
        assert c.pois.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("source", ["PreparedCorpus", "prepare", "load_corpus"])
    def test_a_check_in_column_cannot_be_written(self, tmp_path, source):
        # at the parent, this write succeeded and left the split and the samples stale
        prep = PreparedCorpus(planted_corpus(0).corpus, 1)
        if source == "prepare":
            prep = prepare(parse_foursquare(write(tmp_path, "dump.tsv", foursquare_lines())), 1)
        elif source == "load_corpus":
            write_corpus(tmp_path / "corpus.tsv", prep)
            prep = load_corpus(tmp_path / "corpus.tsv")
        with pytest.raises(ValueError, match="read-only"):
            prep.corpus.checkins.pois[:] = 0
        assert isinstance(prep.corpus.user_ids, tuple)
        with pytest.raises(FrozenInstanceError):
            prep.corpus.user_ids = list(prep.corpus.user_ids)


class TestRoundTrips:
    def test_parse_filter_split_deterministic(self, tmp_path):
        lines = []
        rng = np.random.default_rng(3)
        for i in range(300):
            u = f"u{rng.integers(8)}"
            v = f"v{rng.integers(6)}"
            ts = datetime.fromtimestamp(1334000000 + int(rng.integers(0, 10_000_000)), tz=timezone.utc)
            when = ts.strftime("%a %b %d %H:%M:%S +0000 %Y")
            lines.append(fsq_line(user=u, venue=v, lat=40 + int(u[1:]) * 0.1, lon=-74, tz=-240, when=when))
        path = write(tmp_path, "det.tsv", lines)

        def run():
            return prepare(parse_foursquare(path), w=1, min_user=10, min_poi_users=2)

        a, b = run(), run()
        assert list(a.samples) == list(b.samples)
        np.testing.assert_array_equal(a.split, b.split)

    def test_corpus_file_round_trip(self, tmp_path):
        corpus = random_corpus(4)
        for w in (1, 2, 3):
            prep = PreparedCorpus(corpus, w)
            path = tmp_path / f"corpus{w}.tsv"
            write_corpus(path, prep)
            back = load_corpus(path)

            assert back.window == w
            assert list(back.samples) == list(prep.samples)  # bitwise: dataclass equality on floats
            assert hash(tuple(back.samples)) == hash(tuple(prep.samples))
            np.testing.assert_array_equal(back.split, prep.split)
            assert back.corpus.user_ids == prep.corpus.user_ids
            for name in ("users", "pois", "times", "tz"):
                np.testing.assert_array_equal(getattr(back.corpus.checkins, name),
                                              getattr(prep.corpus.checkins, name))
            assert_same_table(back.corpus.poi_table, prep.corpus.poi_table)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_corpus_round_trips_through_the_file(self, data):
        # ids drawn from any text a record can hold (no TAB, LF or CR), non-ASCII included;
        # histories with T = 0, and times and tz offsets at both ends of their ranges
        ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                      max_size=6)
        n_pois = data.draw(st.integers(1, 5))
        poi_ids = data.draw(st.lists(ids, min_size=n_pois, max_size=n_pois, unique=True))
        user_ids = tuple(data.draw(st.lists(ids, min_size=1, max_size=5)))
        times = st.one_of(st.sampled_from([0, 1, 4102444799, 4102444798]),
                          st.integers(0, 4102444799))
        rows = []
        for u in range(len(user_ids)):
            history = data.draw(st.lists(st.tuples(st.integers(0, n_pois - 1), times,
                                                   st.sampled_from([-720, 840, 0, -240, 330])),
                                         max_size=7))
            rows += [(u, p, t, z) for p, t, z in sorted(history, key=lambda row: row[1])]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        table = PoiTable(poi_ids, np.linspace(-90, 90, n_pois), np.linspace(180, -180, n_pois))
        repeats = [k for k, user_id in enumerate(user_ids) if user_id in user_ids[:k]]
        if repeats:  # no corpus, so no file, holds a repeated user id
            with pytest.raises(DuplicateUser, match="duplicate user id") as refused:
                Corpus(table, user_ids, CheckIns(*columns))
            k = refused.value.index
            assert k == repeats[0] and refused.value.first == user_ids.index(user_ids[k])
            return
        expected = PreparedCorpus(
            Corpus(table, user_ids, CheckIns(*columns)), data.draw(st.integers(1, 3)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            write_corpus(path, expected)
            back = load_corpus(path)
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            crlf = load_corpus(path)
        for got in (back, crlf):
            assert got.window == expected.window
            assert_same_corpus(got.corpus, expected.corpus)
            assert_same_columns(got, expected)

    @given(mutated(st.sampled_from(["C\t0\t1\t1500003600\t-240", "C\t0\t2\t1500007200\t840"]),
                   "0123456789-+ _\tCx\u00e9\u0663\n\r"))
    @settings(max_examples=300, deadline=None)
    @example("C\t0\t1\t-0\t0")  # by the rule, refused by the time-order check
    @example("C\t00\t0001\t001500003600\t-0240")  # leading zeros: still the one rule
    def test_the_block_check_accepts_exactly_the_per_line_rule(self, line):
        # one C line, edited; the file loads only if each of its C lines is C and
        # four integers by the rule, and a refusal names a line
        head = ["STDDP2\t1\t3\t1", "P\ta\t1.0\t2.0", "P\tb\t1.5\t2.5", "P\tc\t2.0\t3.0",
                "U\tu\t3", "C\t0\t0\t1500000000\t0"]
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "corpus.tsv", head + [line, "C\t0\t2\t1500090000\t0"])
            try:
                prep = load_corpus(path)
            except BadInput as exc:
                assert re.match(re.escape(str(path)) + r":[1-9][0-9]*: ", str(exc))
                return
        line = line.removesuffix("\r")  # then the file's LF: a CRLF line end
        parts = line.split("\t")
        assert parts[0] == "C" and all(re.fullmatch(r"-?[0-9]{1,18}", f) for f in parts[1:])
        assert [int(f) for f in parts[1:]] == [
            getattr(prep.corpus.checkins, name)[1] for name in ("users", "pois", "times", "tz")]

    def test_hand_written_file_with_empty_and_short_histories(self, tmp_path):
        # T = 0 for the first and last users, and T <= 2w for some users at
        # every w: they load, give no samples, and still get split codes
        lengths = {"none": 0, "a": 7, "b": 2, "c": 4, "d": 5, "e": 1, "last": 0}
        checkins = [(u, (3 * u + i) % 4, 1_500_000_000 + 5_400 * i + 97 * u, 60 * (u - 3))
                    for u, t in enumerate(lengths.values()) for i in range(t)]
        for w in (1, 2, 3):
            path = tmp_path / f"hand{w}.tsv"
            path.write_text("\n".join(
                [f"STDDP2\t{len(lengths)}\t4\t{w}"]
                + [f"P\tv{p}\t{40 + p / 8}\t{-74 + p / 16}" for p in range(4)]
                + [f"U\t{uid}\t{t}" for uid, t in lengths.items()]
                + ["C\t" + "\t".join(map(str, c)) for c in checkins]) + "\n", encoding="utf-8")
            prep = load_corpus(path)
            corpus = prep.corpus
            assert (corpus.n_users, corpus.n_pois, corpus.n_checkins) == (7, 4, 19)
            assert corpus.user_ids == tuple(lengths)
            assert prep.split.tolist() == reference_segments(corpus) == [
                0, 0, 0, 0, 0, 1, 2,  # a: T = 7, train_end 5, val_end 6
                0, 2,  # b: T = 2, train_end 1, val_end 1
                0, 0, 0, 2,  # c
                0, 0, 0, 0, 2,  # d
                2]  # e: T = 1, no train check-in
            assert list(prep.samples) == reference_samples(corpus, w)
            assert {s.user for s in prep.samples} == {1: {1, 3, 4}, 2: {1, 4}, 3: {1}}[w]

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        write_corpus(path, PreparedCorpus(random_corpus(1), 1))
        old = path.read_bytes()
        written = []

        class FailingId(str):
            def __format__(self, spec):  # the first U record: the P block is on disk
                written.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
                raise OSError("no space left on device")

        corpus = random_corpus(2, n_pois=2000)
        prep = PreparedCorpus(replace(corpus, user_ids=(FailingId("u0"), *corpus.user_ids[1:])), 1)
        with pytest.raises(OSError, match="no space"):
            write_corpus(path, prep)
        assert len(written) == 1 and written[0] > 0  # it failed partway through a temp file
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_corpus_file_magic_checked(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("NOTMAGIC\t1\t1\t1\n", encoding="utf-8")
        with pytest.raises(BadInput, match=f"^{re.escape(str(p))}:1: expected a STDDP2 record"):
            load_corpus(p)
