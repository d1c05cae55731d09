from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistddp.geodata import GeoPoint, PoiTable
from bistddp.ingest import (
    CheckIns,
    Corpus,
    EmptyCorpus,
    ParseResult,
    PreparedCorpus,
    Sample,
    UserHistory,
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
from bistddp.synthetic import corpus_from_events


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
        assert res.checkins.users.tolist() == [0] and res.user_ids == ["u1"]
        assert res.checkins.pois.tolist() == [0] and res.table.external_id(0) == "v1"
        assert {c.dtype for c in (res.checkins.users, res.checkins.pois,
                                  res.checkins.times, res.checkins.tz)} == {np.dtype(np.int64)}
        assert res.table.point(0) == GeoPoint(40.7, -74.0)

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
        assert res.table.point(res.table.index["v9"]) == GeoPoint(10.0, 20.0)
        # POI indices follow first appearance; the rows point into the table
        assert res.checkins.pois.tolist() == [0, 0, 1]
        assert [e for e, _ in res.table.entries] == ["v9", "v2"]

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
        with pytest.raises(EmptyCorpus):
            parse_foursquare(write(tmp_path, "a.tsv", [""]))

    def test_gowalla_single_line(self, tmp_path):
        res = parse_gowalla(write(tmp_path, "g.tsv", [gow_line()]))
        expected = int(datetime(2010, 10, 19, 23, 55, 27, tzinfo=timezone.utc).timestamp())
        assert res.checkins.times.tolist() == [expected]
        assert res.checkins.tz.tolist() == [0]  # distribution carries no timezone
        assert res.user_ids == ["7"] and res.table.external_id(0) == "420315"

    def test_gowalla_bad_line_and_dedup(self, tmp_path):
        lines = [
            gow_line(loc="L1", lat=10.0),
            gow_line(loc="L1", lat=11.0),
            "bad line",
        ]
        res = parse_gowalla(write(tmp_path, "g.tsv", lines))
        assert len(res.checkins) == 2
        assert len(res.malformed) == 1
        assert res.table.point(res.table.index["L1"]) == GeoPoint(10.0, -97.7)
        assert res.checkins.pois.tolist() == [0, 0] and res.checkins.users.tolist() == [0, 0]


def make_checkins(spec):
    """spec: list of (user, poi, t) -> the ParseResult a parser would give for it.

    Users and POIs are indexed by first appearance; coordinates are
    synthesized per POI.
    """
    users, pois = {}, {}
    rows = [(users.setdefault(u, len(users)), pois.setdefault(p, len(pois)), 1_500_000_000 + t, 0)
            for u, p, t in spec]
    table = PoiTable([(p, GeoPoint((i + 1) * 0.5, (i + 1) * 0.25)) for i, p in enumerate(pois)])
    columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return ParseResult(table, list(users), CheckIns(*columns), [])


def reference_filter(parsed, min_user, min_poi_users, fixpoint=False):
    """`filter_min_activity` written one check-in at a time, with dicts and sets."""
    ci = parsed.checkins
    checkins = [(parsed.user_ids[u], parsed.table.external_id(p), t, z) for u, p, t, z in
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
        raise EmptyCorpus("no check-ins survive activity filtering")
    user_index = {}
    for u, _, _, _ in kept:  # dense user ids in order of first appearance
        user_index.setdefault(u, len(user_index))
    surviving_pois = {p for _, p, _, _ in kept}
    table = PoiTable([(p, pt) for p, pt in parsed.table.entries if p in surviving_pois])
    per_user = [[] for _ in user_index]
    for c in kept:
        per_user[user_index[c[0]]].append(c)
    histories = []
    for u, rows in enumerate(per_user):
        rows.sort(key=lambda c: c[2])  # stable: ties keep file order
        histories.append(UserHistory(
            u, *(np.array(col, dtype=np.int64) for col in
                 ([table.index[p] for _, p, _, _ in rows], [t for _, _, t, _ in rows],
                  [z for _, _, _, z in rows]))))
    return Corpus(table, list(user_index), histories)


def assert_same_corpus(got, expected):
    assert got.user_ids == expected.user_ids
    assert got.poi_table.entries == expected.poi_table.entries
    assert len(got.histories) == len(expected.histories)
    for a, b in zip(got.histories, expected.histories):
        assert a.user == b.user and type(a.user) is int
        for name in ("pois", "times", "tz"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert getattr(a, name).dtype == np.int64


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


class TestFilter:
    def test_user_below_threshold_removed(self):
        spec = [("a", f"p{i}", i) for i in range(9)]  # 9 check-ins
        spec += [("b", f"p{i % 3}", 100 + i) for i in range(12)]
        # POIs p0..p2 get both users; keep thresholds small so only the
        # user rule bites
        corpus = filter_min_activity(make_checkins(spec), min_user=10, min_poi_users=1)
        assert corpus.user_ids == ["b"]
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
        with pytest.raises(EmptyCorpus):
            filter_min_activity(parsed, min_user=10, min_poi_users=10)
        corpus = filter_min_activity(parsed, min_user=10, min_poi_users=4)
        kept_pois = {corpus.poi_table.external_id(i) for i in range(corpus.n_pois)}
        assert kept_pois == {"popular"}
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
        assert {corpus.poi_table.external_id(i) for i in range(corpus.n_pois)} == kept_pois
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
        with pytest.raises(EmptyCorpus):
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
            assert "weak" in dict(single.poi_table.entries)
            assert "weak" not in dict(full.poi_table.entries)
            seen["ties"] += any(np.any(np.diff(h.times) == 0) for h in single.histories)
            # the first surviving check-in, not the first line, orders the users
            parse_order = sorted(single.user_ids, key=parsed.user_ids.index)
            seen["reordered"] += single.user_ids != parse_order
        assert seen["ties"] == 30 and seen["reordered"] > 0, seen


def history(n, start=0, step=3600):
    events = [[(i % 3, start + i * step, 0) for i in range(n)]]
    coords = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    return corpus_from_events(coords, events).histories[0]


class TestSplit:
    def test_split_10(self):
        assert chronological_split(history(10)) == (8, 9)

    def test_split_7(self):
        assert chronological_split(history(7)) == (5, 6)

    def test_split_3(self):
        assert chronological_split(history(3)) == (2, 2)

    def test_split_exact_floors_across_sizes(self):
        for t in range(1, 200):
            tr, va = chronological_split(history(t))
            assert tr == int(0.8 * t) or tr == (8 * t) // 10
            assert 0 <= tr <= va <= t


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
        local = datetime.fromtimestamp(utc + 60 * tz, tz=timezone.utc)
        assert bits[1] == (local.weekday() >= 5)
        minute = 60 * local.hour + local.minute
        session = 4  # rest
        for k, (lo, hi) in enumerate([(480, 690), (690, 840), (840, 1050), (1050, 1320)]):
            if lo <= minute < hi:
                session = k
        assert bits[2 + session] == 1


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


def reference_samples(corpus, w):
    """`build_samples` written one sample at a time, as its definition reads."""
    samples = []
    for h in corpus.histories:
        train_end, val_end = chronological_split(h)
        for i in range(w, len(h) - w):
            samples.append(Sample(
                user=h.user,
                target_poi=int(h.pois[i]),
                target_utc=int(h.times[i]),
                pattern=encode_temporal_pattern(int(h.times[i]), int(h.tz[i])),
                fwd=tuple(int(h.pois[i - k]) for k in range(1, w + 1)),
                bwd=tuple(int(h.pois[i + k]) for k in range(1, w + 1)),
                interval_before=int(h.times[i] - h.times[i - 1]) / 3600.0,
                interval_after=int(h.times[i + 1] - h.times[i]) / 3600.0,
                split="train" if i < train_end else "val" if i < val_end else "test",
            ))
    return samples


class TestBuildSamples:
    def test_matches_per_sample_reference(self):
        for seed in range(5):
            corpus = random_corpus(seed, n_users=6, t=int(5 + 4 * seed))
            for w in (1, 2, 3):
                samples = build_samples(corpus, split_corpus(corpus), w)
                assert samples == reference_samples(corpus, w)
                for s in samples:  # plain Python values, as the per-sample path made
                    ints = (s.user, s.target_poi, s.target_utc, *s.pattern, *s.fwd, *s.bwd)
                    assert {type(v) for v in ints} == {int}
                    assert type(s.interval_before) is type(s.interval_after) is float
                    assert type(s.split) is str and type(s.fwd) is type(s.pattern) is tuple

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
        assert a.samples == b.samples
        assert a.split.boundaries == b.split.boundaries

    def test_corpus_file_round_trip(self, tmp_path):
        corpus = random_corpus(4)
        for w in (1, 2, 3):
            prep = PreparedCorpus.from_corpus(corpus, w)
            path = tmp_path / f"corpus{w}.tsv"
            write_corpus(path, prep)
            back = load_corpus(path)

            assert back.window == w
            assert back.samples == prep.samples  # bitwise: dataclass equality on floats
            assert hash(tuple(back.samples)) == hash(tuple(prep.samples))
            assert back.split.boundaries == prep.split.boundaries
            assert back.corpus.user_ids == prep.corpus.user_ids
            for a, b in zip(back.corpus.histories, prep.corpus.histories):
                np.testing.assert_array_equal(a.pois, b.pois)
                np.testing.assert_array_equal(a.times, b.times)
                np.testing.assert_array_equal(a.tz, b.tz)
            for i in range(6):
                assert back.corpus.poi_table.point(i) == prep.corpus.poi_table.point(i)

    def test_corpus_file_magic_checked(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("NOTMAGIC\t1\t1\t1\n", encoding="utf-8")
        from bistddp.ingest import BadCorpusFile
        with pytest.raises(BadCorpusFile):
            load_corpus(p)
