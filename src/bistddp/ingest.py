"""Check-in corpus ingestion.

Parses raw Foursquare/Gowalla check-in dumps, applies activity filtering,
splits each user's history chronologically 80/10/10, encodes the 7-bit
temporal pattern of a timestamp, and materializes identification samples
(one per check-in that has enough context on both sides).

A prepared corpus can be written to / read from a versioned TSV file
(magic "STDDP2"); see `write_corpus` for the exact layout. The file holds
the check-ins only: the split and the samples are rebuilt when it is read.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .geodata import GeoPoint, PoiTable

log = logging.getLogger(__name__)

CORPUS_MAGIC = "STDDP2"

_UTC_MIN = 0  # 1970-01-01
_UTC_MAX = 4102444800  # 2100-01-01
_TZ_MIN, _TZ_MAX = -720, 840

# Day sessions as half-open intervals in seconds of local day:
# morning [8:00,11:30), noon [11:30,14:00), afternoon [14:00,17:30),
# night [17:30,22:00), rest otherwise.
_SESSION_BOUNDS = [
    (8 * 3600, 11 * 3600 + 1800),
    (11 * 3600 + 1800, 14 * 3600),
    (14 * 3600, 17 * 3600 + 1800),
    (17 * 3600 + 1800, 22 * 3600),
]


class MalformedLine(ValueError):
    """A raw line that cannot be parsed into a check-in."""


class EmptyCorpus(ValueError):
    """No usable check-ins remain."""


class BadCorpusFile(ValueError):
    """A bad prepared-corpus file; the message names the file and line."""


@dataclass(frozen=True)
class CheckIns:
    """Check-ins as parallel int64 columns, row i holding check-in i."""

    users: np.ndarray  # user index
    pois: np.ndarray  # POI index
    times: np.ndarray  # UTC seconds
    tz: np.ndarray  # minutes east of UTC

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class UserHistory:
    """One user's check-ins, time-sorted, with dense POI indices."""

    user: int
    pois: np.ndarray  # int64, POI index per check-in
    times: np.ndarray  # int64, UTC seconds
    tz: np.ndarray  # int64, minutes east of UTC

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class Corpus:
    poi_table: PoiTable
    user_ids: list[str]
    histories: list[UserHistory]

    @property
    def n_users(self) -> int:
        return len(self.histories)

    @property
    def n_pois(self) -> int:
        return len(self.poi_table)

    @property
    def n_checkins(self) -> int:
        return sum(len(h) for h in self.histories)

    @classmethod
    def from_columns(cls, table: PoiTable, user_ids: list[str], checkins: CheckIns) -> "Corpus":
        """The corpus of `checkins`, which are grouped by user in index order and time-sorted."""
        cuts = np.cumsum(np.bincount(checkins.users, minlength=len(user_ids)))[:-1]
        histories = [
            UserHistory(u, p, t, z) for u, (p, t, z) in
            enumerate(zip(*(np.split(c, cuts) for c in (checkins.pois, checkins.times, checkins.tz))))
        ]
        return cls(table, user_ids, histories)


@dataclass
class CorpusSplit:
    """Per-user (train_end, val_end) boundaries."""

    boundaries: list[tuple[int, int]]


@dataclass(frozen=True)
class Sample:
    """One identification instance: rank all POIs for the missing check-in."""

    user: int
    target_poi: int
    target_utc: int
    pattern: tuple[int, ...]  # 7 bits: day kind (2) + session (5)
    fwd: tuple[int, ...]  # POIs at t-1 .. t-w
    bwd: tuple[int, ...]  # POIs at t+1 .. t+w
    interval_before: float  # hours, t_t - t_{t-1}
    interval_after: float  # hours, t_{t+1} - t_t
    split: str  # train | val | test


@dataclass(frozen=True)
class SampleBatch:
    """Samples as parallel arrays, row i holding sample i (struct of arrays)."""

    users: np.ndarray  # (B,) int64
    targets: np.ndarray  # (B,) int64
    fwd: np.ndarray  # (B, w) int64, POIs at t-1 .. t-w
    bwd: np.ndarray  # (B, w) int64, POIs at t+1 .. t+w
    interval_before: np.ndarray  # (B,) hours
    interval_after: np.ndarray  # (B,) hours
    pattern: np.ndarray  # (B, 7) float64 temporal pattern bits

    @classmethod
    def from_samples(cls, samples: list[Sample]) -> "SampleBatch":
        def column(name: str, dtype) -> np.ndarray:
            return np.array([getattr(s, name) for s in samples], dtype=dtype)

        return cls(
            users=column("user", np.int64),
            targets=column("target_poi", np.int64),
            fwd=column("fwd", np.int64),
            bwd=column("bwd", np.int64),
            interval_before=column("interval_before", np.float64),
            interval_after=column("interval_after", np.float64),
            pattern=column("pattern", np.float64),
        )

    def __len__(self) -> int:
        return len(self.users)

    def take(self, rows: np.ndarray | slice) -> "SampleBatch":
        """The samples at `rows` (indices or a slice), in that order."""
        return SampleBatch(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


@dataclass
class ParseResult:
    table: PoiTable  # POIs in order of first appearance
    user_ids: list[str]  # users in order of first appearance; `checkins.users` indexes it
    checkins: CheckIns  # in file order
    malformed: list[tuple[int, str]]  # (line number, reason)


def _check_ranges(utc_seconds: int, tz_offset: int) -> None:
    if not (_UTC_MIN <= utc_seconds < _UTC_MAX):
        raise MalformedLine(f"timestamp {utc_seconds} outside [1970, 2100)")
    if not (_TZ_MIN <= tz_offset <= _TZ_MAX):
        raise MalformedLine(f"tz offset {tz_offset} outside [{_TZ_MIN}, {_TZ_MAX}]")


def _parse_foursquare_line(parts: list[str]) -> tuple[str, str, int, int, GeoPoint]:
    if len(parts) != 8:
        raise MalformedLine(f"expected 8 tab-separated fields, got {len(parts)}")
    user_id, venue_id, _cat_id, _cat_name, lat_s, lon_s, tz_s, time_s = parts
    try:
        point = GeoPoint(float(lat_s), float(lon_s))
        tz_offset = int(tz_s)
        # e.g. "Tue Apr 03 18:00:09 +0000 2012"
        dt = datetime.strptime(time_s.strip(), "%a %b %d %H:%M:%S %z %Y")
    except ValueError as exc:
        raise MalformedLine(str(exc)) from None
    utc_seconds = int(dt.timestamp())
    _check_ranges(utc_seconds, tz_offset)
    return user_id, venue_id, utc_seconds, tz_offset, point


def _parse_gowalla_line(parts: list[str]) -> tuple[str, str, int, int, GeoPoint]:
    if len(parts) != 5:
        raise MalformedLine(f"expected 5 tab-separated fields, got {len(parts)}")
    user_id, time_s, lat_s, lon_s, loc_id = parts
    try:
        point = GeoPoint(float(lat_s), float(lon_s))
        # e.g. "2010-10-19T23:55:27Z"
        dt = datetime.strptime(time_s.strip(), "%Y-%m-%dT%H:%M:%SZ")
    except ValueError as exc:
        raise MalformedLine(str(exc)) from None
    utc_seconds = int(dt.replace(tzinfo=timezone.utc).timestamp())
    # the distribution carries no timezone; local time falls back to UTC
    _check_ranges(utc_seconds, 0)
    return user_id, loc_id, utc_seconds, 0, point


def _parse_file(path, line_parser) -> ParseResult:
    users: dict[str, int] = {}  # id -> index, in order of first appearance
    pois: dict[str, int] = {}
    points: list[GeoPoint] = []  # duplicates keep their first-seen coordinates
    columns = {name: array("q") for name in ("users", "pois", "times", "tz")}
    malformed: list[tuple[int, str]] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                user_id, poi_id, utc_seconds, tz_offset, point = line_parser(line.split("\t"))
            except MalformedLine as exc:
                malformed.append((lineno, str(exc)))
                continue
            poi = pois.setdefault(poi_id, len(pois))
            if poi == len(points):
                points.append(point)
            columns["users"].append(users.setdefault(user_id, len(users)))
            columns["pois"].append(poi)
            columns["times"].append(utc_seconds)
            columns["tz"].append(tz_offset)
    if malformed:
        log.warning("%s: skipped %d malformed lines (first: line %d, %s)",
                    path, len(malformed), malformed[0][0], malformed[0][1])
    if not users:
        raise EmptyCorpus(f"{path}: no valid check-ins")
    checkins = CheckIns(**{name: np.frombuffer(c, dtype=np.int64) for name, c in columns.items()})
    return ParseResult(PoiTable(list(zip(pois, points))), list(users), checkins, malformed)


def parse_foursquare(path) -> ParseResult:
    """Parse a Foursquare-style dump.

    Tab-separated, 8 columns: user id, venue id, category id, category name,
    latitude, longitude, tz offset in minutes, UTC time like
    "Tue Apr 03 18:00:09 +0000 2012". Bad lines are skipped and reported in
    the result's `malformed` list.
    """
    return _parse_file(path, _parse_foursquare_line)


def parse_gowalla(path) -> ParseResult:
    """Parse a Gowalla-style dump.

    Tab-separated, 5 columns: user, ISO-8601 UTC time, latitude, longitude,
    location id. Timezone offsets are absent and default to 0.
    """
    return _parse_file(path, _parse_gowalla_line)


def filter_min_activity(
    parsed: ParseResult,
    min_user: int = 10,
    min_poi_users: int = 10,
    fixpoint: bool = False,
) -> Corpus:
    """Drop low-activity users, then rarely-visited POIs; densely reindex.

    The default is a single ordered pass: users with fewer than `min_user`
    check-ins go first, then POIs visited by fewer than `min_poi_users`
    distinct remaining users (with all their check-ins). `fixpoint=True`
    repeats the pass until nothing changes. Users left with no check-ins
    after the POI drop are removed during reindexing: the survivors are
    numbered in order of first appearance, POIs keep their table order, and
    each history is time-sorted with ties in file order.
    """
    ci, n_users, n_pois = parsed.checkins, len(parsed.user_ids), len(parsed.table)
    if not len(ci):
        raise EmptyCorpus("no check-ins to filter")
    keep = np.ones(len(ci), dtype=bool)
    while True:
        before = np.count_nonzero(keep)
        keep &= (np.bincount(ci.users[keep], minlength=n_users) >= min_user)[ci.users]
        visits = np.unique(ci.pois[keep] * n_users + ci.users[keep])  # distinct (POI, user)
        keep &= (np.bincount(visits // n_users, minlength=n_pois) >= min_poi_users)[ci.pois]
        if not fixpoint or np.count_nonzero(keep) == before:
            break
    rows = np.flatnonzero(keep)
    if not len(rows):
        raise EmptyCorpus("no check-ins survive activity filtering")

    survivors, first = np.unique(ci.users[rows], return_index=True)
    survivors = survivors[np.argsort(first)]  # in order of first appearance
    user_index = np.zeros(n_users, dtype=np.int64)
    user_index[survivors] = np.arange(len(survivors))
    kept_pois = np.flatnonzero(np.bincount(ci.pois[rows], minlength=n_pois))
    poi_index = np.zeros(n_pois, dtype=np.int64)
    poi_index[kept_pois] = np.arange(len(kept_pois))

    users = user_index[ci.users[rows]]
    order = np.lexsort((ci.times[rows], users))  # stable: ties keep file order
    rows = rows[order]
    kept = CheckIns(users[order], poi_index[ci.pois[rows]], ci.times[rows], ci.tz[rows])
    table = PoiTable([parsed.table.entries[p] for p in kept_pois.tolist()])
    return Corpus.from_columns(table, [parsed.user_ids[u] for u in survivors.tolist()], kept)


def chronological_split(history: UserHistory) -> tuple[int, int]:
    """(train_end, val_end): first 80% train, next 10% val, rest test.

    Integer arithmetic so the floors are exact: train_end = floor(0.8 T).
    """
    t = len(history)
    return (8 * t) // 10, (9 * t) // 10


def split_corpus(corpus: Corpus) -> CorpusSplit:
    return CorpusSplit([chronological_split(h) for h in corpus.histories])


def temporal_patterns(utc: np.ndarray, tz: np.ndarray) -> np.ndarray:
    """(n, 7) int64 patterns of n timestamps (UTC seconds, tz minutes) in local time.

    Bits 0-1: weekday (Mon-Fri) / weekend. Bits 2-6: morning, noon,
    afternoon, night, rest, by the half-open sessions above. Exactly one bit
    of each group is set.
    """
    local = np.asarray(utc, dtype=np.int64) + 60 * np.asarray(tz, dtype=np.int64)
    weekday = (local // 86400 + 3) % 7  # Monday = 0; 1970-01-01 was a Thursday
    second_of_day = local % 86400
    session = np.full(len(local), 4)  # rest
    for k, (lo, hi) in enumerate(_SESSION_BOUNDS):
        session[(lo <= second_of_day) & (second_of_day < hi)] = k
    return np.hstack([np.eye(2, dtype=np.int64)[(weekday >= 5).astype(np.int64)],
                      np.eye(5, dtype=np.int64)[session]])


def encode_temporal_pattern(utc_seconds: int, tz_offset_minutes: int) -> tuple[int, ...]:
    """The 7-bit pattern of one timestamp: one row of `temporal_patterns`."""
    return tuple(temporal_patterns([utc_seconds], [tz_offset_minutes])[0].tolist())


_SEGMENTS = ("train", "val", "test")


def build_samples(corpus: Corpus, split: CorpusSplit, w: int) -> list[Sample]:
    """One sample per position with >= w check-ins on each side.

    The split tag follows the target position; context windows may cross
    segment boundaries. Intervals are fractional hours and non-negative
    because histories are time-sorted.
    """
    if w < 1:
        raise ValueError("window width must be >= 1")
    samples = []
    for h, boundaries in zip(corpus.histories, split.boundaries):
        n = len(h) - 2 * w  # targets are positions w .. w + n - 1
        if n <= 0:
            continue
        pois, times = h.pois.tolist(), h.times.tolist()
        hours = (np.diff(h.times) / 3600.0).tolist()  # hours[i]: t_{i+1} - t_i
        patterns = temporal_patterns(h.times[w:w + n], h.tz[w:w + n]).tolist()
        fwd = zip(*(pois[w - k:w - k + n] for k in range(1, w + 1)))
        bwd = zip(*(pois[w + k:w + k + n] for k in range(1, w + 1)))
        segments = np.searchsorted(boundaries, np.arange(w, w + n), side="right").tolist()
        samples.extend(  # positional, in Sample's field order
            Sample(h.user, target, utc, tuple(bits), f, b, before, after, _SEGMENTS[seg])
            for target, utc, bits, f, b, before, after, seg in zip(
                pois[w:w + n], times[w:w + n], patterns, fwd, bwd, hours[w - 1:], hours[w:],
                segments)
        )
    return samples


@dataclass
class PreparedCorpus:
    corpus: Corpus
    split: CorpusSplit
    samples: list[Sample]
    window: int

    @classmethod
    def from_corpus(cls, corpus: Corpus, w: int) -> "PreparedCorpus":
        """`corpus` with its per-user 80/10/10 split and its width-`w` samples."""
        split = split_corpus(corpus)
        return cls(corpus, split, build_samples(corpus, split, w), w)

    def samples_for(self, split: str) -> list[Sample]:
        return [s for s in self.samples if s.split == split]


def prepare(
    parse_result: ParseResult,
    w: int,
    min_user: int = 10,
    min_poi_users: int = 10,
    fixpoint: bool = False,
) -> PreparedCorpus:
    """Filter, split, and materialize samples from a parsed corpus."""
    corpus = filter_min_activity(parse_result, min_user, min_poi_users, fixpoint)
    return PreparedCorpus.from_corpus(corpus, w)


def write_corpus(path, prepared: PreparedCorpus) -> None:
    """Write a prepared corpus as versioned TSV.

    Layout (UTF-8, one tab-separated record per line):
      STDDP2 <N> <M> <w>                          header
      P <poi_id> <lat> <lon>                      x M, dense index = order
      U <user_id> <T>                             x N, dense index = order
      C <user> <poi> <utc_seconds> <tz_minutes>   x total check-ins, per user in time order

    The split and the samples are not stored: `load_corpus` rebuilds them
    from the check-ins and `w`. Floats (coordinates) use repr, so a
    round-trip reproduces every value bit-for-bit.
    """
    corpus = prepared.corpus
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CORPUS_MAGIC}\t{corpus.n_users}\t{corpus.n_pois}\t{prepared.window}\n")
        for ext_id, pt in corpus.poi_table.entries:
            fh.write(f"P\t{ext_id}\t{pt.lat!r}\t{pt.lon!r}\n")
        for uid, h in zip(corpus.user_ids, corpus.histories):
            fh.write(f"U\t{uid}\t{len(h)}\n")
        for h in corpus.histories:
            for p, t, z in zip(h.pois, h.times, h.tz):
                fh.write(f"C\t{h.user}\t{p}\t{t}\t{z}\n")


class _Lines:
    """The lines of a corpus file; errors name the file and the 1-based line."""

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            self.lines = fh.read().split("\n")
        if self.lines[-1]:
            raise self.error(len(self.lines) - 1, "no newline at the end of the file (truncated?)")
        del self.lines[-1]

    def error(self, i: int, message: str) -> BadCorpusFile:
        return BadCorpusFile(f"{self.path}:{i + 1}: {message}")

    def records(self, first: int, n: int, tag: str, n_fields: int) -> list[list[str]]:
        """The fields of the `n` `tag` records from line index `first`, column by column."""
        block = self.lines[first:first + n]
        fields = "\t".join(block).split("\t") if n else []
        if len(fields) != n * n_fields or fields[::n_fields].count(tag) != n:
            for i in range(first, first + n):  # find the line at fault
                if i == len(self.lines):
                    raise self.error(i, f"the file ends where a {tag} record should be")
                if self.lines[i].split("\t")[0] != tag or self.lines[i].count("\t") != n_fields - 1:
                    raise self.error(i, f"expected a {tag} record of {n_fields} fields, "
                                        f"got {self.lines[i][:60]!r}")
        return [fields[j::n_fields] for j in range(n_fields)]

    def column(self, first: int, texts: list[str], parse, what: str) -> np.ndarray:
        """`parse` (int or float) of `texts[k]`, from line `first + k`, as one array."""
        dtype = np.int64 if parse is int else np.float64
        try:
            return np.fromiter(map(parse, texts), dtype=dtype, count=len(texts))
        except (ValueError, OverflowError):
            for k, text in enumerate(texts):
                try:
                    np.fromiter([parse(text)], dtype=dtype)
                except (ValueError, OverflowError):
                    raise self.error(first + k, f"bad {what} {text!r}") from None
            raise

    def expect(self, ok: np.ndarray, first: int, describe) -> None:
        """Raise at line `first + k` for the first k where `ok[k]` is False."""
        bad = np.flatnonzero(~ok)
        if len(bad):
            raise self.error(first + int(bad[0]), describe(int(bad[0])))


def load_corpus(path) -> PreparedCorpus:
    """Read a file written by `write_corpus`; rebuild its split and samples.

    Raises `BadCorpusFile`, naming the file and line, for a record that
    `write_corpus` could not have written. Values are checked column by
    column, not line by line.
    """
    lines = _Lines(path)
    if lines.lines[:1] and lines.lines[0].split("\t")[0] == "STDDP1":
        raise lines.error(0, "a STDDP1 corpus file, which this version no longer reads; "
                             "re-run `bistddp prepare` to write it as STDDP2")
    n_users, n_pois, window = (int(lines.column(0, c, int, "count")[0])
                               for c in lines.records(0, 1, CORPUS_MAGIC, 4)[1:])
    if min(n_users, n_pois, window) < 1:
        raise lines.error(0, f"counts {n_users}, {n_pois}, {window} must be >= 1")

    ids, lat, lon = lines.records(1, n_pois, "P", 4)[1:]
    lat, lon = lines.column(1, lat, float, "latitude"), lines.column(1, lon, float, "longitude")
    lines.expect((-90 <= lat) & (lat <= 90) & (-180 <= lon) & (lon <= 180), 1,
                 lambda k: f"coordinates ({lat[k]}, {lon[k]}) out of range")
    first_k: dict[str, int] = {}
    lines.expect(np.array([first_k.setdefault(pid, k) == k for k, pid in enumerate(ids)]), 1,
                 lambda k: f"duplicate POI id {ids[k]!r} (first on line {first_k[ids[k]] + 2})")
    table = PoiTable([(p, GeoPoint(a, b)) for p, a, b in zip(ids, lat.tolist(), lon.tolist())])

    first = 1 + n_pois
    user_ids, lengths = lines.records(first, n_users, "U", 3)[1:]
    lengths = lines.column(first, lengths, int, "check-in count")
    lines.expect((0 <= lengths) & (lengths <= len(lines.lines)), first,
                 lambda k: f"check-in count {lengths[k]} out of range")

    first += n_users
    end = first + int(lengths.sum())
    users, pois, times, tz = (
        lines.column(first, texts, int, what) for texts, what in
        zip(lines.records(first, end - first, "C", 5)[1:], ("user", "POI", "timestamp", "tz"))
    )
    if len(lines.lines) > end:
        raise lines.error(end, "extra line after the last C record")
    owner = np.repeat(np.arange(n_users), lengths)
    lines.expect(users == owner, first,
                 lambda k: f"check-in of user {users[k]} out of user order (user {owner[k]} expected)")
    lines.expect((0 <= pois) & (pois < n_pois), first,
                 lambda k: f"POI {pois[k]} outside [0, {n_pois})")
    lines.expect((_UTC_MIN <= times) & (times < _UTC_MAX), first,
                 lambda k: f"timestamp {times[k]} outside [1970, 2100)")
    lines.expect((_TZ_MIN <= tz) & (tz <= _TZ_MAX), first,
                 lambda k: f"tz offset {tz[k]} outside [{_TZ_MIN}, {_TZ_MAX}]")
    in_order = np.ones(len(times), dtype=bool)
    in_order[1:] = (times[1:] >= times[:-1]) | (owner[1:] != owner[:-1])
    lines.expect(in_order, first,
                 lambda k: f"timestamp {times[k]} is earlier than the user's previous one")

    corpus = Corpus.from_columns(table, user_ids, CheckIns(users, pois, times, tz))
    return PreparedCorpus.from_corpus(corpus, window)
