"""Check-in corpus ingestion.

Parses raw Foursquare/Gowalla check-in dumps, applies activity filtering,
splits each user's history chronologically 80/10/10, encodes the 7-bit
temporal pattern of a timestamp, and materializes identification samples
(one per check-in that has enough context on both sides).

A prepared corpus can be written to / read from a versioned TSV file
(magic "STDDP1"); see `write_corpus` for the exact layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .geodata import GeoPoint, PoiTable

log = logging.getLogger(__name__)

CORPUS_MAGIC = "STDDP1"

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
    """Prepared-corpus file is missing the magic header or is inconsistent."""


@dataclass(frozen=True)
class CheckIn:
    user_id: str
    poi_id: str
    utc_seconds: int
    tz_offset_minutes: int


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


@dataclass
class CorpusSplit:
    """Per-user (train_end, val_end) boundaries plus global sizes."""

    boundaries: list[tuple[int, int]]
    n_users: int
    n_pois: int


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
    table: PoiTable
    checkins: list[CheckIn]
    malformed: list[tuple[int, str]]  # (line number, reason)


def _check_ranges(utc_seconds: int, tz_offset: int) -> None:
    if not (_UTC_MIN <= utc_seconds < _UTC_MAX):
        raise MalformedLine(f"timestamp {utc_seconds} outside [1970, 2100)")
    if not (_TZ_MIN <= tz_offset <= _TZ_MAX):
        raise MalformedLine(f"tz offset {tz_offset} outside [{_TZ_MIN}, {_TZ_MAX}]")


def _parse_foursquare_line(parts: list[str]) -> tuple[CheckIn, GeoPoint]:
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
    return CheckIn(user_id, venue_id, utc_seconds, tz_offset), point


def _parse_gowalla_line(parts: list[str]) -> tuple[CheckIn, GeoPoint]:
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
    return CheckIn(user_id, loc_id, utc_seconds, 0), point


def _parse_file(path, line_parser) -> ParseResult:
    checkins: list[CheckIn] = []
    malformed: list[tuple[int, str]] = []
    poi_order: list[tuple[str, GeoPoint]] = []
    seen_pois: set[str] = set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                checkin, point = line_parser(line.split("\t"))
            except MalformedLine as exc:
                malformed.append((lineno, str(exc)))
                continue
            checkins.append(checkin)
            if checkin.poi_id not in seen_pois:
                # duplicates keep their first-seen coordinates
                seen_pois.add(checkin.poi_id)
                poi_order.append((checkin.poi_id, point))
    if malformed:
        log.warning("%s: skipped %d malformed lines (first: line %d, %s)",
                    path, len(malformed), malformed[0][0], malformed[0][1])
    if not checkins:
        raise EmptyCorpus(f"{path}: no valid check-ins")
    return ParseResult(PoiTable(poi_order), checkins, malformed)


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


def _one_filter_pass(
    checkins: list[CheckIn], min_user: int, min_poi_users: int
) -> list[CheckIn]:
    user_counts: dict[str, int] = {}
    for ci in checkins:
        user_counts[ci.user_id] = user_counts.get(ci.user_id, 0) + 1
    kept_users = {u for u, c in user_counts.items() if c >= min_user}

    poi_users: dict[str, set[str]] = {}
    for ci in checkins:
        if ci.user_id in kept_users:
            poi_users.setdefault(ci.poi_id, set()).add(ci.user_id)
    kept_pois = {p for p, us in poi_users.items() if len(us) >= min_poi_users}

    return [ci for ci in checkins if ci.user_id in kept_users and ci.poi_id in kept_pois]


def filter_min_activity(
    table: PoiTable,
    checkins: list[CheckIn],
    min_user: int = 10,
    min_poi_users: int = 10,
    fixpoint: bool = False,
) -> Corpus:
    """Drop low-activity users, then rarely-visited POIs; densely reindex.

    The default is a single ordered pass: users with fewer than `min_user`
    check-ins go first, then POIs visited by fewer than `min_poi_users`
    distinct remaining users (with all their check-ins). `fixpoint=True`
    repeats the pass until nothing changes. Users left with no check-ins
    after the POI drop are removed during reindexing.
    """
    if not checkins:
        raise EmptyCorpus("no check-ins to filter")
    kept = _one_filter_pass(checkins, min_user, min_poi_users)
    if fixpoint:
        while True:
            again = _one_filter_pass(kept, min_user, min_poi_users)
            if len(again) == len(kept):
                break
            kept = again
    if not kept:
        raise EmptyCorpus("no check-ins survive activity filtering")

    user_index: dict[str, int] = {}
    for ci in kept:  # dense user ids in order of first appearance
        if ci.user_id not in user_index:
            user_index[ci.user_id] = len(user_index)
    surviving_pois = {ci.poi_id for ci in kept}
    poi_entries = [(pid, pt) for pid, pt in table.entries if pid in surviving_pois]
    new_table = PoiTable(poi_entries)

    per_user: list[list[CheckIn]] = [[] for _ in user_index]
    for ci in kept:
        per_user[user_index[ci.user_id]].append(ci)

    histories = []
    for u, rows in enumerate(per_user):
        rows.sort(key=lambda ci: ci.utc_seconds)  # stable: ties keep file order
        histories.append(
            UserHistory(
                user=u,
                pois=np.array([new_table.index[ci.poi_id] for ci in rows], dtype=np.int64),
                times=np.array([ci.utc_seconds for ci in rows], dtype=np.int64),
                tz=np.array([ci.tz_offset_minutes for ci in rows], dtype=np.int64),
            )
        )
    user_ids = [uid for uid, _ in sorted(user_index.items(), key=lambda kv: kv[1])]
    return Corpus(new_table, user_ids, histories)


def chronological_split(history: UserHistory) -> tuple[int, int]:
    """(train_end, val_end): first 80% train, next 10% val, rest test.

    Integer arithmetic so the floors are exact: train_end = floor(0.8 T).
    """
    t = len(history)
    return (8 * t) // 10, (9 * t) // 10


def split_corpus(corpus: Corpus) -> CorpusSplit:
    return CorpusSplit(
        boundaries=[chronological_split(h) for h in corpus.histories],
        n_users=corpus.n_users,
        n_pois=corpus.n_pois,
    )


def encode_temporal_pattern(utc_seconds: int, tz_offset_minutes: int) -> tuple[int, ...]:
    """7-bit pattern of a timestamp in local time.

    Bits 0-1: weekday (Mon-Fri) / weekend. Bits 2-6: morning, noon,
    afternoon, night, rest, by the half-open sessions above. Exactly one bit
    of each group is set.
    """
    local = utc_seconds + 60 * tz_offset_minutes
    weekday = datetime.fromtimestamp(local, tz=timezone.utc).weekday()
    second_of_day = local % 86400
    bits = [0] * 7
    bits[1 if weekday >= 5 else 0] = 1
    session = 4  # rest
    for k, (lo, hi) in enumerate(_SESSION_BOUNDS):
        if lo <= second_of_day < hi:
            session = k
            break
    bits[2 + session] = 1
    return tuple(bits)


def _segment(i: int, train_end: int, val_end: int) -> str:
    if i < train_end:
        return "train"
    if i < val_end:
        return "val"
    return "test"


def build_samples(corpus: Corpus, split: CorpusSplit, w: int) -> list[Sample]:
    """One sample per position with >= w check-ins on each side.

    The split tag follows the target position; context windows may cross
    segment boundaries. Intervals are fractional hours and non-negative
    because histories are time-sorted.
    """
    if w < 1:
        raise ValueError("window width must be >= 1")
    samples = []
    for h, (train_end, val_end) in zip(corpus.histories, split.boundaries):
        pois, times, tz = h.pois, h.times, h.tz
        for i in range(w, len(h) - w):
            samples.append(
                Sample(
                    user=h.user,
                    target_poi=int(pois[i]),
                    target_utc=int(times[i]),
                    pattern=encode_temporal_pattern(int(times[i]), int(tz[i])),
                    fwd=tuple(int(pois[i - k]) for k in range(1, w + 1)),
                    bwd=tuple(int(pois[i + k]) for k in range(1, w + 1)),
                    interval_before=int(times[i] - times[i - 1]) / 3600.0,
                    interval_after=int(times[i + 1] - times[i]) / 3600.0,
                    split=_segment(i, train_end, val_end),
                )
            )
    return samples


@dataclass
class PreparedCorpus:
    corpus: Corpus
    split: CorpusSplit
    samples: list[Sample]
    window: int

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
    corpus = filter_min_activity(
        parse_result.table, parse_result.checkins, min_user, min_poi_users, fixpoint
    )
    split = split_corpus(corpus)
    return PreparedCorpus(corpus, split, build_samples(corpus, split, w), w)


def write_corpus(path, prepared: PreparedCorpus) -> None:
    """Write a prepared corpus as versioned TSV.

    Layout (UTF-8, one record per line):
      STDDP1 <N> <M> <w>                          header
      P <poi_id> <lat> <lon>                      x M, dense index = order
      U <user_id> <train_end> <val_end> <T>       x N, dense index = order
      C <user> <poi> <utc_seconds> <tz_minutes>   x total check-ins, per user in time order
      S <user> <target_poi> <target_utc> <pattern7> <fwd,...> <bwd,...>
        <interval_before_s> <interval_after_s> <split>  x samples

    Intervals are stored as exact integer seconds; floats (coordinates) use
    repr, so a round-trip reproduces every value bit-for-bit.
    """
    corpus, split = prepared.corpus, prepared.split
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CORPUS_MAGIC}\t{corpus.n_users}\t{corpus.n_pois}\t{prepared.window}\n")
        for ext_id, pt in corpus.poi_table.entries:
            fh.write(f"P\t{ext_id}\t{pt.lat!r}\t{pt.lon!r}\n")
        for uid, h, (tr, va) in zip(corpus.user_ids, corpus.histories, split.boundaries):
            fh.write(f"U\t{uid}\t{tr}\t{va}\t{len(h)}\n")
        for h in corpus.histories:
            for p, t, z in zip(h.pois, h.times, h.tz):
                fh.write(f"C\t{h.user}\t{p}\t{t}\t{z}\n")
        for s in prepared.samples:
            bits = "".join(str(b) for b in s.pattern)
            fwd = ",".join(str(p) for p in s.fwd)
            bwd = ",".join(str(p) for p in s.bwd)
            ib = round(s.interval_before * 3600.0)
            ia = round(s.interval_after * 3600.0)
            fh.write(
                f"S\t{s.user}\t{s.target_poi}\t{s.target_utc}\t{bits}\t{fwd}\t{bwd}"
                f"\t{ib}\t{ia}\t{s.split}\n"
            )


def load_corpus(path) -> PreparedCorpus:
    """Read a file written by `write_corpus`."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 4 or header[0] != CORPUS_MAGIC:
            raise BadCorpusFile(f"{path}: missing {CORPUS_MAGIC} header")
        n_users, n_pois, window = (int(x) for x in header[1:])

        entries = []
        for _ in range(n_pois):
            tag, ext_id, lat, lon = fh.readline().rstrip("\n").split("\t")
            if tag != "P":
                raise BadCorpusFile(f"{path}: expected P record, got {tag!r}")
            entries.append((ext_id, GeoPoint(float(lat), float(lon))))
        table = PoiTable(entries)

        user_ids, boundaries, lengths = [], [], []
        for _ in range(n_users):
            tag, uid, tr, va, t = fh.readline().rstrip("\n").split("\t")
            if tag != "U":
                raise BadCorpusFile(f"{path}: expected U record, got {tag!r}")
            user_ids.append(uid)
            boundaries.append((int(tr), int(va)))
            lengths.append(int(t))

        histories = []
        for u, t_len in enumerate(lengths):
            pois = np.empty(t_len, dtype=np.int64)
            times = np.empty(t_len, dtype=np.int64)
            tz = np.empty(t_len, dtype=np.int64)
            for j in range(t_len):
                tag, cu, p, ts, z = fh.readline().rstrip("\n").split("\t")
                if tag != "C" or int(cu) != u:
                    raise BadCorpusFile(f"{path}: check-in block out of order")
                pois[j], times[j], tz[j] = int(p), int(ts), int(z)
            histories.append(UserHistory(u, pois, times, tz))

        samples = []
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if parts[0] != "S" or len(parts) != 10:
                raise BadCorpusFile(f"{path}: bad sample record {parts[:2]}")
            _, u, tp, tu, bits, fwd, bwd, ib, ia, tag = parts
            samples.append(
                Sample(
                    user=int(u),
                    target_poi=int(tp),
                    target_utc=int(tu),
                    pattern=tuple(int(b) for b in bits),
                    fwd=tuple(int(x) for x in fwd.split(",")),
                    bwd=tuple(int(x) for x in bwd.split(",")),
                    interval_before=int(ib) / 3600.0,
                    interval_after=int(ia) / 3600.0,
                    split=tag,
                )
            )
    corpus = Corpus(table, user_ids, histories)
    split = CorpusSplit(boundaries, n_users, n_pois)
    return PreparedCorpus(corpus, split, samples, window)
