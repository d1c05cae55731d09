"""Check-in corpus ingestion.

Parses raw Foursquare/Gowalla check-in dumps, applies activity filtering,
splits each user's history chronologically 80/10/10, encodes the 7-bit
temporal pattern of a timestamp, and builds the identification samples
(one per check-in that has enough context on both sides). A corpus is its
POI table and check-in columns. `PreparedCorpus(corpus, w)` derives the rest
from it: the split, one int8 segment code per check-in, and the samples, one
`SampleBatch` grouped by split so that each split is a view of its rows. The
parsers collect values straight into columns; no step builds per-POI, per-user
or per-sample objects (`Sample` is a batch's row view, made on request). Every
value here is frozen when built: its arrays are read-only, its ids tuples. And
`CheckIns`, `PoiTable` and `Corpus` check their rules when built, from any source.

A prepared corpus can be written to / read from a versioned TSV file
(magic "STDDP2"); see `write_corpus` for the exact layout. The file holds
the check-ins only: the split and the samples are rebuilt when it is read.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import operator
import os
import re
from array import array
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone

import numpy as np

from .geodata import PoiTable, coordinate_error
from .numerics import BadInput, BadRow, Frozen, freeze

log = logging.getLogger(__name__)

CORPUS_MAGIC = "STDDP2"

_UTC_MIN = 0  # 1970-01-01
_UTC_MAX = 4102444800  # 2100-01-01
_TZ_MIN, _TZ_MAX = -720, 840  # see `_time_in_range`

# Day sessions as half-open intervals in seconds of local day:
# morning [8:00,11:30), noon [11:30,14:00), afternoon [14:00,17:30),
# night [17:30,22:00), rest otherwise.
_SESSION_BOUNDS = [
    (8 * 3600, 11 * 3600 + 1800),
    (11 * 3600 + 1800, 14 * 3600),
    (14 * 3600, 17 * 3600 + 1800),
    (17 * 3600 + 1800, 22 * 3600),
]


def _pattern_codes() -> np.ndarray:
    """Entry 48 * weekday + half hour: the temporal pattern code (bit b is
    pattern bit b) of a local weekday (Monday = 0) and half hour of the day,
    which fix it because every session bound is on a half hour."""
    day = np.where(np.arange(7) < 5, 1 << 0, 1 << 1)  # weekday, weekend
    session = np.full(48, 1 << 6)  # rest, where no session covers the half hour
    for k, (lo, hi) in enumerate(_SESSION_BOUNDS):
        session[lo // 1800:hi // 1800] = 1 << (2 + k)
    return (day[:, None] | session).astype(np.uint8).ravel()


_PATTERN_CODES = _pattern_codes()
_BIT_TUPLES = [tuple(c >> b & 1 for b in range(7)) for c in range(128)]  # bits of each 7-bit code
_BITS = np.array(_BIT_TUPLES, dtype=np.float64)  # row c: the 0/1 pattern of code c


class MalformedLine(ValueError):
    """A raw line that cannot be parsed into a check-in."""


@dataclass(frozen=True)
class CheckIns(Frozen):
    """Check-ins as parallel read-only columns, row i holding check-in i: four
    1-D int64 arrays of one length (BadInput if they are not)."""

    users: np.ndarray  # user index
    pois: np.ndarray  # POI index
    times: np.ndarray  # UTC seconds
    tz: np.ndarray  # minutes east of UTC

    def __post_init__(self):
        columns = [getattr(self, f.name) for f in fields(self)]  # users first, so its len is 1-D's
        if not all(isinstance(c, np.ndarray) and c.dtype == np.int64 and c.ndim == 1
                   and len(c) == len(self.users) for c in columns):
            got = ", ".join(f"{getattr(c, 'dtype', type(c).__name__)} {getattr(c, 'shape', '')}"
                            for c in columns)
            raise BadInput(f"check-in columns must be 1-D int64 arrays of one length, got {got}")
        super().__post_init__()

    def __len__(self) -> int:
        return len(self.times)


def _time_in_range(utc, tz):
    """The range rule of a check-in's time, UTC seconds in [1970, 2100) and tz
    offset in [-720, 840] minutes: whether `utc` and whether `tz` keep it, two
    bools for one check-in or two masks for columns."""
    return (_UTC_MIN <= utc) & (utc < _UTC_MAX), (_TZ_MIN <= tz) & (tz <= _TZ_MAX)


def time_error(utc_seconds: int, tz_offset: int) -> str | None:
    """Why a check-in's UTC seconds and tz offset in minutes break the range
    rule, or None if they do not."""
    utc_ok, tz_ok = _time_in_range(utc_seconds, tz_offset)
    if not utc_ok:
        return f"timestamp {utc_seconds} outside [1970, 2100)"
    if not tz_ok:
        return f"tz offset {tz_offset} outside [{_TZ_MIN}, {_TZ_MAX}]"
    return None


def _expect_owner(users: np.ndarray, owner: np.ndarray) -> None:
    """BadRow at the first check-in whose user is not `owner`'s, the user its row should hold."""
    BadRow.expect(users == owner, "check-in", lambda k: f"check-in of user {users[k]} out of "
                                                        f"user order (user {owner[k]} expected)")


@dataclass(frozen=True)
class Corpus(Frozen):
    """POIs, users, and check-ins, checked when built: at least one user; users
    in [0, N), grouped in index order, each one's times non-decreasing; POIs in
    [0, M); times in `time_error`'s range; user ids unique and free of TAB, LF
    and CR. A `BadRow` names the first check-in or user at fault. `build_samples`
    rests on these rules: a sample's context is its user's adjacent check-ins."""

    poi_table: PoiTable
    user_ids: tuple[str, ...]
    checkins: CheckIns

    def __post_init__(self):
        n, m, ci = len(self.user_ids), len(self.poi_table), self.checkins
        if not n:
            raise BadInput("a corpus needs at least one user")
        users, pois, times, tz = ci.users, ci.pois, ci.times, ci.tz
        # users in [0, N), grouped in index order: row k holds the user the counts put there
        counts = np.bincount(users.clip(0, n - 1), minlength=n)  # clipped: any user outside differs
        _expect_owner(users, np.repeat(np.arange(n), counts))
        BadRow.expect((0 <= pois) & (pois < m), "check-in",
                      lambda k: f"POI {pois[k]} outside [0, {m})")
        for ok in _time_in_range(times, tz):  # every timestamp, then every offset
            BadRow.expect(ok, "check-in", lambda k: time_error(times[k], tz[k]))
        BadRow.expect(np.r_[True, (np.diff(times) >= 0) | (np.diff(users) != 0)], "check-in",
                      lambda k: f"timestamp {times[k]} is earlier than the user's previous one")
        BadRow.expect_ids(self.user_ids, "user")
        super().__post_init__()

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_pois(self) -> int:
        return len(self.poi_table)

    @property
    def n_checkins(self) -> int:
        return len(self.checkins)


@dataclass(frozen=True)
class Sample:
    """One identification instance: rank all POIs for the missing check-in.
    A `SampleBatch` yields its rows as these, in plain Python values."""

    user: int
    target_poi: int
    pattern: tuple[int, ...]  # 7 bits: day kind (2) + session (5)
    fwd: tuple[int, ...]  # POIs at t-1 .. t-w
    bwd: tuple[int, ...]  # POIs at t+1 .. t+w
    interval_before: float  # hours, t_t - t_{t-1}
    interval_after: float  # hours, t_{t+1} - t_t
    split: str  # train | val | test


SPLITS = ("train", "val", "test")  # the split names, indexed by segment code
_BLOCK = 1 << 12  # rows per block: bounds the lists that iterating a batch and write_corpus make


@dataclass(frozen=True)
class SampleBatch(Frozen):
    """Samples as parallel arrays, row i holding sample i (struct of arrays)."""

    users: np.ndarray  # (B,) int64
    targets: np.ndarray  # (B,) int64
    fwd: np.ndarray  # (B, w) int64, POIs at t-1 .. t-w
    bwd: np.ndarray  # (B, w) int64, POIs at t+1 .. t+w
    interval_before: np.ndarray  # (B,) hours
    interval_after: np.ndarray  # (B,) hours
    pattern_code: np.ndarray  # (B,) uint8 temporal pattern code: bit b is pattern bit b
    split: np.ndarray  # (B,) int8 segment of the target: 0 train, 1 val, 2 test

    @property
    def pattern(self) -> np.ndarray:
        """(B, 7) float64 0/1 temporal pattern bits, built from the codes on each read."""
        return _BITS[self.pattern_code]

    @classmethod
    def from_samples(cls, samples: "SampleBatch | list[Sample]") -> "SampleBatch":
        """`samples` as one batch; a batch is returned as it is."""
        if isinstance(samples, SampleBatch):
            return samples

        def column(name: str, dtype) -> np.ndarray:
            return np.array([getattr(s, name) for s in samples], dtype=dtype)

        bits = column("pattern", np.int64).reshape(len(samples), 7)
        if not np.all((bits == 0) | (bits == 1)):
            raise BadInput("a sample's pattern bits must each be 0 or 1")

        return cls(
            users=column("user", np.int64),
            targets=column("target_poi", np.int64),
            fwd=column("fwd", np.int64),
            bwd=column("bwd", np.int64),
            interval_before=column("interval_before", np.float64),
            interval_after=column("interval_after", np.float64),
            pattern_code=(bits @ (1 << np.arange(7))).astype(np.uint8),
            split=np.array([SPLITS.index(s.split) for s in samples], dtype=np.int8),
        )

    def __len__(self) -> int:
        return len(self.users)

    def take(self, rows: np.ndarray | slice) -> "SampleBatch":
        """The samples at `rows` (indices, a boolean mask or a slice), in that
        order: a slice gives views of the columns, the others copies."""
        return SampleBatch(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def __getitem__(self, i) -> Sample:
        """Row `i` (an integer; negative counts from the end) as a `Sample`."""
        i = range(len(self))[operator.index(i)]
        return next(self._rows(slice(i, i + 1), {}))

    def __iter__(self):
        """The rows as `Sample`s, built a block at a time. Rows share one object
        per distinct user, context and pattern, so a list of them stays small."""
        shared: dict = {}
        for lo in range(0, len(self), _BLOCK):
            yield from self._rows(slice(lo, lo + _BLOCK), shared)

    def _rows(self, rows: slice, shared: dict):
        keep = shared.setdefault
        for u, target, code, fwd, bwd, before, after, seg in zip(
                self.users[rows].tolist(), self.targets[rows].tolist(),
                self.pattern_code[rows].tolist(),
                zip(*self.fwd[rows].T.tolist()), zip(*self.bwd[rows].T.tolist()),
                self.interval_before[rows].tolist(), self.interval_after[rows].tolist(),
                self.split[rows].tolist()):
            yield Sample(keep(u, u), target, _BIT_TUPLES[code], keep(fwd, fwd),
                         keep(bwd, bwd), before, after, SPLITS[seg])


@dataclass(frozen=True)
class ParseResult(Frozen):
    """A parsed dump as columns: the POI table, the users and the check-ins."""

    table: PoiTable  # POIs in order of first appearance, each with its first-seen coordinates
    user_ids: tuple[str, ...]  # users in order of first appearance; `checkins.users` indexes it
    checkins: CheckIns  # in file order
    malformed: tuple[tuple[int, str], ...]  # (line number, reason)


# The dumps' time layouts, exactly: C-locale names, two-digit fields, and
# offset minutes 00-59 as strptime's %z takes them.
_FOURSQUARE_TIME = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    r"([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2}) ([+-][0-9]{2}[0-5][0-9]) ([0-9]{4})")
_GOWALLA_TIME = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")
_MONTHS = {name: i for i, name in enumerate(
    ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"), 1)}


@functools.lru_cache(maxsize=64)
def _utc_offset(text: str) -> timezone:
    """The zone of a "+hhmm" / "-hhmm" offset, as strptime's %z builds it."""
    offset = timedelta(hours=int(text[1:3]), minutes=int(text[3:]))
    return timezone(-offset if text[0] == "-" else offset)


def _foursquare_time(text: str) -> datetime:
    """`datetime.strptime(text, "%a %b %d %H:%M:%S %z %Y")`, decoded from
    its fields when `text` has the exact layout "Tue Apr 03 18:00:09 +0000
    2012". Any other text, or a field out of range, goes to strptime, which
    accepts it or raises as it always did. Like strptime, this does not
    check the day name against the date."""
    match = _FOURSQUARE_TIME.fullmatch(text)
    if match:
        month, day, hour, minute, second, offset, year = match.groups()
        try:
            return datetime(int(year), _MONTHS[month], int(day), int(hour), int(minute),
                            int(second), tzinfo=_utc_offset(offset))
        except ValueError:
            pass
    return datetime.strptime(text, "%a %b %d %H:%M:%S %z %Y")


def _gowalla_time(text: str) -> datetime:
    """`datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")`, decoded from its
    fields when `text` has the exact layout "2010-10-19T23:55:27Z"; see
    `_foursquare_time`."""
    match = _GOWALLA_TIME.fullmatch(text)
    if match:
        try:
            return datetime(*map(int, match.groups()))
        except ValueError:
            pass
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")


def _parse_foursquare_line(parts: list[str]) -> tuple[str, str, int, int, float, float]:
    if len(parts) != 8:
        raise MalformedLine(f"expected 8 tab-separated fields, got {len(parts)}")
    user_id, venue_id, _cat_id, _cat_name, lat_s, lon_s, tz_s, time_s = parts
    try:
        lat, lon = float(lat_s), float(lon_s)
        tz_offset = int(tz_s)
        dt = _foursquare_time(time_s.strip())
    except ValueError as exc:
        raise MalformedLine(str(exc)) from None
    return user_id, venue_id, int(dt.timestamp()), tz_offset, lat, lon


def _parse_gowalla_line(parts: list[str]) -> tuple[str, str, int, int, float, float]:
    if len(parts) != 5:
        raise MalformedLine(f"expected 5 tab-separated fields, got {len(parts)}")
    user_id, time_s, lat_s, lon_s, loc_id = parts
    try:
        lat, lon = float(lat_s), float(lon_s)
        dt = _gowalla_time(time_s.strip())
    except ValueError as exc:
        raise MalformedLine(str(exc)) from None
    # the distribution carries no timezone; local time falls back to UTC
    return user_id, loc_id, int(dt.replace(tzinfo=timezone.utc).timestamp()), 0, lat, lon


def _parse_file(path, line_parser) -> ParseResult:
    users: dict[str, int] = {}  # id -> index, in order of first appearance
    pois: dict[str, int] = {}
    columns = {name: array("q") for name in ("users", "pois", "times", "tz")}
    lats, lons = array("d"), array("d")  # per POI: duplicates keep their first-seen coordinates
    malformed: list[tuple[int, str]] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                user_id, poi_id, utc_seconds, tz_offset, lat, lon = line_parser(line.split("\t"))
                if error := coordinate_error(lat, lon) or time_error(utc_seconds, tz_offset):
                    raise MalformedLine(error)
            except MalformedLine as exc:
                malformed.append((lineno, str(exc)))
                continue
            poi = pois.setdefault(poi_id, len(pois))
            if poi == len(lats):
                lats.append(lat)
                lons.append(lon)
            columns["users"].append(users.setdefault(user_id, len(users)))
            columns["pois"].append(poi)
            columns["times"].append(utc_seconds)
            columns["tz"].append(tz_offset)
    if malformed:
        log.warning("%s: skipped %d malformed lines (first: line %d, %s)",
                    path, len(malformed), malformed[0][0], malformed[0][1])
    if not users:
        raise BadInput(f"{path}: no valid check-ins")
    checkins = CheckIns(**{name: np.frombuffer(c, dtype=np.int64) for name, c in columns.items()})
    table = PoiTable(pois, np.frombuffer(lats), np.frombuffer(lons))
    return ParseResult(table, tuple(users), checkins, tuple(malformed))


def parse_foursquare(path) -> ParseResult:
    """Parse a Foursquare-style dump.

    Tab-separated, 8 columns: user id, venue id, category id, category name,
    latitude, longitude, tz offset in minutes, UTC time like
    "Tue Apr 03 18:00:09 +0000 2012". Bad lines are skipped and reported in
    the result's `malformed` tuple.
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
        raise BadInput("no check-ins to filter")
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
        raise BadInput("no check-ins survive activity filtering")

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
    ids, lat, lon = parsed.table.ids, parsed.table.lat, parsed.table.lon
    table = PoiTable([ids[p] for p in kept_pois.tolist()], lat[kept_pois], lon[kept_pois])
    return Corpus(table, tuple(parsed.user_ids[u] for u in survivors.tolist()), kept)


def chronological_split(t):
    """(train_end, val_end) = exactly (floor(0.8 T), floor(0.9 T)) for T = `t`, a count or an
    array of counts: the first 80% of a history is train, the next 10% val, the rest test."""
    return (8 * t) // 10, (9 * t) // 10


def split_corpus(corpus: Corpus) -> np.ndarray:
    """Each check-in's segment, from its position in its user's history: a
    (n_checkins,) int8 array of 0 train, 1 val, 2 test (indexes `SPLITS`)."""
    users = corpus.checkins.users
    lengths = np.bincount(users, minlength=corpus.n_users)
    position = np.arange(len(users)) - (np.cumsum(lengths) - lengths)[users]
    train_end, val_end = chronological_split(lengths)
    return (position >= train_end[users]).astype(np.int8) + (position >= val_end[users])


def _pattern_index(utc: np.ndarray, tz: np.ndarray) -> np.ndarray:
    """The `_PATTERN_CODES` entry of n timestamps (UTC seconds, tz minutes) in local time."""
    day, second = np.divmod(np.asarray(utc, dtype=np.int64) + 60 * np.asarray(tz, dtype=np.int64),
                            86400)
    return (day + 3) % 7 * 48 + second // 1800  # 1970-01-01 was a Thursday


def encode_temporal_pattern(utc_seconds: int, tz_offset_minutes: int) -> tuple[int, ...]:
    """The 7-bit pattern of one timestamp (UTC seconds, tz minutes) in local time, the
    bits of its `SampleBatch.pattern` row. Bits 0-1: weekday (Mon-Fri) / weekend.
    Bits 2-6: morning, noon, afternoon, night, rest, by the half-open sessions above.
    """
    return _BIT_TUPLES[_PATTERN_CODES[_pattern_index(utc_seconds, tz_offset_minutes)]]


def build_samples(corpus: Corpus, split: np.ndarray, w: int) -> SampleBatch:
    """One sample per check-in with >= w check-ins of its user on each side,
    grouped by split: the train samples, then val, then test, each group in
    row order.

    `split` is `split_corpus(corpus)`, one segment code per check-in. Each
    sample's split code is its target's segment; context windows may
    cross segment boundaries. Intervals are fractional hours and
    non-negative because `Corpus` keeps each user's check-ins time-sorted.
    """
    if w < 1:
        raise BadInput("window width must be >= 1")
    ci = corpus.checkins
    # `Corpus` keeps users contiguous: rows i - w and i + w of one user enclose only its rows
    span = max(len(ci) - 2 * w, 0)
    targets = w + np.flatnonzero(ci.users[:span] == ci.users[2 * w:])
    targets = targets[np.argsort(split[targets], kind="stable")]  # train, val, test
    # a window wider than any history has no samples and builds no (w,) offsets
    offsets = np.arange(1, w + 1 if len(targets) else 1)
    hours = np.diff(ci.times) / 3600.0  # hours[i]: t_{i+1} - t_i
    return SampleBatch(
        users=ci.users[targets],
        targets=ci.pois[targets],
        fwd=ci.pois[targets[:, None] - offsets].reshape(len(targets), w),
        bwd=ci.pois[targets[:, None] + offsets].reshape(len(targets), w),
        interval_before=hours[targets - 1],
        interval_after=hours[targets],
        pattern_code=_PATTERN_CODES[_pattern_index(ci.times[targets], ci.tz[targets])],
        split=split[targets],
    )


@dataclass(frozen=True)
class PreparedCorpus:
    """`corpus` with what its check-ins and `window` determine: its per-user
    80/10/10 `split` and its width-`window` `samples`, grouped by split."""

    corpus: Corpus
    window: int
    split: np.ndarray = field(init=False)  # (n_checkins,) int8 segment codes
    samples: SampleBatch = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "split", freeze(split_corpus(self.corpus)))
        object.__setattr__(self, "samples", build_samples(self.corpus, self.split, self.window))

    def samples_for(self, split: str) -> SampleBatch:
        """The samples whose target is in `split` (train, val or test), in row
        order: a view of their rows of `samples`, not a copy."""
        code = SPLITS.index(split)
        lo, hi = np.searchsorted(self.samples.split, np.array([code, code + 1], dtype=np.int8))
        return self.samples.take(slice(lo, hi))


def prepare(
    parse_result: ParseResult,
    w: int,
    min_user: int = 10,
    min_poi_users: int = 10,
    fixpoint: bool = False,
) -> PreparedCorpus:
    """Filter, split, and materialize samples from a parsed corpus."""
    corpus = filter_min_activity(parse_result, min_user, min_poi_users, fixpoint)
    return PreparedCorpus(corpus, w)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file in `path`'s directory for writing (text in UTF-8,
    or bytes for mode "wb"); it replaces `path` only when the block completes,
    so `path` never holds a partial file and a failed write leaves none behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed
            os.unlink(tmp)


def write_corpus(path, prepared: PreparedCorpus) -> None:
    """Write a prepared corpus as versioned TSV.

    Layout (UTF-8, one tab-separated record per line):
      STDDP2 <N> <M> <w>                          header
      P <poi_id> <lat> <lon>                      x M, dense index = order
      U <user_id> <T>                             x N, dense index = order
      C <user> <poi> <utc_seconds> <tz_minutes>   x total check-ins, per user in time order

    The split and the samples are not stored: `load_corpus` rebuilds them
    from the check-ins and `w`. Floats (coordinates) use repr, so a
    round-trip reproduces every value bit-for-bit. The file is written
    through `atomic_open`.
    """
    corpus, ci, table = prepared.corpus, prepared.corpus.checkins, prepared.corpus.poi_table
    lengths = np.bincount(ci.users, minlength=corpus.n_users)
    with atomic_open(path) as fh:
        fh.write(f"{CORPUS_MAGIC}\t{corpus.n_users}\t{corpus.n_pois}\t{prepared.window}\n")
        fh.writelines(f"P\t{poi_id}\t{lat!r}\t{lon!r}\n" for poi_id, lat, lon in
                      zip(table.ids, table.lat.tolist(), table.lon.tolist()))
        fh.writelines(f"U\t{uid}\t{n}\n" for uid, n in zip(corpus.user_ids, lengths.tolist()))
        for lo in range(0, len(ci), _BLOCK):
            fh.writelines(f"C\t{u}\t{p}\t{t}\t{z}\n" for u, p, t, z in zip(
                *(c[lo:lo + _BLOCK].tolist() for c in (ci.users, ci.pois, ci.times, ci.tz))))


# The one rule for every integer field of a corpus file, the only form `write_corpus` writes
_INTEGER = re.compile(r"-?[0-9]{1,18}")
_TAB, _LF, _C, _MINUS, _ZERO, _NINE = b"\t\nC-09"


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


class _Lines:
    """The lines of a corpus file, kept as its bytes and decoded only where
    asked; errors name the file and the 1-based line. CRLF and CR line ends
    read as LF, as text mode reads them."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.data, self.bytes = data, np.frombuffer(data, dtype=np.uint8)
        self.ends = np.flatnonzero(self.bytes == _LF)  # the LF of each line
        self.count = len(self.ends)
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start)
                raise self.error(line, f"not UTF-8: byte 0x{data[exc.start]:02x} at column "
                                       f"{exc.start - self.start(line) + 1}") from None
        if len(data) > self.start(self.count):
            raise self.error(self.count, "no newline at the end of the file (truncated?)")

    def error(self, i: int, message: str) -> BadInput:
        return BadInput(f"{self.path}:{i + 1}: {message}")

    def start(self, i: int) -> int:
        """The offset of line index `i` (of the end of the file, for `i = count`)."""
        return int(self.ends[i - 1]) + 1 if i else 0

    def text(self, first: int, n: int) -> list[str]:
        """Lines `first` .. `first + n - 1`, as far as the file goes."""
        n = max(min(n, self.count - first), 0)
        return self.data[self.start(first):self.start(first + n)].decode("utf-8").split("\n")[:n]

    def records(self, first: int, n: int, tag: str, n_fields: int) -> list[list[str]]:
        """The fields of the `n` `tag` records from line index `first`, column by column."""
        lines = self.text(first, n)
        fields = "\t".join(lines).split("\t") if n else []
        if len(fields) != n * n_fields or fields[::n_fields].count(tag) != n:
            for k in range(n):  # find the line at fault
                if k == len(lines):
                    raise self.error(first + k, f"the file ends where a {tag} record should be")
                if lines[k].split("\t")[0] != tag or lines[k].count("\t") != n_fields - 1:
                    raise self.error(first + k, f"expected a {tag} record of {n_fields} fields, "
                                                f"got {lines[k][:60]!r}")
        return [fields[j::n_fields] for j in range(n_fields)]

    def column(self, first: int, texts: list[str], parse, what: str) -> np.ndarray:
        """`parse` (int, by the one integer rule, or float) of `texts[k]`, from
        line `first + k`, as one array."""
        dtype, parse = (np.int64, _integer) if parse is int else (np.float64, parse)
        try:
            return np.fromiter(map(parse, texts), dtype=dtype, count=len(texts))
        except ValueError:
            for k, text in enumerate(texts):
                try:
                    parse(text)
                except ValueError:
                    raise self.error(first + k, f"bad {what} {text!r}") from None
            raise

    def checkins(self, first: int, n: int) -> np.ndarray:
        """The user, POI, timestamp and tz columns, (4, n) int64, of the `n` C
        records from line index `first`. The block is checked and parsed as a
        whole; only a bad block is read line by line, to name its first bad line."""
        columns = self._checkin_block(first, n)
        if columns is None:
            for texts, what in zip(self.records(first, n, "C", 5)[1:],
                                   ("user", "POI", "timestamp", "tz")):
                self.column(first, texts, int, what)
            raise AssertionError(f"{self.path}: the C block fails its check, but no line does")
        return columns

    def _checkin_block(self, first: int, n: int) -> np.ndarray | None:
        """The columns if every line is C, TAB, then four TAB-separated integers, LF; else None."""
        if first + n > self.count:
            return None
        if n == 0:
            return np.zeros((4, 0), dtype=np.int64)
        lo, hi = self.start(first), self.start(first + n)
        codes, ends = self.bytes[lo:hi], self.ends[first:first + n] - lo
        starts = np.concatenate(([0], ends[:-1] + 1))
        tabs = np.flatnonzero(codes == _TAB)
        if len(tabs) != 4 * n:
            return None
        tabs = tabs.reshape(n, 4)  # row i is line i's tabs if the first and last lie in line i
        if not (np.array_equal(tabs[:, 0], starts + 1) and np.all(tabs[:, 3] < ends)
                and np.all(codes[starts] == _C)):
            return None
        minus = codes[tabs + 1] == _MINUS
        digits = np.column_stack((tabs[:, 1:], ends)) - tabs - 1 - minus
        # above the digits only the n Cs, below them only the TABs, the LFs and those minus signs
        if not (np.all((1 <= digits) & (digits <= 18))
                and np.count_nonzero(codes > _NINE) == n
                and np.count_nonzero(codes < _ZERO) == 5 * n + np.count_nonzero(minus)):
            return None
        values = np.fromstring(self.data[lo:hi].replace(b"C", b" "), dtype=np.int64, sep=" ")
        return values.reshape(n, 4).T.copy()


def load_corpus(path) -> PreparedCorpus:
    """Read a file written by `write_corpus`; rebuild its split and samples.

    This checks the file's own rules: UTF-8, lines ending in LF, CRLF or CR,
    each record's tag and field count, integers as ASCII digits with an
    optional leading "-" (at most 18), floats, header counts >= 1, U counts
    that match the C records, and no line after the last C record. `PoiTable`,
    `CheckIns` and `Corpus` check the values as they are built. Either way a
    `BadInput` names the file and line at fault; checks go column by column.
    """
    lines = _Lines(path)
    if [line.split("\t")[0] for line in lines.text(0, 1)] == ["STDDP1"]:
        raise lines.error(0, "a STDDP1 corpus file, which this version no longer reads; "
                             "re-run `bistddp prepare` to write it as STDDP2")
    n_users, n_pois, window = (int(lines.column(0, c, int, "count")[0])
                               for c in lines.records(0, 1, CORPUS_MAGIC, 4)[1:])
    if min(n_users, n_pois, window) < 1:
        raise lines.error(0, f"counts {n_users}, {n_pois}, {window} must be >= 1")
    start = {"POI": 1, "user": 1 + n_pois, "check-in": 1 + n_pois + n_users}  # row 0's line index

    ids, lat, lon = lines.records(start["POI"], n_pois, "P", 4)[1:]
    lat = lines.column(start["POI"], lat, float, "latitude")
    lon = lines.column(start["POI"], lon, float, "longitude")
    user_ids, lengths = lines.records(start["user"], n_users, "U", 3)[1:]
    lengths = lines.column(start["user"], lengths, int, "check-in count")
    if len(bad := np.flatnonzero((lengths < 0) | (lengths > lines.count))):
        raise lines.error(start["user"] + bad[0], f"check-in count {lengths[bad[0]]} out of range")
    end = start["check-in"] + int(lengths.sum())
    users, pois, times, tz = lines.checkins(start["check-in"], end - start["check-in"])
    if lines.count > end:
        raise lines.error(end, "extra line after the last C record")

    try:
        table = PoiTable(ids, lat, lon)
        _expect_owner(users, np.repeat(np.arange(n_users), lengths))  # the U counts
        corpus = Corpus(table, tuple(user_ids), CheckIns(users, pois, times, tz))
    except BadRow as exc:
        line = start[exc.kind]
        again = "" if exc.first is None else f" (first on line {line + exc.first + 1})"
        raise lines.error(line + exc.row, exc.reason + again) from None
    return PreparedCorpus(corpus, window)
