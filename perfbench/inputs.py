"""Seeded NYC-like check-in dumps in the Foursquare raw format.

The generator knows nothing about the package: it writes the tab-separated
text that `bistddp prepare --format foursquare` reads, so the program only
ever sees generated inputs. One seed fixes every byte of the file.

Shape of a dump:

* POIs sit in the NYC bounding box around a few dozen neighbourhood
  centres. Popularity follows a Zipf law over a seeded ranking.
* Every active user has a home set of POIs. Each covered POI belongs to
  `home_coverage` home sets and every user visits each of their home POIs
  at least once, so every covered POI clears the distinct-user threshold by
  construction. The remaining visits favour the home set, weighted by
  popularity, and otherwise draw from the whole city.
* Gaps between a user's check-ins mix short hops (minutes to a few hours)
  with long breaks (half a day to a few days). Offsets are -240 minutes.
* Light users (fewer check-ins than the user threshold) and rare POIs
  (fewer distinct visitors than the POI threshold) are mixed in, so the
  activity filter removes real rows, and about 0.5% of lines are malformed
  in one of four ways, so the parser's skip path runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

NYC_BOX = (40.55, 40.92, -74.27, -73.68)  # lat_min, lat_max, lon_min, lon_max
TZ_MINUTES = -240
START_UTC = 1333238400  # 2012-04-01 00:00:00 UTC, start of the NYC collection
SPAN_DAYS = 30  # users start within the first month
MALFORMED_RATE = 0.005
ZIPF_S = 1.0
HOME_SHARE = 0.75  # share of the non-coverage visits drawn from the home set

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_CATEGORIES = (
    "Bar", "Home (private)", "Office", "Subway", "Gym / Fitness Center", "Coffee Shop",
    "Food & Drink Shop", "Train Station", "Park", "Neighborhood", "Deli / Bodega",
    "Pizza Place", "Building", "Bus Station", "American Restaurant", "Hotel",
)


@dataclass(frozen=True)
class DumpSpec:
    n_users: int  # active users
    n_pois: int  # POIs covered by home sets
    checkins_per_user: int  # mean; each user draws from +-20% of it
    home_coverage: int  # home sets each covered POI belongs to
    n_light_users: int  # users with 3..min_user-1 check-ins
    n_rare_pois: int  # POIs visited by 1..rare_max_users distinct users
    rare_max_users: int  # stays below the POI threshold


@dataclass(frozen=True)
class DumpInfo:
    lines: int  # all non-empty lines, malformed included
    malformed: int
    raw_users: int
    raw_pois: int
    sha256: str


def seeded_rng(seed: int, salt: str) -> np.random.Generator:
    """Independent PCG64 stream for one (seed, purpose) pair."""
    entropy = [seed] + list(salt.encode())
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _utc_text(t: int) -> str:
    """Foursquare's "Tue Apr 03 18:00:09 +0000 2012", locale-independent."""
    days, sec = divmod(int(t), 86400)
    # civil-from-days (proleptic Gregorian), days counted from 1970-01-01
    z = days + 719468
    era, doe = divmod(z, 146097)
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    year = yoe + era * 400 + (1 if month <= 2 else 0)
    weekday = (days + 3) % 7  # 1970-01-01 was a Thursday
    hh, rem = divmod(sec, 3600)
    mm, ss = divmod(rem, 60)
    return (f"{_DAYS[weekday]} {_MONTHS[month - 1]} {day:02d} "
            f"{hh:02d}:{mm:02d}:{ss:02d} +0000 {year}")


def _gaps(rng: np.random.Generator, n: int) -> np.ndarray:
    short = rng.uniform(size=n) < 0.55
    hours = np.where(
        short,
        1.0 / 12.0 + rng.exponential(1.5, size=n),
        rng.uniform(10.0, 60.0, size=n),
    )
    return np.maximum(60, (hours * 3600.0).astype(np.int64))


def generate_lines(spec: DumpSpec, seed: int) -> tuple[list[str], int, int, int]:
    """(lines, malformed count, raw users, raw POIs) for one seed."""
    rng = seeded_rng(seed, "dump")
    m_all = spec.n_pois + spec.n_rare_pois
    lat_lo, lat_hi, lon_lo, lon_hi = NYC_BOX
    centres = np.column_stack([
        rng.uniform(lat_lo + 0.03, lat_hi - 0.03, size=40),
        rng.uniform(lon_lo + 0.05, lon_hi - 0.05, size=40),
    ])
    which = rng.integers(len(centres), size=m_all)
    lat = np.clip(centres[which, 0] + rng.normal(0.0, 0.012, m_all), lat_lo, lat_hi)
    lon = np.clip(centres[which, 1] + rng.normal(0.0, 0.015, m_all), lon_lo, lon_hi)
    venue_ids = [rng.bytes(12).hex() for _ in range(m_all)]
    cat_of = rng.integers(len(_CATEGORIES), size=m_all)
    cat_ids = [f"4bf58dd8d48988d1{c:02x}931735" for c in range(len(_CATEGORIES))]

    # Zipf popularity over a seeded ranking of the covered POIs
    pop = np.empty(spec.n_pois)
    pop[rng.permutation(spec.n_pois)] = 1.0 / np.arange(1, spec.n_pois + 1) ** ZIPF_S
    pop /= pop.sum()
    pop_cdf = np.cumsum(pop)

    def popular(n: int) -> np.ndarray:  # n draws from the whole city by popularity
        return np.minimum(np.searchsorted(pop_cdf, rng.uniform(size=n) * pop_cdf[-1]),
                          spec.n_pois - 1)

    slots = np.repeat(np.arange(spec.n_pois), spec.home_coverage)
    rng.shuffle(slots)
    homes = np.array_split(slots, spec.n_users)

    events: list[tuple[int, int, int]] = []  # (utc, user, poi)
    user_spans = []
    for u, home in enumerate(homes):
        lo = int(0.8 * spec.checkins_per_user)
        hi = int(1.2 * spec.checkins_per_user)
        t_count = max(len(home), int(rng.integers(lo, hi + 1)))
        extra = t_count - len(home)
        from_home = rng.uniform(size=extra) < HOME_SHARE
        w_home = pop[home] / pop[home].sum()
        picks = np.where(
            from_home,
            home[rng.choice(len(home), size=extra, p=w_home)],
            popular(extra),
        )
        visits = np.concatenate([home, picks])
        rng.shuffle(visits)
        start = START_UTC + int(rng.integers(SPAN_DAYS * 86400))
        times = start + np.cumsum(_gaps(rng, len(visits)))
        user_spans.append((start, int(times[-1])))
        events.extend(zip(times.tolist(), [u] * len(visits), visits.tolist()))

    for r in range(spec.n_rare_pois):
        poi = spec.n_pois + r
        visitors = rng.choice(spec.n_users, size=int(rng.integers(1, spec.rare_max_users + 1)),
                              replace=False)
        for u in visitors.tolist():
            a, b = user_spans[u]
            events.append((int(rng.integers(a, b + 1)), u, poi))

    for j in range(spec.n_light_users):
        u = spec.n_users + j
        n = int(rng.integers(3, 10))
        start = START_UTC + int(rng.integers(SPAN_DAYS * 86400))
        times = start + np.cumsum(_gaps(rng, n))
        pois = popular(n)
        events.extend(zip(times.tolist(), [u] * n, pois.tolist()))

    events.sort()  # the public dumps are in global time order
    user_names = [str(1 + 3 * u + int(k)) for u, k in
                  enumerate(rng.integers(3, size=spec.n_users + spec.n_light_users))]
    lines = [
        f"{user_names[u]}\t{venue_ids[p]}\t{cat_ids[cat_of[p]]}\t{_CATEGORIES[cat_of[p]]}"
        f"\t{lat[p]:.8f}\t{lon[p]:.8f}\t{TZ_MINUTES}\t{_utc_text(t)}"
        for t, u, p in events
    ]

    n_bad = int(round(MALFORMED_RATE * len(lines)))
    positions = np.sort(rng.choice(len(lines) + n_bad, size=n_bad, replace=False))
    for k, pos in enumerate(positions.tolist()):
        fields = lines[min(pos, len(lines) - 1)].split("\t")
        kind = k % 4
        if kind == 0:  # truncated record
            fields = fields[:6]
        elif kind == 1:  # unparsable latitude
            fields[4] = "n/a"
        elif kind == 2:  # impossible date
            fields[7] = "Thu Feb 30 12:00:00 +0000 2012"
        else:  # offset outside [-720, 840]
            fields[6] = "9999"
        lines.insert(pos, "\t".join(fields))
    return lines, n_bad, spec.n_users + spec.n_light_users, m_all


def write_dump(path, spec: DumpSpec, seed: int) -> DumpInfo:
    """Write the dump for `seed` to `path` and return its fingerprint."""
    lines, n_bad, users, pois = generate_lines(spec, seed)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return DumpInfo(len(lines), n_bad, users, pois, hashlib.sha256(data).hexdigest())
