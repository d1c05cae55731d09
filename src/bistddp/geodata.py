"""POI coordinates, great-circle distance, and normalized spatial vectors.

A POI's spatial vector is its distance row to every candidate POI divided by
the population standard deviation of that row. The full M x M distance
matrix is never built (M can reach tens of thousands); rows are computed on
demand and kept in a bounded LRU cache.

A row is the haversine over half-angle tables built once per `PoiTable`
(see `PoiTable.distance_row_km`): multiplies, one `sqrt` and one `arcsin`
per entry, no `sin`. Against the exact great-circle distance d (as given by
`haversine_km`), every entry is within ROW_REL_TOL * d for pairs at least
ROW_REL_MIN_KM apart and within ROW_ABS_TOL_KM for closer pairs. The bound is
loosest near antipodes, where the arcsin's slope leaves up to about 3e-4 km
(2e-8 relative); pairs about 1 m apart are within about 2e-9 relative and
city-scale pairs within about 1e-11.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
# Stated error bound of a distance row entry against the exact distance d:
# ROW_REL_TOL * d for pairs at least ROW_REL_MIN_KM (1 m) apart, ROW_ABS_TOL_KM below.
ROW_REL_TOL = 5e-8
ROW_REL_MIN_KM = 1e-3
ROW_ABS_TOL_KM = 1e-11


class DegenerateGeometry(ValueError):
    """All pairwise distances in a row are zero, so normalization fails."""


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km on a spherical Earth (R = 6371 km).

    Vincenty's atan2 form, accurate near antipodes where the haversine's asin
    is not. Ordering the points first makes it bitwise symmetric.
    """
    if (b.lat, b.lon) < (a.lat, a.lon):
        a, b = b, a
    lat1, lat2, dlon = math.radians(a.lat), math.radians(b.lat), math.radians(b.lon - a.lon)
    x = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    y = math.hypot(math.cos(lat2) * math.sin(dlon), math.cos(lat1) * math.sin(lat2)
                   - math.sin(lat1) * math.cos(lat2) * math.cos(dlon))
    return EARTH_RADIUS_KM * math.atan2(y, x)


class PoiTable:
    """Dense-indexed POI registry; immutable after construction.

    External ids map to indices 0..M-1 in insertion order. Coordinates are
    also held as five read-only length-M arrays, so distance rows vectorize
    without trigonometry: the sine and cosine of each half latitude and half
    longitude, and the cosine of each latitude.
    """

    def __init__(self, entries: list[tuple[str, GeoPoint]]):
        if not entries:
            raise ValueError("PoiTable needs at least one POI")
        self.entries = list(entries)
        self.index: dict[str, int] = {}
        for i, (ext_id, _) in enumerate(self.entries):
            if ext_id in self.index:
                raise ValueError(f"duplicate POI id {ext_id!r}")
            self.index[ext_id] = i
        lat = np.array([math.radians(p.lat) for _, p in self.entries])
        lon = np.array([math.radians(p.lon) for _, p in self.entries])
        self._sin_hlat, self._cos_hlat = np.sin(lat / 2.0), np.cos(lat / 2.0)
        self._sin_hlon, self._cos_hlon = np.sin(lon / 2.0), np.cos(lon / 2.0)
        self._cos_lat = np.cos(lat)
        for a in (self._sin_hlat, self._cos_hlat, self._sin_hlon, self._cos_hlon, self._cos_lat):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entries)

    def point(self, i: int) -> GeoPoint:
        return self.entries[i][1]

    def external_id(self, i: int) -> str:
        return self.entries[i][0]

    def distance_row_km(self, i: int) -> np.ndarray:
        """Haversine distances in km from POI i to every POI, self included (0).

        `2R asin(min(1, sqrt(a^2 + cos(lat_i) cos(lat) b^2)))`, where `a` and
        `b` are the sines of the half latitude and half longitude differences,
        each expanded as `sin(x/2) cos(x_i/2) - cos(x/2) sin(x_i/2)` over the
        table's half-angle arrays, so a row calls no `sin`. Rows are bitwise
        symmetric (`D[i, j] == D[j, i]`) with an exact 0.0 on the diagonal,
        and they stay within the module's stated bound of the exact distance.
        """
        a = self._sin_hlat * self._cos_hlat[i]
        tmp = self._cos_hlat * self._sin_hlat[i]
        a -= tmp
        a *= a
        b = self._sin_hlon * self._cos_hlon[i]
        np.multiply(self._cos_hlon, self._sin_hlon[i], out=tmp)
        b -= tmp
        b *= b
        np.multiply(self._cos_lat, self._cos_lat[i], out=tmp)  # one product: keeps D symmetric
        b *= tmp
        a += b
        np.sqrt(a, out=a)
        np.minimum(a, 1.0, out=a)
        np.arcsin(a, out=a)
        a *= 2.0 * EARTH_RADIUS_KM
        return a


def spatial_vector(
    poi: int, table: PoiTable, sigmas: dict[int, float] | None = None
) -> np.ndarray:
    """Distance row of `poi` divided by its population standard deviation.

    The self-distance (zero) is part of the row and of the deviation, so the
    result always has entry 0 at `poi` and population std 1. `sigmas`, if
    given, memoizes the deviations by POI: a POI found there skips its
    `row.std()`, one not yet there is added.
    """
    row = table.distance_row_km(poi)
    sigmas = {} if sigmas is None else sigmas
    sigma = sigmas.get(poi)
    if sigma is None:
        sigma = sigmas[poi] = row.std()  # population std (divide by M)
    if sigma == 0.0:
        raise DegenerateGeometry(f"all POIs coincide with POI {poi}; row std is 0")
    row /= sigma
    return row


class SpatialRowCache:
    """Bounded LRU cache of spatial vectors.

    Cached rows are the exact arrays `spatial_vector` produced, marked
    read-only so a hit is bit-identical to a fresh computation. Every miss
    goes through `spatial_vector`; the cache keeps each row's deviation
    (one float per POI seen, never evicted), so a row that misses again
    after its eviction recomputes its distances but not their deviation.
    """

    def __init__(self, table: PoiTable, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.table = table
        self.capacity = capacity
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._sigmas: dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def row(self, poi: int) -> np.ndarray:
        cached = self._rows.get(poi)
        if cached is not None:
            self._rows.move_to_end(poi)
            self.hits += 1
            return cached
        fresh = spatial_vector(poi, self.table, self._sigmas)
        fresh.setflags(write=False)
        self.misses += 1
        self._rows[poi] = fresh
        if len(self._rows) > self.capacity:
            self._rows.popitem(last=False)
        return fresh
