"""POI coordinates, great-circle distance, and normalized spatial vectors.

A `PoiTable` holds the POI ids, latitudes and longitudes once, as columns.
Every coordinate that enters the package (a dump line, a corpus file, a
table's arrays) passes one range rule, `in_range`.

A POI's spatial vector is its distance row to every candidate POI divided by
the population standard deviation of that row. The full M x M distance
matrix is never built (M can reach tens of thousands); rows are computed on
demand and kept in a bounded LRU cache, `SpatialRowCache`, the one place
the model reads them from.

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

import numpy as np

from .numerics import BadInput, BadRow, freeze

EARTH_RADIUS_KM = 6371.0
# Stated error bound of a distance row entry against the exact distance d:
# ROW_REL_TOL * d for pairs at least ROW_REL_MIN_KM (1 m) apart, ROW_ABS_TOL_KM below.
ROW_REL_TOL = 5e-8
ROW_REL_MIN_KM = 1e-3
ROW_ABS_TOL_KM = 1e-11
MAX_LAT, MAX_LON = 90.0, 180.0  # degrees; see `in_range`
ROW_CACHE_CAPACITY = 1024  # rows a `SpatialRowCache` keeps unless told otherwise


def in_range(lat, lon):
    """The range rule, latitude in [-90, 90] and longitude in [-180, 180] degrees
    (NaN is in neither): whether `lat` and whether `lon` keep it, two bools for
    one point or two masks for columns."""
    return (-MAX_LAT <= lat) & (lat <= MAX_LAT), (-MAX_LON <= lon) & (lon <= MAX_LON)


def coordinate_error(lat: float, lon: float) -> str | None:
    """Why (`lat`, `lon`) in degrees breaks the range rule, or None if it does not."""
    lat_ok, lon_ok = in_range(lat, lon)
    if not lat_ok:
        return f"latitude out of range: {lat}"
    if not lon_ok:
        return f"longitude out of range: {lon}"
    return None


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km between two points in degrees, on a
    spherical Earth (R = 6371 km); the reference for `distance_row_km`.

    Vincenty's atan2 form, accurate near antipodes where the haversine's asin
    is not. Ordering the points first makes it bitwise symmetric.
    """
    if (lat2, lon2) < (lat1, lon1):
        lat1, lon1, lat2, lon2 = lat2, lon2, lat1, lon1
    lat1, lat2, dlon = math.radians(lat1), math.radians(lat2), math.radians(lon2 - lon1)
    x = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    y = math.hypot(math.cos(lat2) * math.sin(dlon), math.cos(lat1) * math.sin(lat2)
                   - math.sin(lat1) * math.cos(lat2) * math.cos(dlon))
    return EARTH_RADIUS_KM * math.atan2(y, x)


class PoiTable:
    """Dense-indexed POI registry as columns, frozen (`freeze`) when built.

    POI k has external id `ids[k]` and coordinates (`lat[k]`, `lon[k]`) in
    degrees: `ids` is a tuple, and `lat` and `lon` are float64 copies of the
    arrays given. There is at least one POI, every coordinate keeps the range
    rule, and no id repeats another or holds a TAB, LF or CR; a `BadRow`
    names the first POI that breaks a rule. Five more length-M
    arrays, derived from those, let distance rows vectorize without
    trigonometry: the sine and cosine of each half latitude and half
    longitude, and the cosine of each latitude.
    """

    def __init__(self, ids, lat, lon):
        self.ids = tuple(ids)
        self.lat, self.lon = np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64)
        if not self.ids:
            raise BadInput("PoiTable needs at least one POI")
        if not self.lat.shape == self.lon.shape == (len(self.ids),):
            raise BadInput(f"{len(self.ids)} POI ids, {self.lat.shape} lat, {self.lon.shape} lon")
        lat_ok, lon_ok = in_range(self.lat, self.lon)
        BadRow.expect(lat_ok & lon_ok, "POI", lambda k: coordinate_error(self.lat[k], self.lon[k]))
        BadRow.expect_ids(self.ids, "POI")
        lat, lon = np.radians(self.lat), np.radians(self.lon)
        self._sin_hlat, self._cos_hlat = np.sin(lat / 2.0), np.cos(lat / 2.0)
        self._sin_hlon, self._cos_hlon = np.sin(lon / 2.0), np.cos(lon / 2.0)
        self._cos_lat = np.cos(lat)
        freeze(self)

    def __len__(self) -> int:
        return len(self.ids)

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
    result always has entry 0 at `poi` and population std 1; a row of zeros
    (every POI at `poi`'s coordinates) cannot be normalized: BadInput. `sigmas`, if
    given, memoizes the deviations by POI: a POI found there skips its
    `row.std()`, one not yet there is added.
    """
    row = table.distance_row_km(poi)
    sigmas = {} if sigmas is None else sigmas
    sigma = sigmas.get(poi)
    if sigma is None:
        sigma = sigmas[poi] = row.std()  # population std (divide by M)
    if sigma == 0.0:
        raise BadInput(f"all POIs coincide with POI {poi}; row std is 0")
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

    def __init__(self, table: PoiTable, capacity: int = ROW_CACHE_CAPACITY):
        if capacity < 1:
            raise BadInput("capacity must be >= 1")
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
        fresh = freeze(spatial_vector(poi, self.table, self._sigmas))
        self.misses += 1
        self._rows[poi] = fresh
        if len(self._rows) > self.capacity:
            self._rows.popitem(last=False)
        return fresh


def row_source(table: PoiTable, cache: SpatialRowCache | None) -> SpatialRowCache:
    """`cache`, or a new cache on `table` if it is None; ValueError if `cache`
    holds another table, whose rows would silently replace `table`'s."""
    if cache is not None and cache.table is not table:
        raise ValueError("the row cache was built on another POI table")
    return SpatialRowCache(table) if cache is None else cache
