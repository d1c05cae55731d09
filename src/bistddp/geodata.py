"""POI coordinates, great-circle distance, and normalized spatial vectors.

A POI's spatial vector is its distance row to every candidate POI divided by
the population standard deviation of that row. The full M x M distance
matrix is never built (M can reach tens of thousands); rows are computed on
demand and kept in a bounded LRU cache.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0


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
    """Great-circle distance in km on a spherical Earth (R = 6371 km)."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


class PoiTable:
    """Dense-indexed POI registry; immutable after construction.

    External ids map to indices 0..M-1 in insertion order. Coordinates are
    also held as radian arrays, with the cosine of each latitude, so distance
    rows vectorize.
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
        self._lat_rad = np.array([math.radians(p.lat) for _, p in self.entries])
        self._lon_rad = np.array([math.radians(p.lon) for _, p in self.entries])
        self._cos_lat = np.cos(self._lat_rad)
        for a in (self._lat_rad, self._lon_rad, self._cos_lat):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entries)

    def point(self, i: int) -> GeoPoint:
        return self.entries[i][1]

    def external_id(self, i: int) -> str:
        return self.entries[i][0]

    def distance_row_km(self, i: int) -> np.ndarray:
        """Haversine distances from POI i to every POI, self included (0)."""
        lat0 = self._lat_rad[i]
        lon0 = self._lon_rad[i]
        s = (
            np.sin((self._lat_rad - lat0) / 2.0) ** 2
            + self._cos_lat[i] * self._cos_lat * np.sin((self._lon_rad - lon0) / 2.0) ** 2
        )
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def spatial_vector(poi: int, table: PoiTable) -> np.ndarray:
    """Distance row of `poi` divided by its population standard deviation.

    The self-distance (zero) is part of the row and of the deviation, so the
    result always has entry 0 at `poi` and population std 1.
    """
    row = table.distance_row_km(poi)
    sigma = row.std()  # population std (divide by M)
    if sigma == 0.0:
        raise DegenerateGeometry(f"all POIs coincide with POI {poi}; row std is 0")
    return row / sigma


class SpatialRowCache:
    """Bounded LRU cache of spatial vectors, safe for concurrent readers.

    Cached rows are the exact arrays `spatial_vector` produced, marked
    read-only so a hit is bit-identical to a fresh computation.
    """

    def __init__(self, table: PoiTable, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.table = table
        self.capacity = capacity
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def row(self, poi: int) -> np.ndarray:
        with self._lock:
            cached = self._rows.get(poi)
            if cached is not None:
                self._rows.move_to_end(poi)
                self.hits += 1
                return cached
        fresh = spatial_vector(poi, self.table)
        fresh.setflags(write=False)
        with self._lock:
            self.misses += 1
            self._rows[poi] = fresh
            self._rows.move_to_end(poi)
            while len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
        return fresh
