import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp.geodata import (
    DegenerateGeometry,
    GeoPoint,
    PoiTable,
    SpatialRowCache,
    haversine_km,
    spatial_vector,
)

EARTH_RADIUS_KM = 6371.0

finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, finite_lat, finite_lon)


def test_geopoint_rejects_out_of_range():
    with pytest.raises(ValueError):
        GeoPoint(90.0001, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)


def test_haversine_identity():
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0


def test_haversine_quarter_circle():
    # pole to equator is a quarter great circle: pi/2 * R
    expected = math.pi / 2 * EARTH_RADIUS_KM
    assert haversine_km(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(expected, rel=1e-12)


def test_haversine_antipodal():
    expected = math.pi * EARTH_RADIUS_KM
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(expected, rel=1e-12)


@given(points, points)
@settings(max_examples=200)
def test_haversine_symmetric_bitwise(a, b):
    assert haversine_km(a, b) == haversine_km(b, a)


@given(points, points, points)
@settings(max_examples=200)
def test_haversine_triangle_inequality(a, b, c):
    assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


def _table(coords):
    return PoiTable([(f"p{i}", GeoPoint(lat, lon)) for i, (lat, lon) in enumerate(coords)])


def test_table_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        PoiTable([])
    with pytest.raises(ValueError):
        PoiTable([("a", GeoPoint(0, 0)), ("a", GeoPoint(1, 1))])


def test_spatial_vector_collinear_hand_computed():
    # three equatorial POIs one degree apart; row of the middle one is
    # [d, 0, d] with d = haversine of one degree, sigma = d * sqrt(2) / 3
    table = _table([(0, 0), (0, 1), (0, 2)])
    d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 1))
    sigma = d * math.sqrt(2.0) / 3.0
    vec = spatial_vector(1, table)
    assert vec[1] == 0.0
    np.testing.assert_allclose(vec, [d / sigma, 0.0, d / sigma], rtol=1e-12)


def test_spatial_vector_unit_population_std():
    rng = np.random.default_rng(5)
    table = _table([(float(la), float(lo)) for la, lo in
                    zip(rng.uniform(-80, 80, 40), rng.uniform(-179, 179, 40))])
    for p in (0, 7, 39):
        vec = spatial_vector(p, table)
        assert vec[p] == 0.0
        assert vec.std() == pytest.approx(1.0, rel=1e-12)


def test_distance_rows_bitwise_equal_uncached_cosine_formula():
    # rows read cos(lat) from the table's cache; computing it per row with
    # np.cos, as the haversine is usually written, must give the same bits
    rng = np.random.default_rng(17)
    m = 500
    coords = list(zip(rng.uniform(-90, 90, m), rng.uniform(-180, 180, m)))
    table = _table([(float(la), float(lo)) for la, lo in coords])
    lat = np.radians([la for la, _ in coords])
    lon = np.radians([lo for _, lo in coords])
    for i in range(m):
        s = (np.sin((lat - lat[i]) / 2.0) ** 2
             + np.cos(lat[i]) * np.cos(lat) * np.sin((lon - lon[i]) / 2.0) ** 2)
        expected = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
        np.testing.assert_array_equal(table.distance_row_km(i), expected, err_msg=f"POI {i}")


def test_degenerate_geometry():
    table = _table([(10.0, 20.0), (10.0, 20.0)])
    with pytest.raises(DegenerateGeometry):
        spatial_vector(0, table)


def test_cache_rows_bit_identical_and_bounded():
    rng = np.random.default_rng(11)
    table = _table([(float(la), float(lo)) for la, lo in
                    zip(rng.uniform(-80, 80, 12), rng.uniform(-179, 179, 12))])
    cache = SpatialRowCache(table, capacity=4)
    for p in range(12):
        np.testing.assert_array_equal(cache.row(p), spatial_vector(p, table))
    # re-read after eviction: still identical
    np.testing.assert_array_equal(cache.row(0), spatial_vector(0, table))
    assert len(cache._rows) <= 4


def test_cache_concurrent_reads_correct():
    rng = np.random.default_rng(13)
    table = _table([(float(la), float(lo)) for la, lo in
                    zip(rng.uniform(-80, 80, 20), rng.uniform(-179, 179, 20))])
    cache = SpatialRowCache(table, capacity=8)
    expected = {p: spatial_vector(p, table) for p in range(20)}
    errors = []

    def reader(seed):
        order = np.random.default_rng(seed).permutation(20)
        for p in order:
            if not np.array_equal(cache.row(int(p)), expected[int(p)]):
                errors.append(int(p))

    threads = [threading.Thread(target=reader, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
