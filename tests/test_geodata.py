import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistddp.geodata import (
    ROW_ABS_TOL_KM,
    ROW_REL_MIN_KM,
    ROW_REL_TOL,
    PoiTable,
    SpatialRowCache,
    coordinate_error,
    haversine_km,
    spatial_vector,
)
from bistddp.ingest import SampleBatch
from bistddp.model import VARIANTS, HyperParams, forward_batch, init_params
from bistddp.numerics import BadInput, make_rng
from bistddp.synthetic import planted_corpus, random_instance
from bistddp.train import TrainConfig, fit

EARTH_RADIUS_KM = 6371.0

finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.tuples(finite_lat, finite_lon)  # (lat, lon)


def test_table_rejects_out_of_range_coordinates():
    for lat, lon, what in ((90.0001, 0.0, "latitude"), (0.0, -180.5, "longitude")):
        assert coordinate_error(lat, lon).startswith(what)
        with pytest.raises(BadInput, match=f"POI 1 \\('b'\\): {what} out of range"):
            PoiTable(["a", "b"], [0.0, lat], [0.0, lon])
    assert coordinate_error(90.0, -180.0) is None and coordinate_error(-90.0, 180.0) is None


def test_haversine_identity():
    assert haversine_km(0, 0, 0, 0) == 0.0


def test_haversine_quarter_circle():
    # pole to equator is a quarter great circle: pi/2 * R
    expected = math.pi / 2 * EARTH_RADIUS_KM
    assert haversine_km(0, 0, 90, 0) == pytest.approx(expected, rel=1e-12)


def test_haversine_antipodal():
    expected = math.pi * EARTH_RADIUS_KM
    assert haversine_km(0, 0, 0, 180) == pytest.approx(expected, rel=1e-12)


@given(points, points)
@settings(max_examples=200)
def test_haversine_symmetric_bitwise(a, b):
    assert haversine_km(*a, *b) == haversine_km(*b, *a)


@given(points, points, points)
@example((0.0, 0.0), (1.0, 0.0), (1.19e-7, 180.0))  # near-antipodal a, c
@settings(max_examples=200)
def test_haversine_triangle_inequality(a, b, c):
    assert haversine_km(*a, *c) <= haversine_km(*a, *b) + haversine_km(*b, *c) + 1e-6


def _table(coords):
    lat, lon = np.asarray(coords, dtype=np.float64).reshape(-1, 2).T
    return PoiTable([f"p{i}" for i in range(len(lat))], lat, lon)


def test_table_rejects_duplicates_and_empty():
    with pytest.raises(BadInput, match="needs at least one POI"):
        PoiTable([], [], [])
    with pytest.raises(BadInput, match="duplicate POI id 'a'"):
        PoiTable(["a", "b", "a"], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(BadInput, match="2 POI ids"):
        PoiTable(["a", "b"], [0.0, 1.0, 2.0], [0.0, 1.0])


def test_table_columns_are_read_only_copies():
    lat, lon = np.array([10.0, -20.0]), np.array([30.0, 40.0])
    table = PoiTable(["a", "b"], lat, lon)
    for column in (table.lat, table.lon):
        assert column.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    with pytest.raises(TypeError):
        table.ids[0] = "c"
    lat[0] = lon[0] = 0.0  # the caller's arrays stay the caller's
    assert table.ids == ("a", "b") and table.lat.tolist() == [10.0, -20.0]
    assert table.lon.tolist() == [30.0, 40.0]


def test_half_angle_tables_are_those_of_per_entry_radians():
    # np.radians of the columns gives math.radians' bits, so the rows keep theirs
    rng = np.random.default_rng(3)
    lat = np.r_[0.0, -0.0, 90.0, -90.0, 45.0, rng.uniform(-90, 90, 200)]
    lon = np.r_[180.0, -180.0, 0.0, -0.0, 1e-300, rng.uniform(-180, 180, 200)]
    table = _table(np.c_[lat, lon])
    lat_r = np.array([math.radians(x) for x in lat.tolist()])
    lon_r = np.array([math.radians(x) for x in lon.tolist()])
    for got, want in ((table._sin_hlat, np.sin(lat_r / 2.0)), (table._cos_hlat, np.cos(lat_r / 2.0)),
                      (table._sin_hlon, np.sin(lon_r / 2.0)), (table._cos_hlon, np.cos(lon_r / 2.0)),
                      (table._cos_lat, np.cos(lat_r))):
        assert got.tobytes() == want.tobytes()


def test_spatial_vector_collinear_hand_computed():
    # three equatorial POIs one degree apart; row of the middle one is
    # [d, 0, d] with d = haversine of one degree, sigma = d * sqrt(2) / 3
    table = _table([(0, 0), (0, 1), (0, 2)])
    d = haversine_km(0, 0, 0, 1)
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
        row = table.distance_row_km(p)
        np.testing.assert_array_equal(vec, row / row.std())
        assert vec[p] == 0.0
        assert vec.std() == pytest.approx(1.0, rel=1e-12)


class SinDifferenceTable(PoiTable):
    """Oracle: the distance kernel before the half-angle tables, two np.sin per row."""

    def __init__(self, ids, lat, lon):
        super().__init__(ids, lat, lon)
        self._lat_rad = np.array([math.radians(x) for x in self.lat.tolist()])
        self._lon_rad = np.array([math.radians(x) for x in self.lon.tolist()])
        self._cos_lat = np.cos(self._lat_rad)

    def distance_row_km(self, i: int) -> np.ndarray:
        lat0 = self._lat_rad[i]
        lon0 = self._lon_rad[i]
        s = (
            np.sin((self._lat_rad - lat0) / 2.0) ** 2
            + self._cos_lat[i] * self._cos_lat * np.sin((self._lon_rad - lon0) / 2.0) ** 2
        )
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _rows(table):
    return np.array([table.distance_row_km(i) for i in range(len(table))])


def _assert_within_row_bound(rows, reference, rtol=ROW_REL_TOL, atol_km=ROW_ABS_TOL_KM):
    # relative bound for pairs at least ROW_REL_MIN_KM apart, absolute below
    err = np.abs(rows - reference)
    far = reference >= ROW_REL_MIN_KM
    assert np.all(err[far] <= rtol * reference[far]), (err[far] / reference[far]).max()
    assert np.all(err[~far] <= atol_km), err[~far].max()


def _coordinate_sets():
    rng = np.random.default_rng(17)
    m = 300
    half = rng.uniform(-80, 80, m // 2), rng.uniform(-179, 179, m // 2)
    offset = rng.uniform(-1e-5, 1e-5, (2, m // 2))  # about 1 m at the equator
    antipode_offset = offset / 10
    antipode_offset[:, ::2] = 0.0  # exact antipodes: the haversine term can round above 1
    return {
        "nyc": (rng.uniform(40.55, 40.95, m), rng.uniform(-74.27, -73.68, m)),
        "globe": (np.degrees(np.arcsin(rng.uniform(-1, 1, m))), rng.uniform(-180, 180, m)),
        "submetre": (np.r_[half[0], half[0] + offset[0]], np.r_[half[1], half[1] + offset[1]]),
        "antipodal": (np.r_[half[0], -half[0] + antipode_offset[0]],
                      np.r_[half[1], half[1] - np.sign(half[1]) * 180 + antipode_offset[1]]),
    }


# per-set bounds against the old kernel: (relative, for pairs >= 1 m apart; absolute km)
_ORACLE_BOUNDS = {
    "nyc": (1e-10, 0.0),
    "globe": (1e-12, 0.0),
    "submetre": (5e-9, ROW_ABS_TOL_KM),
    "antipodal": (ROW_REL_TOL, 0.0),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_BOUNDS))
def test_distance_rows_match_sin_difference_oracle(name):
    # the half-angle kernel changes the rows' last bits; it must stay within
    # the stated bound of the old kernel on city, global, sub-metre and
    # near-antipodal coordinates, and keep an exact zero diagonal
    lat, lon = _coordinate_sets()[name]
    ids = [f"p{i}" for i in range(len(lat))]
    rows, old = _rows(PoiTable(ids, lat, lon)), _rows(SinDifferenceTable(ids, lat, lon))
    np.testing.assert_array_equal(rows, rows.T)
    assert np.all(np.diag(rows) == 0.0)
    rtol, atol_km = _ORACLE_BOUNDS[name]
    _assert_within_row_bound(rows, old, rtol, atol_km)


@st.composite
def poi_tables(draw):
    """2-60 POIs with duplicated, sub-metre and near-antipodal points drawn in."""
    base = draw(st.lists(points, min_size=1, max_size=30))
    tiny = st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False)
    out = list(base)
    for p_lat, p_lon in base:
        kind = draw(st.sampled_from(["none", "duplicate", "near", "antipode"]))
        if kind == "duplicate":
            out.append((p_lat, p_lon))
        elif kind in ("near", "antipode"):
            lat = p_lat if kind == "near" else -p_lat
            lon = p_lon if kind == "near" else p_lon - math.copysign(180.0, p_lon)
            out.append((min(90.0, max(-90.0, lat + draw(tiny))),
                        min(180.0, max(-180.0, lon + draw(tiny)))))
    if len(out) < 2:
        out.append(draw(points))
    return _table(out)


@given(poi_tables())
@settings(max_examples=150, deadline=None)
def test_distance_rows_symmetric_zero_diagonal_and_within_bound(table):
    rows = _rows(table)
    np.testing.assert_array_equal(rows, rows.T)
    assert np.all(np.diag(rows) == 0.0)
    points = list(zip(table.lat.tolist(), table.lon.tolist()))
    exact = np.array([[haversine_km(*p, *q) for q in points] for p in points])
    _assert_within_row_bound(rows, exact)


def test_degenerate_geometry():
    table = _table([(10.0, 20.0), (10.0, 20.0)])
    with pytest.raises(BadInput, match="^all POIs coincide with POI 0; row std is 0$"):
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


def test_cache_remembers_each_deviation_and_misses_through_spatial_vector(monkeypatch):
    from bistddp import geodata

    calls = []
    real = geodata.spatial_vector

    def counting(poi, table, sigmas=None):
        calls.append(poi)
        return real(poi, table, sigmas)

    monkeypatch.setattr(geodata, "spatial_vector", counting)
    rng = np.random.default_rng(12)
    table = _table([(float(la), float(lo)) for la, lo in
                    zip(rng.uniform(-80, 80, 9), rng.uniform(-179, 179, 9))])
    cache = SpatialRowCache(table, capacity=3)
    for _ in range(3):  # capacity 3: a round misses on all 9 rows and on the first 4
        for p in (*range(9), 4, 4, 8):
            np.testing.assert_array_equal(cache.row(p), real(p, table), err_msg=f"POI {p}")
    assert cache.misses == len(calls) == 30 and cache.hits == 6
    assert cache._sigmas == {p: table.distance_row_km(p).std() for p in range(9)}

    flat = SpatialRowCache(_table([(10.0, 20.0), (10.0, 20.0)]), capacity=1)
    for p in (0, 1, 0, 0):
        with pytest.raises(BadInput, match=f"^all POIs coincide with POI {p}; row std is 0$"):
            flat.row(p)
    assert len(calls) == 34 and flat.misses == 0


# model-level agreement with the old kernel: logits and one-epoch losses
_LOGIT_ATOL = 1e-12
_LOSS_RTOL = 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_model_agrees_with_sin_difference_oracle(seed):
    table, params, sample = random_instance(seed, m=40, w=2)
    old = SinDifferenceTable(table.ids, table.lat, table.lon)
    batch, new_rows, old_rows = (SampleBatch.from_samples([sample]), SpatialRowCache(table),
                                 SpatialRowCache(old))
    for name, variant in VARIANTS.items():
        np.testing.assert_allclose(forward_batch(batch, params, new_rows, variant).logits,
                                   forward_batch(batch, params, old_rows, variant).logits,
                                   rtol=0, atol=_LOGIT_ATOL, err_msg=name)

    prep = planted_corpus(seed)
    corpus = prep.corpus
    table = corpus.poi_table
    old = SinDifferenceTable(table.ids, table.lat, table.lon)
    params = init_params(HyperParams(d=5, h=8, w=1), corpus.n_users, corpus.n_pois,
                         make_rng(seed))
    train, val = prep.samples_for("train"), prep.samples_for("val")
    np.testing.assert_allclose(forward_batch(train, params, SpatialRowCache(table)).logits,
                               forward_batch(train, params, SpatialRowCache(old)).logits,
                               rtol=0, atol=_LOGIT_ATOL)
    config = TrainConfig(max_epochs=1, batch_size=64, seed=seed)
    losses = [fit(train, val, params.copy(), t, config, VARIANTS["bi-stddp"]).log[0].train_loss
              for t in (table, old)]
    assert losses[0] == pytest.approx(losses[1], rel=_LOSS_RTOL, abs=0)
