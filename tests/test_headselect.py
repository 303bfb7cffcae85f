import math

import numpy as np
import pytest

from fanetsim import (
    BenchmarkError,
    KDTree,
    SelectionError,
    StationRadio,
    bench_ch,
    build_pairwise,
    exact_head,
    heuristic_score,
    knn_head,
    read_heads,
    received_power,
    select_heads,
    weight_sweep,
    write_heads,
)
from fanetsim.headselect import (_knn_best, _pairwise_sums, _random_instance,
                                 head_objective, write_bench, write_bench_refs)


def collinear_trio():
    return [StationRadio(0, (0.0, 0.0), 70.0),
            StationRadio(1, (10.0, 0.0), 70.0),
            StationRadio(2, (20.0, 0.0), 70.0)]


def random_radios(rng, m):
    pos = rng.uniform(0, 500, size=(m, 2))
    power = rng.uniform(60, 80, size=m)
    return [StationRadio(i, (pos[i][0], pos[i][1]), power[i]) for i in range(m)]


def test_received_power_frozen_values():
    a = StationRadio(0, (0.0, 0.0), 70.0)
    assert received_power(a, StationRadio(1, (1.0, 0.0), 65.0)) == 70.0
    assert received_power(a, StationRadio(1, (100.0, 0.0), 65.0)) == 30.0
    # distances under the 1 m reference clamp to it
    assert received_power(a, StationRadio(1, (0.5, 0.0), 65.0)) == 70.0
    # power is the transmitter's, attenuation the geometry's
    b = StationRadio(1, (100.0, 0.0), 62.0)
    assert received_power(b, a) == 22.0


@pytest.mark.parametrize("position,power", [
    ((float("nan"), 1.0), 70.0),
    ((1.0, float("inf")), 70.0),
    ((1.0, 2.0), float("nan")),
])
def test_station_radio_rejects_non_finite(position, power):
    # np.argmax returns the first nan, so one bad station used to win its
    # cluster's election quietly (and a nan min_power elected every
    # cluster's first station)
    with pytest.raises(SelectionError, match="station 2"):
        StationRadio(2, position, power)


def test_pairwise_tables():
    tables = build_pairwise(random_radios(np.random.default_rng(0), 9))
    assert tables.station_ids == list(range(9))
    np.testing.assert_array_equal(tables.d, tables.d.T)
    assert np.all(np.diag(tables.d) == 0.0)
    assert np.all(np.diag(tables.p) == 0.0)
    assert np.all(tables.d[~np.eye(9, dtype=bool)] > 0)

    with pytest.raises(SelectionError):
        build_pairwise([])
    with pytest.raises(SelectionError):
        build_pairwise([StationRadio(1, (0, 0), 70), StationRadio(1, (1, 1), 70)])


def test_heuristic_score_frozen_collinear():
    tables = build_pairwise(collinear_trio())
    side = 31.989700043360187
    np.testing.assert_allclose(heuristic_score(tables), [side, 40.0, side],
                               rtol=1e-12)
    # singleton clusters score a flat zero
    solo = build_pairwise([StationRadio(7, (3.0, 4.0), 75.0)])
    np.testing.assert_array_equal(heuristic_score(solo), [0.0])


def test_select_heads_prefers_middle_station():
    radios = {r.station_id: r for r in collinear_trio()}
    selection = select_heads({0: [0, 1, 2]}, radios)
    head = selection.heads[0]
    assert head.head_id == 1
    assert head.method == "heuristic"
    assert head.member_ids == [0, 1, 2]
    assert selection.head_ids() == {0: 1}

    with pytest.raises(SelectionError):
        select_heads({0: []}, radios)
    with pytest.raises(SelectionError):
        select_heads({0: [0, 99]}, radios)


def test_exact_head_collinear_and_validation():
    tables = build_pairwise(collinear_trio())
    assert exact_head(tables, 0.5) == 1
    assert exact_head(tables, 0.0) == 1  # middle also wins on pure distance
    with pytest.raises(SelectionError):
        exact_head(tables, -0.1)


def test_heuristic_argmax_equals_exact_w1():
    rng = np.random.default_rng(2)
    for _ in range(50):
        tables = build_pairwise(random_radios(rng, int(rng.integers(2, 13))))
        by_score = tables.station_ids[int(np.argmax(heuristic_score(tables)))]
        assert by_score == exact_head(tables, 1.0)


def test_exact_head_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(50):
        radios = random_radios(rng, int(rng.integers(2, 9)))
        tables = build_pairwise(radios)
        for w in (0.0, 0.25, 0.5, 1.0):
            best_id, best_obj = None, math.inf
            for cand in radios:
                obj = 0.0
                for other in radios:
                    if other.station_id == cand.station_id:
                        continue
                    d = math.hypot(cand.position[0] - other.position[0],
                                   cand.position[1] - other.position[1])
                    obj += d - w * (cand.base_power
                                    - 20.0 * math.log10(max(d, 1.0)))
                if obj < best_obj - 1e-12:
                    best_obj, best_id = obj, cand.station_id
            assert exact_head(tables, w) == best_id


def test_weight_sweep_affine_objectives():
    tables = build_pairwise(random_radios(np.random.default_rng(4), 8))
    for mode in ("literal", "convex"):
        sweep = weight_sweep(tables, grid_size=11, mode=mode)
        np.testing.assert_allclose(sweep.w_grid, np.linspace(0, 1, 11), atol=1e-15)
        assert sweep.objectives.shape == (11, 8)
        second_diff = np.diff(sweep.objectives, n=2, axis=0)
        assert np.abs(second_diff).max() < 1e-12
        assert len(sweep.argmin_ids) == 11


def test_weight_sweep_endpoints():
    tables = build_pairwise(random_radios(np.random.default_rng(5), 10))
    lit = weight_sweep(tables, mode="literal")
    # w=0 selects on distance alone in both modes
    assert lit.argmin_ids[0] == tables.station_ids[int(np.argmin(lit.dist_sum))]
    conv = weight_sweep(tables, mode="convex")
    assert conv.argmin_ids[0] == lit.argmin_ids[0]
    # convex w=1 drops the distance term entirely
    assert conv.argmin_ids[-1] == tables.station_ids[int(np.argmax(conv.power_sum))]


def test_weight_sweep_dominance_instance():
    radios = [StationRadio(0, (250.0, 250.0), 80.0),
              StationRadio(1, (50.0, 50.0), 60.0),
              StationRadio(2, (450.0, 50.0), 60.0),
              StationRadio(3, (450.0, 450.0), 60.0),
              StationRadio(4, (50.0, 450.0), 60.0)]
    for mode in ("literal", "convex"):
        sweep = weight_sweep(build_pairwise(radios), mode=mode)
        assert sweep.argmin_ids == [0] * 11


def test_weight_sweep_validation():
    tables = build_pairwise(collinear_trio())
    with pytest.raises(SelectionError):
        weight_sweep(tables, grid_size=1)
    with pytest.raises(SelectionError):
        weight_sweep(tables, mode="weird")
    with pytest.raises(SelectionError):
        weight_sweep(build_pairwise([StationRadio(0, (0, 0), 70)]))


def test_knn_head():
    radios = collinear_trio()
    # all three k=1 scores tie at 40; ties keep the lowest station id
    assert knn_head(radios, k=1) == 0
    by_id = {r.station_id: r for r in radios}
    assert knn_head([0, 1, 2], by_id, k=1) == 0
    with pytest.raises(SelectionError):
        knn_head(radios, k=0)
    with pytest.raises(SelectionError):
        knn_head(radios, k=3)
    with pytest.raises(SelectionError):
        knn_head([0, 99], by_id, k=1)


def test_knn_head_full_neighborhood_matches_heuristic():
    rng = np.random.default_rng(6)
    for _ in range(30):
        radios = random_radios(rng, int(rng.integers(3, 12)))
        tables = build_pairwise(radios)
        full = tables.station_ids[int(np.argmax(heuristic_score(tables)))]
        assert knn_head(radios, k=len(radios) - 1) == full


@pytest.mark.parametrize("m", [64, 700, 1100, 1500])
def test_bench_methods_match_table_path(m):
    # 1100 and 1500 stations span 3 and 5 row blocks of _pairwise_sums
    pos, power = _random_instance(m, seed=3)
    radios = [StationRadio(i, (pos[i, 0], pos[i, 1]), power[i]) for i in range(m)]
    d_sum, p_sum = _pairwise_sums(pos, power)
    bench_scores = head_objective(d_sum, p_sum)
    table_scores = heuristic_score(build_pairwise(radios))
    np.testing.assert_allclose(bench_scores / (m - 1), table_scores, rtol=1e-12)
    assert int(np.argmax(bench_scores)) == int(np.argmax(table_scores))
    assert knn_head(radios, k=16) == _knn_best(pos, power, 16)


def test_kdtree_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        pts = rng.uniform(0, 500, size=(n, 2))
        tree = KDTree(pts)
        probe = int(rng.integers(n))
        for k in (1, 3, 8):
            for exclude in (None, probe):
                kk = min(k, n - (exclude is not None))
                if kk < 1:
                    continue
                got = tree.query(pts[probe], kk, exclude=exclude)
                # same arithmetic as the tree (sqrt of the squared sum), so
                # distances and tie order must match exactly
                d2 = (pts[:, 0] - pts[probe][0]) ** 2 + (pts[:, 1] - pts[probe][1]) ** 2
                order = sorted((float(np.sqrt(d2[i])), i) for i in range(n)
                               if i != exclude)
                assert got == order[:kk]


def test_bench_validation():
    with pytest.raises(BenchmarkError):
        bench_ch([64, 128])
    with pytest.raises(BenchmarkError):
        bench_ch([32, 64, 128])
    with pytest.raises(BenchmarkError):
        bench_ch([64, 128, 256], repetitions=0)
    with pytest.raises(BenchmarkError):
        bench_ch([64, 128, 256], k=64)


def test_bench_smoke(tmp_path):
    result = bench_ch([64, 128, 256], repetitions=1, k=4, seed=0)
    methods = {m for m, _, _ in result.rows}
    assert methods == {"pairwise", "knn"}
    assert len(result.rows) == 6
    assert set(result.slopes) == {"pairwise", "knn"}
    assert all(math.isfinite(v) for v in result.slopes.values())
    # reference curves are anchored at the first measured point
    first_pair = next(ns for m, mm, ns in result.rows if m == "pairwise" and mm == 64)
    assert result.reference["ref_quadratic"][0][1] == pytest.approx(
        math.log10(first_pair))
    assert set(result.reference) == {"ref_quadratic", "ref_mlogm_kM"}
    assert result.k == 4

    bench_csv = tmp_path / "bench.csv"
    refs_csv = tmp_path / "refs.csv"
    write_bench(result, str(bench_csv))
    write_bench_refs(result, str(refs_csv))
    assert bench_csv.read_text().splitlines()[0] == "method,M,median_ns"
    assert refs_csv.read_text().splitlines()[0] == "series,M,log10_ns"


def test_heads_roundtrip(tmp_path):
    radios = {r.station_id: r for r in collinear_trio()}
    selection = select_heads({0: [0, 1], 1: [2]}, radios)
    path = tmp_path / "heads.json"
    write_heads(selection, str(path))
    back = read_heads(str(path))
    assert back.head_ids() == selection.head_ids()
    assert back.heads[0].member_ids == selection.heads[0].member_ids

    path.write_text('{"heads": {"0": {"head_id": 5, "member_ids": [1, 2],'
                    ' "method": "heuristic", "w": null, "scores": []}}}')
    with pytest.raises(SelectionError):
        read_heads(str(path))
