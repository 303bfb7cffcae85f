import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    BenchmarkError,
    ClusterHead,
    HeadSelection,
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
from fanetsim.headselect import _random_instance, write_bench, write_bench_refs


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


def bruteforce_sums(radios):
    """Per-candidate sums and off-diagonal ranges from a plain double loop."""
    d_sum, p_sum, ds, ps = [], [], [], []
    for cand in radios:
        d_row, p_row = [], []
        for other in radios:
            if other is cand:
                continue
            d = math.hypot(cand.position[0] - other.position[0],
                           cand.position[1] - other.position[1])
            d_row.append(d)
            p_row.append(cand.base_power - 20.0 * math.log10(max(d, 1.0)))
        d_sum.append(sum(d_row))
        p_sum.append(sum(p_row))
        ds += d_row
        ps += p_row
    return d_sum, p_sum, (min(ds), max(ds)), (min(ps), max(ps))


def colocated_radios():
    rng = np.random.default_rng(11)
    pos = rng.uniform(0, 500, size=(40, 2))
    pos[17] = pos[5]
    pos[30] = pos[2]
    return [StationRadio(i, (float(pos[i, 0]), float(pos[i, 1])), float(p))
            for i, p in enumerate(rng.uniform(60, 80, size=40))]


# 2 and 3 stations are the smallest clusters, 700 fills most of one 4 MiB
# row block, 1100 and 1500 span 3 and 5 blocks
@pytest.mark.parametrize("m", [2, 3, 64, 700, 1100, 1500, "colocated"])
def test_pairwise_sums_match_bruteforce(m):
    if m == "colocated":
        radios = colocated_radios()
    else:
        pos, power = _random_instance(m, seed=3)
        radios = [StationRadio(i, (float(pos[i, 0]), float(pos[i, 1])), float(power[i]))
                  for i in range(m)]
    d_sum, p_sum, d_range, p_range = bruteforce_sums(radios)
    sums = build_pairwise(radios[::-1])
    assert sums.station_ids == sorted(r.station_id for r in radios)
    np.testing.assert_allclose(sums.d_sum, d_sum, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sums.p_sum, p_sum, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sums.p_range, p_range, rtol=1e-12, atol=0)
    assert sums.d_range[1] == pytest.approx(d_range[1], rel=1e-12, abs=0)
    # The kernel's squared distance |a|^2 + |b|^2 - 2 a.b loses a few ulps of
    # |a|^2 to cancellation, which for the closest pair is far above 1e-12 of
    # its distance (about 2e-9 at 1500 stations); bound that error instead.
    gram_atol = 8 * np.finfo(float).eps * 2 * 500.0 ** 2
    assert abs(sums.d_range[0] ** 2 - d_range[0] ** 2) <= gram_atol
    if m == "colocated":
        assert d_range[0] == 0.0
    best = sums.station_ids[int(np.argmax(np.array(p_sum) - np.array(d_sum)))]
    assert exact_head(sums, 1.0) == best


def test_build_pairwise_validation():
    with pytest.raises(SelectionError):
        build_pairwise([])
    with pytest.raises(SelectionError):
        build_pairwise([StationRadio(1, (0, 0), 70), StationRadio(1, (1, 1), 70)])
    solo = build_pairwise([StationRadio(7, (3.0, 4.0), 75.0)])
    assert (solo.d_sum.tolist(), solo.p_sum.tolist()) == ([0.0], [0.0])
    assert solo.d_range == solo.p_range == (math.inf, -math.inf)


def test_pairwise_memory_is_linear():
    # Full 4096 x 4096 distance and power tables alone take 256 MiB; one
    # 4 MiB row block and its temporaries stay far below the bound.
    pos, power = _random_instance(4096, seed=0)
    radios = [StationRadio(i, (float(pos[i, 0]), float(pos[i, 1])), float(power[i]))
              for i in range(4096)]
    tracemalloc.start()
    try:
        weight_sweep(build_pairwise(radios))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_heuristic_score_frozen_collinear():
    sums = build_pairwise(collinear_trio())
    side = 31.989700043360187
    np.testing.assert_allclose(heuristic_score(sums), [side, 40.0, side],
                               rtol=1e-12)
    # singleton clusters score a flat zero
    solo = build_pairwise([StationRadio(7, (3.0, 4.0), 75.0)])
    np.testing.assert_array_equal(heuristic_score(solo), [0.0])


def test_select_heads_prefers_middle_station():
    radios = {r.station_id: r for r in collinear_trio()}
    selection = select_heads({0: [0, 1, 2]}, radios)
    head = selection.heads[0]
    assert head.head_id == 1
    assert head.member_ids == [0, 1, 2]
    assert selection.head_ids() == {0: 1}

    with pytest.raises(SelectionError):
        select_heads({0: []}, radios)
    with pytest.raises(SelectionError):
        select_heads({0: [0, 99]}, radios)


def test_exact_head_collinear_and_validation():
    sums = build_pairwise(collinear_trio())
    assert exact_head(sums, 0.5) == 1
    assert exact_head(sums, 0.0) == 1  # middle also wins on pure distance
    with pytest.raises(SelectionError):
        exact_head(sums, -0.1)


def test_heuristic_argmax_equals_exact_w1():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sums = build_pairwise(random_radios(rng, int(rng.integers(2, 13))))
        by_score = sums.station_ids[int(np.argmax(heuristic_score(sums)))]
        assert by_score == exact_head(sums, 1.0)


def test_exact_head_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(50):
        radios = random_radios(rng, int(rng.integers(2, 9)))
        sums = build_pairwise(radios)
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
            assert exact_head(sums, w) == best_id


def test_weight_sweep_affine_objectives():
    sums = build_pairwise(random_radios(np.random.default_rng(4), 8))
    for mode in ("literal", "convex"):
        sweep = weight_sweep(sums, grid_size=11, mode=mode)
        np.testing.assert_allclose(sweep.w_grid, np.linspace(0, 1, 11), atol=1e-15)
        assert sweep.objectives.shape == (11, 8)
        second_diff = np.diff(sweep.objectives, n=2, axis=0)
        assert np.abs(second_diff).max() < 1e-12
        assert len(sweep.argmin_ids) == 11


def test_weight_sweep_endpoints():
    sums = build_pairwise(random_radios(np.random.default_rng(5), 10))
    lit = weight_sweep(sums, mode="literal")
    # w=0 selects on distance alone in both modes
    assert lit.argmin_ids[0] == sums.station_ids[int(np.argmin(lit.dist_sum))]
    conv = weight_sweep(sums, mode="convex")
    assert conv.argmin_ids[0] == lit.argmin_ids[0]
    # convex w=1 drops the distance term entirely
    assert conv.argmin_ids[-1] == sums.station_ids[int(np.argmax(conv.power_sum))]


def test_weight_sweep_dominance_instance():
    radios = [StationRadio(0, (250.0, 250.0), 80.0),
              StationRadio(1, (50.0, 50.0), 60.0),
              StationRadio(2, (450.0, 50.0), 60.0),
              StationRadio(3, (450.0, 450.0), 60.0),
              StationRadio(4, (50.0, 450.0), 60.0)]
    for mode in ("literal", "convex"):
        sweep = weight_sweep(build_pairwise(radios), mode=mode)
        assert sweep.argmin_ids == [0] * 11


def table_sweep(radios, mode):
    """The sweep as full normalized tables: d~ and p~ min-max scale the
    off-diagonal entries jointly, a constant table becomes zeros."""
    radios = sorted(radios, key=lambda r: r.station_id)
    pos = np.array([r.position for r in radios])
    power = np.array([r.base_power for r in radios])
    sq = np.sum(pos * pos, axis=1)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pos @ pos.T), 0.0))
    p = power[:, None] - 20.0 * np.log10(np.maximum(d, 1.0))
    off = ~np.eye(len(radios), dtype=bool)
    sums = []
    for table in (d, p):
        vals = table[off]
        norm = np.zeros_like(table)
        if vals.max() > vals.min():
            norm[off] = (vals - vals.min()) / (vals.max() - vals.min())
        sums.append(norm.sum(axis=1))
    a, b = sums
    w = np.linspace(0.0, 1.0, 11)[:, None]
    objectives = a - w * b if mode == "literal" else (1.0 - w) * a - w * b
    return [radios[int(np.argmin(row))].station_id for row in objectives], a, b


def test_weight_sweep_matches_table_normalization():
    rng = np.random.default_rng(12)
    cases = [random_radios(rng, int(rng.integers(2, 40))) for _ in range(300)]
    cases += [collinear_trio(), colocated_radios(),
              [StationRadio(i, (0.0, 0.0), 70.0) for i in range(3)]]
    for radios in cases:
        sums = build_pairwise(radios)
        for mode in ("literal", "convex"):
            ids, a, b = table_sweep(radios, mode)
            sweep = weight_sweep(sums, mode=mode)
            assert sweep.argmin_ids == ids
            np.testing.assert_allclose(sweep.dist_sum, a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sweep.power_sum, b, rtol=0, atol=1e-12)


def test_weight_sweep_validation():
    sums = build_pairwise(collinear_trio())
    with pytest.raises(SelectionError):
        weight_sweep(sums, grid_size=1)
    with pytest.raises(SelectionError):
        weight_sweep(sums, mode="weird")
    with pytest.raises(SelectionError):
        weight_sweep(build_pairwise([StationRadio(0, (0, 0), 70)]))


def test_knn_head():
    radios = collinear_trio()
    # all three k=1 scores tie at 40; ties keep the lowest station id
    assert knn_head(radios, k=1) == 0
    assert knn_head(radios[::-1], k=1) == 0
    with pytest.raises(SelectionError):
        knn_head(radios, k=0)
    with pytest.raises(SelectionError):
        knn_head(radios, k=3)
    # duplicate ids used to elect station 0, and an empty list to report
    # "k must be in [1, -1]"
    with pytest.raises(SelectionError, match="duplicate station_id in cluster"):
        knn_head(radios + [radios[0]], k=1)
    with pytest.raises(SelectionError, match="empty cluster"):
        knn_head([], k=1)


def test_knn_head_full_neighborhood_matches_heuristic():
    rng = np.random.default_rng(6)
    for _ in range(30):
        radios = random_radios(rng, int(rng.integers(3, 12)))
        sums = build_pairwise(radios)
        full = sums.station_ids[int(np.argmax(heuristic_score(sums)))]
        assert knn_head(radios, k=len(radios) - 1) == full


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

    # files written while heads carried "method" and "w" still load
    payload = json.loads(path.read_text())
    for entry in payload["clusters"].values():
        entry.update(method="heuristic", w=None)
    path.write_text(json.dumps(payload))
    assert read_heads(str(path)) == selection

    path.write_text('{"clusters": {"0": {"head_id": 5, "member_ids": [1, 2],'
                    ' "scores": [0.0, 0.0]}}}')
    with pytest.raises(SelectionError, match="head 5 not in cluster 0"):
        read_heads(str(path))


def test_read_heads_rejects_non_json(tmp_path):
    path = tmp_path / "heads.json"
    path.write_text("head_id,5\n")
    with pytest.raises(SelectionError, match=f"malformed heads file {path}"):
        read_heads(str(path))


def test_read_heads_rejects_colliding_cluster_keys(tmp_path):
    # "1" and "01" used to merge into cluster 1, the last entry winning
    entry = {"head_id": 5, "member_ids": [5], "scores": [0.0]}
    path = tmp_path / "heads.json"
    path.write_text(json.dumps({"clusters": {"1": dict(entry, head_id=4, member_ids=[4]),
                                             "01": entry}}))
    with pytest.raises(SelectionError, match=f"heads file {path}: cluster keys collide"):
        read_heads(str(path))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_head_entry = st.lists(st.integers(0, 10**9), min_size=1, max_size=6, unique=True).flatmap(
    lambda ids: st.tuples(st.just(ids), st.sampled_from(ids),
                          st.lists(_finite, min_size=len(ids), max_size=len(ids))))


@settings(max_examples=60, deadline=None)
@given(entries=st.dictionaries(st.integers(-10**4, 10**4), _head_entry, max_size=5))
def test_heads_roundtrip_property(tmp_path_factory, entries):
    selection = HeadSelection({c: ClusterHead(c, head, ids, scores)
                               for c, (ids, head, scores) in entries.items()})
    out = tmp_path_factory.mktemp("heads")
    write_heads(selection, str(out / "a.json"))
    back = read_heads(str(out / "a.json"))
    assert back == selection
    write_heads(back, str(out / "b.json"))
    assert (out / "a.json").read_bytes() == (out / "b.json").read_bytes()


@pytest.mark.parametrize("change,message", [
    (lambda p: p["clusters"]["0"].pop("member_ids"),
     "malformed heads file {path}: 'member_ids'"),
    (lambda p: p["clusters"]["0"].update(head_id=9),
     "heads file {path}: head 9 not in cluster 0"),
    (lambda p: p.update(clusters=[]),  # used to end in an AttributeError
     "malformed heads file {path}: 'clusters' is not a JSON object"),
    (lambda p: p["clusters"]["0"]["scores"].pop(),  # used to load
     "heads file {path}: cluster 0 has 2 scores for 3 members"),
])
def test_read_heads_rejects_malformed_entry(tmp_path, change, message):
    radios = {r.station_id: r for r in collinear_trio()}
    path = tmp_path / "heads.json"
    write_heads(select_heads({0: [0, 1, 2]}, radios), str(path))
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SelectionError, match=re.escape(message.format(path=path))):
        read_heads(str(path))
