import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    DeliveryRecord,
    MetricsError,
    RunReport,
    StationStats,
    compare,
    compute_report,
    read_report,
    write_comparison,
    write_report,
)
from fanetsim.metrics import aggregate_stats
from simtables import random_table, table_of, take


def rec(pid, src, size=1000, send=0.0, deliver=None, reason=None):
    dropped = deliver is None
    return DeliveryRecord(
        packet_id=pid, src=src, size=size, path=(str(src), "server"),
        send_time=send, delivery_time=deliver, dropped=dropped,
        drop_reason=reason)


def report_of(records, duration, mode="centralized", clustering=True):
    return compute_report(table_of(records), duration, mode, clustering)


def test_jitter_mean_absolute_consecutive_difference():
    # delays in delivery order: 2 ms, 4 ms, 3 ms -> |2| and |-1| average 1.5
    records = [
        rec(0, 0, send=0.0, deliver=0.002),
        rec(1, 0, send=0.0, deliver=0.004),
        rec(2, 0, send=0.004, deliver=0.007),
    ]
    report = report_of(records, duration=1.0)
    stats = report.stations[0]
    assert stats.delay_ms == pytest.approx(3.0)
    assert stats.jitter_ms == pytest.approx(1.5)
    assert stats.delivered == 3


def test_jitter_uses_delivery_order_not_packet_order():
    # same three deliveries listed backwards must give the same jitter
    records = [
        rec(2, 0, send=0.004, deliver=0.007),
        rec(1, 0, send=0.0, deliver=0.004),
        rec(0, 0, send=0.0, deliver=0.002),
    ]
    assert report_of(records, 1.0).stations[0].jitter_ms == pytest.approx(1.5)


def test_single_delivery_has_zero_jitter():
    report = report_of([rec(0, 3, deliver=0.001)], duration=2.0)
    assert report.stations[3].jitter_ms == 0.0
    assert report.stations[3].delay_ms == pytest.approx(1.0)


def test_station_with_no_deliveries_is_absent_from_aggregates():
    records = [
        rec(0, 0, deliver=0.002),
        rec(1_000_000, 1, reason="queue"),
        rec(1_000_001, 1, reason="queue"),
    ]
    report = report_of(records, duration=1.0)
    starved = report.stations[1]
    assert starved.delay_ms is None
    assert starved.jitter_ms is None
    assert starved.throughput_bps is None
    assert starved.dropped == 2
    # aggregates skip the absent station instead of counting zeros
    assert report.aggregates["delay_ms"]["count"] == 1
    assert report.aggregates["delay_ms"]["mean"] == pytest.approx(2.0)
    assert report.aggregates["dropped"]["count"] == 2


def test_throughput_is_bytes_over_shared_duration():
    records = [rec(0, 0, size=500, deliver=0.001),
               rec(1, 0, size=700, deliver=0.002)]
    report = report_of(records, duration=4.0)
    assert report.stations[0].throughput_bps == pytest.approx(300.0)
    assert report.stations[0].delivered_bytes == 1200


def test_aggregate_mean_and_population_std():
    records = [rec(i, i, deliver=0.001 * (i + 1)) for i in range(3)]
    report = report_of(records, duration=1.0)
    agg = report.aggregates["delay_ms"]
    assert agg["mean"] == pytest.approx(2.0)
    assert agg["std"] == pytest.approx(0.816496580927726, rel=1e-12)
    assert agg["count"] == 3


def test_compute_report_validation_and_labels():
    with pytest.raises(MetricsError):
        report_of([], duration=0.0)
    report = report_of([rec(0, 0, deliver=0.001)], 1.0,
                            mode="decentralized", clustering=False)
    assert report.label() == "decentralized-nonclustered"
    assert report_of([], 1.0).label() == "centralized-clustered"


def test_compare_percentages():
    a = report_of([rec(0, 0, deliver=0.002), rec(1, 1, deliver=0.002)], 1.0,
                       mode="centralized", clustering=True)
    b = report_of([rec(0, 0, deliver=0.001), rec(1, 1, deliver=0.003)], 1.0,
                       mode="decentralized", clustering=True)
    cmpab = compare(a, b)
    assert cmpab.label_a == "centralized-clustered"
    assert cmpab.percent["delay_ms"] == pytest.approx(0.0)  # mean 2 -> mean 2
    assert cmpab.per_station[0]["delay_ms"] == pytest.approx(-50.0)
    assert cmpab.per_station[1]["delay_ms"] == pytest.approx(50.0)
    # antisymmetry of the raw differences
    cmpba = compare(b, a)
    for key, diff in cmpab.raw_diff.items():
        assert cmpba.raw_diff[key] == pytest.approx(-diff)


def test_compare_zero_base_flag():
    a = report_of([rec(0, 0, reason="queue")], 1.0)
    b = report_of([rec(0, 0, deliver=0.001)], 1.0)
    comp = compare(a, b)
    # station 0 delivered nothing in a: delay means are absent, not zero
    assert comp.percent["delay_ms"] is None
    assert not comp.zero_base["delay_ms"]
    assert comp.means["throughput_bps"][0] is None

    with pytest.raises(MetricsError):
        compare(a, report_of([rec(0, 5, deliver=0.001)], 1.0))


def test_report_roundtrip(tmp_path):
    records = [rec(0, 0, deliver=0.002), rec(1, 0, deliver=0.004),
               rec(1_000_000, 1, reason="queue")]
    report = report_of(records, 2.5, mode="centralized", clustering=False)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report(report, str(csv_path), str(json_path))

    back = read_report(str(json_path))
    assert back.duration == report.duration
    assert back.mode == report.mode
    assert back.clustering == report.clustering
    assert back.stations[0].delay_ms == report.stations[0].delay_ms
    assert back.stations[1].throughput_bps is None
    assert back.aggregates["delay_ms"]["mean"] == report.aggregates["delay_ms"]["mean"]

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "station_id,delay_ms,jitter_ms,throughput_bps,delivered,dropped"
    assert lines[2].startswith("1,,,")  # absent metrics serialize as empty cells

    json_path.write_text("[]")
    with pytest.raises(MetricsError):
        read_report(str(json_path))


def test_write_comparison(tmp_path):
    a = report_of([rec(0, 0, deliver=0.002)], 1.0, mode="centralized",
                       clustering=True)
    b = report_of([rec(0, 0, deliver=0.001)], 1.0, mode="decentralized",
                       clustering=True)
    path = tmp_path / "comparison.json"
    write_comparison([compare(a, b)], str(path))
    payload = json.loads(path.read_text())
    entry = payload["comparisons"][0]
    assert entry["a"] == "centralized-clustered"
    assert entry["b"] == "decentralized-clustered"
    assert entry["percent"]["delay_ms"] == pytest.approx(-50.0)
    assert entry["per_station"]["0"]["delay_ms"] == pytest.approx(-50.0)


def reference_compute_report(records, duration):
    """compute_report as it was over DeliveryRecord objects, kept as its oracle."""
    by_src = {}
    for r in records:
        by_src.setdefault(r.src, []).append(r)
    stations = {}
    for sid in sorted(by_src):
        recs = by_src[sid]
        delivered = [r for r in recs if not r.dropped]
        dropped = len(recs) - len(delivered)
        if not delivered:
            stations[sid] = StationStats(sid, 0, dropped, 0, None, None, None)
            continue
        delivered.sort(key=lambda r: (r.delivery_time, r.packet_id))
        delays = np.array([(r.delivery_time - r.send_time) * 1e3 for r in delivered])
        jitter = float(np.mean(np.abs(np.diff(delays)))) if delays.size > 1 else 0.0
        nbytes = int(sum(r.size for r in delivered))
        stations[sid] = StationStats(sid, len(delivered), dropped, nbytes,
                                     float(delays.mean()), jitter, nbytes / duration)
    return RunReport(duration, stations, aggregate_stats(stations), "centralized", True)


# delivery counts at the edges of numpy's 8-way unrolled and 128-element
# pairwise sums
EDGE_COUNTS = (0, 1, 2, 7, 8, 9, 128, 129, 300)


def edge_count_table(seed):
    """Two stations per count in EDGE_COUNTS, sparse ids in no order, and
    continuous delays, so a different summation order shows in the floats."""
    rng = np.random.default_rng([seed, 1])
    sids = rng.permutation(1000)[:2 * len(EDGE_COUNTS)].tolist()
    records = []
    for sid, n_done in zip(sids, EDGE_COUNTS * 2):
        for j in range(max(n_done, 1)):  # a station that delivers nothing drops one
            sent = rng.uniform(0.0, 5.0)
            deliver = sent + rng.exponential(0.02) if j < n_done else None
            records.append(rec(sid * 1_000_000 + j, sid, int(rng.integers(256, 2049)),
                               sent, deliver, None if deliver else "queue"))
    return table_of(records)


@pytest.mark.parametrize("seed", range(20))
def test_compute_report_matches_per_record_fold(seed):
    table = random_table(seed)
    report = compute_report(table, 7.5, "centralized", True)
    assert report == reference_compute_report(list(table), 7.5)
    edges = edge_count_table(seed)
    edge_report = compute_report(edges, 7.5, "centralized", True)
    assert edge_report == reference_compute_report(list(edges), 7.5)
    assert sorted(s.delivered for s in edge_report.stations.values()) == sorted(EDGE_COUNTS * 2)
    # the fold does not lean on packet_id order, whatever order the rows come in
    shuffled = take(table, np.random.default_rng(seed).permutation(len(table)))
    assert compute_report(shuffled, 7.5, "centralized", True) == report
    delivered = sorted(s.delivered for s in report.stations.values())
    assert delivered[:2] == [0, 1] and delivered[2] > 1
    assert any(np.unique(table.delivery_time[table.src == sid]).size
               < (table.src == sid).sum() for sid in report.stations
               if report.stations[sid].delivered > 1)  # equal delivery times


def test_report_fields_are_python_scalars():
    report = compute_report(random_table(3), 2.0, "decentralized", False)
    assert all("np." not in repr(stats) for stats in report.stations.values())


_maybe_float = st.none() | st.floats(min_value=0.0, max_value=1e12)
_station = st.builds(
    lambda d, j, t, n, k, b: (n, k, b, d, j, t), _maybe_float, _maybe_float,
    _maybe_float, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**9))


@settings(max_examples=60, deadline=None)
@given(stations=st.dictionaries(st.integers(0, 10**4), _station, max_size=6),
       duration=st.floats(min_value=1e-3, max_value=1e6),
       mode=st.sampled_from(["centralized", "decentralized"]),
       clustering=st.booleans())
def test_report_roundtrip_property(tmp_path_factory, stations, duration, mode, clustering):
    stats = {sid: StationStats(sid, *fields) for sid, fields in stations.items()}
    report = RunReport(duration, stats, aggregate_stats(stats), mode, clustering)
    out = tmp_path_factory.mktemp("report")
    write_report(report, str(out / "a.csv"), str(out / "a.json"))
    write_report(read_report(str(out / "a.json")), str(out / "b.csv"), str(out / "b.json"))
    assert (out / "a.json").read_bytes() == (out / "b.json").read_bytes()
    assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()


def _written_report(tmp_path):
    report = report_of([rec(0, 0, deliver=0.002), rec(1_000_000, 1, reason="queue")], 1.0)
    path = tmp_path / "report.json"
    write_report(report, str(tmp_path / "report.csv"), str(path))
    return path, json.loads(path.read_text())


def test_read_report_rejects_missing_key(tmp_path):
    path, payload = _written_report(tmp_path)
    del payload["stations"]["1"]["dropped"]
    path.write_text(json.dumps(payload))
    with pytest.raises(MetricsError, match=f"{path}.*'dropped'"):
        read_report(str(path))


@pytest.mark.parametrize("delivered", [1.5, "1", True, None])
def test_read_report_rejects_non_int_delivered(tmp_path, delivered):
    path, payload = _written_report(tmp_path)
    payload["stations"]["0"]["delivered"] = delivered
    path.write_text(json.dumps(payload))
    with pytest.raises(MetricsError, match=f"{path}.*whole numbers"):
        read_report(str(path))


def test_read_report_rejects_non_json(tmp_path):
    path, _ = _written_report(tmp_path)
    path.write_text('{"mode": "centralized",')
    with pytest.raises(MetricsError, match=f"malformed report file {path}"):
        read_report(str(path))


@pytest.mark.parametrize("key,value,message", [
    ("mode", None, "mode None is not one of"),
    ("mode", "hybrid", "mode 'hybrid' is not one of"),
    ("clustering", None, "clustering None is not true or false"),
    ("clustering", 1, "clustering 1 is not true or false"),
])
def test_read_report_rejects_unlabeled_run(tmp_path, key, value, message):
    path, payload = _written_report(tmp_path)
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(MetricsError, match=f"malformed report file {path}: {message}"):
        read_report(str(path))


@pytest.mark.parametrize("case,message", [
    # each used to end in an AttributeError or KeyError traceback in `compare`
    ("stations_list", "'stations' is not a JSON object"),
    ("aggregate_missing", "aggregates differ from those of the stations"),
    # and a wrong mean used to be compared without a word
    ("aggregate_wrong", "aggregates differ from those of the stations"),
])
def test_read_report_rejects_malformed_payload(tmp_path, case, message):
    path, payload = _written_report(tmp_path)
    if case == "stations_list":
        payload["stations"] = []
    elif case == "aggregate_missing":
        del payload["aggregates"]["delay_ms"]
    else:
        payload["aggregates"]["delay_ms"]["mean"] += 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(MetricsError, match=re.escape(f"malformed report file {path}: {message}")):
        read_report(str(path))
