"""Simulator result tables for tests, built through the SimResult constructor."""

import math

import numpy as np

from fanetsim.netsim import DELIVERED, OUTCOMES, SimResult

DTYPES = (np.int64, np.int64, np.int64, np.float64, np.float64, np.uint8, np.uint8)


def table_of(records, walked=None) -> SimResult:
    """The table holding ``records`` (DeliveryRecords) as rows, in list order.

    ``walked`` defaults to each source's path as its records give it.
    """
    rows = [(r.packet_id, r.src, r.size, r.send_time,
             math.nan if r.delivery_time is None else r.delivery_time,
             OUTCOMES.index(r.drop_reason) if r.dropped else DELIVERED, r.hops)
            for r in records]
    columns = list(zip(*rows)) or [()] * len(DTYPES)
    if walked is None:
        walked = {r.src: r.path for r in records}
    return SimResult(*(np.array(c, dtype=d) for c, d in zip(columns, DTYPES)),
                     walked=walked)


def take(result: SimResult, rows) -> SimResult:
    """The table of ``result``'s rows at the given indices."""
    return SimResult(result.packet_id[rows], result.src[rows], result.size[rows],
                     result.send_time[rows], result.delivery_time[rows],
                     result.outcome[rows], result.hops[rows], walked=result.walked)


def random_table(seed: int) -> SimResult:
    """A seeded table shaped like run_sim's, in packet_id order.

    Station ids are sparse; one station delivers nothing, one delivers exactly
    once and the others at least nine times. Delivery times lie on a grid of
    eight values, so some deliveries of each of those stations share one.
    """
    rng = np.random.default_rng(seed)
    sids = np.sort(rng.choice(100, size=int(rng.integers(3, 9)), replace=False)).tolist()
    walked = {s: (str(s), "server") if rng.random() < 0.5 else (str(s), "h", "server")
              for s in sids}
    records = []
    for s, role in zip(sids, rng.permutation(len(sids)).tolist()):
        route = walked[s]
        n_done = role if role < 2 else int(rng.integers(9, 40))
        for j in range(n_done + int(rng.integers(role == 0, 6))):
            arrive = int(rng.integers(1, 9))
            sent = int(rng.integers(0, arrive)) * 0.01
            if j < n_done:
                hops, when = len(route) - 1, arrive * 0.01
            else:
                hops, when = int(rng.integers(0, len(route) - 1)), math.nan
            records.append((s * 1_000_000 + j, s, int(rng.integers(256, 2049)), sent,
                            when, DELIVERED if j < n_done else int(rng.integers(0, 2)),
                            hops))
    columns = zip(*records)
    return SimResult(*(np.array(c, dtype=d) for c, d in zip(columns, DTYPES)),
                     walked=walked)
