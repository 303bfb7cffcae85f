"""Small IO and seeding helpers used by several modules."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

# Named substreams hanging off one master seed. Keeping the tags fixed means
# a master seed fully determines every random draw in the pipeline.
MOBILITY_STREAM = 1
RADIO_STREAM = 2
TRAFFIC_STREAM = 3
CLUSTER_STREAM = 4


def substream_seed(master: int, stream: int) -> int:
    """Derive an independent child seed from (master, stream)."""
    return int(np.random.SeedSequence([master, stream]).generate_state(1)[0])


@contextlib.contextmanager
def atomic_open(path: str):
    """A text file to write path through: it goes to a temp file that
    replaces path only when the block ends without an exception, so readers
    never see a half-written artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_object(raw, key: str) -> dict:
    """raw[key], which must be a JSON object; raises TypeError naming the key."""
    value = raw[key]
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} is not a JSON object")
    return value
