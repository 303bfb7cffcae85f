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


# The json_* checks below raise TypeError naming `what`, so a reader's
# "malformed ... file" handler names the file and the field. json.load reads
# true as a bool, 1 as an int and 1.0 as a float, and these keep them apart:
# a float or bool never reads as an integer, nor a string as a number.

def json_int(value, what: str) -> int:
    """value, which must be a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def json_float(value, what: str) -> float:
    """value, which must be a JSON number (not a bool or string), as a float."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} {value!r} is not a number")
    return float(value)


def json_bool(value, what: str) -> bool:
    """value, which must be JSON true or false."""
    if type(value) is not bool:
        raise TypeError(f"{what} {value!r} is not true or false")
    return value


def json_str(value, what: str) -> str:
    """value, which must be a JSON string (not a number)."""
    if type(value) is not str:
        raise TypeError(f"{what} {value!r} is not a string")
    return value


def json_ints(value, what: str) -> list:
    """value, which must be a JSON list of integers."""
    if type(value) is not list:
        raise TypeError(f"{what} is not a JSON list")
    for v in value:
        json_int(v, what)
    return value


def json_numbers(value, what: str) -> list:
    """value, which must be a JSON list of numbers, or of lists of them."""
    if type(value) is not list:
        raise TypeError(f"{what} is not a JSON list")
    for v in np.array(value, dtype=object).flat:
        json_float(v, what)
    return value


def json_id_object(raw, key: str) -> dict:
    """raw[key], which must be a JSON object keyed by ids, with int keys. Each
    key must be a non-negative decimal as str(int) writes it, so no two keys
    read as one id; a fault raises naming the key."""
    value = raw[key]
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} is not a JSON object")
    for k in value:
        if not (k.isascii() and k.isdigit() and str(int(k)) == k):
            raise ValueError(f"{key} key {k!r} is not an id as written")
    return {int(k): v for k, v in value.items()}
