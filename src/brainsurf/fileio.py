"""On-disk formats: framed binary files, text tables, config dicts, hashes.

Every array this package writes, a single tensor or a named checkpoint,
uses one framing so that external tools can read it with a dozen lines of
code: the first line of the file is a JSON object terminated by ``\\n``;
the rest of the file is row-major little-endian float64 data.  A tensor's
header holds its ``shape`` and the ``dtype`` ``"<f8"``; a checkpoint's
holds ``entries`` (name, shape, byte offset per array) and free-form
``meta``.  Every file, framed or UTF-8 text, is written to a sibling
temporary file and renamed into place, so a process killed mid-write
leaves the previous file intact.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import types
import typing
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

FLOAT_FORMAT = "%.10g"  # every float of a text table: CSV logs, reports, matrix dumps


class CorruptFile(ValueError):
    """A framed file whose header is malformed or whose payload length
    disagrees with its header (e.g. a truncated write)."""


class ConfigError(ValueError):
    pass


def _size(shape) -> int:
    # type, not isinstance: a JSON true is a bool, and a bool is an int.
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"invalid shape {shape!r}")
    return math.prod(shape)


def _write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(f, path: str | Path, n_values: Callable[[dict], int]) -> tuple[dict, int]:
    """The header of the framed file open as ``f`` and the byte length of its
    payload, which must be ``8 * n_values(header)``; ``f`` is left at the
    start of the payload."""
    line = f.readline()
    try:
        if not line.endswith(b"\n"):
            raise ValueError("header line is not terminated")
        header = json.loads(line.decode("ascii"))
        expected = 8 * n_values(header)
    except (ValueError, TypeError, KeyError) as exc:
        raise CorruptFile(f"{path}: malformed header: {exc}") from exc
    # The length is checked before any array is made, so that a corrupt
    # header cannot ask for more memory than the file holds.
    held = os.fstat(f.fileno()).st_size - len(line)
    if held != expected:
        raise CorruptFile(f"{path}: payload holds {held} bytes, header promises {expected}")
    return header, expected


def _read_framed(path: str | Path, n_values: Callable[[dict], int]) -> tuple[dict, np.ndarray]:
    """The header and the float64 payload of a framed file, which must hold
    exactly ``n_values(header)`` values."""
    with open(path, "rb") as f:
        header, expected = _read_header(f, path, n_values)
        values = np.empty(expected // 8, dtype="<f8")
        held = f.readinto(values)
        if held != expected:  # the file shrank after the fstat
            raise CorruptFile(f"{path}: payload holds {held} bytes, header promises {expected}")
    return header, values.astype(np.float64, copy=False)


def is_plain_file_name(name: str) -> bool:
    """Whether ``name`` names a file in the directory it is joined to, and
    nothing else: not empty, ``.`` or ``..``, no NUL byte, no path separator,
    and no lone surrogate (what an argument byte that is not UTF-8, or a
    JSON escape, decodes to), which UTF-8 text cannot hold."""
    return (
        name not in ("", "..")
        and "\0" not in name
        and Path(name).name == name
        and not any("\ud800" <= ch <= "\udfff" for ch in name)
    )


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f8")  # not ascontiguousarray: it turns 0-d into [1]
    header = json.dumps({"shape": list(arr.shape), "dtype": "<f8"}).encode("ascii")
    _write_atomic(path, [header + b"\n", arr.tobytes()])


def _tensor_values(header: dict) -> int:
    if header["dtype"] != "<f8":
        raise ValueError(f"dtype {header['dtype']!r} is not '<f8'")
    return _size(header["shape"])


def read_tensor(path: str | Path) -> np.ndarray:
    header, values = _read_framed(path, _tensor_values)
    return values.reshape(tuple(header["shape"]))


def tensor_shape(path: str | Path) -> tuple[int, ...]:
    """The shape of the tensor ``read_tensor`` would return, after the same
    header and length checks, without reading the payload."""
    with open(path, "rb") as f:
        header, _ = _read_header(f, path, _tensor_values)
    return tuple(header["shape"])


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Named arrays in one file: entries (name, shape, byte offset) and
    ``meta`` in the header, the arrays concatenated in the payload."""
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        blob = np.asarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(np.shape(arr)), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"meta": meta or {}, "entries": entries}).encode("ascii")
    _write_atomic(path, [header + b"\n", *blobs])


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    entries: dict[str, tuple[slice, tuple]] = {}  # name -> (its values in the payload, shape)

    def n_values(header: dict) -> int:
        # Entries are parsed once, here, so that a malformed one is a CorruptFile.
        n = 0
        for entry in header["entries"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if not isinstance(name, str) or name in entries:
                raise ValueError(f"entry name {name!r} is not a string or is listed twice")
            if type(entry["offset"]) is not int or entry["offset"] != 8 * n:
                raise ValueError(f"entry {name!r} has offset {entry['offset']!r}, its data is at byte {8 * n}")
            size = _size(shape)
            entries[name] = (slice(n, n + size), shape)
            n += size
        return n

    header, values = _read_framed(path, n_values)
    arrays = {name: values[s].reshape(shape) for name, (s, shape) in entries.items()}
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CorruptFile(f"{path}: malformed header: meta is not an object")
    return arrays, meta


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """A CSV table: ``header``, then one line per row.  A float cell (numpy
    ``float64`` included) is written in ``FLOAT_FORMAT``, ``None`` as an empty
    cell, anything else as ``csv`` writes it."""
    writer = csv.writer(text := io.StringIO())
    writer.writerow(header)
    writer.writerows([FLOAT_FORMAT % x if isinstance(x, float) else x for x in row] for row in rows)
    write_text(path, text.getvalue())


def write_text(path: str | Path, text: str) -> None:
    _write_atomic(path, [text.encode("utf-8")])


class JsonConfig:
    """Mixin for frozen dataclass configs: ``to_dict`` gives the JSON-ready
    field dict, ``from_dict`` rebuilds the config from one, checking each
    value against its field's declared type."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        declared = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(declared)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        values = {}
        for name, value in d.items():
            try:
                values[name] = _from_json(value, hints[name])
            except TypeError:
                raise ConfigError(
                    f"{cls.__name__} {name} must be {declared[name]}, got {json.dumps(value)}"
                ) from None
        return cls(**values)


def _from_json(value, hint):
    """A JSON value as a field of type ``hint``, or TypeError.  A bool is no
    number and a float field takes an int; a ``tuple[X, ...]`` field takes a
    list of X, a config field an object, and ``X | None`` also null."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    for option in typing.get_args(hint) if union else (hint,):
        if typing.get_origin(option) is tuple:
            if isinstance(value, (list, tuple)):
                return tuple(_from_json(item, typing.get_args(option)[0]) for item in value)
        elif isinstance(option, type) and issubclass(option, JsonConfig):
            if isinstance(value, dict):
                return option.from_dict(value)
        elif isinstance(value, (int, float) if option is float else option) and not isinstance(value, bool):
            return value
    raise TypeError(f"{value!r} is not a {hint}")


def git_blob_sha1(data: bytes) -> str:
    """Content hash of a byte string, computed the way git hashes blobs."""
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def hash_file(path: str | Path) -> str:
    return git_blob_sha1(Path(path).read_bytes())
