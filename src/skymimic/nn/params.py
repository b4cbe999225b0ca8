"""Named parameter collections over one flat float64 vector, with a
binary on-disk container.

A ParamSet owns one contiguous float64 vector (`flat`); each name is a
C-ordered view into it, in the order the constructor was given. The
layout is fixed when the set is made: assigning to a name copies the
value into its view, so the set never aliases the caller's array, and a
name the set does not have raises KeyError. Optimizers and gradient
sums therefore run over one array (accumulate with `grads[k] += dW`),
and a copy or a zero set of the same layout is one allocation.

A ParamSet file is the one on-disk format: each trained net and each
corpus video is one. Layout, little-endian: magic b"SMC1"; uint32 n and
an n-byte JSON header, written with sorted keys, holding "meta" and the
ordered [name, shape] "layout"; the flat float64 vector as one block.
`save` writes it through `write_atomic`: a temporary file in the same
directory, moved onto the path, so the path holds the old file or the
new one, never a part. `load` checks the file's length against the
length its header implies once, so a truncated or padded file never
decodes. Files in the earlier formats are not read: regenerate them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from itertools import accumulate
from pathlib import Path

import numpy as np

MAGIC = b"SMC1"


class DimensionError(ValueError):
    """Raised when array shapes do not conform."""


def write_atomic(path: str | Path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to a temporary file in
    path's directory, then move it onto path, so path holds the old
    bytes or the new, never a part. Each chunk is written as it is, not
    joined to the others first. The temporary file is removed when
    either step fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _offsets(layout) -> dict[str, int]:
    """Each name's first element in the flat vector."""
    return dict(zip((name for name, _ in layout),
                    accumulate((math.prod(shape) for _, shape in layout),
                               initial=0)))


class ParamSet:
    """Ordered map from parameter name to a float64 view of one flat
    vector.

    Names, shapes and order are fixed at construction. `layout` is the
    tuple of (name, shape) pairs; sets made by copy() and zeros_like()
    share it.
    """

    def __init__(self, arrays: dict[str, np.ndarray],
                 meta: dict | None = None):
        self.meta = dict(meta) if meta else {}
        items = [(k, np.asarray(v, dtype=np.float64))
                 for k, v in arrays.items()]
        self._adopt(tuple((k, v.shape) for k, v in items),
                    np.concatenate([v.ravel() for _, v in items])
                    if items else np.zeros(0))

    def _adopt(self, layout, flat: np.ndarray) -> None:
        self.layout = layout
        self.flat = flat
        self._offsets = _offsets(layout)
        self._arrays = {
            name: flat[ofs:ofs + math.prod(shape)].reshape(shape)
            for (name, shape), ofs in zip(layout, self._offsets.values())}

    def _like(self, flat: np.ndarray) -> "ParamSet":
        out = ParamSet.__new__(ParamSet)
        out.meta = dict(self.meta)
        out._adopt(self.layout, flat)
        return out

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self._arrays[name]
        if value is view:   # grads[k] += dW already wrote the view
            return
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != view.shape:
            raise DimensionError(
                f"parameter {name!r}: shape {arr.shape} does not "
                f"match existing {view.shape}")
        view[...] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def keys(self):
        return self._arrays.keys()

    def items(self):
        return self._arrays.items()

    def values(self):
        return self._arrays.values()

    def stacked(self, names) -> np.ndarray:
        """The named arrays as one (len(names), *shape) view of flat.
        They must be of one shape and lie side by side in the layout, in
        this order; otherwise DimensionError."""
        first = self._arrays[names[0]]
        ofs = self._offsets[names[0]]
        if any(self._offsets[k] != ofs + j * first.size
               or self._arrays[k].shape != first.shape
               for j, k in enumerate(names)):
            raise DimensionError(
                f"parameters {list(names)} do not lie side by side in "
                f"the layout with one shape")
        return self.flat[ofs:ofs + len(names) * first.size].reshape(
            (len(names),) + first.shape)

    def copy(self) -> "ParamSet":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return self._like(np.zeros_like(self.flat))

    def check_mirror(self, other: "ParamSet") -> None:
        """Verify that other has exactly our names, shapes and order, so
        that the two flat vectors line up element by element. O(1) for
        sets that share a layout."""
        if other.layout is self.layout or other.layout == self.layout:
            return
        if set(self.keys()) != set(other.keys()):
            raise DimensionError(
                f"parameter names differ: {sorted(self.keys())} vs "
                f"{sorted(other.keys())}")
        for k, v in self.items():
            if other[k].shape != v.shape:
                raise DimensionError(
                    f"parameter {k!r}: shape {other[k].shape} vs {v.shape}")
        raise DimensionError(f"parameter order differs: {list(self.keys())} "
                             f"vs {list(other.keys())}")

    def save(self, path: str | Path) -> None:
        """Write the set, with its meta, as one file, atomically."""
        header = json.dumps(
            {"layout": [[k, list(shape)] for k, shape in self.layout],
             "meta": self.meta},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        write_atomic(path, MAGIC, struct.pack("<I", len(header)), header,
                     self.flat.astype("<f8", copy=False))

    @classmethod
    def load(cls, path: str | Path) -> "ParamSet":
        """Read a file written by save(). Raises OSError when the file
        has another magic, ends early, has a malformed header, or has
        bytes after the vector."""
        path = Path(path)
        buf = memoryview(path.read_bytes())
        if buf[:4] != MAGIC[:len(buf)]:
            raise OSError(f"{path}: not a skymimic container")
        start = 8 + (struct.unpack_from("<I", buf, 4)[0]
                     if len(buf) >= 8 else 0)
        meta, layout = {}, ()
        if start <= len(buf):
            try:
                header = json.loads(bytes(buf[8:start]))
                meta = header["meta"]
                layout = tuple((name, tuple(shape))
                               for name, shape in header["layout"])
                if not (isinstance(meta, dict)
                        and len({name for name, _ in layout}) == len(layout)
                        and all(isinstance(name, str)
                                and all(type(d) is int and d >= 0
                                        for d in shape)
                                for name, shape in layout)):
                    raise ValueError("bad layout or meta")
            except (ValueError, KeyError, TypeError) as e:
                raise OSError(f"{path}: malformed header: {e}") from e
        # a file that stops inside its header is checked against the
        # header's end, any other against the vector's
        size = sum(math.prod(shape) for _, shape in layout)
        end = start + 8 * size
        if len(buf) < end:
            raise OSError(f"{path}: truncated at byte {len(buf)} "
                          f"(needs {end})")
        if len(buf) > end:
            raise OSError(f"{path}: {len(buf) - end} trailing bytes "
                          f"after {len(layout)} records")
        out = cls.__new__(cls)
        out.meta = meta
        out._adopt(layout, np.frombuffer(buf, "<f8", size, start)
                   .astype(np.float64))
        return out


def uniform_init(rng: np.random.Generator, fan_in: int,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
