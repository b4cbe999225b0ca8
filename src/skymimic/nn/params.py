"""Named parameter collections over one flat float64 vector, with a
binary on-disk container.

A ParamSet owns one contiguous float64 vector (`flat`); each name is a
C-ordered view into it, in insertion order. Optimizers and gradient
sums therefore run over one array, and a copy or a zero set of the same
layout is one allocation. Two consequences for callers:

- assigning to an existing name copies the value into its view, so the
  set never aliases the caller's array; accumulate gradients in place
  with `grads[k] += dW`;
- adding a new name reallocates the vector, so views taken before that
  no longer alias the set.

Container layout (little-endian): magic b"CMN1", uint32 record count, then
per record uint16 name length, utf-8 name, uint8 ndim, uint32 dims,
float64 payload. A JSON sidecar (<path>.json) carries the layout
descriptor and free-form metadata (e.g. channel tags).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CMN1"


class DimensionError(ValueError):
    """Raised when array shapes do not conform."""


class ByteReader:
    """Length-checked sequential reader over a whole file.

    Every read raises OSError when the file ends before it, and
    `finish` raises OSError when bytes are left over, so a truncated or
    padded file never decodes silently.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # a view, so that taking a payload does not copy it
        self.buf = memoryview(self.path.read_bytes())
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise OSError(f"{self.path}: truncated at byte {len(self.buf)} "
                          f"(record needs {self.pos + n})")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next payload as a read-only little-endian float64 array
        of `shape` over the file's bytes (copy it to keep it)."""
        data = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        return data.reshape(shape)

    def finish(self, what: str) -> None:
        if self.pos != len(self.buf):
            raise OSError(f"{self.path}: {len(self.buf) - self.pos} "
                          f"trailing bytes after {what}")


def _views(flat: np.ndarray, layout) -> dict[str, np.ndarray]:
    out, ofs = {}, 0
    for name, shape in layout:
        n = math.prod(shape)
        out[name] = flat[ofs:ofs + n].reshape(shape)
        ofs += n
    return out


class ParamSet:
    """Ordered map from parameter name to a float64 view of one flat
    vector.

    Shapes are fixed at insertion. `layout` is the tuple of (name,
    shape) pairs; sets made by copy() and zeros_like() share it.
    """

    def __init__(self, arrays: dict[str, np.ndarray] | None = None,
                 meta: dict | None = None):
        self.meta = dict(meta) if meta else {}
        items = [(k, np.asarray(v, dtype=np.float64))
                 for k, v in (arrays or {}).items()]
        self._adopt(tuple((k, v.shape) for k, v in items),
                    np.concatenate([v.ravel() for _, v in items])
                    if items else np.zeros(0))

    def _adopt(self, layout, flat: np.ndarray) -> None:
        self.layout = layout
        self.flat = flat
        self._arrays = _views(flat, layout)

    def _like(self, flat: np.ndarray) -> "ParamSet":
        out = ParamSet.__new__(ParamSet)
        out.meta = dict(self.meta)
        out._adopt(self.layout, flat)
        return out

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self._arrays.get(name)
        if view is not None:
            if value is view:   # grads[k] += dW already wrote the view
                return
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != view.shape:
                raise DimensionError(
                    f"parameter {name!r}: shape {arr.shape} does not "
                    f"match existing {view.shape}")
            view[...] = arr
            return
        arr = np.asarray(value, dtype=np.float64)
        self._adopt(self.layout + ((name, arr.shape),),
                    np.concatenate([self.flat, arr.ravel()]))

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
        path = Path(path)
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(self._arrays)))
            for name, arr in self._arrays.items():
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                f.write(arr.astype("<f8").tobytes(order="C"))
        sidecar = {
            "layout": {k: list(v.shape) for k, v in self._arrays.items()},
            "meta": self.meta,
        }
        with open(path.with_suffix(path.suffix + ".json"), "w") as f:
            json.dump(sidecar, f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "ParamSet":
        """Read a container written by save(). Raises OSError when the
        file is not a container, ends inside a record, or has bytes
        after the last record."""
        r = ByteReader(path)
        if r.take(4) != MAGIC:
            raise OSError(f"{r.path}: not a parameter container")
        arrays = {}
        (count,) = r.unpack("<I")
        for _ in range(count):
            (nlen,) = r.unpack("<H")
            name = bytes(r.take(nlen)).decode("utf-8")
            (ndim,) = r.unpack("<B")
            arrays[name] = r.floats(r.unpack(f"<{ndim}I"))
        r.finish(f"{count} records")
        ps = cls(arrays)   # copies every payload into the flat vector
        sidecar = r.path.with_suffix(r.path.suffix + ".json")
        if sidecar.exists():
            with open(sidecar) as f:
                ps.meta = json.load(f).get("meta", {})
        return ps


def uniform_init(rng: np.random.Generator, fan_in: int,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
