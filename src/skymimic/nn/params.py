"""Named parameter collections with a binary on-disk container.

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


class ParamSet:
    """Ordered map from parameter name to float64 ndarray.

    Shapes are fixed at insertion; values are mutable via update().
    """

    def __init__(self, arrays: dict[str, np.ndarray] | None = None,
                 meta: dict | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        self.meta = dict(meta) if meta else {}
        if arrays:
            for k, v in arrays.items():
                self[k] = v

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if name in self._arrays and self._arrays[name].shape != arr.shape:
            raise DimensionError(
                f"parameter {name!r}: shape {arr.shape} does not match "
                f"existing {self._arrays[name].shape}")
        self._arrays[name] = arr

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
        return ParamSet({k: v.copy() for k, v in self._arrays.items()},
                        meta=self.meta)

    def zeros_like(self) -> "ParamSet":
        return ParamSet({k: np.zeros_like(v) for k, v in self._arrays.items()},
                        meta=self.meta)

    def check_mirror(self, other: "ParamSet") -> None:
        """Verify that other has exactly our names and shapes."""
        if set(self.keys()) != set(other.keys()):
            raise DimensionError(
                f"parameter names differ: {sorted(self.keys())} vs "
                f"{sorted(other.keys())}")
        for k, v in self.items():
            if other[k].shape != v.shape:
                raise DimensionError(
                    f"parameter {k!r}: shape {other[k].shape} vs {v.shape}")

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(self._arrays)))
            for name, arr in self._arrays.items():
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<I", d))
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
        path = Path(path)
        buf = path.read_bytes()
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(buf):
                raise OSError(f"{path}: truncated at byte {len(buf)} "
                              f"(record needs {pos + n})")
            pos += n
            return buf[pos - n:pos]

        if take(4) != MAGIC:
            raise OSError(f"{path}: not a parameter container")
        ps = cls()
        (count,) = struct.unpack("<I", take(4))
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            name = take(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            n = math.prod(shape)
            data = np.frombuffer(take(8 * n), dtype="<f8")
            ps[name] = data.reshape(shape).copy()
        if pos != len(buf):
            raise OSError(f"{path}: {len(buf) - pos} trailing bytes after "
                          f"{count} records")
        sidecar = path.with_suffix(path.suffix + ".json")
        if sidecar.exists():
            with open(sidecar) as f:
                ps.meta = json.load(f).get("meta", {})
        return ps


def uniform_init(rng: np.random.Generator, fan_in: int,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
