"""Seed-reproducible random generation and the point-cloud container.

The generator is counter-based splitmix64: output k of a stream with seed s is

    mix64((s + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64)

where mix64 is the splitmix64 finalizer
(z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
z ^= z >> 31). Uniform doubles take the top 53 bits, (z >> 11) * 2^-53.
Standard normals come from Marsaglia's polar rejection method (no trig), with
the unused half of each accepted pair cached inside the Rng so that drawing
values in any block sizes consumes the identical underlying stream. These
constants fully determine every stream, so any other implementation can
replay them.

_write_table writes every CSV of the package and the resolved config, and so
owns their bytes: "%" row templates, one "%" call per chunk, newline="".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@dataclass
class Rng:
    """Deterministic splitmix64 stream; single-owner mutable state."""

    seed: int
    _counter: int = 0
    _spare_normal: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK

    def derive(self, stream_id: int) -> "Rng":
        """Independent child stream: seed = mix64(seed + stream_id * GOLDEN)."""
        return Rng(_mix64((self.seed + int(stream_id) * _GOLDEN) & _MASK))

    def _raw(self, count: int) -> np.ndarray:
        z = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.seed)
        shifted = np.empty_like(z)  # every step runs in place
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mix)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return z

    def uniform(self, count: int) -> np.ndarray:
        """i.i.d. Uniform[0, 1) doubles."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        z = self._raw(count)
        z >>= np.uint64(11)
        return z * _U53

    def normal(self, count: int) -> np.ndarray:
        """i.i.d. standard normal doubles via polar rejection."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = np.empty(count, dtype=np.float64)
        filled = 0
        if self._spare_normal is not None and count > 0:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        while filled < count:
            need_pairs = (count - filled + 1) // 2
            # pairs are accepted at rate pi/4: a 3.4-sigma margin rarely needs a second batch
            batch = int(need_pairs * (4.0 / math.pi) + 2.0 * math.sqrt(need_pairs)) + 8
            start = self._counter
            u = self.uniform(2 * batch)
            a = 2.0 * u[0::2] - 1.0
            b = 2.0 * u[1::2] - 1.0
            s = a * a + b * b
            accepted = np.nonzero((s > 0.0) & (s < 1.0))[0]
            if len(accepted) >= need_pairs:
                accepted = accepted[:need_pairs]
                # pairs after the one completing the request were never drawn
                self._counter = start + 2 * (int(accepted[-1]) + 1)
            if len(accepted) == 0:
                continue
            f = np.sqrt(-2.0 * np.log(s[accepted]) / s[accepted])
            pair = np.empty(2 * len(accepted), dtype=np.float64)
            pair[0::2] = a[accepted] * f
            pair[1::2] = b[accepted] * f
            take = min(count - filled, len(pair))
            out[filled:filled + take] = pair[:take]
            if take < len(pair):
                self._spare_normal = float(pair[take])
            filled += take
        return out


# fields of a table formatted by one % call
_TABLE_FIELDS = 4096


def _write_table(path, header: str | None, row: str, rows) -> None:
    """Write the header line, when given, then rows (a 2-D float array or a
    list of tuples) formatted by the % template row, one % call per chunk of
    about _TABLE_FIELDS fields, to path opened with newline=""."""
    step = max(1, _TABLE_FIELDS // row.count("%"))
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        for i in range(0, len(rows), step):
            chunk = rows[i:i + step]
            flat = (chunk.ravel().tolist() if isinstance(chunk, np.ndarray)
                    else [v for r in chunk for v in r])
            fh.write((row * len(chunk)) % tuple(flat))


@dataclass
class PointCloud:
    """n points in R^dim stored as an (n, dim) float64 matrix, one row per point."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError(f"point cloud data must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"point cloud needs n >= 1 and dim >= 1, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("point cloud entries must be finite")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def to_csv(self, path) -> None:
        """One row per point, dim comma-separated "%.17g" columns and no
        header, written by _write_table."""
        _write_table(path, None, "%.17g," * (self.dim - 1) + "%.17g\n", self.data)

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        rows: list[list[float]] = []
        width = None
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if width is None:
                    width = len(fields)
                elif len(fields) != width:
                    raise ValueError(
                        f"{path}:{lineno}: expected {width} columns, got {len(fields)}")
                try:
                    rows.append([float(f) for f in fields])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
        if not rows:
            raise ValueError(f"{path}: no data rows")
        return cls(np.array(rows, dtype=np.float64))


@lru_cache(maxsize=32)
def _pair_flat_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in a C-ordered n x n matrix of the pairs i < j of n
    points, enumerated row-wise: (0,1), (0,2), ..., (n-2,n-1). Entry (i, j)
    is at i*n + j and its mirror (j, i) at j*n + i. Cached and read-only."""
    iu, ju = np.triu_indices(n, k=1)
    upper, lower = iu * n + ju, ju * n + iu
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def _sq_dists(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
              scale: float = 1.0, shift: float = 0.0) -> np.ndarray:
    """shift + scale |a_i - b_j|^2 over the rows of a and b, from one matrix
    product of augmented factors:

        [shift/2 + scale |a_i|^2, 1, -2 scale a_i] . [1, shift/2 + scale |b_j|^2, b_j]

    The result is clamped at shift against cancellation, from below when
    scale > 0 and from above when scale < 0. out, a (len(a), len(b))
    buffer, receives it when given; the values do not depend on out."""
    fa = np.empty((len(a), a.shape[1] + 2))
    fb = np.empty((b.shape[1] + 2, len(b)))  # transposed: row-major factors multiply faster
    fa[:, 0] = 0.5 * shift + scale * np.einsum("ij,ij->i", a, a)
    fb[1] = 0.5 * shift + scale * np.einsum("ij,ij->i", b, b)
    fa[:, 1] = fb[0] = 1.0
    np.multiply(a, -2.0 * scale, out=fa[:, 2:])
    fb[2:] = b.T
    out = np.matmul(fa, fb, out=out)
    return (np.maximum if scale > 0 else np.minimum)(out, shift, out=out)


def sample_standard_normal(rng: Rng, n: int, dim: int) -> PointCloud:
    """n i.i.d. points from N(0, I) in R^dim."""
    _check_counts(n, dim)
    return PointCloud(rng.normal(n * dim).reshape(n, dim))


def sample_uniform_cube(rng: Rng, n: int, dim: int, lo: float, hi: float) -> PointCloud:
    """n i.i.d. points uniform on [lo, hi]^dim."""
    _check_counts(n, dim)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    u = rng.uniform(n * dim).reshape(n, dim)
    return PointCloud(lo + (hi - lo) * u)


def sample_unit_directions(rng: Rng, count: int, dim: int) -> PointCloud:
    """count direction-uniform unit vectors (normalized Gaussian draws)."""
    _check_counts(count, dim)
    data = rng.normal(count * dim).reshape(count, dim)
    norms = np.linalg.norm(data, axis=1)
    while np.any(norms == 0.0):  # measure-zero; redraw offending rows
        bad = np.nonzero(norms == 0.0)[0]
        data[bad] = rng.normal(len(bad) * dim).reshape(len(bad), dim)
        norms[bad] = np.linalg.norm(data[bad], axis=1)
    return PointCloud(data / norms[:, None])


def _check_counts(n: int, dim: int) -> None:
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
