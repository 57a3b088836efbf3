"""Built-in dataset generators and CSV ingestion.

The generators mirror the experiments this package reproduces at desk scale:
a tiny sinusoid regression problem, a two-cluster classification stand-in
with labels +/-1, and pure eigenvalue spectra with exponential or polynomial
decay.  Arbitrary data comes in through a strict CSV schema with header
``x_0,...,x_{d-1},y``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CsvParseError, InvalidInputError
from .features import SeedPolicy, StreamSampler
from .kernels import Dataset

# Generators draw from reserved stream indices far above any trial range so
# that dataset randomness never shares a stream with feature sampling.
_DATA_STREAM_BASE = 2**62


def generate_sinusoid(n: int = 4, n_test: int = 100, seed: int = 0) -> tuple[Dataset, np.ndarray]:
    """Noiseless sinusoid: n train abscissae uniform in [0, 2*pi), labels sin(x).

    Returns the training dataset plus the equally spaced test grid
    (spacing ``2*pi / n_test``); ``f_star`` on the dataset holds the true
    values at the test grid.
    """
    if n < 1 or n_test < 1:
        raise InvalidInputError("need at least one train and one test point")
    sampler = StreamSampler(SeedPolicy(seed, _DATA_STREAM_BASE))
    x = np.sort(sampler.uniform(n)) * (2.0 * np.pi)
    test = np.arange(n_test) * (2.0 * np.pi / n_test)
    ds = Dataset(X=x[:, None], y=np.sin(x), f_star=np.sin(test))
    return ds, test[:, None]


def generate_clusters(
    n: int = 100,
    n_test: int = 100,
    dim: int = 5,
    separation: float = 3.0,
    seed: int = 0,
) -> tuple[Dataset, np.ndarray]:
    """Two Gaussian clusters with labels +/-1; a synthetic binary-regression task.

    Cluster centers sit at ``+/- separation / (2 sqrt(dim))`` in every
    coordinate, unit noise per coordinate.  The true regression function is
    the cluster label, so ``f_star`` is +/-1 on the test grid.  Train and
    test sets are balanced, class-alternating, drawn from one stream.
    """
    if n < 2 or n_test < 2:
        raise InvalidInputError("need at least two train and two test points")
    sampler = StreamSampler(SeedPolicy(seed, _DATA_STREAM_BASE + 1))
    total = n + n_test
    center = separation / (2.0 * np.sqrt(dim)) * np.ones(dim)
    signs = np.where(np.arange(total) % 2 == 0, 1.0, -1.0)
    X = sampler.normal((total, dim)) + signs[:, None] * center
    ds = Dataset(X=X[:n], y=signs[:n], f_star=signs[n:])
    return ds, X[n:]


def generate_spectrum(kind: str, n: int) -> np.ndarray:
    """Reference eigenvalue decays: exponential ``e^{-(i-1)/2}`` or polynomial ``1/i``."""
    if n < 1:
        raise InvalidInputError("need at least one eigenvalue")
    i = np.arange(1, n + 1, dtype=float)
    if kind == "exponential":
        return np.exp(-(i - 1.0) / 2.0)
    if kind == "polynomial":
        return 1.0 / i
    raise InvalidInputError(f"unknown spectrum kind {kind!r}")


def read_csv_table(path, max_rows: int | None = None) -> np.ndarray:
    """Parse a CSV file with header ``x_0,...,x_{d-1},y`` into an ``(n, d + 1)`` array.

    Rows keep their file order.  Any malformed header, non-numeric or
    non-finite cell, or inconsistent column count raises
    :class:`CsvParseError` with the offending 1-based line number, as does a
    file that is not valid UTF-8 (without one: it is decoded in blocks).
    With ``max_rows``, reading stops after that many data rows; the rest of
    the file is neither read nor checked.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # The same lines as str.splitlines of the whole file, read one at a time.
            lines = itertools.chain.from_iterable(map(str.splitlines, fh))
            header_line = next(lines, None)
            if header_line is None:
                raise CsvParseError("empty file", line=1)
            header = [c.strip() for c in header_line.split(",")]
            d = len(header) - 1
            expected = [f"x_{j}" for j in range(d)] + ["y"]
            if d < 1 or header != expected:
                raise CsvParseError(
                    f"header must be x_0,...,x_{{d-1}},y; got {','.join(header)!r}", line=1
                )
            rows = []
            for lineno, raw in enumerate(lines, start=2):
                if raw.strip() == "":
                    continue
                cells = raw.split(",")
                if len(cells) != d + 1:
                    raise CsvParseError(f"expected {d + 1} columns, found {len(cells)}", line=lineno)
                try:
                    values = [float(c) for c in cells]
                except ValueError as exc:
                    raise CsvParseError(f"non-numeric cell: {exc}", line=lineno) from exc
                if not all(np.isfinite(v) for v in values):
                    raise CsvParseError("non-finite cell", line=lineno)
                rows.append(values)
                if len(rows) == max_rows:
                    break
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"file is not valid UTF-8 ({exc.reason})") from exc
    if not rows:
        raise CsvParseError("no data rows", line=2)
    return np.asarray(rows, dtype=float)
