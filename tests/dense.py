"""Dense numpy views for the test oracles.

The package works on sparse integer rows only and never imports numpy.
The tests keep dense object matrices as independent oracles: these
helpers build them, compare them, and convert between them and rows.
A matrix's rows are read back with ``distlab.exact_linalg.to_int``.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from distlab.exact_linalg import Row, to_int


def imat(rows) -> np.ndarray:
    """An integer object matrix from nested sequences."""
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if a.ndim == 1:
        a = a.reshape(len(rows), 0)
    return a


def qmat(rows) -> np.ndarray:
    """A rational object matrix, every entry a ``Fraction``."""
    a = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    if a.ndim == 1:
        a = a.reshape(len(rows), 0)
    return a


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=object)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def is_integral(a: np.ndarray) -> bool:
    return all(Fraction(x).denominator == 1 for x in a.flat)


def dense(rows: list[Row], c: int, d: int | None = None) -> np.ndarray:
    """The matrix with these rows and width c: ``int`` entries, or with a
    denominator d the rational matrix rows / d, every entry a ``Fraction``."""
    if d is None:
        out = zeros(len(rows), c)
    else:
        out = np.full((len(rows), c), Fraction(0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = x if d is None else Fraction(x, d)
    return out


def scaled(A) -> tuple[list[Row], int]:
    """(N, d) for the rational matrix A: d the least positive integer making
    d * A integral, and N the rows of d * A."""
    A = np.asarray(A, dtype=object)
    d = lcm(*(Fraction(x).denominator for x in A.flat))
    return to_int(A * d), d
