"""Computations the benchmark checks semint's outputs against, written apart from semint.

Nothing here imports semint.  The reference integral uses the permutation
form of the Sugeno-type integral: sort a function's values in descending
order, OR the point bits together along that order to get every level set
of the chain, gather the capacity there and take the maximum of the
semicopula over the chain.  semint's own integral scans the distinct values
and rebuilds each level set point by point, so the two share no code.

Within a run of tied values the prefix masks are subsets of the true level
set; the capacity and the semicopula are monotone, so those positions never
exceed the value at the end of the run and the maximum is unaffected.
"""

from __future__ import annotations

import json

import numpy as np


def semicopula(kind: str, a, b) -> np.ndarray:
    """Closed forms of the four builtin semicopulas, elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if kind == "min":
        return np.minimum(a, b)
    if kind == "product":
        return a * b
    if kind == "prodmax":
        return a * b * np.maximum(a, b)
    if kind == "lukasiewicz":
        out = np.maximum(a + b - 1.0, 0.0)
        out = np.where(b == 1.0, a, out)
        return np.where(a == 1.0, b, out)
    raise ValueError(f"unknown semicopula {kind!r}")


def integrals(kind: str, table: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """Integral and smallest attaining threshold of each row of ``values``.

    ``table`` is a capacity indexed by bit mask; ``values`` has one function
    per row.  Returns two arrays with one entry per row.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    order = np.argsort(-values, axis=1, kind="stable")
    levels = np.take_along_axis(values, order, axis=1)
    masks = np.bitwise_or.accumulate(np.left_shift(np.int64(1), order), axis=1)
    profile = semicopula(kind, levels, np.asarray(table)[masks])
    best = profile.max(axis=1)
    argmax = np.where(profile == best[:, None], levels, np.inf).min(axis=1)
    return best, argmax


def level_masks(values, thresholds) -> np.ndarray:
    """Mask of ``{i : values[i] >= t}`` for every row of ``values`` and every ``t``.

    Returns shape ``(rows, len(thresholds))``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    thresholds = np.asarray(thresholds, dtype=np.float64)
    bits = np.left_shift(np.int64(1), np.arange(values.shape[1], dtype=np.int64))
    hits = values[:, None, :] >= thresholds[None, :, None]
    return np.where(hits, bits, 0).sum(axis=2)


def bit_matrix(masks, n: int) -> np.ndarray:
    """Boolean membership matrix: row k, column i is True when bit i is set in masks[k]."""
    masks = np.asarray(masks, dtype=np.int64)
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1 == 1


def monotonicity_violations(table) -> int:
    """Count the pairs (A, i), i not in A, with table[A] > table[A + {i}].

    Viewing the table as ``(-1, 2, 2**i)`` puts every mask without bit i in
    slot 0 and its partner with bit i in slot 1.
    """
    table = np.asarray(table, dtype=np.float64)
    n = table.size.bit_length() - 1
    count = 0
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        count += int(np.count_nonzero(pairs[:, 0, :] > pairs[:, 1, :]))
    return count


def monotone_envelope(draws: np.ndarray) -> np.ndarray:
    """Smallest monotone table above ``draws``, with boundaries forced to 0 and 1."""
    table = np.array(draws, dtype=np.float64)
    n = table.size.bit_length() - 1
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1, :], pairs[:, 0, :], out=pairs[:, 1, :])
    table[0] = 0.0
    table[-1] = 1.0
    return table


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str | bytes):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
