"""Closed forms that give the exact integral by another route than the level-set walk.

* A 0/1 capacity makes every seminormed integral the lattice polynomial
  ``max over mu(A) = 1 of min over i in A of f(i)``, whatever the
  semicopula, since ``S(t, 1) = t`` and ``S(t, 0) = 0`` (Marichal, *FSS* 2000).
* ``sugeno`` is the median of ``f_(1) >= ... >= f_(n)`` and the capacities
  ``mu(A_1), ..., mu(A_{n-1})`` of their top-``k`` sets, an odd count
  (Kandel & Byatt, *Proc. IEEE* 1978; Marichal 2000).
* Under ``from_possibility(pi)``, ``sugeno`` is ``max_i min(f_i, pi_i)``
  (Dubois & Prade, *Possibility Theory*, 1988).

Each is compared bit for bit.  A closed form picks one of the values equal
to its result; ``integrate`` reports a tie run of equal values by its first
entry in index order, which only tells ``-0.0`` from ``0.0``, so the closed
form's zero is read off ``f`` the same way (``as_in_f``).
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import BUILTINS, Capacity, FiniteSpace, MeasurableFn, integrate, random_capacity, sugeno

EDGE_VALUES = (0.0, -0.0, 5e-324, 0.5, 1 - 2**-53, 1.0)


def zero_one_capacities(n: int) -> np.ndarray:
    """Every normalized 0/1 capacity on ``n`` points, one table per row: each monotone candidate of ``2**2**n``."""
    subsets = 1 << n
    tables = (np.arange(1 << subsets)[:, None] >> np.arange(subsets) & 1).astype(bool)
    keep = ~tables[:, 0] & tables[:, -1]
    for a in range(subsets):
        for i in range(n):
            if not a >> i & 1:
                keep &= ~tables[:, a] | tables[:, a | 1 << i]
    return tables[keep].astype(np.float64)


def as_in_f(x: float, values) -> float:
    """``x`` as the first value of ``f`` equal to it in index order, if there is one: this only picks a zero's sign."""
    return next((v for v in values if v == x), x)


def lattice_polynomial(table: np.ndarray, values) -> float:
    n = len(values)
    return max(min(values[i] for i in range(n) if a >> i & 1) for a in range(1, 1 << n) if table[a] == 1.0)


def weighted_median(c: Capacity, values) -> float:
    order = sorted(range(len(values)), key=lambda i: -values[i])  # stable: tied points keep their index order
    tops = itertools.accumulate(1 << i for i in order)
    pool = [values[i] for i in order] + [float(c.table[a]) for a in list(tops)[:-1]]
    return sorted(pool)[len(values) - 1]


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()  # which tells -0.0 from 0.0


def test_the_zero_one_capacities_are_counted_by_the_dedekind_numbers():
    # Dedekind numbers 3, 6, 20, 168, less the two constant functions
    assert [len(zero_one_capacities(n)) for n in (1, 2, 3, 4)] == [1, 4, 18, 166]


def check_lattice_polynomial(n: int, tables, functions) -> None:
    space = FiniteSpace(n)
    for table in tables:
        c = Capacity(space, table)
        for values in functions:
            f = MeasurableFn(space, values)
            expected = as_in_f(lattice_polynomial(table, values), values)
            for s in BUILTINS:
                got = integrate(s, c, f).value
                assert same_bits(got, expected), (s.kind, table.tolist(), values, got, expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_zero_one_capacity_integrates_to_its_lattice_polynomial(n):
    check_lattice_polynomial(n, zero_one_capacities(n), list(itertools.product(EDGE_VALUES, repeat=n)))


def test_a_sample_of_zero_one_capacities_on_four_points_integrates_to_its_lattice_polynomial():
    rng = random.Random(4)
    tables = zero_one_capacities(4)
    sample = [tables[i] for i in rng.sample(range(len(tables)), 12)]
    functions = rng.sample(list(itertools.product(EDGE_VALUES, repeat=4)), 200)
    check_lattice_polynomial(4, sample, functions)


unit_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))


@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_sugeno_is_the_weighted_median(n, seed, data):
    space = FiniteSpace(n)
    c = random_capacity(space, np.random.default_rng(seed))
    values = data.draw(st.lists(unit_values, min_size=n, max_size=n))
    expected = as_in_f(weighted_median(c, values), values)
    assert same_bits(sugeno(c, MeasurableFn(space, values)).value, expected)


@given(st.integers(1, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_sugeno_under_a_possibility_is_the_max_of_mins(n, data):
    space = FiniteSpace(n)
    pi = data.draw(st.lists(unit_values, min_size=n, max_size=n))
    pi[data.draw(st.integers(0, n - 1))] = 1.0
    values = data.draw(st.lists(unit_values, min_size=n, max_size=n))
    expected = as_in_f(max(min(v, p) for v, p in zip(values, pi)), values)
    got = sugeno(Capacity.from_possibility(space, pi), MeasurableFn(space, values)).value
    assert same_bits(got, expected)
