"""Capacities, i.e. normalized monotone set functions, on the powerset of a finite ground set.

Ground-set points are ``0 .. n-1`` and subsets are n-bit masks, so a capacity
is a dense table of ``2**n`` values indexed by mask.  The table representation
keeps validation total and exact; it caps the ground set at 24 points.

Every full-table pass that pairs masks is one strided lattice scan,
``_lattice_pairs``: for each point ``i`` the table is viewed as
``table.reshape(-1, 2, 1 << i)``, whose two middle slices pair every mask
without ``i`` (``lo``) with the mask that adds ``i`` (``hi``).  This is the in-place layout of the fast zeta/Moebius
transform (Kennes & Smets, UAI 1990; Grabisch, *Set Functions, Games and
Capacities in Decision Making*, 2016): the random builder writes ``hi`` from
``lo`` in place, one point at a time, and ``validate_table`` compares the two
views.  No index arrays are built.

The possibility and additive builders need no pairing: they fill the table
by prefix doubling, ``_doubling_table``.  The masks in ``[2**i, 2**(i+1))`` are
``2**i`` plus a mask below ``2**i``, so one slice operation per point writes
them from the prefix already filled: ``2**n`` work in all, against
``n * 2**(n-1)`` for a lattice scan.  Every entry applies its points' weights
lowest point first, as a lattice scan does, so both give the same bits.

Monotonicity is validated with the single-element increment scan: for every
mask ``A`` and every point ``i`` outside ``A``, require
``table[A] <= table[A | {i}]``.  By transitivity along chains this is
equivalent to checking every subset pair, at O(n * 2**n) instead of O(4**n)
cost.  Comparisons are exact; every constructor below is arranged so that its
floating-point output is monotone without tolerance.  ``validate_table``
runs one sweep of this scan, ``_faults``, that both accepts a capacity and
lists every violation of any other table.

The random builder's envelope, ``_envelope``, and ``validate_table``'s
accepting sweep, ``_walk``, run these passes cache-blocked.  A pass ``i``
below ``b = _BLOCK_POINTS`` (17) pairs masks inside one aligned block of
``2**b`` entries (1 MiB), so each block takes all of those passes while it
is in L2, and only the passes from ``b`` on stream the whole table: at
n = 22, one trip over the table and 5 streaming passes instead of 22.  Each
entry meets its passes in the same order as in whole-table passes, so the
tables are the same bits, and the sweep finds the same first failing pass.
In a block of the sweep, at every table size, each pass below
``_SHIFTED_POINTS`` (10) is one contiguous comparison of the block with
itself shifted by ``2**i`` (``_shifted_pairs``), whose positions that are
not lattice pairs are then masked out, instead of a strided pass whose rows
are only ``2**i`` long.  Each block compares into a bool scratch of its own,
one block long.
At n = 22 on 2 vCPUs (numpy 2.4, medians of 15 in four alternating
processes against whole-block lattice passes after one whole-table draw),
the draw and envelope took 41-53 ms against 52-64, ``validate_table`` on a
capacity 22-33 ms against 29-36, and ``from_distortion`` (65 nodes, with
the leaner ``_interp_monotone``) 23-36 ms against 32-41.

Every full-table pass runs on two threads through one scheduler,
``_on_two_threads``: the calling thread and one helper drain one queue, so
each item runs once, on whichever thread is free.  The blocks of
``_envelope`` and ``_walk`` are its items (``_in_blocks``), and the envelope
queues each block once the calling thread has drawn it, so the draw leaves
no CPU idle.  An item keeps what it writes in what its index names (a
block, its scratch, its slot of ``_walk``'s failing passes), so nothing it
does depends on which thread runs it.  Every other split (``_in_halves``)
queues the two halves of its views: a lattice pass, a pass of ``_faults``'
diagnosis (into the halves of one bool buffer), a doubling step,
``from_additive``'s normalization, ``_interp_monotone``.  Each pass is
elementwise over disjoint slices and keeps its order on each entry, so
tables and violation lists are bit for bit the serial ones; numpy's ufuncs
release the GIL, so the threads run at once.  The split is skipped below
``_SPLIT_ENTRIES`` entries (n < 20 for a streaming pass, n < 19 for the
blocks, always for a block's own passes) and when the process may use one
CPU only (``_TWO_CPUS``, read at import).  ``_faults``' [0,1] range check
stays serial: it runs only on a table that is not a capacity.

All capacity objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semint.errors import (
    BadDistortionError,
    BadWeightsError,
    DomainError,
    MaxNotOneError,
    NotMonotoneError,
    NotNormalizedError,
    _checked_int,
    _float_array,
    _kept_array,
    _require_types,
)

MAX_POINTS = 24

_WEIGHT_SUM_TOL = 1e-9

# entries per chunk in _interp_monotone: each of its temporaries is 128 KiB, whatever the table size
_INTERP_CHUNK = 1 << 14

# entries per view below which _in_halves and _in_blocks run serially.  Starting and joining a thread costs about 0.2 ms;
# one lo > hi pass over 2**19-entry views took 0.47 ms serial and 0.49 ms split, over 2**20 0.91 and 0.74 ms.
# validate_table / random_capacity at n = 19 took 8.4 / 19.1 ms serial and 9.4 / 20.0 ms split at this size,
# at n = 21 66 / 123 and 36 / 80 ms (numpy 2.4, 2 vCPUs, medians of 15)
_SPLIT_ENTRIES = 1 << 19

# points per block of _walk: the passes below it run block by block over 2**17 entries (1 MiB of float64, in
# a 2 MiB L2 per core), and only the later ones stream the whole table.  At n = 22 (numpy 2.4, 2 vCPUs, medians
# of 21, each alternated with whole-table passes, which took 66-74 ms for the envelope and 65-74 ms for
# validate_table on a capacity), blocks of 2**14 / 2**15 / 2**16 / 2**17 / 2**18 / 2**19 took 100 / 66 / 57-59 /
# 52-56 / 53-56 / 55 ms for the envelope and 129 / 70 / 49-52 / 41-44 / 44-46 / 45 ms for validate_table: a
# block pass costs a few microseconds of Python, so smaller blocks are slower
_BLOCK_POINTS = 17

# passes below which a block of _walk's accepting sweep compares table[:-2**i] <= table[2**i:] in one contiguous
# call instead of lattice rows only 2**i long.  Per 2**17-entry block (numpy 2.4, medians of 200), a lattice pass
# took 54-182 us at i = 0..11 and 25-32 us from i = 12 on, a shifted one 34-53 us.  validate_table on an n = 22
# capacity (2 vCPUs, medians of 25, interleaved) took 28.8 ms with no shifted pass, and 22.5 / 22.3 / 22.1 / 22.2 /
# 22.1 / 23.8 ms with the passes below 8 / 10 / 11 / 12 / 13 / 14 shifted (quartiles about 2 ms wide): flat from 8
# to 13, and 10 keeps _walk's pattern of the positions that are not lattice pairs at 10 KiB
_SHIFTED_POINTS = 10


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# whether a second thread can run on a CPU of its own; read once, at import
_TWO_CPUS = _usable_cpus() > 1


def _on_two_threads(count: int, work, produce=None) -> None:
    """Run ``work(k)`` once for each ``k`` in ``0 .. count-1``, on this thread or one helper, whichever is free.

    Both threads drain one queue of the indices.  ``work`` is given the
    index alone, so the item it runs cannot depend on the thread.  With
    ``produce``, this thread first calls ``produce(k)`` for each ``k`` in
    order and queues ``k`` once it returns, then works what is left.  The
    helper is joined before this returns, whatever either thread raised; an
    exception from either is raised here once the other has worked the
    indices left, and a failed ``produce`` queues nothing from its index on
    and releases the helper.  No other function starts a thread.
    """
    import queue  # here, not at import: with heapq it adds about 1 ms to every cold start, split or not
    tasks = queue.SimpleQueue()
    raised = []

    def drain() -> None:
        while (k := tasks.get()) is not None:
            work(k)

    def helper() -> None:
        try:
            drain()
        except BaseException as e:  # handed to the calling thread, which raises it after the join
            raised.append(e)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        try:
            for k in range(count):
                if produce is not None:
                    produce(k)
                tasks.put(k)
        finally:
            tasks.put(None)  # one stop for each thread: the helper's, and this thread's after the rest
            tasks.put(None)
        drain()
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _splits(views: np.ndarray) -> bool:
    """Whether work over ``views`` goes on two threads: at least ``_SPLIT_ENTRIES`` entries, two rows, two CPUs."""
    return views.size >= _SPLIT_ENTRIES and len(views) > 1 and _TWO_CPUS


def _in_halves(fn, *views: np.ndarray) -> None:
    """Run ``fn`` on the halves of equally shaped ``views`` (split along the first axis) as two queued items.

    ``fn`` must write only through its arguments and act entry by entry or
    block by block along that axis, so that the two calls touch disjoint
    memory and together do what one call on the whole views does.  It should
    allocate no large temporary: one made on the helper comes from its
    thread's malloc arena (a table-sized bool one cost about 4 MiB more peak
    RSS per ``big-tables`` run at n = 22), so the caller allocates what ``fn``
    writes; fixed-size ones, such as ``_interp_monotone``'s 128 KiB chunks
    or a block's scratch in ``_walk``, are fine.  Unless
    ``_splits(views[0])``, it is one call ``fn(*views)``.
    """
    if not _splits(views[0]):
        fn(*views)
        return
    mid = len(views[0]) // 2
    _on_two_threads(2, lambda k: fn(*(v[mid:] if k else v[:mid] for v in views)))


def _in_blocks(blocks: np.ndarray, work, draw=None) -> None:
    """Run ``work(k)`` for each row ``k`` of ``blocks``; with ``draw``, first fill the row with ``draw(out=row)``.

    ``draw`` runs on this thread, once per row, in order, so with
    ``Generator.random`` the rows hold the numbers of one call over all of
    them and the generator ends in the same state.  If ``_splits(blocks)``,
    the rows are the items of ``_on_two_threads``, with the draw as its
    ``produce``; else each row is drawn and worked in turn here.
    """
    produce = None if draw is None else lambda k: draw(out=blocks[k])
    if _splits(blocks):
        _on_two_threads(len(blocks), work, produce)
        return
    for k in range(len(blocks)):
        if produce is not None:
            produce(k)
        work(k)


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """A finite ground set ``{0, ..., size-1}`` whose subsets are bit masks."""

    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", _checked_int(self.size, "space size", 1, MAX_POINTS))

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def num_subsets(self) -> int:
        return 1 << self.size

    def check_mask(self, mask: int) -> int:
        mask = _checked_int(mask, "subset mask")
        if mask < 0 or mask > self.full_mask:
            raise DomainError(f"mask {mask:#x} has bits outside a {self.size}-point space")
        return mask


@dataclass(frozen=True, slots=True)
class CapacityViolation:
    """One violated constraint found while validating a capacity table.

    ``kind`` is one of ``domain``, ``not-normalized``, ``not-monotone``.
    For monotonicity, ``mask``/``element`` witness mu(A) > mu(A + {i}).
    """

    kind: str
    message: str
    mask: int | None = None
    element: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "message": self.message}
        if self.mask is not None:
            out["mask"] = self.mask
        if self.element is not None:
            out["element"] = self.element
        return out


def validate_table(
    space: FiniteSpace, values: Sequence[float] | np.ndarray, *, _first: bool = False
) -> list[CapacityViolation]:
    """Check a dense candidate table against the capacity axioms.

    Returns every violated constraint (range, boundary normalization,
    single-element monotonicity), in deterministic order.  An empty list
    means the table is a valid capacity.

    One lattice sweep, ``_faults``, accepts a capacity or lists every
    violation of any other table.
    """
    table = _dense_table(space, values)
    faults = _faults(table, space.size)
    # _first is the Capacity constructor's mode: raise its error for the first violation and count
    # the rest from their index arrays, so a table with a million faults costs one message.  The
    # constructor calls this function rather than _faults so that the check it runs stays visible
    # as a validate_table call to anything that traces the public functions.
    if _first:
        _raise_at_first_fault(table, faults)
        return []
    return [_violation(table, kind, mask, element) for kind, masks, element in faults for mask in masks.tolist()]


def _faults(table: np.ndarray, points: int):
    """Yield ``(kind, masks, element)`` for each group of violations, in validate_table's order; none for a capacity.

    First the masks whose value lies outside [0,1], then mu(empty) != 0 and
    mu(X) != 1, then for each point ``i`` (the ``element``) from the first
    failing pass on the masks ``A`` without ``i`` where mu(A) > mu(A + {i}),
    in increasing order.

    One sweep accepts or diagnoses.  While the endpoints are 0 and 1, the
    blocked walk ``_walk`` compares ``lo <= hi`` and returns the first pass
    that fails.  The diagnosis starts at that pass, or at pass 0 if an
    endpoint is wrong: the range and normalization groups, then ``lo > hi``
    over the whole table into one bool buffer, in halves through
    ``_in_halves``, and one ``flatnonzero`` for this pass and each later
    one.  No pass below the first failing one is compared twice.

    A table that never fails is a capacity, found with no range pass and no
    index array.  That is exact: NaN fails every ``<=``, and every mask lies
    on a chain of non-decreasing one-point steps from ``table[0] = 0`` to
    ``table[-1] = 1``, so no entry leaves [0,1].  Conversely a capacity
    passes every ``lo <= hi``.
    """
    first = _walk(table, points) if table[0] == 0.0 and table[-1] == 1.0 else 0
    if first == points:
        return
    buffer = np.empty(table.size // 2, dtype=bool)
    yield "domain", np.flatnonzero(~((table >= 0.0) & (table <= 1.0))), None
    boundary = [mask for mask, want in ((0, 0.0), (table.size - 1, 1.0)) if table[mask] != want]
    yield "not-normalized", np.array(boundary, dtype=np.int64), None
    for i, lo, hi, order in _lattice_pairs(table, points, first):
        out = buffer.reshape(lo.shape)
        _in_halves(lambda lo, hi, out: np.greater(lo, hi, out=out, order=order), lo, hi, out)
        k = np.flatnonzero(out)  # k = block * 2**i + offset; its mask is block * 2**(i+1) + offset
        yield "not-monotone", k + (k >> i << i), i


def _violation(table: np.ndarray, kind: str, mask: int, element: int | None) -> CapacityViolation:
    """The violation ``_faults`` reports as ``(kind, mask, element)``, with its message."""
    value = float(table[mask])
    if kind == "domain":
        return CapacityViolation(kind, f"mu({mask:#x}) = {value!r} outside [0,1]", mask)
    if kind == "not-normalized":
        message = f"mu(empty) = {value!r}, expected 0" if mask == 0 else f"mu(X) = {value!r}, expected 1"
        return CapacityViolation(kind, message, mask)
    upper = mask | 1 << element
    return CapacityViolation(
        kind, f"mu({mask:#x}) = {value!r} > mu({upper:#x}) = {float(table[upper])!r}", mask, element
    )


def _raise_at_first_fault(table: np.ndarray, faults) -> None:
    """Raise the constructor's error for the first of ``faults``, if there is one."""
    first, total = None, 0
    for kind, masks, element in faults:
        if first is None and masks.size:
            first = _violation(table, kind, int(masks[0]), element)
        total += masks.size
    if first is None:
        return
    if first.kind == "domain":
        raise DomainError(first.message)
    message = f"{first.message} ({total} violation(s) total)"
    if first.kind == "not-normalized":
        raise NotNormalizedError(message)
    raise NotMonotoneError(message, mask=first.mask, element=first.element)


def _dense_table(space: FiniteSpace, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one, which must be 1-d with one entry per subset."""
    _require_types(("space", space, FiniteSpace))
    table = _float_array(values, "capacity table")
    if table.ndim != 1 or table.size != space.num_subsets:
        raise DomainError(
            f"capacity table for a {space.size}-point space needs {space.num_subsets} "
            f"values, got shape {table.shape}"
        )
    return table


def _lattice_pairs(table: np.ndarray, points: int, start: int = 0):
    """Yield ``(i, lo, hi, order)`` for each point ``i`` from ``start`` below ``points``: views pairing A with A + {i}.

    ``table.reshape(-1, 2, 1 << i)`` puts mask ``(block << (i+1)) | (half << i) | offset``
    at ``[block, half, offset]``, so ``lo[block, offset]`` is a mask without ``i`` and
    ``hi[block, offset]`` the same mask with ``i``.  Both are views of a contiguous
    table: writing ``hi`` updates the table in place, and flat positions in ``lo``
    run in increasing mask order.  At the table's top point there is one
    block, and ``lo`` and ``hi`` are its 1-d rows.

    ``order`` is the iteration order a ufunc over the pair should take.  At
    ``i = 1, 2`` a row of ``lo`` is only ``2**i`` long, so iterating along the
    rows ("K") runs numpy's inner loop ``2**i`` entries at a time; "F" iterates
    down the blocks instead.  Measured at n = 22 (numpy 2.4, 2 vCPUs, best
    of 7), one ``np.maximum(hi, lo, out=hi)`` pass took 8.1 -> 1.6 ms at
    ``i = 1`` and 4.8 -> 2.7 ms at ``i = 2``, and one ``lo > hi`` pass into a
    C-ordered buffer 5.2 -> 1.4 and 3.0 -> 2.4 ms; at ``i = 3`` "F" is
    already slower (4.0 -> 4.6 and 2.7 -> 4.4 ms), so every other point keeps
    "K".  The order changes no value, only the order in which elementwise
    results are computed.
    """
    for i in range(start, points):
        pairs = table.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        if lo.shape[0] == 1:  # the top point pairs the table's two halves: one block, so _in_halves splits its offsets
            lo, hi = lo[0], hi[0]
        yield i, lo, hi, "F" if i in (1, 2) else "K"


def _shifted_pairs(table: np.ndarray, stop: int):
    """Yield ``(i, table[:-2**i], table[2**i:])`` for each point ``i`` below ``stop``.

    The two views are ``lo`` and ``hi``: position ``p`` pairs ``table[p]``
    with ``table[p + 2**i]``.  Where bit ``i`` of ``p`` is clear that is the
    lattice pair of mask ``p`` and ``p + {i}`` that ``_lattice_pairs`` yields;
    elsewhere the two masks are not a pair.
    Both views are contiguous, so a ufunc over them runs one inner loop over
    the whole table instead of rows only ``2**i`` long.
    """
    for i in range(stop):
        yield i, table[: -(1 << i)], table[1 << i :]


def _walk(table: np.ndarray, points: int) -> int:
    """Compare ``lo <= hi`` for every point below ``points`` over ``table`` in blocks; return the first pass that fails.

    A pass fails unless every pair it compares holds; the walk returns the
    first that fails, or ``points``.

    A pass below ``low = min(points, _BLOCK_POINTS)`` pairs masks inside one
    aligned block of ``2**low`` entries, so ``_in_blocks`` gives each block
    all of those passes while it stays in cache; only the later passes stream
    the table, into a buffer made here.  Each block compares into a bool
    scratch it allocates itself, one block long.  Its passes below
    ``_SHIFTED_POINTS`` are shifted comparisons, ``_shifted_pairs``: every
    position is compared, and the positions that are not a lattice pair,
    which row ``i`` of ``off_lattice`` marks over one period, are then set
    true, so the pass fails exactly where its lattice pairs do.  The last
    ``2**i`` positions, which the comparison does not reach, all have bit
    ``i`` set.  Its later passes are lattice passes.

    Block ``k`` alone writes ``fails[k]``: the first pass it finds failing,
    else the bound it compared up to, ``min(fails)`` when it started.  Every
    slot holds ``low`` or a pass that fails, and the block with the first
    failing pass compares up to it unless a slot already holds it, so
    ``min(fails)`` after the join is the first failing pass over the table.
    """
    low = min(points, _BLOCK_POINTS)
    blocks = table.reshape(-1, 1 << low)
    shifted = min(_SHIFTED_POINTS, low)
    # row i marks the positions p whose bit i is set, over one period of every shifted pass; filled row by row,
    # since the int64 temporaries of an arange form raised the peak RSS of processes that build small tables only
    off_lattice = np.zeros((shifted, 1 << shifted), dtype=bool)
    for i in range(shifted):
        off_lattice[i].reshape(-1, 2, 1 << i)[:, 1] = True
    fails = [low] * len(blocks)

    def walk_block(k: int) -> None:
        block, stop = blocks[k], min(fails)
        out = np.empty(block.size, dtype=bool)
        periods = out.reshape(-1, off_lattice.shape[1])
        for i, lo, hi in _shifted_pairs(block, min(stop, shifted)):
            np.less_equal(lo, hi, out=out[: lo.size])
            np.logical_or(periods, off_lattice[i], out=periods)
            if not out.all():
                fails[k] = i
                return
        fails[k] = _passes(block, shifted, stop, out)

    _in_blocks(blocks, walk_block)
    first = min(fails)
    return first if first < low else _passes(table, low, points, np.empty(table.size // 2, dtype=bool))


def _envelope(table: np.ndarray, points: int, draw) -> None:
    """Fill ``table`` with ``draw``, then replace each entry with the max over its subsets, one pass per point.

    ``_in_blocks`` runs the passes below ``_BLOCK_POINTS`` on each block once
    it is drawn, and the later ones stream the whole table.  Every entry meets
    its passes in increasing order, so the table is bit for bit that of one
    whole draw and whole-table passes.
    """
    low = min(points, _BLOCK_POINTS)
    blocks = table.reshape(-1, 1 << low)
    _in_blocks(blocks, lambda k: _passes(blocks[k], 0, low), draw)
    _passes(table, low, points)


def _passes(table: np.ndarray, start: int, stop: int, buffer: np.ndarray | None = None) -> int:
    """Run the lattice passes ``start .. stop-1`` over ``table``, each through ``_in_halves``; return the first to fail.

    Without ``buffer`` each pass writes ``np.maximum(hi, lo)`` into ``hi`` in
    place (an envelope pass) and none fails.  With ``buffer``, a bool array
    of at least ``table.size // 2`` entries, each pass writes ``lo <= hi``
    into it and fails unless every entry is true; the return is the first
    pass that fails, or ``stop``.  The views of a block are below
    ``_SPLIT_ENTRIES``, so its passes run whole on the thread that runs it.
    """
    for i, lo, hi, order in _lattice_pairs(table, stop, start):
        if buffer is None:
            _in_halves(lambda lo, hi: np.maximum(hi, lo, out=hi, order=order), lo, hi)
        else:
            out = buffer[: lo.size].reshape(lo.shape)
            _in_halves(lambda lo, hi, out: np.less_equal(lo, hi, out=out, order=order), lo, hi, out)
            if not out.all():
                return i
    return stop


def _doubling_table(w: np.ndarray, op) -> np.ndarray:
    """Table with mu(empty) = 0 and mu(A + {i}) = op(mu(A), w[i]) for every mask ``A`` below ``2**i``.

    Points go in increasing order, each writing the slice ``[2**i, 2**(i+1))``
    from the prefix ``[0, 2**i)``, so a mask's entry applies its points'
    weights lowest point first.  Each step splits the slice and the prefix
    it reads into halves through ``_in_halves``: entry ``2**i + A`` reads
    entry ``A`` alone, so the halves are disjoint and give the serial bits.
    """
    table = np.empty(1 << w.size)
    table[0] = 0.0
    for i in range(w.size):
        weight = w[i]
        _in_halves(lambda prefix, dest: op(prefix, weight, out=dest), table[: 1 << i], table[1 << i : 2 << i])
    return table


@dataclass(frozen=True, slots=True, eq=False)
class Capacity:
    """A monotone set function with mu(empty) = 0 and mu(X) = 1, stored densely.

    The capacity keeps ``table`` read-only by the rule of ``errors._kept_array``,
    so the caller's array stays writable.  Construction checks the table's
    shape and every axiom, raising the first violation ``validate_table``
    lists: a ``DomainError`` for a value outside [0,1], else a
    ``NotNormalizedError`` or a ``NotMonotoneError`` (with its witness) that
    also gives the total count.  The additive, possibility and distortion
    builders make valid tables by construction and skip the check.
    """

    space: FiniteSpace
    table: np.ndarray

    def __post_init__(self) -> None:
        table = _kept_array(self.table, "capacity table")
        validate_table(self.space, table, _first=True)
        object.__setattr__(self, "table", table)

    @classmethod
    def _adopt(cls, space: FiniteSpace, table: np.ndarray) -> "Capacity":
        """A capacity over a fresh float64 ``table`` valid by construction: made read-only, not copied or checked."""
        table.setflags(write=False)
        capacity = object.__new__(cls)
        object.__setattr__(capacity, "space", space)
        object.__setattr__(capacity, "table", table)
        return capacity

    def measure(self, mask: int) -> float:
        """Value of the capacity at the subset encoded by ``mask``."""
        return float(self.table[self.space.check_mask(mask)])

    @classmethod
    def from_table(cls, space: FiniteSpace, values: Sequence[float] | np.ndarray) -> "Capacity":
        """Build a capacity from a dense table: ``Capacity(space, values)``, which rejects any axiom violation."""
        return cls(space, values)

    @classmethod
    def from_possibility(cls, space: FiniteSpace, weights: Sequence[float]) -> "Capacity":
        """Maxitive capacity mu(A) = max of the point weights over A.

        The weights must lie in [0,1] and attain 1 somewhere, which makes the
        result normalized; the running-max construction is exactly monotone.
        """
        _require_types(("space", space, FiniteSpace))
        w = _float_array(weights, "possibility weights")
        if w.shape != (space.size,):
            raise DomainError(f"need {space.size} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DomainError("possibility weights must be finite numbers")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise DomainError("possibility weights must lie in [0,1]")
        if not np.any(w == 1.0):
            raise MaxNotOneError(f"max weight is {float(w.max())!r}, expected exactly 1")
        return cls._adopt(space, _doubling_table(w, np.maximum))

    @classmethod
    def from_additive(cls, space: FiniteSpace, weights: Sequence[float]) -> "Capacity":
        """Additive capacity mu(A) = sum of the point weights over A.

        Weights must be nonnegative and sum to 1 within 1e-9; the table is
        then renormalized so mu(X) is exactly 1.  Sums are accumulated per
        mask by adding one nonnegative weight at a time, which keeps the
        floating-point table exactly monotone.
        """
        _require_types(("space", space, FiniteSpace))
        w = _float_array(weights, "additive weights")
        if w.shape != (space.size,):
            raise DomainError(f"need {space.size} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise BadWeightsError("additive weights must be finite numbers")
        if np.any(w < 0.0):
            raise BadWeightsError("additive weights must be nonnegative")
        total = float(w.sum())
        if total == 0.0:
            raise BadWeightsError("additive weights sum to zero")
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise BadWeightsError(f"additive weights sum to {total!r}, expected 1 within 1e-9")
        table = _doubling_table(w, np.add)
        top = table[-1]  # read before the halves divide, so both divide by the same sum
        _in_halves(lambda half: np.divide(half, top, out=half), table)
        table[0] = 0.0
        table[-1] = 1.0
        return cls._adopt(space, table)

    @classmethod
    def from_distortion(cls, base: "Capacity", g: Sequence[float]) -> "Capacity":
        """Distorted capacity mu'(A) = g(mu(A)) for a sampled monotone ``g``.

        ``g`` is a table of m+1 uniform samples over [0,1] with g(0)=0 and
        g(1)=1; values between samples are linearly interpolated and clamped
        into the sample bracket so monotonicity survives rounding.  Given
        that ``base`` is a capacity, the sample checks below make the result
        one too (the proof is in ``_interp_monotone``), so it skips the
        constructor's scan, like the additive and possibility builders.
        """
        _require_types(("base", base, Capacity))
        samples = _float_array(g, "distortion samples")
        if samples.ndim != 1 or samples.size < 2:
            raise BadDistortionError("distortion needs at least 2 samples")
        if not np.all(np.isfinite(samples)):  # NaN would pass both checks below
            raise BadDistortionError("distortion samples must be finite numbers")
        if samples[0] != 0.0 or samples[-1] != 1.0:
            raise BadDistortionError(
                f"distortion endpoints are ({float(samples[0])!r}, {float(samples[-1])!r}), expected (0, 1)"
            )
        if np.any(np.diff(samples) < 0.0):
            raise BadDistortionError("distortion samples must be non-decreasing")
        return cls._adopt(base.space, _interp_monotone(samples, base.table))

    def to_json_dict(self) -> dict:
        return {"n": self.space.size, "kind": "table", "values": [float(v) for v in self.table]}


def _interp_monotone(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear evaluation of uniform samples, clamped per bracket.

    With ``pos = x * m``, bracket ``k = floor(pos)`` and ``frac = pos - k``,
    each output is ``samples[k] + (samples[k+1] - samples[k]) * frac`` clamped
    into ``[samples[k], samples[k+1]]``.  The bracket tables are padded with a
    last bracket ``[samples[m], samples[m]]`` of width 0, which ``x = 1``
    (``k = m``) reads, so ``k`` needs no clamp and no ``k + 1`` is computed;
    every ``x`` in [0,1] has ``k`` in ``0 .. m``.  An input whose ``pos`` is an
    integer ``j`` gives ``samples[j]`` exactly.

    If ``samples`` are finite and non-decreasing with ``samples[0] = 0`` and
    ``samples[-1] = 1`` (``from_distortion``'s checks), and ``x`` is a
    capacity table, the output is a capacity table despite rounding:

    - range: every output is clamped into its bracket, which lies in [0,1];
    - endpoints: ``x = 0`` gives exactly ``samples[0] = 0``; ``x = 1`` gives
      ``pos = m``, ``k = m`` and ``frac = 0``, and reads ``lo = hi = 1`` with
      a zero width, so the output is ``1 + 0 * 0``, exactly 1;
    - monotone within one bracket: ``pos``, ``k`` and ``frac`` are monotone
      in ``x``, and rounded multiplication and addition by non-negative
      constants are monotone, and so is the clamp;
    - monotone across brackets: if ``k1 < k2``, then
      ``out1 <= samples[k1+1] <= samples[k2] <= out2``.

    The widths ``samples[k+1] - samples[k]`` are computed once, and the clamp
    is ``np.maximum`` with the low end, then ``np.minimum`` with the high
    end, which is the order in which ``np.clip`` applies them and keeps its
    sign of zero.

    ``x`` (1-d) and the output are split into halves through ``_in_halves``,
    and each half is processed in chunks of ``_INTERP_CHUNK`` entries, so the
    temporaries stay small whatever the table size.  Every output entry
    depends on its own input alone, so the split gives the serial bits.
    """
    m = samples.size - 1
    highs = np.append(samples[1:], samples[-1])
    widths = highs - samples
    out = np.empty(x.shape)

    def interp(x: np.ndarray, out: np.ndarray) -> None:
        for start in range(0, x.size, _INTERP_CHUNK):
            pos = x[start : start + _INTERP_CHUNK] * m
            k = pos.astype(np.intp)
            frac = pos - k
            lo = samples.take(k)
            value = widths.take(k)
            value *= frac
            value += lo
            np.maximum(value, lo, out=value)
            np.minimum(value, highs.take(k), out=out[start : start + _INTERP_CHUNK])

    _in_halves(interp, x, out)
    return out


def random_capacity(space: FiniteSpace, rng: np.random.Generator) -> Capacity:
    """Draw a random capacity: i.i.d. uniforms per subset, monotone envelope, fixed boundaries.

    The envelope step, ``_envelope``'s ``np.maximum`` passes, replaces each
    subset's draw with the max over its subsets, so no rejection sampling is
    needed.  The table is drawn block by block, and each drawn block is
    queued for its low passes while the next blocks are drawn; the draws are
    the numbers, in the same order, of one ``rng.random(2**n)``, and ``rng``
    ends in the same state.
    """
    _require_types(("space", space, FiniteSpace), ("rng", rng, np.random.Generator))
    table = np.empty(space.num_subsets)
    _envelope(table, space.size, rng.random)
    table[0] = 0.0
    table[-1] = 1.0
    table.setflags(write=False)  # a fresh table nobody else holds: the constructor need not copy it
    return Capacity.from_table(space, table)
