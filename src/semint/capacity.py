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
The envelope draws the table one block at a time (``_drawn_blocks``), and
a second thread runs the low passes on each block once it is drawn, so the
draw no longer leaves a CPU idle.  In a block of the sweep, each pass below
``_SHIFTED_POINTS`` (10) is one contiguous comparison of the block with
itself shifted by ``2**i`` (``_shifted_pairs``), whose positions that are
not lattice pairs are then masked out, instead of a strided pass whose
rows are only ``2**i`` long.  At n = 22 on 2 vCPUs (numpy 2.4, medians of
15 in four alternating processes against whole-block lattice passes after
one whole-table draw), the draw and envelope took 41-53 ms against 52-64,
``validate_table`` on a capacity 22-33 ms against 29-36, and
``from_distortion`` (65 nodes, with the leaner ``_interp_monotone``) 23-36
ms against 32-41.

Every full-table pass runs on two threads, through ``_in_halves``.  The
walk gives each thread half of the blocks, then splits each streaming pass
along its blocks or, at the top point, its offsets.  ``_faults``'
diagnosis splits each pass's comparison into the two halves of one bool
buffer, and one ``flatnonzero`` over the whole buffer reads a pass's drops
in mask order.  Each prefix-doubling step splits its slice and the prefix
it reads, ``from_additive``'s normalization splits the table, and
``_interp_monotone`` splits its input and output, each half chunked on its
own thread.  Every pass is elementwise over disjoint slices and the passes
keep their order on each entry, so tables and violation lists are bit for
bit the serial ones.  numpy's ufuncs release the GIL, so the halves run at
once.  The split is skipped below ``_SPLIT_ENTRIES`` entries per view
(n < 20 for a streaming pass, n < 19 for the blocks) and when the process
may use one CPU only, which ``_TWO_CPUS`` reads once at import.
``_faults``' [0,1] range check stays serial: it runs only on a table that
is not a capacity.

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

# entries per view below which _in_halves runs serially.  Starting and joining a thread costs about 0.2 ms;
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


def _in_halves(fn, *views: np.ndarray) -> None:
    """Run ``fn`` on the two halves of equally shaped ``views``: the first halves on a new thread, the second here.

    Each view is split at the middle of its first axis.  ``fn`` must write
    only through its arguments and act entry by entry or block by block
    along that axis, so that the two calls touch disjoint memory and do
    together exactly what one call on the whole views does.  The numpy
    ufuncs ``fn`` runs release the GIL, so the halves run at once on two
    CPUs.  The thread is joined before this returns, whatever either half
    raised, and an exception from the thread's half is raised again here.
    ``fn`` should allocate no large temporary: one made on the thread comes
    from that thread's malloc arena, and a bool temporary of the table's size
    made there cost about 4 MiB more peak RSS per ``big-tables`` run at
    n = 22, so the caller allocates every array ``fn`` writes and passes it
    as a view; temporaries of a fixed size, such as ``_interp_monotone``'s
    128 KiB chunks, are fine.  ``_walk`` hands over its blocks with a row of
    its ``firsts`` per block and the rows of the caller's bool buffer, so each
    thread takes every pass below ``_BLOCK_POINTS`` on its half of the
    blocks, one block after another, and writes only into its own rows.

    With fewer than ``_SPLIT_ENTRIES`` entries per view, or one usable CPU
    (``_TWO_CPUS``), it is one call ``fn(*views)`` on this thread.
    """
    if views[0].size < _SPLIT_ENTRIES or not _TWO_CPUS:
        fn(*views)
        return
    mid = views[0].shape[0] // 2
    raised = []

    def first_halves() -> None:
        try:
            fn(*(v[:mid] for v in views))
        except BaseException as e:  # handed to the calling thread, which raises it after the join
            raised.append(e)

    thread = threading.Thread(target=first_halves)
    thread.start()
    try:
        fn(*(v[mid:] for v in views))
    finally:
        thread.join()
    if raised:
        raise raised[0]


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
    blocked walk ``_walk`` compares ``lo <= hi`` into one reused bool buffer
    and returns the first pass that fails.  The diagnosis starts at that
    pass, or at pass 0 if an endpoint is wrong: the range and normalization
    groups, then ``lo > hi`` over the whole table, in halves through
    ``_in_halves``, and one ``flatnonzero`` for this pass and each later
    one.  No pass below the first failing one is compared twice.

    A table that never fails is a capacity, found with no range pass and no
    index array.  That is exact: NaN fails every ``<=``, and every mask lies
    on a chain of non-decreasing one-point steps from ``table[0] = 0`` to
    ``table[-1] = 1``, so no entry leaves [0,1].  Conversely a capacity
    passes every ``lo <= hi``.
    """
    buffer = np.empty(table.size // 2, dtype=bool)
    first = _walk(table, points, buffer) if table[0] == 0.0 and table[-1] == 1.0 else 0
    if first == points:
        return
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


def _shifted_pairs(table: np.ndarray, start: int, stop: int):
    """Yield ``(i, table[:-2**i], table[2**i:])`` for each point ``i`` from ``start`` below ``stop``.

    The two views are ``lo`` and ``hi``: position ``p`` pairs ``table[p]``
    with ``table[p + 2**i]``.  Where bit ``i`` of ``p`` is clear that is the
    lattice pair of mask ``p`` and ``p + {i}`` that ``_lattice_pairs`` yields;
    elsewhere the two masks are not a pair.
    Both views are contiguous, so a ufunc over them runs one inner loop over
    the whole table instead of rows only ``2**i`` long.
    """
    for i in range(start, stop):
        yield i, table[: -(1 << i)], table[1 << i :]


def _walk(table: np.ndarray, points: int, buffer: np.ndarray) -> int:
    """Compare ``lo <= hi`` for every point below ``points`` over ``table`` in blocks; return the first pass that fails.

    ``buffer`` is a bool array of ``table.size // 2`` entries.  Each pass
    compares into it and fails unless every entry is true; the walk stops at
    the first failing pass and returns it, or ``points``.

    A pass ``i`` below ``b = _BLOCK_POINTS`` pairs masks inside one aligned
    block of ``2**b`` entries, so each block takes all of those passes in
    turn while it stays in cache, and only the passes from ``b`` on stream
    the whole table, each split through ``_in_halves``.  The blocks go
    through ``_in_halves`` too, each thread taking half of them and comparing
    into its half of ``buffer``.  That half holds a whole block once there are
    four blocks (two on one thread), and then ``_passes`` compares the passes
    below ``_SHIFTED_POINTS`` as shifted views.  Every pass is still checked
    alone and in order.  A block compares only the passes below the smallest
    failing pass its thread has found so far and writes that bound into
    ``firsts``; a pass is skipped only past a pass that fails, so the
    smallest bound is the first failing pass over the whole table.  For
    ``points <= _BLOCK_POINTS`` the table is one block, and the walk is one
    whole-table pass after another.
    """
    if points <= _BLOCK_POINTS:
        return _passes(table, 0, points, buffer, split=True)
    low, shifted = _BLOCK_POINTS, min(_SHIFTED_POINTS, _BLOCK_POINTS)
    blocks = table.reshape(-1, 1 << low)
    firsts = np.empty(blocks.shape[0], dtype=np.intp)
    # off_lattice[i, p] marks the positions p whose bit i is set, over one period of every shifted pass.  It is made
    # here, not at import: its temporaries grew the peak RSS of processes that never build a table past one block.
    off_lattice = (np.arange(1 << shifted) >> np.arange(shifted)[:, None] & 1).astype(bool)

    def walk_blocks(blocks: np.ndarray, firsts: np.ndarray, rows: np.ndarray) -> None:
        limit, scratch = low, rows.reshape(-1)
        off = off_lattice if scratch.size >= blocks.shape[1] else None  # shifted passes need a whole block's room
        for k, block in enumerate(blocks):
            limit = _passes(block, 0, limit, scratch, split=False, off_lattice=off)
            firsts[k] = limit

    _in_halves(walk_blocks, blocks, firsts, buffer.reshape(blocks.shape[0], -1))
    first = min(firsts.tolist())
    return first if first < low else _passes(table, low, points, buffer, split=True)


def _envelope(table: np.ndarray, points: int, draw) -> None:
    """Fill ``table`` with ``draw``, then replace each entry with the max over its subsets, one pass per point.

    The passes below ``_BLOCK_POINTS`` run block by block as ``_drawn_blocks``
    draws each block, and the later ones stream the whole table, each split
    through ``_in_halves``.  Every entry meets its passes in increasing
    order, so the table is bit for bit that of drawing it whole and running
    whole-table passes.
    """
    low = min(points, _BLOCK_POINTS)
    _drawn_blocks(table.reshape(-1, 1 << low), draw, lambda block: _passes(block, 0, low, None, split=False))
    _passes(table, low, points, None, split=True)


def _drawn_blocks(blocks: np.ndarray, draw, passes) -> None:
    """Fill the rows of ``blocks`` in order with ``draw(out=row)`` here; run ``passes(row)`` once a row is drawn.

    ``draw`` is one call per block in order, so with ``Generator.random`` the
    blocks hold the numbers of one call over all of them, and the generator
    ends in the same state.  A second thread takes the blocks in order as
    they are drawn, and this thread takes the rest when the draw ends; each
    block is claimed by one thread.  The draw and the passes release the GIL,
    so they run at once on two CPUs.  The thread is joined before this
    returns, whatever either side raised, and an exception from the thread is
    raised again here; a failed draw releases the thread from its wait.

    With fewer than ``_SPLIT_ENTRIES`` entries, or one usable CPU
    (``_TWO_CPUS``), each block is drawn and passed in turn on this thread.
    """
    if blocks.size < _SPLIT_ENTRIES or not _TWO_CPUS:
        for block in blocks:
            draw(out=block)
            passes(block)
        return
    ready = threading.Condition()
    drawn = claimed = 0  # blocks drawn and blocks claimed, each a prefix in order; drawn is -1 after a failure
    raised = []

    def claim() -> int | None:
        """The next unclaimed block, once it is drawn; None once every block is claimed or the walk failed."""
        nonlocal claimed
        with ready:
            k = claimed
            if k == len(blocks):
                return None
            claimed += 1
            ready.wait_for(lambda: drawn > k or drawn < 0)
            return k if drawn > k else None

    def pass_drawn_blocks() -> None:
        try:
            while (k := claim()) is not None:
                passes(blocks[k])
        except BaseException as e:  # handed to the calling thread, which raises it after the join
            raised.append(e)

    thread = threading.Thread(target=pass_drawn_blocks)
    thread.start()
    try:
        for k, block in enumerate(blocks):
            draw(out=block)
            with ready:
                drawn = k + 1
                ready.notify()
        while (k := claim()) is not None:
            passes(blocks[k])
    except BaseException:
        with ready:
            drawn = -1
            ready.notify()
        raise
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _passes(
    table: np.ndarray,
    start: int,
    stop: int,
    buffer: np.ndarray | None,
    split: bool,
    off_lattice: np.ndarray | None = None,
) -> int:
    """Run the lattice passes ``start .. stop-1`` over ``table``, each in halves if ``split``; return the first to fail.

    Without ``buffer`` each pass writes ``np.maximum(hi, lo)`` into ``hi`` in
    place (an envelope pass) and none fails.  With ``buffer``, a bool array,
    each pass writes ``lo <= hi`` into it and fails unless every entry is
    true; the return is the first pass that fails, or ``stop``.

    With ``off_lattice`` (a block of the accepting sweep, and a ``buffer`` at
    least as large), each pass ``i`` below its row count is one shifted
    comparison, ``_shifted_pairs``: every position is compared, and the
    positions that are not a lattice pair, which row ``i`` marks over one
    period, are then set true, so the pass fails exactly where its lattice
    pairs do.  The last ``2**i`` positions, which the comparison does not
    reach, all have bit ``i`` set.
    """
    if off_lattice is not None:
        out = buffer[: table.size]
        periods = out.reshape(-1, off_lattice.shape[1])
        for i, lo, hi in _shifted_pairs(table, start, min(stop, len(off_lattice))):
            np.less_equal(lo, hi, out=out[: lo.size])
            np.logical_or(periods, off_lattice[i], out=periods)
            if not out.all():
                return i
        start = max(start, min(stop, len(off_lattice)))
    run = _in_halves if split else lambda fn, *views: fn(*views)
    for i, lo, hi, order in _lattice_pairs(table, stop, start):
        if buffer is None:
            run(lambda lo, hi: np.maximum(hi, lo, out=hi, order=order), lo, hi)
        else:
            out = buffer[: lo.size].reshape(lo.shape)
            run(lambda lo, hi, out: np.less_equal(lo, hi, out=out, order=order), lo, hi, out)
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
    needed.  The table is drawn block by block, and a second thread takes
    each block's low passes while the next blocks are drawn; the draws are
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
