"""Vectorized NumPy kernels for the DME hot path.

The greedy merger's inner loops (``_initialize_best``,
``_recompute_best``, ``_introduce``) evaluate one candidate pair at a
time: a ``Trr.distance_to`` call, a ``zero_skew_split``, and a cost.
This module evaluates the same arithmetic over whole candidate
*batches* with NumPy array expressions, so a screen over N candidates
is a handful of vector operations instead of N Python call chains.

Exact-parity contract
---------------------
Every kernel mirrors its scalar counterpart **operation for operation**
in IEEE-754 double precision: the same subtractions, the same
association order, the same ``max``/``min`` structure.  NumPy's
elementwise float64 arithmetic performs the identical rounding to
CPython's float arithmetic, so the batched results are bit-identical
to the scalar ones -- not merely close.  The merger relies on this to
keep its greedy decisions (and therefore ``merge_trace``) byte-equal
between ``vectorize=True`` and ``vectorize=False`` runs; the property
tests in ``tests/test_cts_kernels.py`` assert exact float equality.

What is batched:

* :func:`batch_segment_distance` -- ``Trr.distance_to`` over
  ``(ulo, uhi, vlo, vhi)`` arrays;
* :func:`batch_zero_skew_split` -- ``repro.cts.merge.zero_skew_split``
  over pair lanes (plain wires, or uniform cells on both edges via
  ``cell_a`` / ``cell_b``): the linear balance ``x = num / den`` with
  its degenerate-denominator and out-of-range classification, and the
  snaked lanes' positive quadratic root.  Only the lanes the scalar
  split raises on or special-cases are left to the scalar ``plan()``
  (:func:`fallback_lanes`);
* :func:`batch_star_length` -- controller-to-segment-center Manhattan
  distance (the enable-star estimate of the Eq. 3 cost terms).

:class:`NodeArrays` is the struct-of-arrays mirror of per-node merge
state the merger keeps in sync through ``_retire``/``_introduce``;
:class:`ActiveIds` maintains the active-id array with O(1)
swap-removal so candidate gathers are single fancy-index operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.cts.merge import DEGENERATE_DEN_EPS, DEGENERATE_SKEW_EPS, SNAKE_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dme -> kernels)
    from repro.cts.topology import ClockNode


def as_id_array(ids: Sequence[int]) -> np.ndarray:
    """Candidate ids as an ``int64`` array (the kernels' id dtype).

    Scalar counterpart: none -- dtype plumbing, no scalar arithmetic.
    """
    return np.asarray(list(ids), dtype=np.int64)


def rank_by_cost(ids: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Indices ordering candidates by ``(cost, id)`` ascending.

    This is the scalar greedy's exact comparison: cheapest cost first,
    float ties broken by the smaller node id.

    Scalar counterpart: repro.cts.dme.BottomUpMerger._recompute_best
    """
    return np.lexsort((ids, costs))


def batch_segment_distance(
    a_ulo: float,
    a_uhi: float,
    a_vlo: float,
    a_vhi: float,
    b_ulo: np.ndarray,
    b_uhi: np.ndarray,
    b_vlo: np.ndarray,
    b_vhi: np.ndarray,
) -> np.ndarray:
    """``Trr.distance_to`` of one query segment against a batch.

    Mirrors ``_interval_gap``: ``max(0, lo2 - hi1, lo1 - hi2)`` per
    axis, then the max of the two gaps.  ``max`` is rounding-free, so
    the result is bit-identical to the scalar call in either pair
    orientation (the gap arguments just swap).

    Scalar counterpart: repro.geometry.trr.Trr.distance_to
    """
    gu = np.maximum(0.0, np.maximum(b_ulo - a_uhi, a_ulo - b_uhi))
    gv = np.maximum(0.0, np.maximum(b_vlo - a_vhi, a_vlo - b_vhi))
    return np.maximum(gu, gv)


def batch_star_length(
    px: float,
    py: float,
    ulo: np.ndarray,
    uhi: np.ndarray,
    vlo: np.ndarray,
    vhi: np.ndarray,
) -> np.ndarray:
    """Manhattan distance from one point to each segment's center.

    Mirrors ``point.manhattan_to(segment.center())``:
    ``center = from_uv((ulo+uhi)/2, (vlo+vhi)/2)`` then
    ``|px - cx| + |py - cy|``, with the exact intermediate roundings of
    the scalar chain.

    Scalar counterpart: repro.geometry.point.Point.manhattan_to
    """
    u = (ulo + uhi) / 2.0
    v = (vlo + vhi) / 2.0
    cx = (u + v) / 2.0
    cy = (u - v) / 2.0
    return np.abs(px - cx) + np.abs(py - cy)


@dataclass(frozen=True)
class BatchSplit:
    """Vectorized ``zero_skew_split`` outcome over a candidate batch.

    The per-lane values (``length_a`` .. ``merged_cap``) are valid
    wherever ``modelled`` is True: in-range lanes and snaked lanes
    (``snake_a``/``snake_b``) alike.  The few lanes the scalar
    ``zero_skew_split`` raises on or special-cases (see
    :func:`batch_zero_skew_split`) carry zeros there and must be
    re-evaluated by the scalar split.
    """

    x: np.ndarray
    length_a: np.ndarray
    length_b: np.ndarray
    delay: np.ndarray
    presented_a: np.ndarray
    presented_b: np.ndarray
    merged_cap: np.ndarray
    in_range: np.ndarray
    degenerate: np.ndarray
    snake_a: np.ndarray
    snake_b: np.ndarray
    modelled: np.ndarray


def _edge_delay(intrinsic, drive, length, cap, delay, r, c):
    """``Tap.edge_delay``: ``D + R (c x + C) + r x (c x / 2 + C) + t``."""
    return (
        intrinsic
        + drive * (c * length + cap)
        + r * length * (c * length / 2.0 + cap)
        + delay
    )


def batch_zero_skew_split(
    length: np.ndarray,
    cap_a,
    delay_a,
    cap_b,
    delay_b,
    r: float,
    c: float,
    cell_a=None,
    cell_b=None,
) -> BatchSplit:
    """``zero_skew_split`` over a batch of pair lanes.

    Each side's ``cap`` / ``delay`` is a per-lane array or a scalar;
    every expression below broadcasts symmetrically, so a lane's float
    chain is the scalar split's for that lane's ``(a, b)`` orientation
    whichever side the arrays sit on.  ``cell_a`` / ``cell_b`` are the
    cells (gate/buffer models exposing ``drive_resistance`` /
    ``intrinsic_delay`` / ``input_cap``) on the two new edges, or
    ``None`` for plain wire -- uniform across the batch, which is
    exactly the case the merger's uniform cell policies produce.  With
    no cells the drive/intrinsic terms vanish exactly (``0.0 * finite
    == 0.0`` and ``0.0 + x == x`` for the non-negative operands
    involved), so each expression reproduces the scalar function's
    float chain bit for bit -- with or without cells.

    Snaked lanes follow ``_snake_length``: the slow side keeps a zero
    edge, the target delay is its ``edge_delay(0.0)``, and the fast
    side's wire is the positive root of the same ``quad``/``lin``/
    ``const`` quadratic (``np.sqrt`` rounds like ``math.sqrt``), 0.0
    when ``const >= -EPS``, then ``max(root, length)``.  Lanes where
    the scalar code raises (``const > EPS``) or takes its linear
    special case (``quad <= EPS``) are left out of ``modelled``.

    Scalar counterpart: repro.cts.merge.zero_skew_split
    """
    ra = cell_a.drive_resistance if cell_a is not None else 0.0
    ia = cell_a.intrinsic_delay if cell_a is not None else 0.0
    rb = cell_b.drive_resistance if cell_b is not None else 0.0
    ib = cell_b.intrinsic_delay if cell_b is not None else 0.0

    den = c * (ra + rb) + r * (cap_a + cap_b) + r * c * length
    # Tap.unloaded_delay: t' = D + R * C + t, association preserved.
    unloaded_a = ia + ra * cap_a + delay_a
    unloaded_b = ib + rb * cap_b + delay_b
    skew = unloaded_b - unloaded_a
    num = length * (rb * c + r * cap_b) + r * c * length * length / 2.0 + skew

    degenerate = den <= DEGENERATE_DEN_EPS
    safe_den = np.where(degenerate, 1.0, den)
    x = num / safe_den
    if degenerate.any():
        # Scalar classification: equal subtrees split trivially, a
        # slower side forces the snaking path via an out-of-range x.
        deg_x = np.where(
            np.abs(skew) <= DEGENERATE_SKEW_EPS,
            length / 2.0,
            np.where(skew > 0, length + 1.0, -1.0),
        )
        x = np.where(degenerate, deg_x, x)

    snake_b = x < 0.0
    snake_a = x > length
    in_range = ~(snake_a | snake_b)
    modelled = in_range

    e_a = np.where(in_range, x, 0.0)
    e_b = np.where(in_range, length - x, 0.0)
    if not in_range.all():
        # _snake_length(fast, slow.edge_delay(0.0)) per snaked lane.
        quad = r * c / 2.0
        const = np.where(
            snake_a,
            unloaded_a - _edge_delay(ib, rb, 0.0, cap_b, delay_b, r, c),
            unloaded_b - _edge_delay(ia, ra, 0.0, cap_a, delay_a, r, c),
        )
        lin = np.where(snake_a, ra * c + r * cap_a, rb * c + r * cap_b)
        scalar_only = const > SNAKE_EPS
        if quad <= SNAKE_EPS:
            scalar_only = scalar_only | (const < -SNAKE_EPS)
        modelled = in_range | ~scalar_only
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = lin * lin - 4.0 * quad * const
            root = (-lin + np.sqrt(disc)) / (2.0 * quad)
        root = np.where(const >= -SNAKE_EPS, 0.0, root)
        # Python's max(root, length) keeps root unless length is larger.
        snaked = np.where(modelled, np.where(length > root, length, root), 0.0)
        e_a = np.where(snake_a, snaked, e_a)
        e_b = np.where(snake_b, snaked, e_b)

    edge_delay_a = _edge_delay(ia, ra, e_a, cap_a, delay_a, r, c)
    edge_delay_b = _edge_delay(ib, rb, e_b, cap_b, delay_b, r, c)
    if cell_a is not None:
        presented_a = np.full_like(e_a, cell_a.input_cap)
    else:
        presented_a = c * e_a + cap_a
    if cell_b is not None:
        presented_b = np.full_like(e_b, cell_b.input_cap)
    else:
        presented_b = c * e_b + cap_b
    return BatchSplit(
        x=x,
        length_a=e_a,
        length_b=e_b,
        delay=np.maximum(edge_delay_a, edge_delay_b),
        presented_a=presented_a,
        presented_b=presented_b,
        merged_cap=presented_a + presented_b,
        in_range=in_range,
        degenerate=degenerate,
        snake_a=snake_a,
        snake_b=snake_b,
        modelled=modelled,
    )


def fallback_lanes(split: BatchSplit) -> list:
    """Lane indices the batch split could not model.

    Scalar counterpart: none -- mask bookkeeping over
    :class:`BatchSplit`; the lanes themselves are re-evaluated by the
    scalar ``zero_skew_split``.
    """
    return np.nonzero(~split.modelled)[0].tolist()


class NodeArrays:
    """Struct-of-arrays mirror of the merger's per-node state.

    One float64 row per node id: merging-segment extents in rotated
    coordinates, presented subtree capacitance, zero-skew sink delay
    (which equals the unloaded delay on the cell-free path the split
    kernel models), and the enable probabilities the Eq. 3 bound terms
    read.  ``sig`` is an ``int64`` column of activation signatures
    (:meth:`repro.activity.probability.ActivityOracle.activation_signature`);
    signatures of merged pairs are one ``np.bitwise_or`` away, which is
    what lets the cost kernels batch the oracle lookups.  Rows are
    written once -- at construction for sinks and from ``_introduce``
    for merged nodes -- and never change afterwards, so candidate
    gathers are plain fancy indexing.
    """

    _FIELDS = (
        "ulo",
        "uhi",
        "vlo",
        "vhi",
        "cap",
        "delay",
        "enable_p",
        "enable_ptr",
    )

    __slots__ = _FIELDS + ("sig",)

    def __init__(self, capacity: int):
        capacity = max(1, int(capacity))
        for name in self._FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=np.float64))
        self.sig = np.zeros(capacity, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        size = max(needed + 1, 2 * self.ulo.size)
        for name in self._FIELDS:
            old = getattr(self, name)
            grown = np.zeros(size, dtype=np.float64)
            grown[: old.size] = old
            setattr(self, name, grown)
        grown_sig = np.zeros(size, dtype=np.int64)
        grown_sig[: self.sig.size] = self.sig
        self.sig = grown_sig

    def set_row(self, nid: int, node: "ClockNode", sig: int = 0) -> None:
        """Mirror one node's merge state under its id."""
        if nid >= self.ulo.size:
            self._grow(nid)
        seg = node.merging_segment
        self.ulo[nid], self.uhi[nid], self.vlo[nid], self.vhi[nid] = seg.bounds_uv
        self.cap[nid] = node.subtree_cap
        self.delay[nid] = node.sink_delay
        self.enable_p[nid] = node.enable_probability
        self.enable_ptr[nid] = node.enable_transition_probability
        self.sig[nid] = sig


class ActiveIds:
    """Dense ``int64`` array of active node ids with O(1) add/remove.

    Removal swaps the last id into the vacated slot, so the live prefix
    stays contiguous and a candidate batch is one slice (order is
    arbitrary -- the kernels rank by ``(cost, id)``, which is
    order-independent).
    """

    __slots__ = ("_ids", "_pos", "_count")

    def __init__(self, ids: Iterable[int], capacity: int = 0):
        self._ids = np.empty(max(1, int(capacity)), dtype=np.int64)
        self._pos = {}
        self._count = 0
        for nid in ids:
            self.add(nid)

    def __len__(self) -> int:
        return self._count

    def add(self, nid: int) -> None:
        if nid in self._pos:
            return
        if self._count == self._ids.size:
            grown = np.empty(2 * self._ids.size, dtype=np.int64)
            grown[: self._count] = self._ids[: self._count]
            self._ids = grown
        self._ids[self._count] = nid
        self._pos[nid] = self._count
        self._count += 1

    def discard(self, nid: int) -> None:
        pos = self._pos.pop(nid, None)
        if pos is None:
            return
        last = self._count - 1
        if pos != last:
            moved = int(self._ids[last])
            self._ids[pos] = moved
            self._pos[moved] = pos
        self._count = last

    def view(self) -> np.ndarray:
        """The live ids (a borrowed view; do not mutate)."""
        return self._ids[: self._count]

    def others(self, nid: int) -> np.ndarray:
        """The live ids except ``nid`` (a fresh array)."""
        view = self.view()
        return view[view != nid]
