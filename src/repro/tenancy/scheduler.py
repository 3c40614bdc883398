"""Weighted-fair admission queue: deficit round robin over tenant lanes.

:class:`FairQueue` replaces the translation service's flat FIFO.  Each
tenant gets its own bounded sub-queue (a *lane*); consumers drain lanes
with deficit round robin keyed on the tenant's priority-class weight, so
a tenant with weight 4 is served four requests per scheduling round for
every one request of a weight-1 tenant — a hot tenant flooding its lane
delays only itself.

Guarantees (locked by the property tests in ``tests/test_tenancy.py``):

* **Work conservation** — :meth:`pop` never blocks while any item is
  queued; with a single backlogged lane that lane gets full throughput.
* **No starvation** — while backlogged, every lane is served at least
  once per round; a round is at most ``sum(weights of backlogged
  lanes)`` pops.
* **Per-lane FIFO** — items of one tenant leave in arrival order.
* **Batches never reorder** — concatenated :meth:`pop_batch` results
  are the order repeated :meth:`pop` gives; a batch is a single-key run
  of it, and an item with another key is never taken out to find out.
* **Bounded** — a global ``maxsize`` plus an optional ``per_lane_limit``
  mean one tenant cannot occupy the whole queue;
  :class:`LaneBacklogFull` (a ``queue.Full`` subclass) tells the caller
  the *tenant* hit its bound rather than the service, so load shedding
  can be attributed in the metrics.

A separate unbounded *control* lane carries scheduler-opaque sentinels
(worker shutdown tokens); control items are delivered before any data
item so a stop request cannot sit behind a tenant backlog.

:meth:`pop_batch` alone decides whether a request waits for company, from
what it observes: a consumer that had to block for its first item was
idle and returns at once; one that found a backlog was busy while
requests arrived, so it may linger once, up to ``_LINGER_S``, for more.
"""

from __future__ import annotations

import queue
import threading
from collections import deque

from repro.concurrency import make_lock

DEFAULT_LANE = "_anon"  # lane used for unauthenticated / tenant-less traffic
_LINGER_S = 0.002  # longest a backlog consumer waits for batch companions


class LaneBacklogFull(queue.Full):
    """One tenant's lane is at capacity (the global queue may have room)."""


class FairQueue:
    """Bounded multi-lane queue drained by deficit round robin.

    Args:
        maxsize: global bound across all data lanes (0 = unbounded).
        per_lane_limit: per-tenant bound (``None`` = global bound only).
    """

    def __init__(self, maxsize: int = 0, *, per_lane_limit: int | None = None):
        self.maxsize = int(maxsize)
        self.per_lane_limit = per_lane_limit
        self._lock = make_lock("FairQueue._lock")
        self._not_empty = threading.Condition(self._lock)
        self._lanes: dict[str, deque] = {}  # guarded by: _not_empty
        self._active: deque[str] = deque()  # guarded by: _not_empty
        self._deficit: dict[str, float] = {}  # guarded by: _not_empty
        self._weights: dict[str, int] = {}  # guarded by: _not_empty
        self._control: deque = deque()  # guarded by: _not_empty
        self._size = 0  # guarded by: _not_empty

    # ------------------------------------------------------------ producers

    def push(self, key: str | None, item, *, weight: int = 1) -> None:
        """Enqueue ``item`` on ``key``'s lane; raises ``queue.Full``.

        ``weight`` updates the lane's scheduling weight (the latest push
        wins, so a registry hot-reload takes effect on in-flight lanes).
        """
        lane_key = key if key else DEFAULT_LANE
        with self._not_empty:
            if self.maxsize > 0 and self._size >= self.maxsize:
                raise queue.Full(
                    f"request queue is full ({self.maxsize} pending)"
                )
            lane = self._lanes.get(lane_key)
            if (
                self.per_lane_limit is not None
                and lane is not None
                and len(lane) >= self.per_lane_limit
            ):
                raise LaneBacklogFull(
                    f"tenant {lane_key!r} backlog is full "
                    f"({self.per_lane_limit} pending)"
                )
            if lane is None:
                lane = deque()
                self._lanes[lane_key] = lane
            if not lane:  # lane (re-)activates with a clean deficit
                self._active.append(lane_key)
                self._deficit[lane_key] = 0.0
            self._weights[lane_key] = max(1, int(weight))
            lane.append(item)
            self._size += 1
            self._not_empty.notify()

    def push_control(self, item) -> None:
        """Enqueue a control sentinel (unbounded, delivered first)."""
        with self._not_empty:
            self._control.append(item)
            self._not_empty.notify()

    # ------------------------------------------------------------ consumers

    def _pop_data_locked(self):
        """One DRR step; caller holds ``_lock`` and ``_size > 0``."""
        while True:
            key = self._active[0]
            lane = self._lanes[key]
            if self._deficit[key] < 1.0:
                self._deficit[key] += self._weights.get(key, 1)
            self._deficit[key] -= 1.0
            item = lane.popleft()
            self._size -= 1
            if not lane:
                # Lane drained: deactivate and forfeit leftover deficit
                # (a returning lane must not carry credit from its past).
                self._active.popleft()
                del self._lanes[key]
                self._deficit.pop(key, None)
            elif self._deficit[key] < 1.0:
                # Round exhausted: rotate to the tail, next lane's turn.
                self._active.rotate(-1)
            return item

    def pop(self):
        """Dequeue the next item per DRR, blocking while the queue is
        empty.  Control items always win over data items."""
        with self._not_empty:
            while not self._control and self._size == 0:
                self._not_empty.wait()
            if self._control:
                return self._control.popleft()
            return self._pop_data_locked()

    def pop_batch(self, limit: int, key) -> list:
        """Block for the next item like :meth:`pop`, then keep taking the
        item DRR would serve next while its ``key(item)`` equals the
        first one's, up to ``limit`` items; an item with another key
        stays queued for whichever consumer pops next.  A control item
        comes back alone, and ends a batch that is being formed.
        """
        with self._not_empty:
            may_linger = True
            while not self._control and self._size == 0:
                may_linger = False  # had to block: this consumer was idle
                self._not_empty.wait()
            if self._control:
                return [self._control.popleft()]
            batch = [self._pop_data_locked()]
            batch_key = key(batch[0])
            while len(batch) < limit and not self._control:
                if self._size > 0:
                    if key(self._lanes[self._active[0]][0]) != batch_key:
                        break
                    batch.append(self._pop_data_locked())
                elif may_linger:
                    may_linger = False
                    self._not_empty.wait(timeout=_LINGER_S)
                else:
                    break
            if self._size > 0 or self._control:
                # The wake-up for what is left may have been absorbed by
                # this consumer's linger; hand it to a blocked sibling.
                self._not_empty.notify()
            return batch

    # ---------------------------------------------------------- inspection

    def qsize(self) -> int:
        with self._not_empty:
            return self._size

    def empty(self) -> bool:
        with self._not_empty:
            return self._size == 0 and not self._control

    def backlog(self, key: str | None) -> int:
        """Queued items on one lane right now."""
        with self._not_empty:
            lane = self._lanes.get(key if key else DEFAULT_LANE)
            return len(lane) if lane is not None else 0

    def lanes(self) -> dict[str, int]:
        """Snapshot of ``{lane: depth}`` for health reporting."""
        with self._not_empty:
            return {key: len(lane) for key, lane in self._lanes.items()}
