"""Discrete-event simulation kernel.

Every distributed component in this reproduction (hosts, daemons, the
Ethernet segment, protocol timers) runs on top of this kernel.  Simulated
time is a ``float`` number of seconds starting at 0.0.  Events scheduled at
the same instant fire in the order they were scheduled, which keeps runs
fully deterministic for a given seed.

The kernel is deliberately small: an event heap, cancellable timers, named
RNG streams (so adding a new random consumer never perturbs existing ones),
one run loop (`run_until`; `run` is `run_until` without a deadline) and
`step`, which fires a single event.
"""

from __future__ import annotations

import math
import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimError"]


class SimError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice, ...)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events are single-shot.  Cancelling an event that already fired (or was
    already cancelled) is a no-op, which makes protocol cleanup code simple.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "name", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: tuple, name: str = "",
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.name = name
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.name or getattr(self.callback, "__name__", "<fn>")
        return f"<Event t={self.time:.6f} {label} {state}>"


class Simulator:
    """The event loop.

    Parameters
    ----------
    seed:
        Master seed.  All randomness in a simulation must come from
        :meth:`rng` streams derived from this seed; two runs with the same
        seed and the same schedule of calls are bit-identical.
    """

    #: Compact once at least this many heap entries are cancelled AND they
    #: outnumber the live ones — timer-churn workloads (heartbeats, router
    #: timers, retransmit timers across many hosts) otherwise accumulate
    #: dead events until they happen to be popped.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: ``(time, seq, event)`` entries: the heap orders them on the
        #: float and the int in C, and ``seq`` is unique, so the
        #: :class:`Event` itself is never compared
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._rngs: Dict[str, random.Random] = {}
        self._running = False
        self._stopped = False
        #: cancelled-but-still-heaped events (kept exact by cancel/pop)
        self._cancelled_count = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # time & randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def rng(self, stream: str) -> random.Random:
        """Return the named RNG stream, creating it deterministically.

        Streams are independent: the draw order in one stream never affects
        another, so e.g. the Ethernet loss stream and an application's
        workload stream cannot perturb each other.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(f"{self.seed}/{stream}")
            self._rngs[stream] = rng
        return rng

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any, name: str = "") -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, name, self)
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any, name: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self._now, callback, *args, name=name)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled_count -= 1
                continue
            event.fired = True
            self._now = event.time
            event.callback(*event.args)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event heap drains.  Returns the number of events fired.

        ``max_events`` is a runaway guard: protocols with periodic timers
        that never idle would otherwise spin forever.
        """
        return self.run_until(math.inf, max_events)

    def run_until(self, deadline: float, max_events: int = 10_000_000) -> int:
        """Run events with ``time <= deadline``; leave later events queued.

        After returning, :attr:`now` equals a finite ``deadline`` even if
        the heap drained earlier, so periodic measurement code can rely
        on it.  This is the one run loop: the re-entrancy guard, the
        :meth:`stop` flag and the ``max_events`` runaway guard live here.
        """
        if self._running:
            raise SimError("simulator is already running")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while fired < max_events and not self._stopped:
                if not self._heap:
                    break
                when, _seq, nxt = self._heap[0]
                if nxt.cancelled:
                    heappop(self._heap)
                    self._cancelled_count -= 1
                    continue
                if when > deadline:
                    break
                self.step()
                fired += 1
            else:
                if fired >= max_events:
                    raise SimError(f"exceeded max_events={max_events}")
        finally:
            self._running = False
            if self._now < deadline < math.inf:
                self._now = deadline
        return fired

    def stop(self) -> None:
        """Request the current :meth:`run` / :meth:`run_until` to return."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the heap.  O(1)."""
        return len(self._heap) - self._cancelled_count

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for events still in the heap."""
        self._cancelled_count += 1
        if (self._cancelled_count >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_count * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events.

        Timer-churn workloads cancel far more events than they fire
        (every delivered message cancels a retransmit timer); without
        compaction those corpses occupy heap slots — and comparisons —
        until their deadline is reached.  Rebuilding keeps the relative
        order of live events: the heap is re-heapified on the same
        ``(time, seq)`` keys.
        """
        self._heap = [entry for entry in self._heap
                      if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled_count = 0
        self.compactions += 1


class PeriodicTimer:
    """Fixed-interval timer that reschedules itself until stopped.

    Useful for protocol heartbeats and polling loops.  The callback runs
    first at ``sim.now + interval`` (or ``+ initial_delay`` if given).
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None],
                 initial_delay: Optional[float] = None, name: str = ""):
        if interval <= 0:
            raise SimError(f"interval must be positive (got {interval})")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._name = name or "periodic"
        self._event: Optional[Event] = None
        self._stopped = False
        first = interval if initial_delay is None else initial_delay
        self._event = sim.schedule(first, self._fire, name=self._name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._event = self._sim.schedule(self._interval, self._fire,
                                         name=self._name)
        self._callback()

    def stop(self) -> None:
        """Cancel the timer.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped


__all__.append("PeriodicTimer")
