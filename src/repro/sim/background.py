"""Unrelated network activity.

The Appendix measured on a "lightly loaded" Ethernet and explicitly
blames "collisions from unrelated network activity" for the slight
throughput dip and variance increase between five- and ten-thousand-byte
messages.  :class:`BackgroundTraffic` injects that activity: a phantom
host pair exchanging frames at a configurable offered load, contending
for the shared medium like any other station.
"""

from __future__ import annotations

from typing import Optional

from .ethernet import EthernetSegment
from .kernel import Event, Simulator
from .network import Frame

__all__ = ["BackgroundTraffic"]

#: Port that no daemon binds: background frames are pure medium load.
_NOISE_PORT = 9

#: Bounds, in bytes, of the uniformly drawn background frame size.
MIN_FRAME_SIZE = 64
MAX_FRAME_SIZE = 1400


class BackgroundTraffic:
    """Injects cross-traffic onto a segment at a mean offered load.

    ``load`` is the fraction of the segment's bandwidth consumed on
    average (0.05 = 5%).  Inter-frame gaps are exponentially distributed
    (Poisson arrivals), frame sizes uniform in ``[MIN_FRAME_SIZE,
    MAX_FRAME_SIZE]`` — bursty enough to collide with measurement
    traffic at random times, which is exactly what shows up as variance
    in Figures 6-8.  ``name`` names the phantom stations and the RNG
    stream, so two injectors on one simulator draw independently.
    """

    def __init__(self, sim: Simulator, segment: EthernetSegment,
                 load: float = 0.05, name: str = "bg"):
        if not 0 <= load < 0.95:
            raise ValueError(f"load must be in [0, 0.95), got {load}")
        self.sim = sim
        self.segment = segment
        self.load = load
        self.name = name
        self.frames_injected = 0
        self.bytes_injected = 0
        self._rng = sim.rng(f"background.{name}")
        self._event: Optional[Event] = None
        self._running = False
        if load > 0:
            self.start()

    def start(self) -> None:
        if self._running or self.load <= 0:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    def _mean_gap(self, size: int) -> float:
        """Inter-arrival time that yields the target average load."""
        wire_time = self.segment.cost.wire_time(size)
        return wire_time / self.load

    def _schedule_next(self) -> None:
        size = self._rng.randint(MIN_FRAME_SIZE, MAX_FRAME_SIZE)
        gap = self._rng.expovariate(1.0 / self._mean_gap(size))
        self._event = self.sim.schedule(gap, self._inject, size,
                                        name="background.frame")

    def _inject(self, size: int) -> None:
        if not self._running:
            return
        # straight onto the medium: phantom stations have no CPU model
        frame = Frame(f"_{self.name}-src", f"_{self.name}-dst",
                      _NOISE_PORT, _NOISE_PORT, None, size)
        self.segment.transmit(frame)
        self.frames_injected += 1
        self.bytes_injected += size
        self._schedule_next()
