"""Span tracing of the bus from outside, and the cProfile cross-check.

The ledger measures layers without touching ``src/repro``: before the
bus is built, :meth:`SpanTracer.install` replaces the entry points of
each layer (the functions through which control enters a module from
another one) with wrappers that record a span — layer, name, start,
end, parent, trace id — into in-memory columns.  Callers that bound a
function by name (``from .wire import decode_packet``) are patched too,
and ``run.py`` fails the run if a wrapper's call count disagrees with
the program's own counter for the same thing.

Causality across the simulator: the wrapper on ``Simulator.schedule``
hands the kernel a callback that, when the event fires, adopts the
scheduling span as the parent of the enclosing ``Simulator.step`` span.
A delivery's spans therefore chain back through host, Ethernet and
kernel hops to the ``client.publish`` span that caused them, whose span
id is the trace id of everything downstream.

Self time of a span is its duration minus the time covered by spans
nested inside it.  The wrappers themselves cost time: the part on
either side of a span is measured with two more clock reads and charged
to nobody, and the small remainder is modelled and subtracted, so layers
made of many small calls are not inflated.  Time inside the load window
that no span covers is ``other``.
"""

from __future__ import annotations

import importlib
import pstats
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in the order a message crosses them.  A layer is a module of
#: ``src/repro`` (``marshal`` is all of ``objects/``).
LAYERS = ("client", "marshal", "typeplane", "daemon", "batching", "wire",
          "framing", "reliable", "guaranteed", "stable_storage", "subjects",
          "flow", "metrics", "kernel", "node", "transport", "ethernet")

#: layer -> (module, class or None, entry points).  Public functions
#: plus the private ones another layer calls back into (timer and socket
#: callbacks): leaving those out would charge a layer's receive-side
#: work to whichever layer happened to call it.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("client", "repro.core.client", "BusClient",
     ("publish", "publish_bytes", "_deliver")),
    ("marshal", "repro.objects.marshal", None,
     ("encode", "encode_typed", "decode")),
    ("typeplane", "repro.core.typeplane", "TypeTable",
     ("intern", "pending_defs", "blob", "description", "named")),
    ("typeplane", "repro.core.typeplane", "PeerTypeView",
     ("description", "named")),
    ("daemon", "repro.core.daemon", "BusDaemon",
     ("publish", "flush", "type_resolver", "type_table_for", "_on_datagram",
      "_deliver_remote", "_send_batch", "_send_nack", "_send_heartbeat",
      "_advertise_snapshot", "_republish_guaranteed", "_pump_fire",
      "_lane_drain")),
    ("batching", "repro.core.batching", "Batcher", ("add", "flush")),
    ("wire", "repro.core.wire", None,
     ("encode_packet", "decode_packet", "read_digest", "envelope_wire_size",
      "packet_wire_size")),
    ("framing", "repro.sim.framing", None, ("frame", "unframe_view")),
    ("reliable", "repro.core.reliable", "ReliableSender",
     ("stamp", "repair", "forget")),
    ("reliable", "repro.core.reliable", "ReliableReceiver",
     ("handle_envelope", "try_skip", "note_undecodable", "handle_heartbeat",
      "_fire_nack", "_end_sync")),
    ("guaranteed", "repro.core.guaranteed", "GuaranteedPublisher",
     ("record", "handle_ack", "pending", "_tick")),
    ("guaranteed", "repro.core.guaranteed", "GuaranteedConsumer",
     ("first_delivery",)),
    ("stable_storage", "repro.sim.stable_storage", "StableStore",
     ("append", "read_log", "put", "get")),
    ("subjects", "repro.core.subjects", "SubjectTrie",
     ("match", "matches_anything", "insert", "remove")),
    ("subjects", "repro.core.subjects", None,
     ("validate_subject", "validate_pattern")),
    ("flow", "repro.core.flow", "BoundedQueue",
     ("offer", "take", "drain", "pass_through")),
    ("flow", "repro.core.flow", "BoundedBuffer", ("insert", "get", "pop")),
    ("metrics", "repro.core.metrics", "Counter", ("inc",)),
    ("metrics", "repro.core.metrics", "Histogram", ("observe",)),
    ("kernel", "repro.sim.kernel", "Simulator", ("schedule", "step")),
    ("node", "repro.sim.node", "Host", ("send_frame", "deliver_frame")),
    ("transport", "repro.sim.transport", "DatagramSocket",
     ("sendto", "broadcast", "_on_frame")),
    ("ethernet", "repro.sim.ethernet", "EthernetSegment",
     ("transmit", "_deliver")),
)

#: Spans whose id becomes the trace id of everything they cause.
ROOTS = {("client", "BusClient.publish"), ("client", "BusClient.publish_bytes")}

#: Most spans written to the trace file (a prefix of the load: whole
#: chains for the first few hundred messages).  Aggregates use them all.
FILE_SPAN_LIMIT = 100_000


class SpanTracer:
    """Columns of spans plus per-entry-point running totals."""

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace = array("l")
        #: name id -> (layer, qualified name)
        self.names: List[Tuple[str, str]] = []
        #: live call stack: [span, time covered by children, trace id,
        #: name id]
        self._stack: List[list] = []
        # per name id, load window only
        self._self: List[float] = []
        self._calls: List[int] = []
        self._child_calls: List[int] = []
        self._raised: List[int] = []
        #: [outermost spans, seconds they cover wrapper-to-wrapper]
        self._top = [0, 0.0]
        self._window = (0, 0)
        self._totals: Optional[dict] = None
        self._originals: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, func: Callable, layer: str, qualname: str) -> Callable:
        """``func`` recording one span per call.

        Four clock reads per call: the span is ``[t0, t1]`` around
        ``func``, but the parent is told the whole wrapper ``[ta, tc]``
        was covered, so the bookkeeping on either side of the span is
        charged to nobody instead of inflating the parent.
        """
        self.names.append((layer, qualname))
        name_id = len(self.names) - 1
        self._self.append(0.0)
        self._calls.append(0)
        self._child_calls.append(0)
        self._raised.append(0)
        root = (layer, qualname) in ROOTS
        stack, top_level = self._stack, self._top
        push, pop = stack.append, stack.pop
        add_name = self.name.append
        add_start, add_end = self.start.append, self.end.append
        add_parent, add_trace = self.parent.append, self.trace.append
        starts, ends = self.start, self.end
        selfs, calls, child_calls = self._self, self._calls, self._child_calls
        raised = self._raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            ta = clock()
            index = len(ends)
            if stack:
                above = stack[-1]
                parent, trace = above[0], above[2]
                child_calls[above[3]] += 1
            else:
                above = None
                parent = trace = -1
            if root and trace < 0:
                trace = index
            add_name(name_id)
            add_parent(parent)
            add_trace(trace)
            add_end(0.0)
            frame = [index, 0.0, trace, name_id]
            push(frame)
            add_start(0.0)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                raised[name_id] += 1
                raise
            finally:
                t1 = clock()
                pop()
                starts[index] = t0
                ends[index] = t1
                selfs[name_id] += t1 - t0 - frame[1]
                calls[name_id] += 1
                if above is not None:
                    above[1] += clock() - ta
                else:
                    top_level[0] += 1
                    top_level[1] += clock() - ta

        return wrapper

    def _causal_schedule(self, schedule: Callable) -> Callable:
        """``Simulator.schedule`` handing the kernel a callback that, when
        it fires, makes the scheduling span the parent of the
        ``Simulator.step`` span around it.  Runs inside its own span (it
        is wrapped like any other entry point)."""
        stack = self._stack
        parents, traces = self.parent, self.trace

        def causal(sim, delay, callback, *args, name=""):
            scheduling = stack[-1]
            index, trace = scheduling[0], scheduling[2]

            def fire(*fire_args):
                if stack:
                    step = stack[-1]
                    parents[step[0]] = index
                    traces[step[0]] = trace
                    step[2] = trace
                callback(*fire_args)

            return schedule(sim, delay, fire, *args, name=name)

        return causal

    def install(self) -> None:
        """Patch every target, and every ``repro`` module that bound a
        patched module-level function under any name."""
        for layer, module_name, class_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                original = owner.__dict__[attr]
                qualname = f"{class_name}.{attr}" if class_name else attr
                self._originals[f"{layer}.{qualname}"] = original
                inner = (self._causal_schedule(original)
                         if qualname == "Simulator.schedule" else original)
                wrapped = self.wrap(inner, layer, qualname)
                if class_name:
                    setattr(owner, attr, wrapped)
                else:
                    _rebind_everywhere(original, wrapped)

    def begin_load(self) -> None:
        """Start of the timed load: totals count from here."""
        self._self[:] = [0.0] * len(self._self)
        self._calls[:] = [0] * len(self._calls)
        self._child_calls[:] = [0] * len(self._child_calls)
        self._raised[:] = [0] * len(self._raised)
        self._top[:] = [0, 0.0]
        self._window = (len(self.end), 0)

    def end_load(self) -> None:
        self._window = (self._window[0], len(self.end))
        self._totals = {
            "self": list(self._self), "calls": list(self._calls),
            "child_calls": list(self._child_calls),
            "raised": list(self._raised),
            "top_spans": self._top[0], "top_seconds": self._top[1]}

    # ------------------------------------------------------------------
    # what the four clock reads cannot see
    # ------------------------------------------------------------------
    def _measure_residual(self) -> Tuple[float, float, float]:
        """``(r_in, r_out, event_extra)`` in seconds: wrapper cost that
        still lands inside a span (between the clock reads and ``func``),
        cost that still lands in the parent (calling into and returning
        from the wrapper), and what the causal callback adds to one
        schedule+step cycle beyond that."""
        rounds, best_in, best_out, best_extra = 20_000, 1e9, 1e9, 1e9

        def noop():
            return None

        inner = self.wrap(noop, "calibration", "noop")
        inner_id = len(self.names) - 1

        def loop(call):
            for _ in range(rounds):
                call()

        outer = self.wrap(loop, "calibration", "loop")
        outer_id = len(self.names) - 1
        from repro.sim.kernel import Simulator
        raw_schedule = self._originals["kernel.Simulator.schedule"]
        raw_step = self._originals["kernel.Simulator.step"]
        step_id = self.names.index(("kernel", "Simulator.step"))
        schedule_id = self.names.index(("kernel", "Simulator.schedule"))
        for _ in range(3):
            t0 = time.perf_counter()
            loop(noop)
            raw = time.perf_counter() - t0
            self._self[inner_id] = self._self[outer_id] = 0.0
            outer(inner)
            r_in = self._self[inner_id] / rounds
            r_out = (self._self[outer_id] - raw) / rounds
            sim = Simulator()
            t0 = time.perf_counter()
            for _ in range(rounds):
                raw_schedule(sim, 0.0, noop)
                raw_step(sim)
            raw_cycle = time.perf_counter() - t0
            self._self[step_id] = self._self[schedule_id] = 0.0
            for _ in range(rounds):
                sim.schedule(0.0, noop)
                sim.step()
            traced_cycle = self._self[step_id] + self._self[schedule_id]
            extra = (traced_cycle - raw_cycle) / rounds - 2 * r_in
            best_in, best_out = min(best_in, r_in), min(best_out, r_out)
            best_extra = min(best_extra, extra)
        return max(best_in, 0.0), max(best_out, 0.0), max(best_extra, 0.0)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def report(self, path: Optional[str], timed_wall: float,
               messages: int, plain_wall: Optional[float] = None) -> dict:
        """Per-layer and per-entry-point numbers for the load window, and
        the trace file written to ``path``.

        Wrapper bookkeeping outside the spans is measured by the clock
        reads and dropped; what is left of the wrappers' cost is modelled
        from :meth:`_measure_residual` and subtracted.  Code also simply
        runs slower between wrappers than it does untraced (colder
        caches), by a factor the cProfile cross-check shows to be close
        to uniform across layers.  So when
        ``plain_wall`` (the untraced wall time of the same load) is
        known, every self time is scaled by the one factor that makes
        layers plus ``other`` sum to it.
        """
        totals = self._totals
        r_in, r_out, event_extra = self._measure_residual()
        begin, end = self._window
        raw_self_total = sum(
            totals["self"][i] for i, (layer, _q) in enumerate(self.names)
            if layer in LAYERS)
        other = timed_wall - totals["top_seconds"] \
            - totals["top_spans"] * r_out
        dropped = totals["top_seconds"] - raw_self_total
        per_name = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for name_id, (layer, qualname) in enumerate(self.names):
            if layer not in layer_self:
                continue
            calls = totals["calls"][name_id]
            own = totals["self"][name_id] - calls * r_in \
                - totals["child_calls"][name_id] * r_out
            if qualname == "Simulator.step":
                own -= calls * event_extra
            per_name[f"{layer}.{qualname}"] = {
                "calls": calls, "self_s": own,
                "raised": totals["raised"][name_id]}
            layer_self[layer] += own
            layer_calls[layer] += calls
        attributed = sum(layer_self.values())
        scale = 1.0
        if plain_wall is not None and attributed + other > 0:
            scale = plain_wall / (attributed + other)
        for row in per_name.values():
            row["self_s"] *= scale
        written = self._write(path, begin, end) if path else 0
        return {
            "layers": {layer: {
                "self_us_per_msg": layer_self[layer] * scale / messages * 1e6,
                "calls_per_msg": layer_calls[layer] / messages}
                for layer in LAYERS},
            "entry_points": per_name,
            "other_us_per_msg": other * scale / messages * 1e6,
            "attributed_share": attributed / (attributed + max(other, 0.0)),
            "spans": end - begin, "spans_written": written,
            "overhead_us": {
                "measured_outside_per_span": dropped / max(end - begin, 1)
                * 1e6,
                "r_in": r_in * 1e6, "r_out": r_out * 1e6,
                "event_extra": event_extra * 1e6, "scale": scale},
        }

    def _write(self, path: str, begin: int, end: int) -> int:
        """One JSON object per span; times are µs since the load began."""
        end = min(end, begin + FILE_SPAN_LIMIT)
        if end <= begin:
            return 0
        origin = self.start[begin]
        with open(path, "w") as out:
            for i in range(begin, end):
                layer, qualname = self.names[self.name[i]]
                parent = self.parent[i]
                out.write(
                    '{"id":%d,"trace":%d,"parent":%d,"layer":"%s",'
                    '"name":"%s","start_us":%.3f,"end_us":%.3f}\n'
                    % (i - begin,
                       self.trace[i] - begin if self.trace[i] >= begin
                       else -1,
                       parent - begin if parent >= begin else -1,
                       layer, qualname,
                       (self.start[i] - origin) * 1e6,
                       (self.end[i] - origin) * 1e6))
        return end - begin


def _rebind_everywhere(original: Callable, wrapped: Callable) -> None:
    for module in list(sys.modules.values()):
        if module is None or \
                not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


# ----------------------------------------------------------------------
# the cProfile cross-check
# ----------------------------------------------------------------------

_FILE_LAYERS = {
    "core/client.py": "client", "core/typeplane.py": "typeplane",
    "core/daemon.py": "daemon", "core/batching.py": "batching",
    "core/wire.py": "wire", "core/reliable.py": "reliable",
    "core/guaranteed.py": "guaranteed",
    "sim/stable_storage.py": "stable_storage",
    "core/subjects.py": "subjects", "core/flow.py": "flow",
    "core/metrics.py": "metrics", "sim/kernel.py": "kernel",
    "sim/node.py": "node", "sim/transport.py": "transport",
    "sim/ethernet.py": "ethernet",
}

#: the only functions of ``sim/framing.py`` that are the framing layer;
#: its cursor and varint helpers run inside wire's spans
_FRAMING_FUNCTIONS = {"frame", "unframe_view", "unframe"}


def _direct_layer(func: Tuple[str, int, str]) -> Optional[str]:
    filename, _line, name = func
    if "/repro/" not in filename:
        return None
    relative = filename.split("/repro/", 1)[1]
    if relative.startswith("objects/"):
        return "marshal"
    if relative == "sim/framing.py":
        return "framing" if name in _FRAMING_FUNCTIONS else None
    if relative == "sim/kernel.py" and name == "run_until":
        return None     # spans leave the run loop itself in ``other``
    return _FILE_LAYERS.get(relative)


def profile_shares(profile) -> dict:
    """Self time per layer as cProfile sees it, and the call total.

    A function in a layer's module counts for that layer.  Anything else
    (builtins, the standard library, shared helpers, the harness) is
    split among its callers in proportion to the time each call edge
    accounts for, repeatedly, until it lands in a layer — the same rule
    spans follow, where unwrapped code is part of the span around it.
    Each mix is renormalised as it propagates, or recursive helpers
    (``copy.deepcopy`` under ``StableStore``) would keep most of their
    time circulating among themselves.
    """
    stats = pstats.Stats(profile).stats
    direct = {func: _direct_layer(func) for func in stats}
    weights: Dict[tuple, Dict[str, float]] = {
        func: ({layer: 1.0} if layer else {})
        for func, layer in direct.items()}
    floating = [func for func, layer in direct.items() if layer is None]
    for _ in range(12):
        for func in floating:
            callers = stats[func][4]
            edge_total = sum(edge[2] for edge in callers.values())
            mix: Dict[str, float] = {}
            if edge_total > 0:
                for caller, edge in callers.items():
                    share = edge[2] / edge_total
                    for layer, weight in weights.get(caller, {}).items():
                        mix[layer] = mix.get(layer, 0.0) + share * weight
            mass = sum(mix.values())
            weights[func] = {layer: weight / mass
                             for layer, weight in mix.items()} if mass else {}
    layers = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    calls = 0
    for func, (primitive, _n, tottime, _ct, _callers) in stats.items():
        total += tottime
        calls += primitive
        for layer, weight in weights[func].items():
            layers[layer] += tottime * weight
    return {"layer_seconds": layers, "total_seconds": total,
            "primitive_calls": calls}
