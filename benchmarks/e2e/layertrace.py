"""Wall-clock layer tracer: where does *our* CPU go.

``LayerTracer`` times the simulator from outside.  It replaces the public
boundaries between the packages under ``src/repro/`` (class attributes
only, restored on exit) with wrappers that open a *span*: a named
interval of host time attributed to the module the called code lives in.
The simulator is single-threaded and synchronous inside an event, so one
span stack is enough: a span's self time is its duration minus the
durations of the spans opened inside it, and the self times of all spans
plus whatever ran outside any span add up to the wall-clock of the run.

Two kinds of boundary exist:

- *synchronous calls* from one package into another (``Host.send`` from
  tcp into net, ``ReplicatingKvClient.set`` from core into kvstore,
  ``ConnectionHandler.on_data`` from tcp up into http, ...).  These are
  patched by name, see ``LayerTracer.install``.
- *deferred calls*: everything handed to ``EventLoop.call_at``, every
  packet handler handed to ``Host.set_handler``, every completion
  callback handed to the kv client / TCPStore / browser.  These are
  wrapped as they pass by and attributed to the module that defines the
  callback.

Only aggregates (calls, self seconds, total seconds per entry point) and
a bounded sample of full span trees are kept in memory; nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.scenario import ScenarioEngine
from repro.core.selector import RuleTable
from repro.core.tcpstore import TcpStore
from repro.http.client import BrowserClient
from repro.http.parser import HttpParser
from repro.kvstore.client import ReplicatingKvClient
from repro.l4lb.mux import L4Mux
from repro.l4lb.service import L4LoadBalancer
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs.plane import ObsPlane
from repro.obs.profiler import SimProfiler
from repro.obs.span import Tracer as ObsTracer
from repro.sim.events import Event, EventLoop
from repro.sim.process import PeriodicTask, Timer
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack
from repro.tcp.state import TcpState

# Every Nth fired event has its full span tree kept, up to MAX_TREES.
TREE_EVERY = 997
MAX_TREES = 200

_CALLBACK_TYPES = (types.FunctionType, types.MethodType, functools.partial)
_HANDLER_UPCALLS = ("on_connected", "on_data", "on_remote_close",
                    "on_closed", "on_error")

# TcpStore's operations on the store (its read-only accessors are left alone).
TCPSTORE_OPS = ("store_client_syn", "store_server_conn", "checkpoint",
                "put_ticket", "get_ticket", "get_by_client", "get_by_server",
                "remove", "remove_server_index")

# Per-entry aggregate: [calls, self seconds, total seconds].
Record = List[float]


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class LayerTracer:
    """Context manager; see the module docstring.

    Install it *before* the world is built (packet handlers are wrapped
    as they are registered), call :meth:`begin` when the timed section
    starts and read the aggregates after it ends.
    """

    def __init__(self) -> None:
        self.records: Dict[Tuple[str, str], Record] = {}
        self.root_s = 0.0  # total seconds of spans that had no parent
        self.run_returns = 0  # sum of EventLoop.run's return values, ever
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.parser_bytes = 0
        self.mux_new_flows = 0
        self.mux_pins_added = 0
        self.conns_opened = 0
        self.trees: List[Dict[str, Any]] = []
        self._stack: List[List[float]] = []  # open spans: [start, child seconds]
        self._by_code: Dict[Any, Record] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._conns: List[Tuple[TcpConnection, int]] = []  # (conn, retransmits at begin)
        self._fired = 0  # events fired through the wrapper, ever
        self._fired_at_begin = 0
        self._tree: Optional[List[tuple]] = None
        self._tree_flow: Optional[str] = None
        self._t0 = 0.0

    # ------------------------------------------------------------ lifecycle --
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin(self) -> None:
        """Start the timed section: forget everything seen so far.  Spans
        still open (the warm-up may end inside a running event) restart
        their clocks here."""
        now = perf_counter()
        for frame in self._stack:
            frame[0], frame[1] = now, 0.0
        for rec in self.records.values():
            rec[:] = (0, 0.0, 0.0)
        self.root_s = 0.0
        self.events_scheduled = self.events_cancelled = 0
        self._fired_at_begin = self._fired
        self.parser_bytes = self.mux_new_flows = self.mux_pins_added = 0
        self.conns_opened = 0
        self._conns = [(c, c.retransmit_count) for c, _ in self._conns
                       if c.state is not TcpState.CLOSED]
        self.trees.clear()
        self._tree = None
        self._t0 = now

    @property
    def events_fired(self) -> int:
        """Events fired since :meth:`begin`."""
        return self._fired - self._fired_at_begin

    def retransmits(self) -> int:
        """``TcpConnection.retransmit_count`` summed over every connection
        that was open at, or opened since, :meth:`begin`."""
        return sum(c.retransmit_count - base for c, base in self._conns)

    def by_module(self) -> Dict[str, Record]:
        """Aggregates folded per defining module."""
        out: Dict[str, Record] = {}
        for (module, _), rec in self.records.items():
            agg = out.setdefault(module, [0, 0.0, 0.0])
            for i in range(3):
                agg[i] += rec[i]
        return out

    def calls(self, module: str, entry: str) -> int:
        rec = self.records.get((module, entry))
        return int(rec[0]) if rec else 0

    def dump(self) -> Dict[str, Any]:
        """Plain-data form of everything kept, for the run's artefact."""
        entries = [
            {"module": m, "entry": e, "calls": int(r[0]),
             "self_s": r[1], "total_s": r[2]}
            for (m, e), r in sorted(self.records.items()) if r[0]
        ]
        return {"entries": entries, "root_s": self.root_s,
                "tree_every": TREE_EVERY, "trees": self.trees}

    # -------------------------------------------------------------- records --
    def _record(self, module: str, entry: str) -> Record:
        key = (module, entry)
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [0, 0.0, 0.0]
        return rec

    def _record_for(self, fn: Callable) -> Record:
        """The aggregate of the code ``fn`` ends up running: partials and
        the sim package's timer trampolines are looked through, so a TCP
        retransmission timer counts as tcp, not as sim."""
        while True:
            if type(fn) is functools.partial:
                fn = fn.func
                continue
            owner = getattr(fn, "__self__", None)
            if type(owner) is Timer or type(owner) is PeriodicTask:
                fn = owner._callback  # no public accessor for a timer's target
                continue
            break
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        rec = self._by_code.get(code) if code is not None else None
        if rec is None:
            rec = self._record(
                getattr(func, "__module__", None) or "builtins",
                getattr(func, "__qualname__", type(func).__name__))
            if code is not None:
                self._by_code[code] = rec
        return rec

    # ---------------------------------------------------------------- spans --
    def _close(self, rec: Record, frame: List[float], args: tuple) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        rec[0] += 1
        rec[1] += dur - frame[1]
        rec[2] += dur
        if stack:
            stack[-1][1] += dur
        else:
            self.root_s += dur
        if self._tree is not None:
            self._note(rec, frame[0], end, len(stack), args)

    def _span(self, fn: Callable, rec: Record,
              wrap_callbacks: bool = False) -> Callable:
        """``fn`` timed as a span of ``rec``.  With ``wrap_callbacks`` every
        function handed in as an argument becomes a span of its own module
        when it is eventually called back."""
        stack = self._stack
        close = self._close
        wrap_args = self._wrap_callable_args

        def traced(*args, **kwargs):
            if wrap_callbacks:
                args, kwargs = wrap_args(args, kwargs)
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec, frame, args)
        return traced

    def _leaf(self, fn: Callable, rec: Record) -> Callable:
        """Cheaper span for code that never calls back into a traced
        boundary (scheduling an event, recording an obs span)."""
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
        return traced

    def _wrap_callable_args(self, args: tuple, kwargs: dict):
        if any(type(a) in _CALLBACK_TYPES for a in args):
            args = tuple(
                self._span(a, self._record_for(a))
                if type(a) in _CALLBACK_TYPES else a for a in args)
        for key, value in kwargs.items():
            if type(value) in _CALLBACK_TYPES:
                kwargs[key] = self._span(value, self._record_for(value))
        return args, kwargs

    # ---------------------------------------------------------------- trees --
    def _note(self, rec: Record, start: float, end: float, depth: int,
              args: tuple) -> None:
        if self._tree_flow is None:
            for arg in args:
                if type(arg) is Packet:
                    self._tree_flow = f"tcp {arg.src}>{arg.dst}"
                    break
        self._tree.append((depth, id(rec), start - self._t0, end - self._t0))

    def _finish_tree(self) -> None:
        if self._tree is None:  # begin() fell inside the sampled event
            return
        names = {id(rec): key for key, rec in self.records.items()}
        self.trees.append({
            "flow": self._tree_flow,
            "spans": [
                {"depth": depth, "module": names[rid][0],
                 "entry": names[rid][1], "start_s": start, "end_s": end}
                for depth, rid, start, end in reversed(self._tree)
            ],
        })
        self._tree = None

    # -------------------------------------------------------------- patches --
    def _patch(self, cls: type, attr: str, new: Callable) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.update_wrapper(new, original))

    def _spanned(self, cls: type, attr: str, leaf: bool = False,
                 wrap_callbacks: bool = False) -> Callable:
        """``cls.attr`` as a span named after itself."""
        rec = self._record(cls.__module__, f"{cls.__name__}.{attr}")
        fn = cls.__dict__[attr]
        return (self._leaf(fn, rec) if leaf
                else self._span(fn, rec, wrap_callbacks))

    def _patch_span(self, cls: type, attr: str, **how) -> None:
        self._patch(cls, attr, self._spanned(cls, attr, **how))

    def _opened(self, conn: TcpConnection) -> None:
        self.conns_opened += 1
        self._conns.append((conn, 0))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        tracer = self

        # -- sim: the loop is the root span; what it spends outside the
        # callbacks it fires is the scheduler's own cost.  The sum of its
        # return values is kept as the untraced runs keep it, to compare.
        run = self._spanned(EventLoop, "run")

        def traced_run(loop, *args, **kwargs):
            fired = run(loop, *args, **kwargs)
            tracer.run_returns += fired
            return fired
        self._patch(EventLoop, "run", traced_run)

        # every scheduled callback is fired through fire(), as a span of
        # the module that defines it
        call_at = self._spanned(EventLoop, "call_at", leaf=True)

        def traced_call_at(loop, time, fn, *args):
            tracer.events_scheduled += 1
            return call_at(loop, time, fire, tracer._record_for(fn), fn, *args)
        self._patch(EventLoop, "call_at", traced_call_at)

        stack = self._stack
        close = self._close

        def fire(rec, fn, *args):
            tracer._fired += 1
            sample = (tracer._tree is None and tracer._fired % TREE_EVERY == 0
                      and len(tracer.trees) < MAX_TREES)
            if sample:
                tracer._tree, tracer._tree_flow = [], None
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                fn(*args)
            finally:
                close(rec, frame, args)
                if sample:
                    tracer._finish_tree()

        cancel = Event.cancel

        def traced_cancel(event):
            if not (event.cancelled or event.fired):
                tracer.events_cancelled += 1
            cancel(event)
        self._patch(Event, "cancel", traced_cancel)

        # -- net
        self._patch_span(Host, "send")
        set_handler = Host.set_handler

        def traced_set_handler(host, handler):
            set_handler(host, tracer._span(handler, tracer._record_for(handler)))
        self._patch(Host, "set_handler", traced_set_handler)

        add_trace = Network.add_trace

        def traced_add_trace(network, trace):
            # a tap's record() is a span of the module that defines it
            cls = next(k for k in type(trace).__mro__ if "record" in vars(k))
            if not any(owner is cls and attr == "record"
                       for owner, attr, _ in tracer._patches):
                tracer._patch_span(cls, "record")
            return add_trace(network, trace)
        self._patch(Network, "add_trace", traced_add_trace)

        # -- tcp: calls down from the applications, upcalls into them
        connect = self._spanned(TcpStack, "connect")

        def traced_connect(tcp, *args, **kwargs):
            conn = connect(tcp, *args, **kwargs)
            tracer._opened(conn)
            return conn
        self._patch(TcpStack, "connect", traced_connect)

        listen = TcpStack.listen

        def traced_listen(tcp, port, factory):
            def accept(conn):
                tracer._opened(conn)
                return factory(conn)
            listen(tcp, port, accept)
        self._patch(TcpStack, "listen", traced_listen)

        for attr in ("send", "close", "abort", "probe"):
            self._patch_span(TcpConnection, attr)
        for cls in _subclasses(ConnectionHandler):
            for attr in _HANDLER_UPCALLS:
                if attr in cls.__dict__:
                    self._patch_span(cls, attr)

        # -- l4lb
        process = self._spanned(L4Mux, "process")

        def traced_process(mux, pkt):
            if pkt.syn and not pkt.has_ack:
                tracer.mux_new_flows += 1
            pins = len(mux.flow_table)
            process(mux, pkt)
            if len(mux.flow_table) > pins:
                tracer.mux_pins_added += 1
        self._patch(L4Mux, "process", traced_process)
        self._patch_span(L4LoadBalancer, "update_mapping")
        self._patch_span(L4LoadBalancer, "flush_instance")

        # -- core / kvstore: the instance calls TCPStore, TCPStore calls
        # the kv client, and completions come back up through callbacks
        for attr in TCPSTORE_OPS:
            self._patch_span(TcpStore, attr, wrap_callbacks=True)
        for attr in ("set", "get", "delete"):
            self._patch_span(ReplicatingKvClient, attr, wrap_callbacks=True)
        self._patch_span(ReplicatingKvClient, "handle_response")
        self._patch_span(RuleTable, "select")

        # -- http / workload
        feed = self._spanned(HttpParser, "feed")

        def traced_feed(parser, data):
            tracer.parser_bytes += len(data)
            return feed(parser, data)
        self._patch(HttpParser, "feed", traced_feed)
        self._patch_span(BrowserClient, "fetch", wrap_callbacks=True)
        self._patch_span(BrowserClient, "load_page", wrap_callbacks=True)

        # -- obs / chaos (called only on audited runs)
        self._patch_span(ObsPlane, "flight", leaf=True)
        for attr in ("start", "end", "event"):
            self._patch_span(ObsTracer, attr, leaf=True)
        self._patch_span(SimProfiler, "add", leaf=True)
        self._patch_span(ScenarioEngine, "run")
