"""Outside-in tracing for the traced run.

The traced run wraps public functions and methods of the program's
layers with span recorders; nothing under ``src/`` knows about it.
Each span has a name, start, end, parent id and a trace id shared by
every span of one frame or query (the root span's id; the server-side
spans of a stamped ingest frame take ``<client>:<seq>`` once decoded).
Spans are kept in memory and written out when the run ends.

A target that no longer exists (renamed or removed by a refactor) is
reported as absent and its metrics read 0; the run does not crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

from common import clock

#: Consumers whose per-spec update and query metrics are reported.
UPDATE_SPECS = (
    "heavy_hitters", "l1_strict", "l1_sampler", "alpha_l0",
    "support_sampler", "turnstile_support_sampler", "inner_product",
    "countsketch", "countmin", "frequency_vector",
)
QUERY_SPECS = tuple(s for s in UPDATE_SPECS if s != "countmin")
KERNELS = ("kwise", "table_update", "cauchy_fold", "csss_scatter")


def _per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("validate.validate_s", "s"), ("validate.calls", "count"),
        ("session.push_s", "s"), ("session.dispatches", "count"),
        ("session.flush_s", "s"), ("session.partial_dispatch_share", "ratio"),
    ]
    names += [(f"session.query_s.{s}", "s") for s in QUERY_SPECS]
    names += [("plan.plan_s", "s"), ("plan.chunks", "count"),
              ("plan.distinct_share", "ratio")]
    for spec in UPDATE_SPECS:
        names += [(f"update.{spec}_s", "s"), (f"update.{spec}_updates", "count")]
    names += [("schedules.schedule_s", "s"), ("schedules.calls", "count"),
              ("hashing.hash_s", "s"), ("hashing.hashed", "count")]
    for k in KERNELS:
        names += [(f"kernels.{k}.calls", "count"),
                  (f"kernels.{k}.declined", "count"), (f"kernels.{k}_s", "s")]
    names += [
        ("serialize.snapshot_s", "s"), ("checkpoint.saves", "count"),
        ("checkpoint.save_s", "s"), ("checkpoint.bytes", "bytes"),
        ("protocol.encode_s", "s"), ("protocol.decode_s", "s"),
        ("protocol.frame_bytes", "bytes"),
        ("server.ingest_s", "s"), ("server.query_s", "s"),
        ("server.busy_share", "ratio"),
        ("server.frames", "count"), ("server.applied", "count"),
        ("server.duplicates", "count"), ("server.refused", "count"),
        ("server.shed", "count"),
        ("client.send_s", "s"), ("client.recv_s", "s"),
        ("client.retries", "count"),
        ("harness.generate_s", "s"), ("harness.generator_lag_p99_ms", "ms"),
        ("trace.overhead", "ratio"), ("trace.attributed_share", "ratio"),
        ("trace.unattributed_share", "ratio"),
        ("trace.absent_layers", "count"),
    ]
    return names


PER_LAYER = _per_layer_names()


class Span:
    __slots__ = ("id", "parent", "trace", "name", "thread", "start", "end")

    def __init__(self, sid, parent, trace, name, thread, start):
        self.id = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start


class Recorder:
    """Span stacks per thread, counters, and the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.consumers: dict[int, str] = {}
        self.active = False
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []
        #: The client loop and the server thread both count.
        self._count_lock = threading.Lock()

    # -- spans ---------------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self.stack()
        parent = stack[-1][1] if stack else None
        sid = next(self._ids)
        return Span(sid, parent.id if parent else 0,
                    parent.trace if parent else [sid], name,
                    threading.current_thread().name, clock())

    def count(self, key: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[key] += amount

    def register_session(self, session) -> None:
        """Label the update spans of a session's consumers by name."""
        for name, sketch in session.results().items():
            self.consumers[id(sketch)] = name

    # -- wrapping ------------------------------------------------------------
    def wrap(self, layer: str, fn, *, name=None, after=None,
             reentrant: bool = True, skip=None):
        """A span-recording stand-in for ``fn``.  ``name`` is the span
        name or a callable of the call's args (None = do not record);
        ``after(span, args, result)`` sees each recorded call's result;
        ``reentrant=True`` records only the outermost call of a layer;
        ``skip(args)`` true = pass through without a span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec.stack()
            if reentrant and any(entry[0] == layer for entry in stack):
                return fn(*args, **kwargs)
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else (name or layer)
            if label is None:
                return fn(*args, **kwargs)
            span = rec.open(label)
            stack.append((layer, span))
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                rec.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def wrap_async(self, layer: str, fn):
        """A stand-in for the coroutine function ``fn`` that records one
        span per step of the coroutine (the code run between two
        suspensions), so time spent waiting on the network is not
        charged to the layer.  A step runs synchronously, so the spans
        it opens (the codec's) nest inside it; an inner call of the
        same layer is covered by the outer call's steps."""
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not rec.active or any(entry[0] == layer
                                     for entry in rec.stack()):
                return await fn(*args, **kwargs)
            return await _Stepped(rec, layer, fn(*args, **kwargs))

        return wrapper

    def _resolve(self, target: str):
        module_name, _, qual = target.partition(":")
        obj = importlib.import_module(module_name)
        parts = qual.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        return obj, parts[-1], getattr(obj, parts[-1])

    def patch(self, target: str, make) -> bool:
        """Replace ``module:Qual.attr`` with ``make(original)``.  A
        module-level function is replaced in every loaded ``repro``
        module that imported it under any name; a class attribute is
        replaced on the class.  Missing targets are recorded as absent."""
        try:
            owner, attr, original = self._resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        if isinstance(owner, type):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, property):
                replacement = property(make(raw.fget))
            elif isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(make(raw.__func__))
            else:
                replacement = make(raw)
            self._set(owner, attr, replacement)
            return True
        replacement = make(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)
        return True

    def _set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- output --------------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "parent": s.parent, "trace": s.trace[0],
                    "name": s.name, "thread": s.thread,
                    "start": s.start, "end": s.end,
                }) + "\n")


class _Stepped:
    """Awaitable that drives a coroutine one step at a time, each step
    inside its own span."""

    def __init__(self, rec: Recorder, layer: str, coro) -> None:
        self.rec, self.layer, self.coro = rec, layer, coro

    def __await__(self):
        rec, coro = self.rec, self.coro
        value, error = None, None
        while True:
            stack = rec.stack()
            span = rec.open(self.layer)
            stack.append((self.layer, span))
            try:
                if error is not None:
                    step = coro.throw(error)
                else:
                    step = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                span.end = clock()
                stack.pop()
                rec.spans.append(span)
            try:
                value, error = (yield step), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - passed to coro
                value, error = None, exc


# -- the layer targets -------------------------------------------------------

def install(rec: Recorder) -> Recorder:
    """Wrap every layer boundary the per-layer metrics read."""
    def counter(key):
        def after(span, args, result):
            rec.count(key)
        return after

    def simple(target, layer, name=None, after=None, reentrant=True,
               skip=None):
        rec.patch(target, lambda fn: rec.wrap(
            layer, fn, name=name, after=after, reentrant=reentrant,
            skip=skip))

    # validate
    simple("repro.batch:as_update_arrays", "validate",
           after=counter("validate.calls"))

    # session: buffer, dispatch, flush, query
    simple("repro.api.session:StreamSession.push", "session.push",
           reentrant=False)
    simple("repro.api.session:StreamSession.push_once", "session.push_once",
           reentrant=False)

    def dispatched(span, args, result):
        rec.count("session.dispatches")
        if len(args[1]) < args[0].chunk_size:
            rec.count("session.partial_dispatches")
    simple("repro.api.session:StreamSession._dispatch", "session.dispatch",
           after=dispatched)
    simple("repro.api.session:StreamSession.flush", "session.flush")
    simple("repro.api.session:StreamSession.query", "session.query",
           name=lambda args: f"session.query:{args[1]}")

    # plan: chunk planning plus the lazily built shared views
    simple("repro.streams.plan:ChunkPlanner.plan", "plan",
           name="plan.plan", after=counter("plan.chunks"))
    def unique_built(span, args, result):
        # The accessor just built the shared unique view: read its
        # size through the plan (now a cheap cached access).
        plan = args[0]
        rec.count("plan.distinct", len(plan.unique_items))
        rec.count("plan.distinct_of", plan.size)

    # Recorded even inside another plan span (summed_deltas builds the
    # unique view on first use); skipped once the view exists.
    for accessor in ("unique_items", "inverse"):
        simple(f"repro.streams.plan:ChunkPlan.{accessor}", "plan.unique",
               name="plan.unique", after=unique_built,
               skip=lambda args: getattr(args[0], "unique_ready", True))
    simple("repro.streams.plan:ChunkPlan.summed_deltas", "plan",
           name="plan.sums")

    # per-spec update dispatch (core + sketches), outermost call only
    def update_name(args):
        label = rec.consumers.get(id(args[0]))
        return f"update:{label}" if label is not None else None

    def update_count(span, args, result):
        arg = args[1]
        size = getattr(arg, "size", None)
        n = size if isinstance(size, int) else len(arg)
        rec.count(span.name + ":updates", n)

    try:
        from repro.api.registry import specs
        classes = {spec.cls for spec in specs()}
    except ImportError:
        classes = set()
        rec.absent.append("repro.api.registry:specs")
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for method in ("update_plan", "update_batch"):
            if callable(getattr(cls, method, None)):
                simple(f"{cls.__module__}:{cls.__qualname__}.{method}",
                       "update", name=update_name, after=update_count)

    # schedules (inside the update layer)
    try:
        schedules = importlib.import_module("repro.core.schedules")
        for cname, cls in vars(schedules).items():
            if not isinstance(cls, type) or cls.__module__ != schedules.__name__:
                continue
            for mname, member in vars(cls).items():
                if mname.startswith("_") or isinstance(member, type) or \
                        not callable(getattr(cls, mname, None)):
                    continue
                simple(f"repro.core.schedules:{cname}.{mname}", "schedules",
                       name="schedules", after=counter("schedules.calls"))
    except ImportError:
        rec.absent.append("repro.core.schedules")

    # hashing
    def hashed(span, args, result):
        rec.count("hashing.hashed", len(args[1]))
    for cname in ("KWiseHash", "SignHash", "UniformScalars"):
        simple(f"repro.hashing.kwise:{cname}.hash_array", "hashing",
               name="hashing", after=hashed)
    simple("repro.hashing.modhash:StreamingModReducer.reduce_array",
           "hashing", name="hashing", after=hashed)

    # kernels: calls, declined (None/False = NumPy ran instead), time
    for k in KERNELS:
        def kernel_after(span, args, result, k=k):
            rec.count(f"kernels.{k}.calls")
            if result is None or result is False:
                rec.count(f"kernels.{k}.declined")
        simple(f"repro.kernels:try_{k}", f"kernels.{k}",
               name=f"kernels.{k}", after=kernel_after)

    # serialize + payload bytes, checkpoint writes
    simple("repro.api.serialize:snapshot", "serialize",
           name="serialize.snapshot")
    simple("repro.streams.io:payload_to_bytes", "serialize",
           name="serialize.bytes")
    simple("repro.streams.io:save_payload", "serialize",
           name="serialize.bytes")

    def saved(span, args, result):
        rec.count("checkpoint.saves")
        try:
            rec.count("checkpoint.bytes", Path(result).stat().st_size)
        except (OSError, TypeError):
            pass
    simple("repro.api.checkpoint:CheckpointStore.save", "checkpoint",
           name="checkpoint.save", after=saved)

    # protocol codec
    def encoded(span, args, result):
        if isinstance(result, (bytes, bytearray)):
            rec.count("protocol.frame_bytes", len(result))

    def stamped(span, args, result):
        # A stamped frame's server-side spans take its (client, seq).
        client_id, seq = result[2], result[3]
        if client_id is not None:
            span.trace[0] = f"{client_id}:{seq}"

    try:
        protocol = importlib.import_module("repro.service.protocol")
        for fname, fn in list(vars(protocol).items()):
            if not callable(fn) or isinstance(fn, type):
                continue
            if fname.startswith("encode_"):
                simple(f"repro.service.protocol:{fname}", "protocol",
                       name="protocol.encode", after=encoded)
            elif fname.startswith("decode_"):
                simple(f"repro.service.protocol:{fname}", "protocol",
                       name="protocol.decode",
                       after=stamped if fname == "decode_ingest_v2" else None)
        simple("repro.service.protocol:FrameDecoder.feed", "protocol",
               name="protocol.decode")
    except ImportError:
        rec.absent.append("repro.service.protocol")

    # server verbs (SketchService spans make up busy_share)
    for verb in ("ingest", "query", "hello", "flush", "merge", "snapshot"):
        simple(f"repro.service.server:SketchService.{verb}", "server",
               name=f"server.{verb}")

    # client: sending (stamped pipelining, WebSocket framing and
    # masking) and receiving (reading and unmasking messages); the
    # codec's spans nest inside and are charged to the protocol
    for method, layer in (("ingest_many", "client.send"),
                          ("send_raw", "client.send"),
                          ("recv_frame", "client.recv")):
        rec.patch(f"repro.service.client:AsyncSessionClient.{method}",
                  lambda fn, layer=layer: rec.wrap_async(layer, fn))
    return rec


# -- per-layer metrics -------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered.get(s.id, 0.0) for s in spans}


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(spans, windows):
    for s in spans:
        for w0, w1 in windows:
            lo, hi = max(s.start, w0), min(s.end, w1)
            if hi > lo:
                yield lo, hi


def layer_metrics(rec: Recorder, cycles: int, windows: list) -> tuple[dict, dict]:
    """The per-layer metric values (times and counts per traced cycle)
    plus a detail record with per-thread attribution."""
    cycles = max(1, cycles)
    selfs = self_times(rec.spans)
    by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    flush_inside_query: dict[int, float] = defaultdict(float)
    index = {s.id: s for s in rec.spans}
    for s in rec.spans:
        by_name[s.name] += selfs[s.id]
        total_by_name[s.name] += s.end - s.start
        parent = index.get(s.parent)
        if s.name == "session.flush" and parent is not None \
                and parent.name.startswith("session.query:"):
            flush_inside_query[parent.id] += s.end - s.start
    c = rec.counts
    v: dict[str, float] = {}
    v["validate.validate_s"] = by_name["validate"]
    v["validate.calls"] = c["validate.calls"]
    v["session.push_s"] = by_name["session.push"]
    v["session.dispatches"] = c["session.dispatches"]
    v["session.flush_s"] = total_by_name["session.flush"]
    v["session.partial_dispatch_share"] = (
        c["session.partial_dispatches"] / c["session.dispatches"]
        if c["session.dispatches"] else 0.0)
    query_s: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        if s.name.startswith("session.query:"):
            spec = s.name.split(":", 1)[1]
            query_s[spec] += (s.end - s.start) - flush_inside_query[s.id]
    for spec in QUERY_SPECS:
        v[f"session.query_s.{spec}"] = query_s[spec]
    v["plan.plan_s"] = sum(by_name[n] for n in
                           ("plan.plan", "plan.unique", "plan.sums"))
    v["plan.chunks"] = c["plan.chunks"]
    v["plan.distinct_share"] = (c["plan.distinct"] / c["plan.distinct_of"]
                                if c["plan.distinct_of"] else 0.0)
    for spec in UPDATE_SPECS:
        v[f"update.{spec}_s"] = by_name[f"update:{spec}"]
        v[f"update.{spec}_updates"] = c[f"update:{spec}:updates"]
    v["schedules.schedule_s"] = by_name["schedules"]
    v["schedules.calls"] = c["schedules.calls"]
    v["hashing.hash_s"] = by_name["hashing"]
    v["hashing.hashed"] = c["hashing.hashed"]
    for k in KERNELS:
        v[f"kernels.{k}.calls"] = c[f"kernels.{k}.calls"]
        v[f"kernels.{k}.declined"] = c[f"kernels.{k}.declined"]
        v[f"kernels.{k}_s"] = by_name[f"kernels.{k}"]
    v["serialize.snapshot_s"] = (by_name["serialize.snapshot"]
                                 + by_name["serialize.bytes"])
    v["checkpoint.saves"] = c["checkpoint.saves"]
    v["checkpoint.save_s"] = total_by_name["checkpoint.save"]
    v["checkpoint.bytes"] = c["checkpoint.bytes"]
    v["protocol.encode_s"] = by_name["protocol.encode"]
    v["protocol.decode_s"] = by_name["protocol.decode"]
    v["protocol.frame_bytes"] = c["protocol.frame_bytes"]
    v["server.ingest_s"] = by_name["server.ingest"]
    v["server.query_s"] = total_by_name["server.query"]
    v["client.send_s"] = by_name["client.send"]
    v["client.recv_s"] = by_name["client.recv"]
    # Every per-cycle quantity is averaged over the traced cycles.
    ratios = {"session.partial_dispatch_share", "plan.distinct_share"}
    v = {k: (val if k in ratios else val / cycles) for k, val in v.items()}

    wall = sum(w1 - w0 for w0, w1 in windows) or 1.0
    server_roots = [s for s in rec.spans
                    if s.name.startswith("server.") and not s.parent]
    v["server.busy_share"] = _union(_clip(server_roots, windows)) / wall
    threads: dict[str, list] = defaultdict(list)
    for s in rec.spans:
        if not s.parent:
            threads[s.thread].append(s)
    per_thread = {t: _union(_clip(roots, windows)) / wall
                  for t, roots in threads.items()}
    attributed = (sum(per_thread.values()) / len(per_thread)
                  if per_thread else 0.0)
    v["trace.attributed_share"] = attributed
    v["trace.unattributed_share"] = 1.0 - attributed
    v["trace.absent_layers"] = len(rec.absent)
    detail = {"attributed_share_by_thread": per_thread,
              "absent": list(rec.absent), "spans": len(rec.spans),
              "traced_cycles": cycles}
    return v, detail
