"""The three workloads.

Each workload runs *cycles* until its measured time reaches the run's
``--seconds``: a cycle builds fresh state (timed as set-up), drives one
fixed unit of work through the public surfaces (timed), then checks
the final state against an untimed reference route (``live_monitor``
keeps one server for the run and checks it once).  End-to-end metrics
are medians over cycles.

In the traced run the first half of the time runs untraced cycles and
the second half traced ones; ``trace.overhead`` compares the two.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from common import (
    ALPHA,
    N_UNIVERSE,
    STREAM_M,
    WORK,
    DeadlineExceeded,
    RunResult,
    batches,
    clock,
    deadline,
    load_stream,
    median,
    peak_rss_mb,
    percentile,
    states_match,
)

from repro.api.registry import Params, get_spec
from repro.api.session import StreamSession
from repro.service import (
    AsyncSessionClient,
    MetricsRegistry,
    ServerThread,
    ServiceClient,
    ServiceMetrics,
    SketchService,
)
from repro.service import protocol
from repro.streams.io import payload_from_bytes


@dataclass
class Cycle:
    """One cycle's measurements."""

    setup_s: float = 0.0
    updates: int = 0
    #: Seconds from the first update sent to the last one applied.
    ingest_s: float = 0.0
    #: Timed intervals (clock readings) of the cycle.
    windows: list = field(default_factory=list)
    ack_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    #: Query latency (ms) per consumer, when each is queried once;
    #: None when the query overran its deadline or raised.
    query_by_name: dict = field(default_factory=dict)
    estimate_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Queries cut off by their deadline (attempted, not failed).
    overruns: int = 0
    lag_ms: list = field(default_factory=list)
    retries: int = 0

    @property
    def measured(self) -> float:
        return sum(w1 - w0 for w0, w1 in self.windows)

    @property
    def updates_per_s(self) -> float:
        return self.updates / self.ingest_s


class Workload:
    """Base: a cycle loop plus the end-to-end summary."""

    name = ""
    min_cycles = 3
    stream_m = STREAM_M
    #: Set-up is timed this many times per cycle (median; the last
    #: instance is used), so set-up time is a steady figure.
    setup_repeats = 5

    def __init__(self, seed: int, rec=None, **sizes) -> None:
        """``sizes`` override class-level sizes (the smoke tests shrink
        the workloads this way)."""
        self.seed = seed
        self.rec = rec
        self.result = RunResult()
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{type(self).__name__} has no size {key!r}")
            setattr(self, key, value)

    def load(self):
        stream = load_stream(self.seed, m=self.stream_m)
        self.result.generate_s = stream.generate_s
        return stream

    # subclasses: prepare() once per run, cycle(c) per cycle,
    # finish() once after the last cycle.
    def prepare(self) -> None:
        pass

    def cycle(self, c: int) -> Cycle:
        raise NotImplementedError

    def finish(self, cycles: list[Cycle]) -> None:
        pass

    def check_state(self, served: dict, reference: dict, what: str) -> None:
        equal, strict = states_match(served, reference)
        self.result.check(equal, f"{what}: state differs from the "
                          "reference route")
        if equal and not strict:
            # Equal consumer by consumer; the strict payload comparison
            # saw only a different dict insertion order.
            notes = self.result.details.setdefault("order_only_matches", [])
            notes.append(what)

    @contextlib.contextmanager
    def traced(self):
        """Turn span recording on for the body (traced cycles only)."""
        if self.rec is not None and self.tracing:
            self.rec.active = True
            try:
                yield
            finally:
                self.rec.active = False
        else:
            yield

    def run(self, seconds: float) -> RunResult:
        self.tracing = False
        self.prepare()
        cycles: list[Cycle] = []
        phases = [(False, seconds, self.min_cycles)]
        if self.rec is not None:
            # The traced run splits its time; half the cycles per phase
            # do for per-layer figures, which carry no bound.
            half = -(-self.min_cycles // 2)
            phases = [(False, seconds / 2, half), (True, seconds / 2, half)]
        for tracing, budget, least in phases:
            self.tracing = tracing
            measured, phase = 0.0, []
            while measured < budget or len(phase) < least:
                cyc = self.cycle(len(cycles))
                cycles.append(cyc)
                phase.append(cyc)
                measured += cyc.measured
            if tracing:
                self.result.traced_ups = [c.updates_per_s for c in phase]
                self.result.traced_windows = [
                    w for c in phase for w in c.windows]
            else:
                self.result.untraced_ups = [c.updates_per_s for c in phase]
                untraced = phase
        self.tracing = False
        self.finish(cycles)
        self.summarise(untraced, cycles)
        return self.result

    def latency(self, cycles: list[Cycle], attr: str, q: float) -> float:
        """The ``q``-th percentile of the latencies (``ack_ms`` or
        ``query_ms``) of each cycle, then the median over cycles: one
        slow cycle (a stalled host) moves none of them."""
        return median([percentile(getattr(c, attr), q) for c in cycles])

    def summarise(self, cycles: list[Cycle], every: list[Cycle]) -> None:
        r = self.result
        r.attempted = sum(c.attempted for c in cycles)
        r.failed = sum(c.failed for c in cycles)
        overruns = sum(c.overruns for c in cycles)
        r.metrics = {
            "setup_s": (median([c.setup_s for c in cycles]), "s"),
            "updates_per_s": (median([c.updates_per_s for c in cycles]), "1/s"),
            "ack_p50_ms": (self.latency(cycles, "ack_ms", 50), "ms"),
            "ack_p99_ms": (self.latency(cycles, "ack_ms", 99), "ms"),
            "query_p50_ms": (self.latency(cycles, "query_ms", 50), "ms"),
            "query_p99_ms": (self.latency(cycles, "query_ms", 99), "ms"),
            "estimate_s": (median([c.estimate_s for c in cycles]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        r.generator_lag_ms = [x for c in cycles for x in c.lag_ms]
        r.details.update({
            "cycles": len(cycles),
            "cycles_total": len(every),
            "ack_samples": sum(len(c.ack_ms) for c in cycles),
            "query_samples": sum(len(c.query_ms) for c in cycles),
            "overruns": overruns,
            "error_rate": ((r.failed + overruns) / r.attempted
                           if r.attempted else 0.0),
            "client_retries": sum(c.retries for c in every),
            "per_cycle_updates_per_s": [c.updates_per_s for c in cycles],
            "per_cycle_setup_s": [c.setup_s for c in cycles],
            "per_cycle_estimate_s": [c.estimate_s for c in cycles],
        })


# ---------------------------------------------------------------------------
# offline_alpha: the paper battery through one StreamSession
# ---------------------------------------------------------------------------

OFFLINE_BATTERY = (
    "heavy_hitters", "l1_strict", "l1_sampler", "alpha_l0",
    "support_sampler", "turnstile_support_sampler", "inner_product",
)


def _self_inner_product(sketch):
    """<f, f> through the Theorem 2 estimator (the spec has no
    no-argument query hook; the sketch carries its shared context)."""
    return sketch.ctx.estimate(sketch, sketch)


def offline_session(n: int, root_seed: int) -> StreamSession:
    session = StreamSession(n, params=Params(n=n, seed=root_seed, alpha=ALPHA))
    for spec in OFFLINE_BATTERY:
        if spec == "inner_product":
            session.add(spec, get_spec(spec).build(session.params),
                        query=_self_inner_product)
        else:
            session.track(spec)
    return session


class OfflineAlpha(Workload):
    """Push the stream through the paper battery, then query every
    consumer once under a SIGALRM deadline."""

    name = "offline_alpha"
    #: Five cycles at least: a sketch seed can hit a slow update path
    #: (several times the usual push time), and the median over cycles
    #: must not hinge on one such cycle.
    min_cycles = 5
    #: A sixteenth of a chunk per push: every sixteenth push dispatches
    #: a chunk, so a cycle's p99 push latency is about the 84th
    #: percentile of its chunk dispatches.  With a quarter chunk it was
    #: their few slowest, which bursts of CPU steal on a shared host
    #: decide (1% steal added a fifth).
    push = 256
    #: Prime, so the reference route's chunk boundaries (it flushes
    #: after every push) never line up with the timed route's.
    reference_push = 3001
    query_deadline = 0.5

    def prepare(self) -> None:
        stream = self.load()
        self.items, self.deltas = stream.items, stream.deltas
        self.overruns: dict[str, int] = {}
        # Warm lazy imports and the kernel backend outside any timing.
        self.build_session(0)

    def build_session(self, root_seed: int) -> StreamSession:
        return offline_session(N_UNIVERSE, root_seed)

    def root_seed(self, c: int) -> int:
        # Each cycle builds its battery from its own root seed, so the
        # median over cycles does not hinge on one set of hash draws.
        return self.seed * 1000 + c

    def cycle(self, c: int) -> Cycle:
        cyc = Cycle()
        times = []
        for _ in range(self.setup_repeats):
            start = clock()
            session = self.build_session(self.root_seed(c))
            times.append(clock() - start)
        cyc.setup_s = median(times)
        if self.rec is not None:
            self.rec.register_session(session)
        items, deltas, push = self.items, self.deltas, self.push
        with self.traced():
            t0 = clock()
            for pos in range(0, len(items), push):
                before = clock()
                session.push(items[pos:pos + push], deltas[pos:pos + push])
                cyc.ack_ms.append((clock() - before) * 1e3)
            session.flush()
            t1 = clock()
        cyc.updates = len(items)
        cyc.attempted += len(cyc.ack_ms)
        self.final_state = session.snapshot()
        with self.traced():
            q0 = clock()
            for name in session.names():
                before = clock()
                answered = False
                try:
                    with deadline(self.query_deadline):
                        session.query(name)
                    answered = True
                except DeadlineExceeded:
                    self.overruns[name] = self.overruns.get(name, 0) + 1
                    cyc.overruns += 1
                except Exception:  # noqa: BLE001 - a raised query is a failure
                    cyc.failed += 1
                elapsed = clock() - before
                # An overrun's time is the deadline's, not the
                # program's: it counts in the error rate and estimate_s.
                cyc.query_by_name[name] = elapsed * 1e3 if answered else None
                if answered:
                    cyc.query_ms.append(elapsed * 1e3)
                cyc.estimate_s += elapsed
                cyc.attempted += 1
            q1 = clock()
        cyc.ingest_s = t1 - t0
        cyc.windows = [(t0, t1), (q0, q1)]
        return cyc

    def latency(self, cycles: list[Cycle], attr: str, q: float) -> float:
        if attr == "query_ms":
            return self.query_percentile(cycles, q)
        return super().latency(cycles, attr, q)

    def consumer_ms(self, cycles: list[Cycle]) -> dict:
        """One figure per consumer: its median final-query time (ms)
        over the cycles, or None when it overran (or raised) in any
        of them.  Whether a support sampler overruns depends on the
        cycle's root seed; counting a consumer that cannot be relied on
        to answer as unanswered keeps the figures below from jumping
        with the few cycles in which it happened to answer."""
        out = {}
        for name in cycles[0].query_by_name:
            times = [c.query_by_name[name] for c in cycles]
            out[name] = None if None in times else median(times)
        return out

    def query_percentile(self, cycles: list[Cycle], q: float) -> float:
        """Over one figure per consumer (per cycle, the median of seven
        different queries would hinge on whether a support sampler
        overran).  An unanswered consumer counts as the deadline in the
        median, so ``query_p50_ms`` falls when a hang is fixed, but is
        left out of the 99th percentile, so ``query_p99_ms`` is the
        slowest consumer that answers, a figure of the program rather
        than the deadline.  Overruns show in the error rate and
        ``estimate_s``."""
        figures = self.consumer_ms(cycles).values()
        answered = [t for t in figures if t is not None]
        overran = len(figures) - len(answered)
        deadline_ms = self.query_deadline * 1e3
        if q < 99:
            return percentile(answered + [deadline_ms] * overran, q)
        return percentile(answered, q) if answered else deadline_ms

    def estimate(self, cycles: list[Cycle]) -> float:
        """Per consumer, as the query percentiles, an unanswered one
        counting as the deadline: a cycle's own estimate holds none,
        one or two support-sampler overruns as its root seed falls,
        and a median over cycles would jump between those levels from
        run to run."""
        return sum(self.query_deadline if t is None else t / 1e3
                   for t in self.consumer_ms(cycles).values())

    def summarise(self, cycles: list[Cycle], every: list[Cycle]) -> None:
        super().summarise(cycles, every)
        self.result.metrics["estimate_s"] = (self.estimate(cycles), "s")

    def finish(self, cycles) -> None:
        # The reference route: a second session, same root seed, fed in
        # pushes of another size and flushed after each one, so every
        # consumer sees other chunk boundaries than in the timed cycles
        # (the batch contract makes the final state bit-identical).
        last = len(cycles) - 1
        ref = self.build_session(self.root_seed(last))
        step = self.reference_push
        for pos in range(0, len(self.items), step):
            ref.push(self.items[pos:pos + step], self.deltas[pos:pos + step])
            ref.flush()
        self.check_state(self.final_state, ref.snapshot(),
                         f"{self.name} cycle {last}")
        self.result.details["query_overruns"] = dict(self.overruns)
        self.result.details["query_deadline_s"] = self.query_deadline


# ---------------------------------------------------------------------------
# service helpers
# ---------------------------------------------------------------------------

SERVICE_BATTERY = ("countsketch", "countmin", "frequency_vector")
SERVICE_QUERIES = ("countsketch", "frequency_vector")


def _parse_metrics(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line.startswith("repro_ingest_") and " " in line:
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


def ingest_counters(http: ServiceClient) -> dict[str, int]:
    m = _parse_metrics(http.metrics())
    return {k: int(m.get(f"repro_ingest_{k}_total", 0)) for k in
            ("frames", "applied", "duplicates", "refused", "shed")}


def ack_times(arrivals: list, frames: int) -> np.ndarray:
    """Per-seq ack time: the first ack whose cumulative seq covers it
    (a lost ack is healed by the next one).  NaN = never acked."""
    first = np.full(frames + 2, np.inf)
    for t, payload in arrivals:
        seq = protocol.decode_ack_info(payload).seq
        if seq is not None and 1 <= seq <= frames:
            first[seq] = min(first[seq], t)
    covered = np.minimum.accumulate(first[::-1])[::-1][1:frames + 1]
    return np.where(np.isinf(covered), np.nan, covered)


async def pipeline(ws: AsyncSessionClient, frames: list, window: int,
                   latencies: list) -> None:
    """Closed loop: send ``window`` frames at a time through the stamped
    client's ``ingest_many`` and wait for their acks.  Each frame's ack
    latency (ms) runs from its window's send; NaN = never acked."""
    arrivals: list = []
    recv = ws.recv_frame

    async def recv_frame():  # records every ack's arrival time
        frame = await recv()
        if frame.type is protocol.FrameType.INGEST_ACK:
            arrivals.append((clock(), frame.payload))
        return frame

    ws.recv_frame = recv_frame
    sent_at = np.empty(len(frames))
    try:
        for pos in range(0, len(frames), window):
            chunk = frames[pos:pos + window]
            sent_at[pos:pos + len(chunk)] = clock()
            await ws.ingest_many(chunk)
    finally:
        acked = ack_times(arrivals, len(frames))
        latencies.extend(((acked - sent_at) * 1e3).tolist())


def record_acks(cyc: Cycle, latencies: list, sent: int,
                deadline_s: float) -> None:
    """Ack latencies (ms) of ``sent`` frames; a frame never acked or
    acked after the deadline is a failure."""
    cyc.ack_ms = [x for x in latencies if np.isfinite(x)]
    cyc.attempted += sent
    cyc.failed += sum(1 for x in latencies
                      if not np.isfinite(x) or x > deadline_s * 1e3)


def mirror_session(battery, node: int, frames, client_id: str,
                   seed: int) -> StreamSession:
    """The stamped offline ``push_once`` mirror of one client's frames."""
    session = StreamSession(N_UNIVERSE, seed=seed, node=node)
    for spec in battery:
        session.track(spec, alpha=ALPHA)
    for i, (items, deltas) in enumerate(frames):
        session.push_once(client_id, i + 1, items, deltas)
    return session


def _stop(handle: ServerThread, http: ServiceClient, ckpt) -> None:
    http.close()
    handle.stop()
    if ckpt is not None:
        shutil.rmtree(ckpt, ignore_errors=True)


def served_state(http: ServiceClient, name: str) -> dict:
    return StreamSession.restore(
        payload_from_bytes(http.snapshot(name))).snapshot()


class ServiceWorkload(Workload):
    """Shared parts of the service workloads."""

    query_deadline = 1.0
    ack_deadline = 1.0
    #: Set: the service is durable, checkpointing into a temp dir.
    checkpoint_every = None

    def sketch_seed(self) -> int:
        return self.seed & 0xFFFF

    @contextlib.contextmanager
    def served(self, cyc: Cycle, sessions: dict):
        """A running server with ``sessions`` (name -> create_session
        keywords) created over HTTP.  Set-up is timed
        ``setup_repeats`` times; the last server is the one used.  A
        ``checkpoint_every`` makes the service durable in a temp dir."""
        times = []
        for repeat in range(self.setup_repeats):
            start = clock()
            ckpt = None
            if self.checkpoint_every is not None:
                tmp_root = WORK / "tmp"
                tmp_root.mkdir(parents=True, exist_ok=True)
                ckpt = tempfile.mkdtemp(prefix=f"{self.name}-", dir=tmp_root)
            service = SketchService(
                ServiceMetrics(MetricsRegistry()), checkpoint_dir=ckpt,
                checkpoint_every_updates=self.checkpoint_every)
            handle = ServerThread(service).start()
            http = ServiceClient(handle.host, handle.port)
            try:
                for name, spec in sessions.items():
                    http.create_session(name, **spec)
            except BaseException:
                _stop(handle, http, ckpt)
                raise
            times.append(clock() - start)
            if repeat + 1 < self.setup_repeats:
                _stop(handle, http, ckpt)
        cyc.setup_s = median(times)
        if self.rec is not None:
            for name in sessions:
                self.rec.register_session(service.sessions[name])
        try:
            yield handle, http
        finally:
            _stop(handle, http, ckpt)

    def estimate_phase(self, cyc: Cycle, http: ServiceClient, session: str,
                       consumers, rounds: int) -> None:
        """Query every queryable consumer ``rounds`` times; the final
        estimate is the median time of one round."""
        round_times = []
        for r in range(rounds):
            round_s = 0.0
            for name in consumers:
                before = clock()
                try:
                    http.query(session, name)
                    ok = True
                except Exception:  # noqa: BLE001 - a failed query counts
                    ok = False
                elapsed = clock() - before
                cyc.attempted += 1
                if not ok or elapsed > self.query_deadline:
                    cyc.failed += 1
                cyc.query_ms.append(elapsed * 1e3)
                round_s += elapsed
            round_times.append(round_s)
        cyc.estimate_s = median(round_times)

    def check_counters(self, cyc: Cycle, http: ServiceClient, frames: int,
                       what: str) -> None:
        """The /metrics frame conservation law, and every sent frame
        applied once.  Refused and shed frames are failures."""
        counters = ingest_counters(http)
        law = (counters["applied"] + counters["duplicates"]
               + counters["refused"] + counters["shed"])
        self.result.check(counters["frames"] == law,
                          f"{what}: /metrics frame conservation broken "
                          f"({counters})")
        self.result.check(counters["applied"] == frames,
                          f"{what}: {counters['applied']} frames "
                          f"applied, {frames} sent")
        cyc.failed += counters["refused"] + counters["shed"]
        totals = self.result.details.setdefault("server_counters", {})
        for k, v in counters.items():
            totals[k] = totals.get(k, 0) + v


# ---------------------------------------------------------------------------
# service_ingest: two stamped pipelined clients, closed loop
# ---------------------------------------------------------------------------

class ServiceIngest(ServiceWorkload):
    """Two stamped ``AsyncSessionClient``s pipeline windows of frames
    into their own ephemeral sessions, then the sessions merge over the
    wire and are queried."""

    name = "service_ingest"
    clients = 2
    push = 4096
    window = 8
    repeat = 5
    query_rounds = 50

    def prepare(self) -> None:
        stream = self.load()
        items, deltas = stream.items, stream.deltas
        bounds = np.linspace(0, len(items), self.clients + 1).astype(int)
        self.frames = [
            batches(items[bounds[i]:bounds[i + 1]],
                    deltas[bounds[i]:bounds[i + 1]], self.push, self.repeat)
            for i in range(self.clients)
        ]
        mirror = mirror_session(SERVICE_BATTERY, 0, self.frames[0], "c0",
                                self.sketch_seed())
        for i in range(1, self.clients):
            mirror.merge(mirror_session(SERVICE_BATTERY, i, self.frames[i],
                                        f"c{i}", self.sketch_seed()))
        self.mirror = mirror.snapshot()

    def cycle(self, c: int) -> Cycle:
        cyc = Cycle()
        sessions = {
            f"ingest_{i}": dict(n=N_UNIVERSE, seed=self.sketch_seed(), node=i,
                                track=list(SERVICE_BATTERY))
            for i in range(self.clients)
        }
        with self.served(cyc, sessions) as (handle, http):
            with self.traced():
                t0, t1, lat, retries = asyncio.run(self._drive(handle))
            cyc.ingest_s = t1 - t0
            cyc.windows = [(t0, t1)]
            cyc.retries = retries
            cyc.updates = sum(len(b[0]) for f in self.frames for b in f)
            sent = sum(len(f) for f in self.frames)
            record_acks(cyc, lat, sent, self.ack_deadline)
            self.check_counters(cyc, http, sent, f"{self.name} cycle {c}")
            for i in range(1, self.clients):
                http.merge("ingest_0", http.snapshot(f"ingest_{i}"))
            with self.traced():
                self.estimate_phase(cyc, http, "ingest_0", SERVICE_QUERIES,
                                    self.query_rounds)
            self.check_state(served_state(http, "ingest_0"), self.mirror,
                             f"{self.name} cycle {c}")
        return cyc

    async def _drive(self, handle):
        latencies: list[float] = []
        clients = []

        async def one(i: int):
            ws = AsyncSessionClient(handle.host, handle.port, f"ingest_{i}",
                                    client_id=f"c{i}",
                                    timeout=self.ack_deadline)
            clients.append(ws)
            async with ws:
                await pipeline(ws, self.frames[i], self.window, latencies)

        t0 = clock()
        await asyncio.gather(*(one(i) for i in range(self.clients)))
        t1 = clock()
        return t0, t1, latencies, sum(ws.retries_total for ws in clients)


# ---------------------------------------------------------------------------
# live_monitor: open-loop ingest beside scheduled queries, durable
# ---------------------------------------------------------------------------

LIVE_BATTERY = ("heavy_hitters", "l1_strict", "alpha_l0", "countsketch")
#: The query rotation (a choice of the benchmark, not a measured
#: deployment): the answers a dashboard polls.  ``heavy_hitters``
#: (about 100 ms on the event loop) is queried only in the final
#: estimate: scheduled, its stalls would pile onto the checkpoint
#: writes and a tail percentile would count their chance overlaps.
LIVE_QUERIES = ("l1_strict", "alpha_l0", "countsketch")


class LiveMonitor(ServiceWorkload):
    """One stamped open-loop ingest connection at a fixed offered rate
    and one query connection on its own schedule, against a durable
    session; latency runs from each request's due time.

    Unlike the other workloads, a run keeps one server, session and
    pair of connections: set-up and an untimed closed-loop warm-up pass
    of the stream happen once, then each cycle is one window of the
    schedule on the same session, as in a long-running monitor.  The
    warm session's checkpoints have about the size they keep (a cold
    session's grow from 60 to 240 ms of writing over the first pass),
    and with a window per cycle the median over cycles leaves out a
    window that a burst of host noise slowed."""

    name = "live_monitor"
    #: An eighth of a chunk, so a partial chunk is usually buffered
    #: when a query arrives and must flush it.
    push = 512
    #: Checkpoint writes (about 300 ms each, every 50k updates) hold
    #: the event loop about an eighth of the time at this rate.  At
    #: twice the rate they held it a quarter of the time, a query's
    #: median latency fell where queueing behind the stalls begins,
    #: and it moved with the host's CPU steal (8.6 to 11.9 ms over ten
    #: seeds on a 2-vCPU host).
    offered_updates_per_s = 20_000
    #: A choice of the benchmark: about 100 queries a window.
    queries_per_s = 24
    #: 85k updates a window, so one or two checkpoints in each; six
    #: windows fill a 25 s run.
    cycle_seconds = 4.25
    #: The cadence of the documented durable serve command
    #: (``--checkpoint-every 50000`` in the README's serve quickstart).
    checkpoint_every = 50_000
    hard_timeout = 10.0
    #: Rounds of the final estimate (its median round is reported).
    estimate_rounds = 5

    def run(self, seconds: float) -> RunResult:
        self.stack = contextlib.ExitStack()
        with self.stack:
            return super().run(seconds)

    def prepare(self) -> None:
        stream = self.load()
        n_frames = int(round(self.offered_updates_per_s * self.cycle_seconds
                             / self.push))
        self.warm = batches(stream.items, stream.deltas, self.push)
        reps = -(-n_frames // len(self.warm))
        self.frames = (self.warm * reps)[:n_frames]
        self.n_queries = int(round(self.queries_per_s * self.cycle_seconds))
        self.loop = asyncio.new_event_loop()
        self.stack.callback(self.loop.close)
        setup = Cycle()
        sessions = {"live": dict(n=N_UNIVERSE, seed=self.sketch_seed(),
                                 params={"alpha": ALPHA},
                                 track=list(LIVE_BATTERY))}
        handle, self.http = self.stack.enter_context(
            self.served(setup, sessions))
        self.setup_s = setup.setup_s
        self.ingest = AsyncSessionClient(handle.host, handle.port, "live",
                                         client_id="monitor")
        self.queries = AsyncSessionClient(handle.host, handle.port, "live")
        self.stack.callback(self.loop.run_until_complete, self._close())
        self.loop.run_until_complete(self._warm_up())

    async def _warm_up(self) -> None:
        await self.ingest.connect()
        await self.queries.connect()
        await self.ingest.ingest_many(self.warm)

    async def _close(self) -> None:
        await self.ingest.close()
        await self.queries.close()

    def schedule(self, count: int) -> np.ndarray:
        """Arrival offsets at a fixed rate: the window is cut into
        ``count`` equal slots and each request is due at the middle of
        its slot, so bursts do not depend on the seed."""
        slot = self.cycle_seconds / count
        return (np.arange(count) + 0.5) * slot

    def cycle(self, c: int) -> Cycle:
        cyc = Cycle(setup_s=self.setup_s)
        # Encoded before the window: the client's own encoding would
        # otherwise hold the interpreter lock the server thread is
        # waiting for.  The stamp continues from the previous window.
        base = len(self.warm) + c * len(self.frames)
        encoded = [
            protocol.encode_ingest(items, deltas, client_id="monitor",
                                   seq=base + k + 1)
            for k, (items, deltas) in enumerate(self.frames)
        ]
        names = [LIVE_QUERIES[j % len(LIVE_QUERIES)]
                 for j in range(self.n_queries)]
        with self.traced():
            out = self.loop.run_until_complete(self._window(
                encoded, self.schedule(len(encoded)),
                self.schedule(self.n_queries), names))
        t0, t_end, ack_lat, ack_fail, q_lat, q_fail, lag, est, est_fail = out
        cyc.ingest_s = t_end - t0
        cyc.windows = [(t0, t_end)]
        cyc.updates = sum(len(b[0]) for b in self.frames)
        cyc.ack_ms = ack_lat
        cyc.query_ms = q_lat
        cyc.estimate_s = median(est)
        cyc.lag_ms = lag
        cyc.attempted += (len(encoded) + len(names)
                          + len(est) * len(LIVE_BATTERY))
        cyc.failed += ack_fail + q_fail + est_fail
        return cyc

    async def _window(self, encoded, ingest_due, query_due, names):
        ingest, queries = self.ingest, self.queries
        lag: list[float] = []
        t0 = clock() + 0.05

        async def pace(due: float) -> None:
            delay = t0 + due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append((clock() - (t0 + due)) * 1e3)

        async def send_ingest():
            for k, frame in enumerate(encoded):
                await pace(ingest_due[k])
                await ingest.send_raw(frame)

        async def send_queries():
            for j, name in enumerate(names):
                await pace(query_due[j])
                await queries.send_raw(protocol.encode_query(name))

        async def receive(client, due, deadline_s, expect):
            latencies, failed, last = [], 0, t0
            for k in range(len(due)):
                try:
                    frame = await asyncio.wait_for(client.recv_frame(),
                                                   self.hard_timeout)
                except asyncio.TimeoutError:
                    return latencies, failed + len(due) - k, clock()
                last = clock()
                latency = last - (t0 + due[k])
                latencies.append(latency * 1e3)
                if frame.type is not expect or latency > deadline_s:
                    failed += 1
            return latencies, failed, last

        results = await asyncio.gather(
            send_ingest(), send_queries(),
            receive(ingest, ingest_due, self.ack_deadline,
                    protocol.FrameType.INGEST_ACK),
            receive(queries, query_due, self.query_deadline,
                    protocol.FrameType.QUERY_RESULT),
        )
        (ack_lat, ack_fail, ack_last), (q_lat, q_fail, q_last) = results[2:]
        t_end = max(ack_last, q_last)
        # The final estimate: every consumer once per round, after the
        # window; ``est`` holds each round's time.
        est, est_fail = [], 0
        for _ in range(self.estimate_rounds):
            round_s = 0.0
            for name in LIVE_BATTERY:
                before = clock()
                try:
                    await asyncio.wait_for(queries.query(name),
                                           self.query_deadline)
                except Exception:  # noqa: BLE001 - a failed query counts
                    est_fail += 1
                round_s += clock() - before
            est.append(round_s)
        return (t0, t_end, ack_lat, ack_fail, q_lat, q_fail, lag, est,
                est_fail)

    def finish(self, cycles) -> None:
        # The whole run against the stamped offline mirror of every
        # frame sent.  Refused or shed frames count as failures of the
        # first cycle, which every run summarises (it is untraced).
        frames = self.warm + self.frames * len(cycles)
        self.check_counters(cycles[0], self.http, len(frames),
                            f"{self.name} run")
        mirror = mirror_session(LIVE_BATTERY, 0, frames, "monitor",
                                self.sketch_seed())
        self.check_state(served_state(self.http, "live"), mirror.snapshot(),
                         f"{self.name} run")
        self.result.details["offered_updates_per_s"] = self.offered_updates_per_s
        self.result.details["queries_per_s"] = self.queries_per_s


WORKLOADS = {
    cls.name: cls
    for cls in (OfflineAlpha, ServiceIngest, LiveMonitor)
}
