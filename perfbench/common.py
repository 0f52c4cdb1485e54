"""Shared plumbing for the benchmark: paths, inputs, deadlines, stats,
host fingerprint and the result record.

Everything the benchmark writes lands under ``WORK`` (``.perfbench_work``
at the root of the checkout): the kernel build cache, generated
streams, checkpoint temp dirs and traced-run span dumps.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

clock = time.perf_counter

#: The shared input family: a strict-turnstile zipf stream with the
#: L1 alpha-property, from the repo's own generator.
N_UNIVERSE = 1 << 16
ALPHA = 4.0
STREAM_M = 400_000

#: Generated streams kept on disk, keyed by their parameters.
_STREAM_CACHE_KEEP = 8


def prepare_environment() -> None:
    """Point the kernel build cache into the checkout and make ``src``
    importable.  Must run before anything imports ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {SRC}; run from the root "
            "of a full checkout"
        )
    os.environ["REPRO_KERNELS_CACHE"] = str(WORK / "kernels")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- inputs ------------------------------------------------------------------

_GENERATE = """
import sys, time
import numpy as np
from repro.streams.alpha import is_strict_turnstile, l1_alpha
from repro.streams.generators import bounded_deletion_stream
n, m, alpha, seed, out = int(sys.argv[1]), int(sys.argv[2]), \\
    float(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
stream = bounded_deletion_stream(n, m, alpha=alpha, seed=seed)
items, deltas = stream.as_arrays()
np.savez(out, items=items, deltas=deltas,
         achieved_alpha=l1_alpha(stream),
         strict=is_strict_turnstile(stream))
"""


@dataclass
class StreamInput:
    items: np.ndarray
    deltas: np.ndarray
    achieved_alpha: float
    strict: bool
    generate_s: float


def load_stream(seed: int, n: int = N_UNIVERSE, m: int = STREAM_M,
                alpha: float = ALPHA) -> StreamInput:
    """The seeded input stream, generated by
    ``repro.streams.generators.bounded_deletion_stream`` in a child
    process (so its per-update Python objects never count towards this
    process's peak RSS) and checked there with ``repro.streams.alpha``.
    Streams are cached under ``WORK/streams``; ``generate_s`` is the
    wall time this call spent, cache hit or not."""
    start = clock()
    cache = WORK / "streams"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"bds-n{n}-m{m}-a{alpha:g}-s{seed}.npz"
    if not path.exists():
        tmp = path.with_name(f"tmp-{os.getpid()}-{path.name}")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", _GENERATE, str(n), str(m), str(alpha),
             str(seed), str(tmp)],
            check=True, env=env, cwd=str(ROOT), timeout=170,
        )
        os.replace(tmp, path)
        old = sorted(cache.glob("bds-*.npz"), key=lambda p: p.stat().st_mtime)
        for stale in old[:-_STREAM_CACHE_KEEP]:
            stale.unlink(missing_ok=True)
    with np.load(path) as data:
        out = StreamInput(
            items=data["items"].astype(np.int64),
            deltas=data["deltas"].astype(np.int64),
            achieved_alpha=float(data["achieved_alpha"]),
            strict=bool(data["strict"]),
            generate_s=0.0,
        )
    if not out.strict:
        raise RuntimeError(f"seed {seed}: stream is not strict turnstile")
    if not 1.0 <= out.achieved_alpha <= alpha:
        raise RuntimeError(
            f"seed {seed}: achieved alpha {out.achieved_alpha} exceeds "
            f"the declared {alpha}"
        )
    out.generate_s = clock() - start
    return out


def batches(items: np.ndarray, deltas: np.ndarray, size: int,
            repeat: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(items, deltas)`` views of ``size`` updates, ``repeat`` passes
    over the stream (a repeated strict-turnstile stream stays strict
    and keeps its alpha)."""
    one = [(items[p:p + size], deltas[p:p + size])
           for p in range(0, len(items), size)]
    return one * repeat


# -- deadlines ---------------------------------------------------------------

class DeadlineExceeded(BaseException):
    """Raised into the main thread by SIGALRM.  A BaseException so a
    broad ``except Exception`` inside the program cannot swallow it."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the body after ``seconds`` of wall time (main thread
    only).  The body sees :class:`DeadlineExceeded`."""
    def fire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- state comparison ------------------------------------------------------

def _same(a, b, memo: set) -> bool:
    """Deep equality of live structures, the way the repo's equivalence
    harness defines bit-identical state: arrays bitwise with dtype,
    generators by state, dicts by key set then per key (insertion
    order is not state), objects by ``__dict__``."""
    key = (id(a), id(b))
    if key in memo:
        return True
    memo.add(key)
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.hasobject:
            return bool(np.array_equal(a, b))
        return a.tobytes() == b.tobytes()
    if isinstance(a, np.random.Generator):
        return a.bit_generator.state == b.bit_generator.state
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same(a[k], b[k], memo) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _same(x, y, memo) for x, y in zip(a, b))
    if isinstance(a, (set, frozenset)):
        return a == b
    if isinstance(a, (types.FunctionType, types.MethodType)):
        return True  # query hooks: code, not state
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b), memo)
    return bool(a == b)


def states_match(a: dict, b: dict) -> tuple[bool, bool]:
    """Compare two session snapshots: ``(equal, strict)``.

    ``payload_equal`` first.  It is order-sensitive for dicts whose
    keys are not strings (they encode as ordered pair lists), so when
    it fails the payloads are restored and the live consumers compared
    as the equivalence harness does.  ``strict`` is False when only
    the second comparison held."""
    from repro.api.serialize import payload_equal
    from repro.api.session import StreamSession

    if payload_equal(a, b):
        return True, True
    if not payload_equal(a["session"], b["session"]):
        return False, False
    left = StreamSession.restore(a).results()
    right = StreamSession.restore(b).results()
    return _same(left, right, set()), False


# -- statistics --------------------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host fingerprint --------------------------------------------------------

def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _compiler_version(compiler: str | None) -> str | None:
    if not compiler:
        return None
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else None


def fingerprint() -> dict:
    from repro import kernels

    described = kernels.backend().describe()
    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": described["compiler"],
        "compiler_version": _compiler_version(described["compiler"]),
        "kernels": {
            "mode": described["mode"],
            "active": described["active"],
            "reason": described["reason"],
        },
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``;
    None where it cannot be read.  Steal is time the hypervisor gave
    other guests: on a shared VM, latency figures rise with it."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
        ticks = [int(x) for x in line.split()[1:9]]
        return ticks[7], sum(ticks)
    return None


def steal_share(before, after) -> float | None:
    """The share of CPU time stolen between two ``cpu_ticks`` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# -- results -----------------------------------------------------------------

@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics: name -> (value, unit).
    metrics: dict = field(default_factory=dict)
    #: Counts and extra facts for the human-readable report line.
    details: dict = field(default_factory=dict)
    #: Traced cycles' measurement windows and updates/s, untraced
    #: updates/s (trace mode only).
    traced_windows: list = field(default_factory=list)
    traced_ups: list = field(default_factory=list)
    untraced_ups: list = field(default_factory=list)
    generate_s: float = 0.0
    generator_lag_ms: list = field(default_factory=list)
    #: Correctness checks that failed, by description.
    violations: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.violations.append(what)
