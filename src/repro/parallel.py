"""Parallel execution of independent experiment grid points.

Every sweep in :mod:`repro.core.experiment` evaluates a grid whose
points share nothing — each builds its own :class:`Simulator` from its
own config and seed — so they spread perfectly across worker processes.
This module is the one place that knows how.

``jobs<=1`` runs the points in this process, in grid order.  ``jobs>1``
hands them to a :class:`concurrent.futures.ProcessPoolExecutor`: an
idle worker takes the next point the moment it finishes its last, so a
skewed grid (one 150-Dev point among 10-Dev points) keeps every worker
busy.  Each finished point reaches ``on_complete`` in this process as
soon as it completes.  A point that raises cancels the points not yet
started and re-raises here, exactly as the serial path would.  A worker
that dies (SIGKILL, the OOM killer) breaks the pool; the points it left
unfinished go once more to a fresh pool, and a second death fails the
sweep, naming them.

:func:`run_cached` adds the cache layer (:mod:`repro.cache`): it first
partitions the grid into hits — served instantly from disk, no
simulator built — and misses, dispatches only the misses, and commits
each finished point to the cache *as it completes*.  An interrupted
sweep therefore resumes: rerunning it re-serves every committed point
and recomputes only the remainder.

Determinism: a run's outcome depends only on its config (the per-run
RNGs are seeded from ``config.seed``), so neither dispatch order nor a
retry can change any result — ``jobs=N`` returns byte-identical rows to
``jobs=1``, just sooner on a multi-core host.  The pool is imported
only on the ``jobs>1`` path, so the serial path never loads
:mod:`multiprocessing`.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import SimulationConfig
from repro.obs.recorder import FlightRecorder


def _mp_context():
    # fork shares the already-imported modules with the workers; fall
    # back to the platform default (spawn) where fork is unavailable.
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _peak_rss_kib() -> int:
    """This process's peak RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed_call(fn, item) -> Tuple[object, float, int]:
    """Run one point; report its wall time and the peak RSS of the
    process that ran it, so sweep telemetry can spot stragglers and
    project an ETA.  The timing rides alongside the result — it never
    feeds back into the simulation, so determinism is untouched."""
    t0 = time.monotonic()  # simlint: disable=SIM101
    value = fn(item)
    elapsed = time.monotonic() - t0  # simlint: disable=SIM101
    return value, elapsed, _peak_rss_kib()


def run_map(
    fn,
    items: Sequence,
    jobs: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    telemetry: Optional["SweepTelemetry"] = None,
    indices: Optional[Sequence[int]] = None,
) -> List:
    """Map ``fn`` over ``items``; results come back in input order.

    ``on_complete(index, value)`` fires in *this* process as each item
    finishes (completion order, not input order) — the hook
    :func:`run_cached` uses to commit points incrementally.  ``jobs<=1``
    (or a single item) runs serially in this process, in input order;
    otherwise ``fn`` and the items must pickle (module-level functions
    do).  ``indices`` gives each item's grid index, the index that
    ``on_complete``, telemetry and errors report (default: its position
    in ``items``).

    ``telemetry`` (a :class:`SweepTelemetry`) receives a ``point_done``
    per completed item, and a flight-recorder dump on every worker
    death, failed point or interruption.  Purely observational: results
    are identical with and without it.
    """
    if indices is None:
        indices = range(len(items))
    if jobs <= 1 or len(items) <= 1:
        out = []
        for index, item in zip(indices, items):
            if telemetry is not None:
                value, elapsed, rss_kib = _timed_call(fn, item)
                telemetry.point_done(index, elapsed, rss_kib=rss_kib)
            else:
                value = fn(item)
            if on_complete is not None:
                on_complete(index, value)
            out.append(value)
        return out
    try:
        return _pool_map(fn, items, indices, jobs, on_complete, telemetry)
    except KeyboardInterrupt:
        # Interrupted sweep parent: dump the telemetry flight recorder
        # so the run-up survives the ^C / SIGTERM, then propagate.
        if telemetry is not None:
            telemetry.interrupted("KeyboardInterrupt")
        raise


def _pool_map(fn, items: Sequence, indices: Sequence[int], jobs: int,
              on_complete: Optional[Callable[[int, object], None]],
              telemetry: Optional["SweepTelemetry"]) -> List:
    """The ``jobs>1`` path: one process pool, then one fresh pool for
    whatever a dead worker left unfinished."""
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    results: List = [None] * len(items)
    unfinished = list(range(len(items)))  # positions in items
    for attempt in (1, 2):
        # Forking is safe here: the executor forks all its fork-context
        # workers before it starts its own thread, and the retry pool
        # starts only after the broken one has been shut down.
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(unfinished)),
                                   mp_context=_mp_context())
        futures = {}
        lost: List[int] = []
        try:
            for position in unfinished:
                try:
                    future = pool.submit(_timed_call, fn, items[position])
                except BrokenProcessPool:  # a worker died mid-submission
                    lost.append(position)
                    continue
                futures[future] = position
            for future in as_completed(futures):
                position = futures[future]
                try:
                    value, elapsed, rss_kib = future.result()
                except BrokenProcessPool:
                    lost.append(position)
                    continue
                results[position] = value
                if telemetry is not None:
                    telemetry.point_done(indices[position], elapsed,
                                         rss_kib=rss_kib)
                if on_complete is not None:
                    on_complete(indices[position], value)
        except BaseException as exc:
            _abandon(pool)
            # A raising point is deterministic, so a retry would raise
            # again: surface it (with the post-mortem) like the serial
            # path would.
            if telemetry is not None and not isinstance(exc, KeyboardInterrupt):
                telemetry.worker_died(exc)
            raise
        pool.shutdown()
        if not lost:
            return results
        unfinished = sorted(lost)
        named = [indices[position] for position in unfinished]
        if attempt == 1 and telemetry is not None:
            telemetry.worker_lost(named)
    error = RuntimeError(
        f"sweep point(s) {', '.join(map(str, named))} did not finish: "
        f"a worker process died on the first attempt and on the retry"
    )
    if telemetry is not None:
        telemetry.worker_died(error)
    raise error


def _abandon(pool) -> None:
    """Drop a pool now: cancel the points not yet started and terminate
    the workers, whose in-flight points would otherwise run to the end
    (the executor has no public way to stop them before Python 3.14)."""
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        process.terminate()


# ----------------------------------------------------------------------
# Sweep telemetry
# ----------------------------------------------------------------------
class SweepTelemetry:
    """Live observability for one sweep: per-point wall times, cache
    hit/miss attribution, straggler flagging and an ETA, streamed as
    progress lines (stderr by default).

    This is *harness* telemetry — it measures the sweep machinery in
    wall time, not the simulation, so it lives outside the determinism
    contract: enabling ``--progress`` cannot change a single row.  Every
    progress event is noted (wall-clock offsets from :meth:`begin`) into
    a sweep-local :class:`FlightRecorder` that dumps itself when a
    worker dies or the sweep parent is interrupted, so a crashed sweep
    leaves a post-mortem of the points that led up to the death.

    ``quiet=True`` suppresses routine progress lines but keeps recording
    (and still prints worker-death/failure/interrupt diagnostics) — sweep
    CLIs run with a quiet telemetry unless ``--progress`` is given, so
    an interrupted or failed sweep always leaves its post-mortem.
    """

    def __init__(self, label: str = "sweep", stream=None,
                 straggler_factor: float = 3.0, quiet: bool = False):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.straggler_factor = straggler_factor
        self.quiet = quiet
        self.recorder = FlightRecorder()
        self.total = 0
        self.jobs = 1
        self.done = 0
        self.cached = 0
        self.computed = 0
        self.stragglers: List[int] = []
        #: points resubmitted after a worker death
        self.retries = 0
        self.last_summary: Optional[dict] = None
        #: highest per-worker peak RSS reported so far (KiB, ru_maxrss)
        self.peak_rss_kib: Optional[int] = None
        self._elapsed: List[float] = []
        self._t0 = 0.0

    # -- internals ------------------------------------------------------
    def _now(self) -> float:
        """Seconds since :meth:`begin` (wall clock, harness-side only)."""
        return time.monotonic() - self._t0  # simlint: disable=SIM101

    def _line(self, text: str, force: bool = False) -> None:
        if self.quiet and not force:
            return
        print(f"[{self.label}] {text}", file=self.stream, flush=True)

    def _eta(self) -> Optional[float]:
        remaining = self.total - self.done
        if not self._elapsed or remaining <= 0:
            return None
        mean = sum(self._elapsed) / len(self._elapsed)
        return remaining * mean / max(self.jobs, 1)

    # -- lifecycle ------------------------------------------------------
    def begin(self, total: int, jobs: int = 1) -> None:
        self.total = total
        self.jobs = max(jobs, 1)
        self._t0 = time.monotonic()  # simlint: disable=SIM101
        self.recorder.note("sweep.begin", 0.0, total=total, jobs=self.jobs)
        self._line(f"{total} points, jobs={self.jobs}")

    def point_cached(self, index: int, key: Optional[str] = None) -> None:
        self.done += 1
        self.cached += 1
        t = self._now()
        self.recorder.note("sweep.cache_hit", t, index=index,
                           **({"key": key} if key else {}))
        suffix = f" (key {key})" if key else ""
        self._line(f"point {index}: cache hit{suffix} "
                   f"[{self.done}/{self.total}]")

    def _track_rss(self, rss_kib: Optional[int]) -> str:
        if rss_kib is None:
            return ""
        if self.peak_rss_kib is None or rss_kib > self.peak_rss_kib:
            self.peak_rss_kib = rss_kib
        return f", rss {rss_kib / 1024.0:.0f}MiB"

    def point_done(self, index: int, elapsed: float,
                   rss_kib: Optional[int] = None) -> None:
        self.done += 1
        self.computed += 1
        self._elapsed.append(elapsed)
        rss_text = self._track_rss(rss_kib)
        t = self._now()
        self.recorder.note("sweep.point_done", t, index=index,
                           elapsed=round(elapsed, 3),
                           **({"rss_kib": rss_kib} if rss_kib else {}))
        straggler = ""
        if len(self._elapsed) >= 3:
            median = sorted(self._elapsed)[len(self._elapsed) // 2]
            if median > 0 and elapsed > self.straggler_factor * median:
                self.stragglers.append(index)
                straggler = f" STRAGGLER ({elapsed:.1f}s vs median {median:.1f}s)"
        eta = self._eta()
        eta_text = f", eta {eta:.0f}s" if eta is not None else ""
        self._line(f"point {index}: computed in {elapsed:.1f}s "
                   f"[{self.done}/{self.total}{eta_text}]{rss_text}{straggler}")

    def worker_died(self, error: BaseException) -> None:
        """The sweep is failing — a point raised, or a worker died again
        on the retry: force-dump the flight recorder before it does."""
        t = self._now()
        self.recorder.note("sweep.worker_death", t, error=repr(error))
        dump = self.recorder.dump("sweep.worker_death", t, error=repr(error))
        self._line(f"worker died: {error!r}", force=True)
        if dump is not None:
            self._line(f"flight recorder: {len(dump['notes'])} notes "
                       f"preserved for post-mortem", force=True)

    def worker_lost(self, unfinished: Sequence[int]) -> None:
        """A worker process died mid-sweep and broke the pool.  Unlike
        :meth:`worker_died` this is non-fatal — ``unfinished`` goes to a
        fresh pool — but it still force-dumps the flight recorder so a
        survived death leaves its post-mortem too."""
        pending = list(unfinished)
        self.retries += len(pending)
        t = self._now()
        self.recorder.note("sweep.worker_lost", t, retry=pending)
        dump = self.recorder.dump("sweep.worker_lost", t, retry=pending)
        self._line(f"worker lost; retrying point(s) {pending}", force=True)
        if dump is not None:
            self._line(f"flight recorder: {len(dump['notes'])} notes "
                       f"preserved for post-mortem", force=True)

    def interrupted(self, reason: str = "KeyboardInterrupt") -> None:
        """Sweep parent interrupted (^C / SIGTERM): force a recorder
        dump so the run-up to the interruption survives."""
        t = self._now()
        dump = self.recorder.dump("sweep.interrupted", t, reason=reason)
        self._line(f"interrupted ({reason})", force=True)
        if dump is not None:
            self._line(f"flight recorder: {len(dump['notes'])} notes "
                       f"preserved for post-mortem", force=True)

    def finish(self) -> dict:
        t = self._now()
        summary = {
            "total": self.total,
            "cached": self.cached,
            "computed": self.computed,
            "stragglers": list(self.stragglers),
            "retries": self.retries,
            "wall_seconds": round(t, 3),
        }
        if self.peak_rss_kib is not None:
            summary["peak_rss_kib"] = self.peak_rss_kib
        self.recorder.note("sweep.finish", t, **{
            key: value for key, value in summary.items()
            if key != "stragglers"
        })
        straggler_text = (f", stragglers: {self.stragglers}"
                          if self.stragglers else "")
        rss_text = (f", peak worker rss {self.peak_rss_kib / 1024.0:.0f}MiB"
                    if self.peak_rss_kib is not None else "")
        self._line(f"done: {self.cached} cached + {self.computed} computed "
                   f"of {self.total} in {t:.1f}s{rss_text}"
                   f"{straggler_text}")
        self.last_summary = summary
        return summary


# ----------------------------------------------------------------------
# Cache-aware incremental sweeps
# ----------------------------------------------------------------------
def run_cached(
    point_fn,
    configs: Sequence[SimulationConfig],
    jobs: int = 1,
    cache=None,
    telemetry: Optional[SweepTelemetry] = None,
) -> List:
    """Evaluate ``point_fn`` (config -> :class:`repro.cache.CachedRun`)
    over a grid, serving cache hits instantly and committing each
    computed miss the moment it finishes.

    With ``cache=None`` this is exactly :func:`run_map`.  With a
    :class:`repro.cache.RunCache`:

    1. every config is fingerprinted and looked up — hits cost one JSON
       deserialize, no simulator is built;
    2. only the misses go to :func:`run_map`;
    3. each completed miss is committed from this (parent) process —
       one writer, atomic rename — so interrupting the sweep loses only
       in-flight points, and the rerun resumes from the committed ones;
    4. the session's hit/miss tally is persisted for
       ``repro cache stats``.

    Results come back in grid order either way.
    """
    if telemetry is not None:
        telemetry.begin(len(configs), jobs)
    if cache is None:
        results = run_map(point_fn, configs, jobs, telemetry=telemetry)
    else:
        results = [None] * len(configs)
        miss_indices: List[int] = []
        for index, config in enumerate(configs):
            hit = cache.get(config)
            if hit is not None:
                results[index] = hit
                if telemetry is not None:
                    telemetry.point_cached(index, key=cache.describe(config))
            else:
                miss_indices.append(index)

        def commit(index: int, value) -> None:
            results[index] = value
            cache.put(configs[index], value)

        try:
            run_map(point_fn, [configs[index] for index in miss_indices],
                    jobs, on_complete=commit, telemetry=telemetry,
                    indices=miss_indices)
        finally:
            cache.commit_session()
    if telemetry is not None:
        telemetry.finish()
    return results
