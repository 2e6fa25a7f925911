"""repro.cache — content-addressed, on-disk cache of finished runs.

The paper's deliverables are sweeps: Figures 2–4 and Table I rerun the
same simulation over a (devices x duration x churn) grid, and between
iterations most grid points are unchanged.  This module makes re-running
a sweep cost only its *changed* points: every completed run is stored
under a fingerprint of everything that could alter its outcome, and the
sweep engine (:func:`repro.parallel.run_cached`) serves fingerprint hits
straight from disk without building a simulator at all.

**Key derivation.**  A run's key is the SHA-256 of the canonical config
JSON (:func:`repro.serialization.config_to_canonical_json` — sorted
keys, tuples normalised, fault plans embedded), the sweep's *point
function* and a *code salt*: a hash over every ``repro`` source file.
Simulation outcomes depend only on (config, code) — per-run RNGs are
seeded from ``config.seed`` — so two runs with equal keys are
bit-identical and any edit under ``src/repro`` invalidates the whole
store at once, which is cheap insurance against serving results from a
stale engine.  The point function decides what a blob holds (Figure 4
stores two results, the fault sweep its injector counts in ``extra``),
so two sweeps that build an equal config never share one entry.

**Storage.**  JSON blobs under ``<root>/objects/<k[:2]>/<key>.json``,
each holding the config echo, the run's :class:`RunResult` list, its
metric snapshot, and any extra scalars a sweep wants to keep.  Writes go
to a temp file in the same directory and ``os.replace`` into place, so a
reader (or a parallel sweep in another process) never observes a partial
blob.  Eviction is LRU by file mtime — hits re-touch their blob — with a
byte-size cap enforced by :meth:`RunCache.gc`.

Hit/miss/store counts persist in ``<root>/stats.json`` so ``repro cache
stats`` can report the last sweep's hit rate after the process exits;
live counters also feed :mod:`repro.obs` (``cache_hits_total``,
``cache_misses_total``, the ``cache_bytes`` gauge, and ``cache.hit`` /
``cache.store`` trace events).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import SimulationConfig
from repro.core.results import RunResult

#: default store location (relative to the invoking process's cwd)
DEFAULT_CACHE_DIR = ".repro-cache"
#: default LRU size cap: plenty for full published grids, small enough
#: to never matter on a laptop
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_BLOB_VERSION = 1


@dataclass
class CachedRun:
    """Everything one sweep point produced, in storable form.

    ``results`` holds one :class:`RunResult` for plain sweeps and two for
    Figure 4 points (DDoSim run + hardware twin); ``metrics`` is the
    run's ``MetricsRegistry.snapshot()``; ``extra`` carries any JSON
    scalars the sweep's row builder needs beyond the result itself
    (fault-injection counts, fleet memory, ...).
    """

    results: List[RunResult]
    metrics: Dict[str, dict] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def result(self) -> RunResult:
        """The point's primary result (first entry)."""
        return self.results[0]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
_code_salt_cache: Dict[str, str] = {}


def code_salt() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Folded into each run key so editing the engine invalidates stored
    results instead of silently serving output the current code would
    no longer produce.
    """
    package_dir = os.path.dirname(os.path.abspath(__file__))
    cached = _code_salt_cache.get(package_dir)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for directory, dirnames, filenames in sorted(os.walk(package_dir)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    salt = digest.hexdigest()
    _code_salt_cache[package_dir] = salt
    return salt


def run_key(config: SimulationConfig, salt: Optional[str] = None,
            point: str = "") -> str:
    """Content address for one run: SHA-256 over (code salt, point
    function name, canonical config JSON).  Equal configs of the same
    point function under the same code hash equal."""
    from repro.serialization import config_to_canonical_json

    body = config_to_canonical_json(config)
    digest = hashlib.sha256()
    digest.update((salt if salt is not None else code_salt()).encode())
    digest.update(b"\x00")
    digest.update(point.encode())
    digest.update(b"\x00")
    digest.update(body.encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class RunCache:
    """One on-disk run store plus this process's hit/miss session.

    Safe for concurrent use by independent processes: blob writes are
    atomic renames and readers tolerate (and clean up) torn or corrupt
    blobs by treating them as misses.
    """

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
        observatory=None,
        salt: Optional[str] = None,
    ):
        self.root = root
        self.max_bytes = max_bytes
        self.salt = salt if salt is not None else code_salt()
        self.session_hits = 0
        self.session_misses = 0
        self.session_stores = 0
        obs = observatory
        if obs is None:
            from repro.obs import NULL_OBSERVATORY

            obs = NULL_OBSERVATORY
        self._tracer = obs.tracer
        self._hits_counter = obs.metrics.counter(
            "cache_hits_total", help="sweep points served from the run cache"
        )
        self._misses_counter = obs.metrics.counter(
            "cache_misses_total", help="sweep points that had to simulate"
        )
        self._bytes_gauge = obs.metrics.gauge(
            "cache_bytes", help="bytes stored in the run cache"
        )

    # -- paths ----------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _blob_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    @property
    def _stats_path(self) -> str:
        return os.path.join(self.root, "stats.json")

    # -- lookup / store -------------------------------------------------
    # ``point`` names the sweep's point function (module-qualified, as
    # :func:`repro.parallel.run_cached` passes it); see :func:`run_key`.
    def key_for(self, config: SimulationConfig, point: str = "") -> str:
        return run_key(config, salt=self.salt, point=point)

    def describe(self, config: SimulationConfig, point: str = "") -> str:
        """Short (12-hex) key prefix for progress lines and telemetry —
        long enough to find the blob, short enough to read."""
        return self.key_for(config, point)[:12]

    def get(self, config: SimulationConfig,
            point: str = "") -> Optional[CachedRun]:
        """The stored run for ``config``, or ``None`` on a miss.

        A hit re-touches the blob (LRU recency) and deserializes without
        ever constructing a simulator — the whole point of the cache.
        """
        from repro.serialization import result_from_dict

        key = self.key_for(config, point)
        path = self._blob_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                blob = json.load(handle)
            if blob.get("version") != _BLOB_VERSION or blob.get("key") != key:
                raise ValueError("stale or foreign blob")
            run = CachedRun(
                results=[result_from_dict(r) for r in blob["results"]],
                metrics=blob.get("metrics", {}),
                extra=blob.get("extra", {}),
            )
        except FileNotFoundError:
            self._record_miss(key)
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Torn/corrupt/incompatible blob: drop it and recompute.
            try:
                os.unlink(path)
            except OSError:
                pass
            self._record_miss(key)
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.session_hits += 1
        self._hits_counter.inc()
        self._tracer.emit("cache.hit", 0.0, key=key, results=len(run.results))
        return run

    def put(self, config: SimulationConfig, run: CachedRun,
            point: str = "") -> str:
        """Store one finished point atomically; returns its key.

        Write-temp-then-rename in the blob's own directory, so parallel
        writers of the *same* key race benignly (last rename wins, both
        blobs identical by construction) and readers never see a prefix.
        """
        from repro.serialization import config_to_dict, result_to_dict

        key = self.key_for(config, point)
        path = self._blob_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = {
            "version": _BLOB_VERSION,
            "key": key,
            "config": config_to_dict(config),
            "results": [result_to_dict(r) for r in run.results],
            "metrics": run.metrics,
            "extra": run.extra,
        }
        fd, temp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(blob, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.session_stores += 1
        self._tracer.emit("cache.store", 0.0, key=key, results=len(run.results))
        self._bytes_gauge.set(float(self.total_bytes()))
        if self.max_bytes:
            self.gc()
        return key

    def _record_miss(self, key: str) -> None:
        self.session_misses += 1
        self._misses_counter.inc()
        self._tracer.emit("cache.miss", 0.0, key=key)

    # -- maintenance ----------------------------------------------------
    def _blobs(self) -> List[str]:
        found: List[str] = []
        for directory, _dirnames, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                if filename.endswith(".json") and not filename.startswith("."):
                    found.append(os.path.join(directory, filename))
        return found

    def total_bytes(self) -> int:
        total = 0
        for path in self._blobs():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used blobs until under the size cap;
        returns how many were removed."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = []
        for path in self._blobs():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in entries)
        evicted = 0
        for _mtime, size, path in sorted(entries):
            if total <= cap:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        self._bytes_gauge.set(float(total))
        return evicted

    def clear(self) -> int:
        """Remove every stored blob (stats survive); returns the count."""
        removed = 0
        for path in self._blobs():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._bytes_gauge.set(0.0)
        return removed

    # -- stats ----------------------------------------------------------
    def _load_stats(self) -> Dict[str, Any]:
        try:
            with open(self._stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
            if not isinstance(stats, dict):
                raise ValueError
            return stats
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0, "stores": 0}

    def _persist_stats(self) -> None:
        """Fold this session's counters into ``stats.json`` atomically."""
        os.makedirs(self.root, exist_ok=True)
        stats = self._load_stats()
        stats["hits"] = int(stats.get("hits", 0)) + self.session_hits
        stats["misses"] = int(stats.get("misses", 0)) + self.session_misses
        stats["stores"] = int(stats.get("stores", 0)) + self.session_stores
        stats["last_sweep"] = self.session_summary()
        fd, temp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.root
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(stats, handle, indent=2, sort_keys=True)
            os.replace(temp_path, self._stats_path)
        except BaseException:
            # Same guard as put(): a ^C mid-write must not leave a
            # stray temp file behind, and stats.json keeps its last
            # complete contents (rename never happened).
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        # The folded-in counts must not double when persisted again.
        self.session_hits = self.session_misses = self.session_stores = 0

    def commit_session(self) -> None:
        """Persist the session's hit/miss tallies (sweep engines call
        this once per sweep so ``repro cache stats`` reflects it)."""
        self._persist_stats()

    def session_summary(self) -> Dict[str, Any]:
        lookups = self.session_hits + self.session_misses
        return {
            "hits": self.session_hits,
            "misses": self.session_misses,
            "hit_rate": (self.session_hits / lookups) if lookups else 0.0,
        }

    def stats(self) -> Dict[str, Any]:
        """Everything ``repro cache stats`` prints: store shape plus
        persisted lifetime and last-sweep hit/miss counts."""
        persisted = self._load_stats()
        return {
            "dir": self.root,
            "entries": len(self._blobs()),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "hits": int(persisted.get("hits", 0)) + self.session_hits,
            "misses": int(persisted.get("misses", 0)) + self.session_misses,
            "stores": int(persisted.get("stores", 0)) + self.session_stores,
            "last_sweep": persisted.get("last_sweep", self.session_summary()),
        }

