"""Content-addressed on-disk cache for experiment results.

Cache key
---------
An entry is addressed by the SHA-256 of a canonical JSON document::

    {
      "experiment_id": ...,
      "params": {"seed": ..., "num_requests": ..., ...},   # spec-filtered
      "code_fingerprint": sha256(source of every module the spec runs
                                 + source of experiments.common),
      "version": repro.__version__,
      "format": CACHE_FORMAT,
    }

``params`` comes from :meth:`ExperimentSpec.cache_relevant_params`, so a
seed change never invalidates a seed-independent experiment, while any
change to the code the experiment runs (the modules of its runner and of
its shard worker and merge -- fig9 runs fig8's worker), the shared
helpers, the package version or the on-disk format changes the key and
naturally invalidates stale entries (content addressing: old entries are
simply never looked up again).

Storage
-------
One pickle per entry under ``<cache_dir>/results/<key>.pkl`` --
``ExperimentResult.data`` holds arbitrary dataclasses, so pickle (not
JSON) is the fidelity-preserving format.  Writes go through a same-
directory temp file + ``os.replace`` so a crashed run can never leave a
half-written entry behind; a corrupt or unreadable entry is treated as a
miss, deleted, and recomputed (counted in ``stats.invalidated``).

The default location is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro import __version__

from . import common
from .common import ExperimentResult
from .spec import ExperimentSpec

#: Bump when the on-disk entry layout changes; invalidates every entry.
CACHE_FORMAT = 1

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one runner invocation."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0  # corrupt/mismatched entries removed
    errors: int = 0  # I/O failures (cache degraded, run continued)
    hit_ids: list = field(default_factory=list)
    miss_ids: list = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "errors": self.errors,
            "hit_ids": list(self.hit_ids),
            "miss_ids": list(self.miss_ids),
        }

    def summary(self) -> str:
        total = self.hits + self.misses
        return (
            f"cache: {self.hits}/{total} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.invalidated} invalidated, "
            f"{self.errors} errors"
        )


def _module_source(module_name: str) -> str:
    module = sys.modules.get(module_name)
    if module is None:  # pragma: no cover - registry imports guarantee this
        __import__(module_name)
        module = sys.modules[module_name]
    try:
        return inspect.getsource(module)
    except (OSError, TypeError):  # pragma: no cover - frozen/zipped installs
        return module_name


def code_fingerprint(spec: ExperimentSpec) -> str:
    """SHA-256 over the code the experiment runs plus the shared helpers.

    Covers the sorted, de-duplicated modules of ``spec.runner`` and, for
    a sharded spec, of its worker and merge, then
    :mod:`repro.experiments.common` (which every experiment funnels
    through).  Editing any of them changes the fingerprint and therefore
    the cache key -- the "config hash" leg of invalidation.
    """
    functions = [spec.runner]
    if spec.shards is not None:
        functions += [spec.shards.worker, spec.shards.merge]
    digest = hashlib.sha256()
    for module_name in sorted({function.__module__ for function in functions}):
        digest.update(_module_source(module_name).encode("utf-8"))
    digest.update(_module_source(common.__name__).encode("utf-8"))
    return digest.hexdigest()


def cache_key(
    spec: ExperimentSpec, seed: int, num_requests: Optional[int]
) -> str:
    """The content address for one (experiment, parameters) result."""
    document = {
        "experiment_id": spec.experiment_id,
        "params": spec.cache_relevant_params(seed, num_requests),
        "code_fingerprint": code_fingerprint(spec),
        "version": __version__,
        "format": CACHE_FORMAT,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry result store with graceful degradation.

    Every method is best-effort: cache trouble (unreadable directory,
    corrupt entry, full disk) downgrades to a recompute, never an
    exception escaping to the runner.
    """

    def __init__(self, cache_dir: Optional[Path] = None, enabled: bool = True):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = enabled
        self.stats = CacheStats()

    @property
    def results_dir(self) -> Path:
        return self.cache_dir / "results"

    def _path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.pkl"

    def load(
        self, spec: ExperimentSpec, seed: int, num_requests: Optional[int]
    ) -> Optional[ExperimentResult]:
        """The cached result, or ``None`` on any kind of miss."""
        if not self.enabled:
            return None
        key = cache_key(spec, seed, num_requests)
        path = self._path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            self.stats.miss_ids.append(spec.experiment_id)
            return None
        except OSError:
            self.stats.errors += 1
            return None
        try:
            entry = pickle.loads(raw)
            if entry["key"] != key or entry["format"] != CACHE_FORMAT:
                raise ValueError("cache entry does not match its address")
            result = entry["result"]
            if not isinstance(result, ExperimentResult):
                raise ValueError("cache entry payload has the wrong type")
        except Exception:
            # Corrupt/stale entry: remove it and fall back to a recompute.
            self.stats.invalidated += 1
            self.stats.misses += 1
            self.stats.miss_ids.append(spec.experiment_id)
            try:
                path.unlink()
            except OSError:
                self.stats.errors += 1
            return None
        self.stats.hits += 1
        self.stats.hit_ids.append(spec.experiment_id)
        return result

    def store(
        self,
        spec: ExperimentSpec,
        seed: int,
        num_requests: Optional[int],
        result: ExperimentResult,
    ) -> None:
        """Persist ``result`` atomically; failures only dent the stats."""
        if not self.enabled:
            return
        key = cache_key(spec, seed, num_requests)
        entry = {"key": key, "format": CACHE_FORMAT, "result": result}
        try:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=self.results_dir, prefix=f".{key}.", delete=False
            )
            try:
                with handle:
                    pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(handle.name, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.errors += 1
            return
        self.stats.stores += 1


class NullCache(ResultCache):
    """A disabled cache (``--no-cache``): every lookup misses silently."""

    def __init__(self) -> None:
        super().__init__(cache_dir=Path(os.devnull), enabled=False)
