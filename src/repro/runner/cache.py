"""Content-addressed on-disk memoization of sweep points.

Every sweep point in the reproduction is a pure function of its
inputs: the cost model, the architecture, the sweep parameters and the
simulation seed fully determine the result (see DESIGN.md §4,
"Determinism").  That purity makes results *content-addressable*: the
cache key is a SHA-256 digest over

* the point function's dotted name and one digest of the source
  text of every module in the :mod:`repro` package (so editing any
  code a point may run, not only its own module, invalidates it);
* the effective :class:`~repro.host.costs.CostModel` (a recalibration
  invalidates everything that depends on it);
* the full parameter binding, with signature defaults applied (so
  ``run_point(arch, 4000)`` and ``run_point(arch, 4000, seed=1)`` hit
  the same entry when 1 is the default seed) — a bound topology spec
  is canonicalized here in full, so points that differ only in their
  graph (links, switch policies, queue depths, bindings) never
  collide;
* the package version (:data:`repro.__version__`).

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` — one
point per file, written atomically, safe for concurrent writers (the
worst case for a racing write is both workers computing the same
deterministic value).  The default root is ``~/.cache/repro-lrp``,
overridable with the ``REPRO_CACHE_DIR`` environment variable or the
``--cache-dir`` CLI flag.

A corrupt or unreadable entry is treated as a miss and recomputed;
delete the cache directory at any time to start cold.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import repro
from repro.host.costs import CostModel, DEFAULT_COSTS

#: Environment variable naming the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache root when neither the env var nor an explicit path
#: is given.
DEFAULT_CACHE_DIR = "~/.cache/repro-lrp"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-lrp``."""
    return Path(os.environ.get(CACHE_DIR_ENV,
                               DEFAULT_CACHE_DIR)).expanduser()


def canonicalize(obj: Any) -> Any:
    """Reduce *obj* to JSON-representable plain data, deterministically.

    Handles the parameter types sweep points actually take: enums
    (:class:`~repro.core.Architecture`) become their value tagged with
    the enum class name, dataclasses (:class:`CostModel`) become field
    dicts, tuples become lists.
    """
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                "fields": {k: canonicalize(v) for k, v in
                           sorted(dataclasses.asdict(obj).items())}}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} "
                    f"for cache keying: {obj!r}")


@functools.lru_cache(maxsize=None)
def package_source_digest() -> str:
    """Digest of every ``*.py`` under the :mod:`repro` package, path
    and text (computed once per process)."""
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def bind_full_kwargs(fn: Callable, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """*kwargs* merged with *fn*'s signature defaults."""
    bound = inspect.signature(fn).bind(**kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def topology_identity(kwargs: Dict[str, Any]) -> Optional[str]:
    """The name of the topology bound in a point's parameters, if any.

    Multi-host points take a ``topology``
    :class:`~repro.net.topology.TopologySpec`; its ``name`` is the
    human-readable identity recorded in sweep logs.  (The full spec —
    every link, switch policy and binding — is canonicalized into the
    cache key separately; the name alone would under-key.)
    """
    topology = kwargs.get("topology")
    if topology is None:
        return None
    return getattr(topology, "name", None)


def shards_identity(kwargs: Dict[str, Any]) -> int:
    """The shard count bound in a point's parameters (1 when the
    point function has no ``shards`` parameter).

    Recorded in sweep logs alongside :func:`topology_identity` so a
    logged point pins the execution configuration that produced it.
    Results are shard-count *invariant* by contract (docs/PDES.md),
    but the cache key still binds ``shards`` — through the full
    bound-parameter canonicalization in :func:`point_digest` — so a
    parity regression can never be masked by a stale cache entry
    served across differing shard configs.
    """
    shards = kwargs.get("shards", 1)
    return shards if isinstance(shards, int) else 1


def cores_identity(kwargs: Dict[str, Any]) -> int:
    """The server core count bound in a point's parameters (1 when
    the point function has no ``cores`` parameter).

    Recorded in sweep logs alongside :func:`shards_identity`.  Unlike
    shards, cores are *not* behaviour-neutral — RSS steering, polling
    and multi-core interrupt routing all depend on the count — but the
    cache-key story is the same: ``cores`` enters the key through the
    full bound-parameter canonicalization in :func:`point_digest`, so
    points at different core counts can never collide.
    """
    cores = kwargs.get("cores", 1)
    return cores if isinstance(cores, int) else 1


def point_digest(fn: Callable, kwargs: Dict[str, Any],
                 costs: Optional[CostModel] = None) -> str:
    """The content address of one sweep point (SHA-256 hex digest)."""
    full = bind_full_kwargs(fn, kwargs)
    if costs is None:
        costs = full.get("costs", DEFAULT_COSTS)
        if not isinstance(costs, CostModel):
            costs = DEFAULT_COSTS
    payload = {
        "fn": f"{fn.__module__}.{fn.__qualname__}",
        "source": package_source_digest(),
        "version": repro.__version__,
        "costs": canonicalize(costs),
        "params": canonicalize(full),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ResultCache:
    """A directory of memoized sweep-point results.

    >>> cache = ResultCache()              # ~/.cache/repro-lrp
    >>> cache = ResultCache("/tmp/cache")  # explicit root
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, result)``; a corrupt entry reads as a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            result = entry["result"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, result

    def put(self, key: str, result: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Store *result* (must be JSON-serializable) atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "version": repro.__version__,
            "created_unix": time.time(),
            "meta": meta or {},
            "result": result,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                tmp.unlink(missing_ok=True)

    def stats(self) -> Dict[str, Any]:
        return {"dir": str(self.root), "hits": self.hits,
                "misses": self.misses}

