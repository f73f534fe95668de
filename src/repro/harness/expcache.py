"""Content-addressed on-disk caches for experiment results.

Two cooperating stores live here:

* :class:`ExperimentCache` — the *full-result* cache.  Experiments are
  pure functions of their inputs: the simulator is deterministic, so an
  :class:`~repro.harness.experiment.ExperimentResult` is fully
  determined by the kernel source, the SLMS options, the machine model,
  the final-compiler preset and the engine version.  The cache key is
  the SHA-256 of exactly that tuple (canonical JSON, sorted keys).
* :class:`PhaseCache` — the *tiered per-phase* memo store.  Each
  pipeline phase is keyed on what it actually reads, so a sweep over
  five machines stops re-running machine-independent phases five times:

  ============  ====================================================
  tier          key inputs
  ============  ====================================================
  ``transform``  setup source, kernel source, resolved SLMSOptions
  ``compile``    program source text, machine model, compiler preset
  ``simulate``   LIR module fingerprint, machine model
  ``verify``     base/SLMS source, options, new scalars, both final
                 simulated-state digests
  ============  ====================================================

  The invalidation lattice falls out of the keys: editing a workload's
  source invalidates ``transform`` and everything downstream; editing a
  machine model invalidates only ``compile``/``simulate`` (and the full
  tier) while ``transform``/``verify`` keep hitting.  ``verify`` keys
  on the *simulated states* rather than the machine, so a machine edit
  that doesn't change results re-verifies for free.

Every key includes :data:`ENGINE_VERSION`; bumping it (required
whenever accounting or transform semantics change results) invalidates
everything at once.

Full results are one JSON file each under
``<cache_dir>/<key[:2]>/<key>.json``; phase entries are pickles under
``<cache_dir>/phases/<tier>/<key[:2]>/<key>.pkl`` (sharded to keep
directories small), all written synchronously and atomically via
rename, so an entry ``put`` accepts is visible to every other instance
and process as soon as ``put`` returns.  The default
directory is ``~/.cache/slms/experiments``; override with the
``SLMS_CACHE_DIR`` environment variable or the ``cache_dir`` argument.
All failures (unreadable entry, read-only filesystem) degrade to cache
misses — caching is an optimization, never a correctness dependency.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.backend.compiler import CompilerConfig
from repro.backend.lir import Module
from repro.core.slms import SLMSOptions
from repro.machines.model import MachineModel
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.experiment import ExperimentResult

# Version of the whole evaluation pipeline as far as results are
# concerned.  "2" = PR 2's fast-path interpreter + static block
# accounting; "3" = tiered phase memoization + exec-compiled blocks
# (bit-identical to "2", but keyed separately on principle).
ENGINE_VERSION = "3"

# The per-phase memo tiers, in pipeline order.
PHASE_TIERS = ("transform", "compile", "simulate", "verify")


def default_cache_dir() -> Path:
    env = os.environ.get("SLMS_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "slms" / "experiments"


def _jsonable(value: Any) -> Any:
    """Canonical JSON-compatible form of dataclass/mapping inputs."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def experiment_key(
    workload: Workload,
    machine: MachineModel,
    compiler: CompilerConfig,
    options: Optional[SLMSOptions],
    verify: bool,
    engine_version: str,
) -> str:
    """Content hash identifying one experiment's full input tuple."""
    payload = {
        "engine": engine_version,
        "workload": {
            "name": workload.name,
            "suite": workload.suite,
            "setup": workload.setup,
            "kernel": workload.kernel,
        },
        "machine": _jsonable(machine),
        "compiler": _jsonable(compiler),
        "options": _jsonable(options or SLMSOptions()),
        "verify": bool(verify),
    }
    return _digest(payload)


def request_key(op: str, params: Any, context: Any = None) -> str:
    """Content hash identifying one serve-layer request.

    The serve layer (docs/SERVING.md) coalesces concurrent identical
    requests through this key: same (op, params, session context) →
    same key → one execution.  ``params`` and ``context`` go through
    the same canonicalisation as the experiment keys, so dataclasses,
    dicts, and nested lists all hash stably.
    """
    return _digest(
        {
            "tier": "request",
            "engine": ENGINE_VERSION,
            "op": str(op),
            "params": _jsonable(params),
            "context": _jsonable(context),
        }
    )


# -- per-phase keys ------------------------------------------------------
def transform_key(workload: Workload, options: Optional[SLMSOptions]) -> str:
    """The transform tier reads only the sources and the options."""
    return _digest(
        {
            "tier": "transform",
            "engine": ENGINE_VERSION,
            "setup": workload.setup,
            "kernel": workload.kernel,
            "options": _jsonable(options or SLMSOptions()),
        }
    )


def compile_key(
    source: str, machine: MachineModel, compiler: CompilerConfig
) -> str:
    """The compile tier reads the program text, machine and preset."""
    return _digest(
        {
            "tier": "compile",
            "engine": ENGINE_VERSION,
            "source": source,
            "machine": _jsonable(machine),
            "compiler": _jsonable(compiler),
        }
    )


def simulate_key(module: Module, machine: MachineModel) -> str:
    """The simulate tier reads the final LIR and the machine model."""
    return _digest(
        {
            "tier": "simulate",
            "engine": ENGINE_VERSION,
            "module": module_fingerprint(module),
            "machine": _jsonable(machine),
            "env": None,
        }
    )


def verify_key(
    base_source: str,
    slms_source: str,
    options: Optional[SLMSOptions],
    new_scalars: List[str],
    base_state_digest: str,
    slms_state_digest: str,
) -> str:
    """The verify tier reads both programs and both simulated states.

    Keying on the state digests (not the machine) makes verification
    machine-independent exactly when the compiled results are — which
    is the property verification checks in the first place.
    """
    return _digest(
        {
            "tier": "verify",
            "engine": ENGINE_VERSION,
            "base": base_source,
            "slms": slms_source,
            "options": _jsonable(options or SLMSOptions()),
            "new_scalars": sorted(new_scalars),
            "base_state": base_state_digest,
            "slms_state": slms_state_digest,
        }
    )


def module_fingerprint(module: Module) -> str:
    """Deterministic content hash of a compiled LIR module.

    Covers everything execution and accounting read: every instruction
    field, the schedule presence/length and ``ims_ii`` per block (cycle
    cost), array/scalar metadata and block order.  ``repr`` keeps int
    and float immediates distinct (``1`` vs ``1.0``).

    Streams ``repr`` fragments straight into the hasher instead of
    building a JSON document; per-field reprs of primitives are
    deterministic, and the dict-valued metadata is sorted so the hash
    is insertion-order independent like the old canonical-JSON form.
    (The hash value itself differs from the JSON-era one, which merely
    orphans pre-existing simulate-tier entries — keys only ever need
    to be deterministic, not stable across engine revisions.)
    """
    h = hashlib.sha256()
    h.update(repr(module.entry).encode())
    for name in module.order:
        block = module.blocks[name]
        h.update(
            f"\x1dB{name}\x1f{block.schedule is not None}"
            f"\x1f{block.schedule_length}\x1f{block.ims_ii}".encode()
        )
        for i in block.instrs:
            iv = (i.iv.iv, i.iv.coeff, i.iv.offset) if i.iv else None
            h.update(
                f"\x1e{i.op}\x1f{i.dst}\x1f{list(i.srcs)}\x1f{i.imm!r}"
                f"\x1f{i.array}\x1f{i.disp}\x1f{i.label}\x1f{i.name}"
                f"\x1f{iv}".encode()
            )
    h.update(repr(sorted(module.arrays.items())).encode())
    h.update(repr(sorted(module.scalar_regs.items())).encode())
    h.update(repr(sorted(module.scalar_types.items())).encode())
    h.update(repr(sorted(module.scalar_slots.items())).encode())
    return h.hexdigest()


def state_digest(state: Dict[str, Any]) -> str:
    """Content hash of a simulated final state (arrays + scalars)."""
    h = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        if hasattr(value, "tobytes"):
            h.update(str(value.dtype).encode("utf-8"))
            h.update(repr(value.shape).encode("utf-8"))
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


class ExperimentCache:
    """Get/put of :class:`ExperimentResult` keyed by content hash.

    Counts hits/misses/evictions per instance (session counters) and —
    best effort — accumulates them into a ``counters.json`` sidecar in
    the cache directory via :meth:`flush_counters`, so ``slms cache
    stats`` can report lifetime traffic, not just on-disk entry counts.
    """

    COUNTER_NAMES = ("hits", "misses", "evictions")

    def __init__(self, cache_dir: Optional[str | Path] = None):
        self.dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._flushed = {name: 0 for name in self.COUNTER_NAMES}

    def _path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    # -- lifetime counters ---------------------------------------------
    @property
    def _counters_path(self) -> Path:
        return self.dir / "counters.json"

    def lifetime_counters(self) -> Dict[str, int]:
        """Accumulated counters from the sidecar (zeros when absent)."""
        try:
            with open(self._counters_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            return {
                name: int(data.get(name, 0)) for name in self.COUNTER_NAMES
            }
        except (OSError, ValueError, TypeError):
            return {name: 0 for name in self.COUNTER_NAMES}

    def flush_counters(self) -> None:
        """Add this session's not-yet-flushed traffic to the sidecar.

        Idempotent across repeated calls; all I/O failures are silently
        ignored (counters are observability, never correctness).
        """
        session = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        delta = {
            name: session[name] - self._flushed[name]
            for name in self.COUNTER_NAMES
        }
        if not any(delta.values()):
            return
        totals = self.lifetime_counters()
        for name in self.COUNTER_NAMES:
            totals[name] += delta[name]
        if not _write_json_atomic(self._counters_path, totals):
            return
        self._flushed = dict(session)

    def get(self, key: str) -> Optional["ExperimentResult"]:
        from repro.harness.experiment import ExperimentResult

        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            # Undecodable entry (torn write, bit rot, injected chaos):
            # quarantine it so every future run gets a clean miss
            # instead of re-parsing the same bad file forever.
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            result = ExperimentResult.from_dict(data)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``*.json.corrupt``) and count it.

        Quarantined files are invisible to :meth:`entries` (different
        suffix) but stay on disk for post-mortems; the rename counts as
        an eviction in the session and ``counters.json`` totals shown
        by ``slms cache stats``.
        """
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        self.evictions += 1
        self.flush_counters()

    def corrupt(self, key: str) -> bool:
        """Overwrite an entry with garbage (fault-injection helper).

        Used by the chaos suite (``corrupt-cache`` rules in a
        :class:`~repro.harness.faults.FaultPlan`) to prove the
        quarantine path; returns whether the entry existed.
        """
        path = self._path(key)
        if not path.is_file():
            return False
        try:
            path.write_text("{corrupt cache entry", encoding="utf-8")
        except OSError:
            return False
        return True

    def put(self, key: str, result: "ExperimentResult") -> bool:
        return _write_json_atomic(self._path(key), result.to_dict())

    # -- maintenance ---------------------------------------------------
    def entries(self) -> list:
        if not self.dir.is_dir():
            return []
        # Shard directories are two hex characters; the tighter glob
        # keeps the phase store and sidecars out of the entry count.
        return sorted(self.dir.glob("[0-9a-f][0-9a-f]/*.json"))

    def corrupt_entries(self) -> list:
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("[0-9a-f][0-9a-f]/*.json.corrupt"))

    def stats(self) -> Dict[str, Any]:
        entries = self.entries()
        return {
            "dir": str(self.dir),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "corrupt": len(self.corrupt_entries()),
            "lifetime": self.lifetime_counters(),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            },
        }

    def evict(self, key: str) -> bool:
        """Remove one entry; returns whether it existed."""
        try:
            self._path(key).unlink()
        except OSError:
            return False
        self.evictions += 1
        return True

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.evictions += removed
        self.flush_counters()
        return removed


def _write_json_atomic(path: Path, payload: Any) -> bool:
    return _write_atomic(path, json.dumps(payload).encode("utf-8"))


def _write_atomic(path: Path, data: bytes) -> bool:
    """Write ``data`` to ``path`` through a temp file and a rename, so
    readers see the old entry or the whole new one; ``False`` when the
    cache directory is unwritable."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False  # read-only cache dir etc.: silently skip
    return True


class PhaseCache:
    """Tiered per-phase memo store (transform/compile/simulate/verify).

    Values are arbitrary picklable payloads (IR objects, compiled
    programs, execution results) stored per tier under
    ``<cache_dir>/phases/<tier>/<key[:2]>/<key>.pkl``, fronted by a
    process-local LRU so a serial sweep never deserializes twice.
    Session hit/miss/eviction counters are kept per tier and flushed —
    best effort — into a ``phases/counters.json`` sidecar (concurrent
    pooled workers may undercount it; the counters are observability,
    never correctness).

    Use :meth:`shared` to get the per-process instance for a cache
    directory: pooled engine workers construct it once per process and
    keep the in-memory tier warm across tasks.
    """

    TIERS = PHASE_TIERS
    MEMORY_ENTRIES = 512

    _shared: Dict[str, "PhaseCache"] = {}

    def __init__(self, cache_dir: Optional[str | Path] = None):
        root = Path(cache_dir) if cache_dir else default_cache_dir()
        self.dir = root / "phases"
        self.hits = {tier: 0 for tier in self.TIERS}
        self.misses = {tier: 0 for tier in self.TIERS}
        self.evictions = {tier: 0 for tier in self.TIERS}
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._flushed = {
            tier: {"hits": 0, "misses": 0, "evictions": 0}
            for tier in self.TIERS
        }

    @classmethod
    def shared(cls, cache_dir: Optional[str | Path] = None) -> "PhaseCache":
        """The per-process instance for ``cache_dir`` (created once)."""
        key = str(Path(cache_dir) if cache_dir else default_cache_dir())
        instance = cls._shared.get(key)
        if instance is None:
            instance = cls._shared[key] = cls(cache_dir)
        return instance

    def _path(self, tier: str, key: str) -> Path:
        return self.dir / tier / key[:2] / f"{key}.pkl"

    def get(self, tier: str, key: str) -> Optional[Any]:
        mem_key = (tier, key)
        if mem_key in self._memory:
            self._memory.move_to_end(mem_key)
            self.hits[tier] += 1
            return self._memory[mem_key]
        path = self._path(tier, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except OSError:
            self.misses[tier] += 1
            return None
        except Exception:
            # Torn write / bit rot / version skew: quarantine so future
            # runs miss cleanly instead of re-reading the bad pickle.
            self._quarantine(tier, path)
            self.misses[tier] += 1
            return None
        self._remember(mem_key, value)
        self.hits[tier] += 1
        return value

    def put(self, tier: str, key: str, value: Any) -> bool:
        """Store ``value`` in the memory tier and on disk.

        The value is pickled *here*, so later mutation by the caller
        cannot corrupt the entry, and the file is on disk when ``put``
        returns.  ``False`` when the value cannot be pickled or the
        cache directory is unwritable (a later ``get`` then misses on
        disk).
        """
        self._remember((tier, key), value)
        try:
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError):
            return False
        return _write_atomic(self._path(tier, key), data)

    def drain(self) -> None:
        """No-op: :meth:`put` writes synchronously, so every accepted
        entry is already on disk.  Kept for callers that wait for
        writes before reading the directory from another process."""

    def _remember(self, mem_key: Tuple[str, str], value: Any) -> None:
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self.MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def _quarantine(self, tier: str, path: Path) -> None:
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        self.evictions[tier] += 1

    # -- lifetime counters ---------------------------------------------
    @property
    def _counters_path(self) -> Path:
        return self.dir / "counters.json"

    def lifetime_counters(self) -> Dict[str, Dict[str, int]]:
        try:
            with open(self._counters_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            return {
                tier: {
                    name: int(data.get(tier, {}).get(name, 0))
                    for name in ("hits", "misses", "evictions")
                }
                for tier in self.TIERS
            }
        except (OSError, ValueError, TypeError, AttributeError):
            return {
                tier: {"hits": 0, "misses": 0, "evictions": 0}
                for tier in self.TIERS
            }

    def flush_counters(self) -> None:
        session = {
            tier: {
                "hits": self.hits[tier],
                "misses": self.misses[tier],
                "evictions": self.evictions[tier],
            }
            for tier in self.TIERS
        }
        delta_any = False
        totals = None
        for tier in self.TIERS:
            for name in ("hits", "misses", "evictions"):
                if session[tier][name] != self._flushed[tier][name]:
                    delta_any = True
        if not delta_any:
            return
        totals = self.lifetime_counters()
        for tier in self.TIERS:
            for name in ("hits", "misses", "evictions"):
                totals[tier][name] += (
                    session[tier][name] - self._flushed[tier][name]
                )
        if not _write_json_atomic(self._counters_path, totals):
            return
        self._flushed = {tier: dict(rec) for tier, rec in session.items()}

    # -- maintenance ---------------------------------------------------
    def entries(self, tier: str) -> list:
        root = self.dir / tier
        if not root.is_dir():
            return []
        return sorted(root.glob("[0-9a-f][0-9a-f]/*.pkl"))

    def corrupt_entries(self, tier: str) -> list:
        root = self.dir / tier
        if not root.is_dir():
            return []
        return sorted(root.glob("[0-9a-f][0-9a-f]/*.pkl.corrupt"))

    def stats(self) -> Dict[str, Any]:
        lifetime = self.lifetime_counters()
        tiers: Dict[str, Any] = {}
        for tier in self.TIERS:
            entries = self.entries(tier)
            tiers[tier] = {
                "entries": len(entries),
                "bytes": sum(p.stat().st_size for p in entries),
                "corrupt": len(self.corrupt_entries(tier)),
                "lifetime": lifetime[tier],
                "session": {
                    "hits": self.hits[tier],
                    "misses": self.misses[tier],
                    "evictions": self.evictions[tier],
                },
            }
        return {"dir": str(self.dir), "tiers": tiers}

    def clear(self, tiers: Optional[List[str]] = None) -> int:
        """Remove entries for ``tiers`` (default: all); returns count."""
        removed = 0
        for tier in tiers if tiers is not None else self.TIERS:
            if tier not in self.TIERS:
                raise ValueError(f"unknown phase tier {tier!r}")
            for path in self.entries(tier):
                try:
                    path.unlink()
                    removed += 1
                    self.evictions[tier] += 1
                except OSError:
                    pass
            for mem_key in [k for k in self._memory if k[0] == tier]:
                del self._memory[mem_key]
        self.flush_counters()
        return removed
