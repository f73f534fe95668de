"""The content-addressed on-disk store for experiments and their phases.

One store, :class:`PhaseCache`, holds every entry in named tiers, each
keyed on exactly what it reads:

============  ====================================================
tier          key inputs
============  ====================================================
``full``       workload sources, machine model, compiler preset,
               SLMS options, verify flag (the whole experiment)
``transform``  setup source, kernel source, resolved SLMSOptions
``compile``    program source text, machine model, compiler preset
``simulate``   LIR module fingerprint, machine model
``verify``     base/SLMS source, options, new scalars, both final
               simulated-state digests
============  ====================================================

Experiments are pure functions of their inputs (the simulator is
deterministic), so a ``full`` hit replays a whole
:class:`~repro.harness.experiment.ExperimentResult`;
:class:`ExperimentCache` is that tier's codec.  The other tiers let a
partly changed sweep skip the unchanged phases: editing a workload's
source invalidates ``transform`` and everything downstream; editing a
machine model invalidates only ``compile``/``simulate`` (and ``full``)
while ``transform``/``verify`` keep hitting.  ``verify`` keys on the
*simulated states* rather than the machine, so a machine edit that
doesn't change results re-verifies for free.

Every key includes :data:`ENGINE_VERSION`; bumping it (required
whenever accounting or transform semantics change results) invalidates
everything at once.

Entries are pickles under ``<cache_dir>/phases/<tier>/<key[:2]>/<key>.pkl``
(sharded to keep directories small), each behind :data:`ENTRY_HEADER`,
written synchronously and atomically via rename, so an entry ``put``
accepts is visible to every other instance and process as soon as
``put`` returns.  The default directory is ``~/.cache/slms/experiments``;
override with the ``SLMS_CACHE_DIR`` environment variable or the
``cache_dir`` argument.  All failures (unreadable entry, read-only
filesystem) degrade to cache misses — caching is an optimization, never
a correctness dependency.

The cache directory is a trust boundary: loading a pickle runs code.
The header check stops version skew and stray files from being
unpickled, not a hostile writer — point ``SLMS_CACHE_DIR`` only at a
directory that no one else can write.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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

# First bytes of every entry file.  ``PhaseCache.get`` unpickles only
# behind an exact match, so an entry from another engine version, from
# before headers, or a foreign file is quarantined, never loaded.
ENTRY_HEADER = b"slms-cache/1 engine=" + ENGINE_VERSION.encode() + b"\n"


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


class PhaseCache:
    """The one on-disk store: pickled entries in named tiers.

    Values are arbitrary picklable payloads (experiment results, IR
    objects, compiled programs, execution results) stored per tier
    under ``<cache_dir>/phases/<tier>/<key[:2]>/<key>.pkl``, fronted by
    a process-local LRU so a serial sweep never deserializes twice.
    Every file starts with :data:`ENTRY_HEADER`, and :meth:`get` checks
    it before unpickling anything.

    Lifetime traffic (tier → hits/misses/evictions) lives in one
    ``phases/counters.json`` sidecar, changed only by
    :meth:`add_counters`.  The store counts its own evictions
    (quarantines and clears) and adds them when they happen; hits and
    misses are counted by the engine, which adds each run's totals once.

    Use :meth:`shared` to get the per-process instance for a cache
    directory: pooled engine workers construct it once per process and
    keep the in-memory tier warm across tasks.
    """

    # Whole experiment results, then the phases.
    TIERS = ("full",) + PHASE_TIERS
    COUNTERS = ("hits", "misses", "evictions")
    MEMORY_ENTRIES = 512

    _shared: Dict[str, "PhaseCache"] = {}

    def __init__(self, cache_dir: Optional[str | Path] = None):
        self.root = Path(cache_dir) if cache_dir else default_cache_dir()
        self.dir = self.root / "phases"
        # Entries this instance quarantined or cleared, per tier (the
        # engine reports the full tier's as EngineStats.cache_evictions).
        self.evictions = {tier: 0 for tier in self.TIERS}
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()

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
            return self._memory[mem_key]
        try:
            with open(self._path(tier, key), "rb") as handle:
                value = _read_entry(handle)
        except OSError:
            return None
        except Exception:
            # No matching header (an entry from before headers or from
            # another engine version, a foreign file) or a torn pickle:
            # quarantine it so future runs miss cleanly.
            self.quarantine(tier, key)
            return None
        self._remember(mem_key, value)
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
        return _write_atomic(self._path(tier, key), ENTRY_HEADER, data)

    def drain(self) -> None:
        """No-op: :meth:`put` writes synchronously, so every accepted
        entry is already on disk.  Kept for callers that wait for
        writes before reading the directory from another process."""

    def _remember(self, mem_key: Tuple[str, str], value: Any) -> None:
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self.MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def quarantine(self, tier: str, key: str) -> None:
        """Move an entry aside (``*.pkl.corrupt``) and count it.

        Quarantined files are invisible to :meth:`get` and
        :meth:`entries` but stay on disk for post-mortems; the rename
        counts as an eviction.
        """
        self._memory.pop((tier, key), None)
        path = self._path(tier, key)
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        self.evictions[tier] += 1
        self.add_counters({tier: {"evictions": 1}})

    def corrupt(self, tier: str, key: str) -> bool:
        """Overwrite an entry with garbage (fault-injection helper).

        Used by the chaos suite (``corrupt-cache`` rules in a
        :class:`~repro.harness.faults.FaultPlan`) to prove the
        quarantine path; returns whether the entry existed.
        """
        self._memory.pop((tier, key), None)
        path = self._path(tier, key)
        if not path.is_file():
            return False
        try:
            path.write_bytes(b"corrupt cache entry")
        except OSError:
            return False
        return True

    # -- lifetime counters ---------------------------------------------
    @property
    def _counters_path(self) -> Path:
        return self.dir / "counters.json"

    def lifetime_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-tier totals from the sidecar (zeros when absent)."""
        try:
            with open(self._counters_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            return {
                tier: {
                    name: int(data.get(tier, {}).get(name, 0))
                    for name in self.COUNTERS
                }
                for tier in self.TIERS
            }
        except (OSError, ValueError, TypeError, AttributeError):
            return {
                tier: dict.fromkeys(self.COUNTERS, 0) for tier in self.TIERS
            }

    def add_counters(self, delta: Mapping[str, Mapping[str, int]]) -> None:
        """Add ``delta`` (tier → counter → count) to the sidecar.

        The read-modify-write holds an exclusive lock on
        ``phases/counters.lock``, so concurrent processes add up
        exactly.  I/O failures are ignored: counters are observability,
        never correctness.
        """
        if not any(any(rec.values()) for rec in delta.values()):
            return
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(self.dir / "counters.lock", "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                totals = self.lifetime_counters()
                for tier, rec in delta.items():
                    for name, count in rec.items():
                        totals[tier][name] += count
                _write_atomic(
                    self._counters_path, json.dumps(totals).encode("utf-8")
                )
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------
    def entries(self, tier: str, suffix: str = ".pkl") -> list:
        """Files of ``tier`` (``suffix=".pkl.corrupt"``: quarantined)."""
        root = self.dir / tier
        if not root.is_dir():
            return []
        return sorted(root.glob(f"[0-9a-f][0-9a-f]/*{suffix}"))

    def stats(self) -> Dict[str, Any]:
        lifetime = self.lifetime_counters()
        tiers: Dict[str, Any] = {}
        for tier in self.TIERS:
            entries = self.entries(tier)
            tiers[tier] = {
                "entries": len(entries),
                "bytes": sum(p.stat().st_size for p in entries),
                "corrupt": len(self.entries(tier, ".pkl.corrupt")),
                "lifetime": lifetime[tier],
            }
        return {"dir": str(self.dir), "tiers": tiers}

    def clear(self, tiers: Optional[Sequence[str]] = None) -> int:
        """Remove entries for ``tiers`` (default: all); returns count.

        Every removed entry counts as an eviction of its tier.
        """
        tiers = list(self.TIERS if tiers is None else tiers)
        unknown = [tier for tier in tiers if tier not in self.TIERS]
        if unknown:
            raise ValueError(
                f"unknown cache tier(s) {', '.join(unknown)}; "
                f"valid: {', '.join(self.TIERS)}"
            )
        removed = dict.fromkeys(tiers, 0)
        for tier in tiers:
            for path in self.entries(tier):
                try:
                    path.unlink()
                    removed[tier] += 1
                except OSError:
                    pass
            self.evictions[tier] += removed[tier]
            for mem_key in [k for k in self._memory if k[0] == tier]:
                del self._memory[mem_key]
        self.add_counters(
            {tier: {"evictions": count} for tier, count in removed.items()}
        )
        return sum(removed.values())


class ExperimentCache:
    """The ``full`` tier's codec: :class:`ExperimentResult` entries.

    Stores ``ExperimentResult.to_dict()`` payloads in the directory's
    shared :class:`PhaseCache`; a payload that ``from_dict`` refuses
    (another result schema) is quarantined like any other bad entry.
    """

    TIER = "full"

    def __init__(self, cache_dir: Optional[str | Path] = None):
        self.store = PhaseCache.shared(cache_dir)

    def get(self, key: str) -> Optional["ExperimentResult"]:
        from repro.harness.experiment import ExperimentResult

        data = self.store.get(self.TIER, key)
        if data is None:
            return None
        try:
            return ExperimentResult.from_dict(data)
        except (ValueError, KeyError, TypeError, AttributeError):
            self.store.quarantine(self.TIER, key)
            return None

    def put(self, key: str, result: "ExperimentResult") -> bool:
        return self.store.put(self.TIER, key, result.to_dict())

    def clear(self) -> int:
        """Remove every full result; returns how many were deleted."""
        return self.store.clear([self.TIER])


def _read_entry(handle: BinaryIO) -> Any:
    """Unpickle an entry file, but only behind a matching header."""
    if handle.read(len(ENTRY_HEADER)) != ENTRY_HEADER:
        raise ValueError("missing or foreign cache entry header")
    return pickle.load(handle)


def _write_atomic(path: Path, *chunks: bytes) -> bool:
    """Write ``chunks`` to ``path`` through a temp file and a rename, so
    readers see the old entry or the whole new one; ``False`` when the
    cache directory is unwritable."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
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
