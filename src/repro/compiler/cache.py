"""Persistent on-disk compile cache for cross-process warm start.

The compiled VI-ISA program is a *static deployment artefact* (the paper's
Fig. 1(c)): for a fixed network graph, accelerator config and compiler
version the compile is a pure function, so its result can be built once and
reused by every process that ever serves that workload.  This module is the
content-addressed store that makes the reuse cross-process:

* **key** — a SHA-256 over a canonical description of the network graph,
  the :class:`~repro.hw.config.AcceleratorConfig`, every compile parameter
  that shapes the artefact (base address, weight mode/seed, VI policy,
  quantization percentile, verify gate) and the compiler fingerprint
  (package version + cache format).  Any delta in any input produces a new
  key — invalidation is automatic, stale entries are simply never read.
* **value** — what is expensive to rebuild: the pickled
  :class:`~repro.compiler.compile.CompiledNetwork` shell (layout, layer
  configs, quantization) with its ``vi_mode ->``
  :class:`~repro.iau.fastpath.ProgramMeta` table, so ``execution_meta`` is
  warm from the very first job of a fresh process, and every vi-mode
  program as its ``instruction.bin`` frame.  What is a millisecond function
  of fields the network already holds (the tiling plans) is not stored.
* **format** — the :mod:`repro.container` frame snapshots use: a magic +
  CRC32 header over the payload, written atomically (tmp + fsync +
  rename), so concurrent farm/gateway workers can share one cache
  directory; a reader never sees a torn entry, and racing writers simply
  last-write-win an identical artefact.
* **failure policy** — a missing, truncated, bit-flipped or
  version-mismatched entry is a *miss*, never an error: the caller falls
  back to a fresh compile and overwrites the bad entry.

Wiring: pass ``cache=CompileCache(dir)`` to
:func:`~repro.compiler.compile.compile_network` /
:func:`~repro.runtime.system.compile_tasks`, or set the
``REPRO_COMPILE_CACHE`` environment variable to a directory so farm and
gateway worker subprocesses pick the cache up without any plumbing.
``python -m repro.compiler.cache`` warms, lists, garbage-collects and
clears a cache directory (see ``--help``).

An entry is one :mod:`repro.container` frame (magic ``INCACCHE``) around a
pickle of ``{"meta", "body", "programs"}``.
``meta`` is a small mapping (key, graph/config names, instruction count,
creation time, compiler fingerprint) readable without decompressing the
artefact — what ``entries()``/the CLI ``ls`` report.  ``body`` is a
zlib-compressed pickle of the network shell (layout, layer configs,
quantization, its meta table, each column of which is one buffer of narrow
deltas; buffers whose bytes are all zero travel as their shape and dtype);
``programs`` maps each vi-mode to a :data:`ProgramColumns` frame: the
program's words stored field by field (:func:`pack_program`), a field that
is constant over the program as one value and the others as one zlib
stream of their little-endian columns.  A load rebuilds the word array
field by field and adopts it with the opcode and reserved-field check of
``instruction.bin`` (:func:`unpack_program`), so all variants hydrate
eagerly and nothing is decoded.

What a miss adds to the compile is the ``vi`` meta build
(:func:`~repro.iau.fastpath.build_program_meta`) and the compression of
the program columns and the body.  Both compress at zlib level 1
(:data:`_LEVEL`): on program words it is faster than level 3 and smaller
too.  The level is not part of the format, so an entry written at any
level loads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import pickle
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from repro.compiler.vi_pass import DEFAULT_VI_POLICY
from repro.container import frame, unframe, write_atomic
from repro.hw.config import AcceleratorConfig
from repro.isa.encoding import WORD_DTYPE
from repro.isa.program import Program
from repro.obs.events import EventKind
from repro.zoo import build_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork
    from repro.nn.graph import NetworkGraph
    from repro.obs.bus import EventBus

MAGIC = b"INCACCHE"
#: Bumped whenever the entry format *or* the pickled artefact layout
#: changes incompatibly; part of the key, so old entries become unreachable
#: rather than unreadable.  v2: :class:`ProgramMeta` grew the per-site
#: fault-opportunity prefix sums armed batching depends on — a v1 meta
#: would silently batch through fault fires, so v1 entries must degrade to
#: a clean miss.  v3: the pickled :class:`~repro.hw.ddr.Ddr` inside a
#: network's layout carries its base-sorted region index; a v2 ``Ddr``
#: lacks it and could not list or adopt regions.  v4: programs are stored
#: as ``INCAPROG`` frames, not pickles.  v5: the network shell carries its
#: own meta table (no sibling ``metas``) and no tiling plans are stored.
#: v6: a :class:`ProgramMeta` pickles its integer columns as one narrow
#: delta buffer each and its boundary tiles as an id column plus a table.
#: v7: programs are stored column by column (:data:`ProgramColumns`), not
#: as ``INCAPROG`` frames.
VERSION = 7

#: Environment variable naming the default cache directory.  When set,
#: every :func:`~repro.compiler.compile.compile_network` call without an
#: explicit ``cache=`` goes through it — including farm measure workers and
#: gateway worker subprocesses, which inherit the parent's environment.
CACHE_ENV_VAR = "REPRO_COMPILE_CACHE"

_SUFFIX = ".inca"

#: zlib level of the program columns and the body.  On the 8.9 MB of words
#: of the four ``compile_cold`` networks level 1 was both faster and smaller
#: than level 3 (759 KB in 48-56 ms against 871 KB in 79-98 ms, row by row
#: on a 2-vCPU guest), and inflated equally fast.
_LEVEL = 1

#: One stored program variant: its name, its word count, the
#: :data:`~repro.isa.encoding.WORD_DTYPE` fields that hold one value over
#: the whole program (field -> value), and one zlib stream of every other
#: field's little-endian column, joined in ``WORD_DTYPE`` order.
ProgramColumns = tuple[str, int, dict[str, int], bytes]

#: The word fields, in layout order.
_FIELDS: tuple[str, ...] = WORD_DTYPE.names or ()

#: Program variants whose :class:`~repro.iau.fastpath.ProgramMeta` is built
#: at store time (the deployment artefact's fast path is warm from the first
#: job; the other variants build on first use).
STORED_META_MODES = ("vi",)


def compiler_fingerprint() -> str:
    """Version stamp invalidating every entry on a compiler change."""
    import repro

    return f"repro-{repro.__version__}/cache-v{VERSION}"


def _describe_graph(graph: "NetworkGraph") -> list[str]:
    """Canonical, content-complete text form of a network graph.

    Layer and shape dataclass reprs contain only field values (no object
    identities), so the description is stable across processes and runs.
    """
    lines = [f"graph {graph.name!r} ({len(graph.layers)} layers)"]
    for layer in graph.layers:
        lines.append(f"  layer {layer!r}")
    for name, shape in graph.shapes.items():
        lines.append(f"  shape {name!r} -> {shape!r}")
    return lines


def cache_key(
    graph: "NetworkGraph",
    config: "AcceleratorConfig",
    *,
    base_addr: int = 0,
    weights: str = "random",
    seed: int = 0,
    vi_policy: Any = DEFAULT_VI_POLICY,
    weight_percentile: float = 99.9,
    verify_mode: str = "structural",
) -> str:
    """Content hash addressing one compiled artefact.

    Mirrors every :func:`~repro.compiler.compile.compile_network` parameter
    that shapes the output, plus :func:`compiler_fingerprint`.  Two compiles
    share a key iff they are guaranteed to produce bit-identical artefacts.
    """
    parts = [f"fingerprint {compiler_fingerprint()}"]
    parts += _describe_graph(graph)
    parts += [
        f"config {config!r}",
        f"base_addr {base_addr}",
        f"weights {weights!r}",
        f"seed {seed}",
        f"vi_policy {vi_policy!r}",
        f"weight_percentile {weight_percentile!r}",
        f"verify {verify_mode!r}",
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class CacheStats:
    """Per-process counters of one :class:`CompileCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_failures: int = 0
    corrupt: int = 0
    hit_seconds: float = 0.0
    miss_seconds: float = 0.0

    def format(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} stores={self.stores} "
            f"store_failures={self.store_failures} corrupt={self.corrupt} "
            f"hit_s={self.hit_seconds:.3f} miss_s={self.miss_seconds:.3f}"
        )


@dataclass(frozen=True)
class CacheEntry:
    """One stored artefact's cheap-to-read identity (header + meta only)."""

    path: str
    key: str
    graph: str
    config: str
    instructions: int
    payload_bytes: int
    created_unix: float
    fingerprint: str

    @property
    def age_s(self) -> float:
        return max(0.0, time.time() - self.created_unix)


def pack_program(program: Program) -> ProgramColumns:
    """``program``'s words as :data:`ProgramColumns`.

    A compiled program repeats most field values over long runs (an
    unused field, a layer's address, a tile's channel range), so a column
    compresses far better than the interleaved words, and a constant one
    is not stored at all.
    """
    words = program.words
    constants: dict[str, int] = {}
    deflate = zlib.compressobj(_LEVEL)
    parts: list[bytes] = []
    for field in _FIELDS:
        column = words[field]
        first = column[0]
        if (column == first).all():
            constants[field] = int(first)
        else:
            parts.append(deflate.compress(np.ascontiguousarray(column)))
    parts.append(deflate.flush())
    return program.name, len(words), constants, b"".join(parts)


def unpack_program(stored: ProgramColumns) -> Program:
    """The :class:`~repro.isa.program.Program` of :func:`pack_program`'s
    ``stored``, adopted under :meth:`Program.from_words`'s opcode and
    reserved-field check.  A stream that does not hold exactly the
    non-constant columns raises ``ValueError``."""
    name, length, constants, blob = stored
    raw = zlib.decompress(blob)
    words = np.zeros(length, dtype=WORD_DTYPE)
    offset = 0
    for field in _FIELDS:
        if field in constants:
            if constants[field]:
                words[field] = constants[field]
        else:
            dtype = WORD_DTYPE[field]
            words[field] = np.frombuffer(raw, dtype, length, offset)
            offset += length * dtype.itemsize
    if offset != len(raw):
        raise ValueError(f"program {name!r}: {len(raw) - offset} bytes past its columns")
    return Program.from_words(name, words)


def _zeros(shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Reconstructor for zero arrays elided by :class:`_BodyPickler`."""
    return np.zeros(shape, dtype=np.dtype(dtype))


class _BodyPickler(pickle.Pickler):
    """Pickler that stores all-zero numpy buffers as (shape, dtype) only.

    A timing-mode compile (``weights='zeros'``, the farm default) leaves
    the multi-MiB DDR image entirely zero; shipping those bytes through
    zlib and back is most of an entry's body cost on both sides.  A buffer
    is elided when its *bytes* are all zero, not its values (a ``-0.0``
    compares equal to zero but keeps its sign bit), so ``np.zeros``
    rebuilds it bit-identically; random-weight compiles pass through
    untouched.  The byte test is a ``max`` over a ``uint8`` view, about
    three times faster than ``any`` over the values.
    """

    def reducer_override(self, obj: Any) -> Any:
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= 4096
            and not obj.dtype.hasobject
            and obj.flags.c_contiguous
            and not obj.reshape(-1).view(np.uint8).max()
        ):
            return (_zeros, (obj.shape, obj.dtype.str))
        return NotImplemented


def _dumps_body(document: Any) -> bytes:
    buffer = io.BytesIO()
    _BodyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(document)
    return buffer.getvalue()


class CompileCache:
    """A content-addressed directory of compiled networks.

    Safe to share between concurrent processes: writes are atomic
    (tmp + fsync + rename) and every read validates magic, version and
    CRC32 before unpickling.  All read-path failures degrade to a miss.
    """

    def __init__(self, root: str | Path, *, bus: "EventBus | None" = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Optional obs bus: COMPILE_CACHE_HIT / COMPILE_CACHE_MISS events
        #: (cycle 0 — compile time is host time, not simulated time).
        self.bus = bus
        self.stats = CacheStats()

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def _paths(self) -> Iterator[Path]:
        yield from sorted(self.root.glob(f"*{_SUFFIX}"))

    # -- store -------------------------------------------------------------

    def store(self, key: str, network: "CompiledNetwork") -> Path | None:
        """Write one compiled artefact atomically; returns its path.

        Each program variant is stored as its columns (:func:`pack_program`),
        which a loader turns back into a word array without building one
        :class:`~repro.isa.instructions.Instruction`.

        Never raises on I/O trouble (a read-only or full cache directory
        must not break the compile that just succeeded): failures count in
        ``stats.store_failures`` and return ``None``.
        """
        for mode in STORED_META_MODES:
            network.meta(mode)
        programs = {mode: pack_program(program) for mode, program in network.programs.items()}
        # Shallow clone with the programs detached: the body then carries
        # layout / configs / quantization / metas only (instructions are
        # flat records with no references into the rest of the artefact,
        # so splitting them out loses no shared structure).
        body = zlib.compress(_dumps_body(replace(network, programs={})), _LEVEL)
        meta = {
            "key": key,
            "graph": network.graph.name,
            "config": network.config.name,
            "instructions": len(network.programs["vi"]),
            "created_unix": time.time(),
            "fingerprint": compiler_fingerprint(),
        }
        payload = pickle.dumps(
            {"meta": meta, "body": body, "programs": programs},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.path_for(key)
        try:
            write_atomic(path, frame(MAGIC, VERSION, payload))
        except OSError:
            self.stats.store_failures += 1
            return None
        self.stats.stores += 1
        return path

    # -- load --------------------------------------------------------------

    def _read_document(self, path: Path) -> Mapping[str, Any] | None:
        """Validated outer document of one entry, or ``None`` on anything."""
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            document = pickle.loads(unframe(raw, MAGIC, VERSION))
        except Exception:  # every unframe reason and unpickle failure alike
            document = None
        if not isinstance(document, dict) or "body" not in document:
            self.stats.corrupt += 1
            return None
        return document

    def load(self, key: str) -> "CompiledNetwork | None":
        """The cached artefact for ``key``, or ``None`` (always a miss,
        never an error).  Every program variant is rebuilt from its stored
        columns (a damaged one — a short or long stream, an unknown opcode
        byte, reserved bits — is a counted ``corrupt`` miss); the shell
        arrives with its meta table, so nothing is built or planned here."""
        document = self._read_document(self.path_for(key))
        if document is None:
            return None
        meta = document.get("meta", {})
        if meta.get("fingerprint") != compiler_fingerprint():
            return None  # copied in from another build: recompile
        try:
            network: "CompiledNetwork" = pickle.loads(zlib.decompress(document["body"]))
            network.programs = {
                mode: unpack_program(stored) for mode, stored in document["programs"].items()
            }
        except Exception:
            self.stats.corrupt += 1
            return None
        return network

    def probe(self, key: str) -> CacheEntry | None:
        """Header + meta of one entry without deserializing the artefact."""
        path = self.path_for(key)
        document = self._read_document(path)
        if document is None:
            return None
        return self._entry(path, document)

    def _entry(self, path: Path, document: Mapping[str, Any]) -> CacheEntry:
        meta = document.get("meta", {})
        return CacheEntry(
            path=str(path),
            key=str(meta.get("key", path.stem)),
            graph=str(meta.get("graph", "?")),
            config=str(meta.get("config", "?")),
            instructions=int(meta.get("instructions", 0)),
            payload_bytes=path.stat().st_size,
            created_unix=float(meta.get("created_unix", 0.0)),
            fingerprint=str(meta.get("fingerprint", "?")),
        )

    # -- bookkeeping hooks (called by compile_network) ----------------------

    def note_hit(self, key: str, *, graph: str, config: str, seconds: float) -> None:
        self.stats.hits += 1
        self.stats.hit_seconds += seconds
        if self.bus is not None:
            self.bus.emit(
                EventKind.COMPILE_CACHE_HIT,
                cycle=0,
                key=key,
                graph=graph,
                config=config,
                seconds=seconds,
            )

    def note_miss(
        self, key: str, *, graph: str, config: str, seconds: float, stored: bool
    ) -> None:
        self.stats.misses += 1
        self.stats.miss_seconds += seconds
        if self.bus is not None:
            self.bus.emit(
                EventKind.COMPILE_CACHE_MISS,
                cycle=0,
                key=key,
                graph=graph,
                config=config,
                seconds=seconds,
                stored=stored,
            )

    # -- inspection / maintenance -------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Every readable entry (corrupt files are skipped, not raised)."""
        found = []
        for path in self._paths():
            document = self._read_document(path)
            if document is not None:
                found.append(self._entry(path, document))
        return found

    def gc(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
    ) -> list[str]:
        """Remove entries beyond the given budgets; returns removed paths.

        Unreadable entries and stale ``.tmp`` leftovers are always removed.
        Age uses the stored creation stamp; size/count budgets evict oldest
        first.
        """
        removed: list[str] = []
        for leftover in sorted(self.root.glob(f"*{_SUFFIX}.tmp.*")):
            leftover.unlink(missing_ok=True)
            removed.append(str(leftover))
        keep: list[CacheEntry] = []
        for path in self._paths():
            document = self._read_document(path)
            if document is None:
                path.unlink(missing_ok=True)
                removed.append(str(path))
                continue
            entry = self._entry(path, document)
            if max_age_s is not None and entry.age_s > max_age_s:
                path.unlink(missing_ok=True)
                removed.append(str(path))
                continue
            keep.append(entry)
        keep.sort(key=lambda entry: entry.created_unix)  # oldest first
        while keep and (
            (max_entries is not None and len(keep) > max_entries)
            or (
                max_bytes is not None
                and sum(entry.payload_bytes for entry in keep) > max_bytes
            )
        ):
            victim = keep.pop(0)
            Path(victim.path).unlink(missing_ok=True)
            removed.append(victim.path)
        return removed

    def clear(self) -> int:
        """Remove every entry (and tmp leftover); returns the count."""
        count = 0
        for path in list(self.root.glob(f"*{_SUFFIX}")) + list(
            self.root.glob(f"*{_SUFFIX}.tmp.*")
        ):
            path.unlink(missing_ok=True)
            count += 1
        return count


# -- environment default ----------------------------------------------------

#: One CompileCache per directory per process, so stats accumulate and the
#: mkdir happens once.
_DEFAULT_CACHES: dict[str, CompileCache] = {}


def default_cache() -> CompileCache | None:
    """The process-wide cache named by ``REPRO_COMPILE_CACHE`` (or None).

    Read on every compile, so flipping the variable mid-process (tests,
    notebooks) takes effect immediately.
    """
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    cache = _DEFAULT_CACHES.get(root)
    if cache is None:
        cache = CompileCache(root)
        _DEFAULT_CACHES[root] = cache
    return cache


# -- CLI ---------------------------------------------------------------------

#: Zoo builders callable with no arguments — the warmable service models.
WARMABLE_MODELS = (
    "tiny_cnn",
    "tiny_conv",
    "tiny_residual",
    "medium_layer_net",
    "mobilenet_v1",
    "darknet19",
)

_CONFIG_NAMES = ("big", "small", "worked_example")


def _configs_for(name: str) -> list[AcceleratorConfig]:
    if name == "all":
        return [getattr(AcceleratorConfig, item)() for item in _CONFIG_NAMES]
    if name not in _CONFIG_NAMES:
        raise SystemExit(
            f"unknown config {name!r}; choose from {_CONFIG_NAMES + ('all',)}"
        )
    return [getattr(AcceleratorConfig, name)()]


def _cmd_warm(cache: CompileCache, args: argparse.Namespace) -> int:
    from repro.compiler.compile import compile_network

    models = args.model or list(WARMABLE_MODELS)
    for config in _configs_for(args.config):
        for model in models:
            graph = build_graph(model)
            before = cache.stats.hits
            start = time.perf_counter()
            compile_network(
                graph, config, weights=args.weights, seed=args.seed, cache=cache
            )
            verb = "hit  " if cache.stats.hits > before else "store"
            print(
                f"{verb} {model:<18} {config.name:<16} "
                f"{(time.perf_counter() - start) * 1e3:8.1f} ms"
            )
    print(f"cache {cache.root}: {cache.stats.format()}")
    return 0


def _cmd_ls(cache: CompileCache, args: argparse.Namespace) -> int:
    entries = cache.entries()
    if not entries:
        print(f"cache {cache.root}: empty")
        return 0
    print(f"cache {cache.root}: {len(entries)} entries")
    print(f"{'key':<16} {'graph':<20} {'config':<16} {'instrs':>8} {'KiB':>9} {'age':>8}")
    for entry in sorted(entries, key=lambda e: (e.graph, e.config)):
        print(
            f"{entry.key[:16]:<16} {entry.graph:<20} {entry.config:<16} "
            f"{entry.instructions:>8} {entry.payload_bytes / 1024:>9.1f} "
            f"{entry.age_s:>7.0f}s"
        )
    return 0


def _cmd_gc(cache: CompileCache, args: argparse.Namespace) -> int:
    removed = cache.gc(
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        max_age_s=args.max_age_s,
    )
    print(f"removed {len(removed)} file(s)")
    for path in removed:
        print(f"  {path}")
    return 0


def _cmd_clear(cache: CompileCache, args: argparse.Namespace) -> int:
    print(f"removed {cache.clear()} file(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler.cache",
        description="Warm, inspect and maintain a persistent compile cache.",
    )
    parser.add_argument(
        "--dir",
        default=os.environ.get(CACHE_ENV_VAR),
        help=f"cache directory (default: ${CACHE_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    warm = sub.add_parser("warm", help="compile zoo models into the cache")
    warm.add_argument(
        "--model",
        action="append",
        choices=WARMABLE_MODELS,
        help="model to warm (repeatable; default: all warmable models)",
    )
    warm.add_argument(
        "--config",
        default="big",
        help="accelerator config: big, small, worked_example or all",
    )
    warm.add_argument("--weights", default="zeros", choices=("zeros", "random"))
    warm.add_argument("--seed", type=int, default=0)
    warm.set_defaults(run=_cmd_warm)

    ls = sub.add_parser("ls", help="list cache entries")
    ls.set_defaults(run=_cmd_ls)

    gc = sub.add_parser("gc", help="evict entries beyond the given budgets")
    gc.add_argument("--max-entries", type=int, default=None)
    gc.add_argument("--max-bytes", type=int, default=None)
    gc.add_argument("--max-age-s", type=float, default=None)
    gc.set_defaults(run=_cmd_gc)

    clear = sub.add_parser("clear", help="remove every entry")
    clear.set_defaults(run=_cmd_clear)

    args = parser.parse_args(argv)
    if not args.dir:
        parser.error(f"no cache directory: pass --dir or set ${CACHE_ENV_VAR}")
    run: Callable[[CompileCache, argparse.Namespace], int] = args.run
    return run(CompileCache(args.dir), args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
