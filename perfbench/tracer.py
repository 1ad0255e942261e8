"""Per-layer tracing for the benchmark, installed at runtime around ``repro``.

The tracer wraps the public entry points listed in :data:`SPAN_PROBES`
while it is installed and restores them on exit; nothing under ``src/``
changes.  Each wrapped call made inside a benchmark operation records a span
``(name, start, end, parent, op id)`` in memory.  After the run, a span's
self time is its duration minus the time its direct children cover; the
per-probe sums are the per-layer numbers.

Probes name public functions and methods, not private helpers, so the
metric names survive refactors behind them.  Two traps are handled here:

* a function imported with ``from module import name`` is a second
  reference in the importing module; :meth:`Tracer.install` rebinds every
  reference to the original object in every loaded ``repro`` module, or
  the wrapped count silently reads zero;
* store engines override ``insert_batch`` and ``prove`` per class, so each
  engine class that defines one gets its own wrapper under the shared
  ``store.*`` name.  An engine's call into its parent engine nests under
  the same name and is not counted twice.

Cache hit rates come from the caches' own ``CacheStats``: instances alive
when tracing starts are found by a heap scan and instances created later
by a constructor wrapper; the metric is the change while tracing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import importlib
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in table order; every probe belongs to the longest matching prefix.
LAYERS: Tuple[str, ...] = (
    "crypto.signing",
    "store",
    "dictionary",
    "ritm.messages",
    "tls",
    "pki",
    "net.path",
    "ritm.agent",
    "ritm.client",
    "ritm.server",
    "ritm.ca_service",
    "ritm.dissemination",
    "cdn",
    "ritm.replication",
    "scenarios.engine",
    "workloads.streaming",
)

#: ``(metric stem, module, qualname, counter hook)``: one span per call.  The
#: hook, a :class:`Tracer` method name, also sees each outermost call's result.
SPAN_PROBES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("crypto.signing.PublicKey.verify", "repro.crypto.signing", "PublicKey.verify", "_on_verify"),
    ("crypto.signing.verify_batch", "repro.crypto.signing", "verify_batch", "_on_verify_batch"),
    ("crypto.signing.PrivateKey.sign", "repro.crypto.signing", "PrivateKey.sign", None),
    ("dictionary.CADictionary.insert", "repro.dictionary.authdict", "CADictionary.insert", None),
    ("dictionary.CADictionary.refresh", "repro.dictionary.authdict", "CADictionary.refresh", None),
    (
        "dictionary.ReplicaDictionary.update_many",
        "repro.dictionary.authdict",
        "ReplicaDictionary.update_many",
        None,
    ),
    (
        "dictionary.prove_membership",
        "repro.dictionary.authdict",
        "_DictionaryCore.prove_membership",
        None,
    ),
    ("ritm.messages.encode_status_bundle", "repro.ritm.messages", "encode_status_bundle", "_on_encoded"),
    ("ritm.messages.decode_status_bundle", "repro.ritm.messages", "decode_status_bundle", None),
    ("ritm.messages.encode_issuance", "repro.ritm.messages", "encode_issuance", "_on_encoded"),
    ("ritm.messages.decode_issuance", "repro.ritm.messages", "decode_issuance", None),
    ("tls.parse_records", "repro.tls.records", "parse_records", None),
    ("tls.serialize_records", "repro.tls.records", "serialize_records", None),
    ("pki.validate_chain", "repro.pki.validation", "validate_chain", None),
    ("net.path.PathEngine.send_from_client", "repro.net.path", "PathEngine.send_from_client", None),
    ("ritm.agent.process_packet", "repro.ritm.agent", "RevocationAgent.process_packet", None),
    ("ritm.agent.build_status", "repro.ritm.agent", "RevocationAgent.build_status", None),
    ("ritm.client.handle_packet", "repro.ritm.client", "RITMClient.handle_packet", None),
    ("ritm.server.handle_packet", "repro.ritm.server", "RITMServer.handle_packet", None),
    ("ritm.ca_service.revoke", "repro.ritm.ca_service", "RITMCertificationAuthority.revoke", None),
    ("ritm.ca_service.refresh", "repro.ritm.ca_service", "RITMCertificationAuthority.refresh", None),
    ("ritm.dissemination.pull", "repro.ritm.dissemination", "RADisseminationClient.pull", "_on_pull"),
    ("cdn.download", "repro.cdn.network", "CDNNetwork.download", "_on_download"),
    ("ritm.replication.encode_segment", "repro.ritm.replication", "encode_segment", None),
    ("ritm.replication.decode_segment", "repro.ritm.replication", "decode_segment", None),
    ("ritm.replication.verify_segment", "repro.ritm.replication", "verify_segment", None),
    ("scenarios.engine.FleetEngine.run", "repro.scenarios.engine.core", "FleetEngine.run", None),
    ("scenarios.engine.scheduler", "repro.net.simulator", "EventScheduler.run_all", "_on_scheduler"),
    ("scenarios.engine.mailbox_post", "repro.scenarios.engine.mailbox", "Mailbox.post", "_on_post"),
)

#: Store-engine methods, wrapped on every engine class that defines them.
STORE_METHODS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("insert_batch", "_on_insert_batch"),
    ("prove", None),
)

#: Hot functions whose calls are counted without spans: a span per call
#: would cost more than the call.  Their time stays in the caller's self time.
COUNT_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("crypto.hashing.hash_node.calls", "repro.crypto.hashing", "hash_node"),
    ("crypto.hashing.hash_leaf.calls", "repro.crypto.hashing", "hash_leaf"),
)

#: Generator methods: each ``next()`` is one span.
GENERATOR_PROBES: Tuple[Tuple[str, str, str], ...] = (
    (
        "workloads.streaming.StreamingWorkload.batches",
        "repro.workloads.streaming",
        "StreamingWorkload.batches",
    ),
)

#: ``(metric stem, module, class)`` of the caches whose ``CacheStats`` are read.
CACHE_CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("perf.proof_cache", "repro.perf.proof_cache", "ProofCache"),
    ("perf.root_cache", "repro.perf.root_cache", "VerifiedRootCache"),
    ("perf.chain_validation", "repro.tls.connection", "ChainValidationCache"),
)

#: Counters fed by hooks; reported as 0 when nothing fed them.
COUNTERS: Tuple[str, ...] = (
    "crypto.signing.signatures_verified",
    "crypto.signing.verify_failures",
    "store.leaves_inserted",
    "ritm.messages.encoded_bytes",
    "ritm.dissemination.resyncs",
    "ritm.dissemination.errors",
    "ritm.replication.segments_applied",
    "ritm.replication.segments_rejected",
    "cdn.download.bytes",
    "scenarios.engine.scheduler_events",
    "scenarios.engine.mailbox_depth_max",
    "workloads.streaming.events",
)

OP_SPAN = "bench.op"


def layer_of(stem: str) -> str:
    """The longest layer in :data:`LAYERS` that prefixes ``stem``."""
    matches = [layer for layer in LAYERS if stem.startswith(layer + ".")]
    return max(matches, key=len)


class NullTracer:
    """The untraced run's stand-in: an operation costs one no-op context."""

    def op(self) -> "NullTracer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class Tracer:
    """Installs the probes, records spans, and derives per-layer metrics."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Name id of every span, appended when the span opens.
        self.span_names: List[int] = []
        #: ``(start, end, parent index, op id)``, filled when the span closes.
        self.spans: List[Optional[Tuple[float, float, int, int]]] = []
        self._stack: List[int] = []
        #: Id of the operation in progress; 0 between operations, where
        #: nothing is recorded (the benchmark's own checks run there).
        self.op_id = 0
        self._ops = 0
        self.counters: Dict[str, float] = {key: 0 for key in COUNTERS}
        self._patches: List[Tuple[object, str, object]] = []
        self._caches: Dict[str, list] = {}
        self._baselines: Dict[int, Tuple[int, int, int]] = {}
        self._cdns: list = []
        self._edge_baselines: Dict[int, Tuple[int, int]] = {}

    # -- install / restore ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        """Wrap every probe and snapshot the caches alive right now."""
        for stem, module_name, qualname, hook in SPAN_PROBES:
            owner, attr = self._resolve(module_name, qualname)
            self._replace(owner, attr, self._span_wrapper(owner.__dict__[attr], stem, hook))
        store = importlib.import_module("repro.store")
        base = importlib.import_module("repro.store.base")
        for method, hook in STORE_METHODS:
            for cls in (base.AuthenticatedStore, *store.ENGINES.values()):
                if method in cls.__dict__:
                    wrapper = self._span_wrapper(cls.__dict__[method], f"store.{method}", hook)
                    self._replace(cls, method, wrapper)
        for key, module_name, function in COUNT_PROBES:
            owner, attr = self._resolve(module_name, function)
            self._replace(owner, attr, self._count_wrapper(owner.__dict__[attr], key))
        for stem, module_name, qualname in GENERATOR_PROBES:
            owner, attr = self._resolve(module_name, qualname)
            self._replace(owner, attr, self._generator_wrapper(owner.__dict__[attr], stem))
        self._track_caches()

    def restore(self) -> None:
        """Put every original back, in reverse order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module_name: str, qualname: str):
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # ``from module import name`` made copies: rebind those too.
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and module is not owner
                and getattr(module, "__dict__", {}).get(attr) is original
            ):
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn: Callable, name: str, hook: Optional[str]):
        name_id = self._name_id(name)
        on_result = getattr(self, hook) if hook else None
        span_names, spans, stack = self.span_names, self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_id = tracer.op_id
            if not op_id:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span_names.append(name_id)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (start, end, parent, op_id)
            if on_result is not None and (parent < 0 or span_names[parent] != name_id):
                on_result(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, key: str):
        counters = self.counters
        counters[key] = 0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, fn: Callable, stem: str):
        step = self._span_wrapper(next, stem, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    batch = step(iterator)
                except StopIteration:
                    return
                if tracer.op_id:
                    tracer.counters["workloads.streaming.events"] += len(batch)
                yield batch

        return wrapper

    def _track_caches(self) -> None:
        classes = {}
        for stem, module_name, class_name in CACHE_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            classes[cls] = self._caches.setdefault(stem, [])
            self._replace(cls, "__init__", self._init_wrapper(cls, classes[cls]))
        cdn_class = importlib.import_module("repro.cdn.network").CDNNetwork
        self._replace(cdn_class, "__init__", self._init_wrapper(cdn_class, self._cdns))
        for obj in gc.get_objects():
            registry = classes.get(type(obj))
            if registry is not None:
                stats = obj.stats
                self._baselines[id(obj)] = (stats.hits, stats.misses, stats.invalidations)
                registry.append(obj)
            elif type(obj) is cdn_class:
                self._cdns.append(obj)
                for edge in obj.all_edges():
                    self._edge_baselines[id(edge)] = (edge.cache_hits, edge.requests_served)

    @staticmethod
    def _init_wrapper(cls, registry: list):
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def wrapper(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            registry.append(instance)

        return wrapper

    # -- operations and counter hooks -----------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Context for one benchmark operation: a root span with a fresh op id."""
        self._ops += 1
        self.op_id = self._ops
        index = len(self.spans)
        self.span_names.append(self._name_id(OP_SPAN))
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (start, end, -1, self.op_id)
            self.op_id = 0

    def _on_verify(self, args, result) -> None:
        self.counters["crypto.signing.signatures_verified"] += 1
        if not result:
            self.counters["crypto.signing.verify_failures"] += 1

    def _on_verify_batch(self, args, result) -> None:
        self.counters["crypto.signing.signatures_verified"] += len(result)
        self.counters["crypto.signing.verify_failures"] += result.count(False)

    def _on_insert_batch(self, args, result) -> None:
        self.counters["store.leaves_inserted"] += result

    def _on_encoded(self, args, result) -> None:
        self.counters["ritm.messages.encoded_bytes"] += len(result)

    def _on_pull(self, args, result) -> None:
        self.counters["ritm.dissemination.resyncs"] += result.resyncs
        self.counters["ritm.dissemination.errors"] += len(result.errors)
        self.counters["ritm.replication.segments_applied"] += result.segments_applied
        self.counters["ritm.replication.segments_rejected"] += result.segments_rejected

    def _on_download(self, args, result) -> None:
        self.counters["cdn.download.bytes"] += result.bytes_on_wire

    def _on_scheduler(self, args, result) -> None:
        self.counters["scenarios.engine.scheduler_events"] += result

    def _on_post(self, args, result) -> None:
        key = "scenarios.engine.mailbox_depth_max"
        self.counters[key] = max(self.counters[key], args[0].max_depth)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> Tuple[List[float], List[int]]:
        """Per-name total self time and outermost-call count."""
        durations = [end - start for start, end, _, _ in self.spans]
        child_cover = [0.0] * len(self.spans)
        for index, (_, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_cover[parent] += durations[index]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for index, name_id in enumerate(self.span_names):
            self_s[name_id] += durations[index] - child_cover[index]
            parent = self.spans[index][2]
            if parent < 0 or self.span_names[parent] != name_id:
                calls[name_id] += 1
        return self_s, calls

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, from the spans, counters and cache stats.

        Shares are of the traced operations' wall time (the root spans).
        """
        self_s, calls = self.self_times()
        op_id = self._ids.get(OP_SPAN)
        traced_wall = sum(
            end - start
            for name_id, (start, end, _, _) in zip(self.span_names, self.spans)
            if name_id == op_id
        )
        metrics: Dict[str, float] = {}
        layer_s = {layer: 0.0 for layer in LAYERS}
        for name_id, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            metrics[f"{name}.calls"] = calls[name_id]
            metrics[f"{name}.self_s"] = self_s[name_id]
            layer_s[layer_of(name)] += self_s[name_id]
        metrics.update(self.counters)
        leaves = metrics["store.leaves_inserted"]
        metrics["store.rehash_per_leaf"] = (
            metrics["crypto.hashing.hash_node.calls"] / leaves if leaves else 0.0
        )
        for stem, instances in self._caches.items():
            hits = misses = invalidations = 0
            for cache in instances:
                base = self._baselines.get(id(cache), (0, 0, 0))
                stats = cache.stats
                hits += stats.hits - base[0]
                misses += stats.misses - base[1]
                invalidations += stats.invalidations - base[2]
            metrics[f"{stem}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
            metrics[f"{stem}.invalidations"] = invalidations
        edge_hits = edge_requests = 0
        for cdn in self._cdns:
            for edge in cdn.all_edges():
                base = self._edge_baselines.get(id(edge), (0, 0))
                edge_hits += edge.cache_hits - base[0]
                edge_requests += edge.requests_served - base[1]
        metrics["cdn.edge_hit_rate"] = edge_hits / edge_requests if edge_requests else 0.0
        for layer, seconds in layer_s.items():
            metrics[f"layer.{layer}.share"] = seconds / traced_wall if traced_wall else 0.0
        metrics["unattributed_share"] = (
            1.0 - sum(layer_s.values()) / traced_wall if traced_wall else 0.0
        )
        return metrics

    def write_spans(self, path: Path) -> None:
        """Dump every span as gzipped CSV: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,op\n")
            for name_id, (start, end, parent, op_id) in zip(self.span_names, self.spans):
                out.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{op_id}\n")

