"""Probes: per-layer host time and call counts, taken from outside.

For the duration of one run the public callables listed in :data:`TARGETS`
are replaced by timing wrappers.  A probe stack makes a layer's time *self*
time: its interval minus the intervals of the probes that ran inside it.
``Simulator.run`` is the outermost probe, so time in no other probe is the
kernel's (``sim.core``) and the shares sum to one.

Everything stays in memory and is read when the run is over.  A target that no longer exists is listed in
``Probes.missing`` and its layer's metrics become ``None`` — the run goes on.

The clock is ``time.perf_counter`` (70 ns a call here against 360 ns for
``process_time``): the run is one thread, so wall time is CPU time unless the
box preempts it, and a probed run takes one to two million clock reads.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``kind`` is ``sync`` (plain call), ``gen`` (a generator function, timed
#: per resume step), ``func`` (a module-level function other modules import
#: by name: every importer's binding is patched, the defining module's is
#: not, so recursion inside it runs unprobed), or ``hook`` (a ``func`` whose
#: return value is a callback that is timed too).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # layer, kind, module, dotted attribute
    ("sim.core", "sync", "repro.sim", "Simulator.run"),
    ("sim.network", "sync", "repro.sim", "Network.send"),
    ("sim.network", "gen", "repro.sim", "Network.call"),
    ("wasm.vm", "sync", "repro.wasm", "VM.execute"),
    ("storage", "sync", "repro.storage", "KVStore.get"),
    ("storage", "sync", "repro.storage", "KVStore.get_or_none"),
    ("storage", "sync", "repro.storage", "KVStore.put"),
    ("storage", "sync", "repro.storage", "KVStore.conditional_put"),
    ("storage", "sync", "repro.storage", "KVStore.apply_writes"),
    ("storage", "sync", "repro.storage", "KVStore.batch_get"),
    ("storage", "sync", "repro.storage", "KVStore.batch_versions"),
    ("storage", "gen", "repro.storage", "LockManager.acquire_all"),
    ("storage", "sync", "repro.storage", "LockManager.release_all"),
    ("storage", "sync", "repro.storage", "IntentTable.create"),
    ("storage", "sync", "repro.storage", "IntentTable.try_complete"),
    ("storage", "sync", "repro.storage", "NearUserCache.lookup"),
    ("storage", "sync", "repro.storage", "NearUserCache.install_batch"),
    ("storage", "sync", "repro.storage", "NearUserCache.apply_local_write"),
    ("storage", "func", "repro.storage.fastcopy", "fast_deepcopy"),
    ("core.runtime", "gen", "repro.core", "NearUserRuntime.invoke"),
    ("topology.shardmap", "sync", "repro.topology", "DirtySet.enroll"),
    ("topology.shardmap", "sync", "repro.topology", "DirtySet.probe"),
    ("topology.shardmap", "sync", "repro.topology", "DirtySet.settle"),
    ("analysis", "sync", "repro.analysis", "ConflictPredicate.instantiate"),
    # The lock-free read path's sanitizer: the access hook it returns runs
    # at every storage opcode of a lock-skipped execution.
    ("analysis", "hook", "repro.analysis.sanitizer", "constraint_checker"),
    ("mesh", "sync", "repro.mesh", "MeshPop.build_digest"),
    ("mesh", "sync", "repro.mesh", "MeshPop.receive_digest"),
    ("raft", "sync", "repro.raft", "RaftNode.submit"),
)

#: Handlers handed to ``Network.serve`` / ``Network.register_handler`` are
#: wrapped by the layer of the module that defines them — the LVI server's
#: request handler, the mesh's gossip handler, the Raft nodes' message
#: handler — without naming any of them.
HANDLER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.server", "core.server"),
    ("repro.mesh", "mesh"),
    ("repro.raft", "raft"),
)
HANDLER_HOOKS: Tuple[Tuple[str, str, int], ...] = (
    # module, dotted attribute, index of the handler among (self, *args)
    ("repro.sim", "Network.serve", 3),
    ("repro.sim", "Network.register_handler", 3),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [t[0] for t in TARGETS] + [layer for _, layer in HANDLER_LAYERS]
))


class Probes:
    """Install with ``with Probes() as p:`` around building *and* driving a
    deployment (handlers are wrapped as they are registered)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.missing: List[str] = []
        #: Extra tallies a wrapper derives from results (VM gas).
        self.sums: Dict[str, float] = {"wasm.vm.gas": 0.0}
        #: (endpoint, payload class name) -> messages a wrapped handler saw.
        self.handled: Dict[Tuple[str, str], int] = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ------------------------------------------------

    def __enter__(self) -> "Probes":
        try:
            for layer, kind, module, dotted in TARGETS:
                self._install(layer, kind, module, dotted)
            for module, dotted, index in HANDLER_HOOKS:
                self._install_handler_hook(module, dotted, index)
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _resolve(self, module: str, dotted: str) -> Optional[Tuple[Any, str, Any]]:
        try:
            owner: Any = importlib.import_module(module)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, attr, vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{dotted}")
            return None

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _install(self, layer: str, kind: str, module: str, dotted: str) -> None:
        found = self._resolve(module, dotted)
        if found is None:
            return
        owner, attr, original = found
        name = dotted
        self.calls[name] = 0
        if kind == "gen":
            self._patch(owner, attr, original, self._wrap_gen(layer, name, original))
        elif kind == "sync":
            on_result = self._add_gas if dotted == "VM.execute" else None
            self._patch(owner, attr, original, self._wrap_sync(layer, name, original, on_result))
        else:
            wrapper = self._wrap_sync(layer, name, original, None)
            if kind == "hook":
                wrapper = self._wrap_factory(layer, name, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro.") or mod_name == module:
                    continue
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _install_handler_hook(self, module: str, dotted: str, index: int) -> None:
        found = self._resolve(module, dotted)
        if found is None:
            return
        owner, attr, original = found
        probes = self

        def hook(*args, **kwargs):
            if len(args) > index:
                handler = args[index]
                layer = probes._handler_layer(handler)
                if layer is not None:
                    wrapped = probes._wrap_handler(layer, handler, endpoint=args[1])
                    args = args[:index] + (wrapped,) + args[index + 1:]
            return original(*args, **kwargs)

        self._patch(owner, attr, original, hook)

    @staticmethod
    def _handler_layer(handler: Any) -> Optional[str]:
        module = getattr(handler, "__module__", "") or ""
        for prefix, layer in HANDLER_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return None

    # -- the wrappers -------------------------------------------------------

    def _add_gas(self, trace: Any) -> None:
        self.sums["wasm.vm.gas"] += getattr(trace, "gas_used", 0)

    def _wrap_sync(self, layer: str, name: str, fn: Callable, on_result) -> Callable:
        # ``_step`` inlined, with everything it touches in the closure: this
        # wrapper runs a million times a pass.
        clock, stack, self_s, calls = self._clock, self._stack, self.self_s, self.calls

        def probe(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result)
            return result

        probe.__wrapped__ = fn
        return probe

    def _wrap_factory(self, layer: str, name: str, factory: Callable) -> Callable:
        self.calls[f"{name}()"] = 0

        def probe(*args, **kwargs):
            return self._wrap_sync(layer, f"{name}()", factory(*args, **kwargs), None)

        return probe

    def _step(self, layer: str, resume: Callable, arg: Any) -> Any:
        """One resume step of a probed generator, timed as self time."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        t0 = self._clock()
        try:
            return resume(arg)
        finally:
            dt = self._clock() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

    def _delegate(self, layer: str, gen: Any):
        """Drive ``gen`` step by step, forwarding sends, throws and the
        return value; only the time *inside* its steps is charged."""
        try:
            yielded = self._step(layer, gen.send, None)
            while True:
                try:
                    sent = yield yielded
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the kernel
                    yielded = self._step(layer, gen.throw, exc)
                else:
                    yielded = self._step(layer, gen.send, sent)
        except StopIteration as stop:
            return stop.value

    def _wrap_gen(self, layer: str, name: str, fn: Callable) -> Callable:
        probes = self

        def probe(*args, **kwargs):
            probes.calls[name] += 1
            return probes._delegate(layer, fn(*args, **kwargs))

        probe.__wrapped__ = fn
        return probe

    def _wrap_handler(self, layer: str, handler: Callable, endpoint: str) -> Callable:
        """A registered handler is either a plain callback or returns the
        generator the network spawns; both are charged to ``layer``."""
        probes = self

        def probe(*args, **kwargs):
            key = (endpoint, type(args[0]).__name__ if args else "")
            probes.handled[key] = probes.handled.get(key, 0) + 1
            result = probes._step(layer, lambda _: handler(*args, **kwargs), None)
            if result is not None and hasattr(result, "send"):
                return probes._delegate(layer, result)
            return result

        return probe

    def reset(self) -> None:
        """Forget what was measured so far (building and seeding), keeping
        the wrappers in place for the timed region."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for name in self.calls:
            self.calls[name] = 0
        for name in self.sums:
            self.sums[name] = 0.0
        self.handled.clear()

    # -- reading ------------------------------------------------------------

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def missing_layers(self) -> List[str]:
        """Layers with at least one target gone: their shares are unknown."""
        by_name = {f"{m}:{d}": layer for layer, _k, m, d in TARGETS}
        return sorted({by_name[m] for m in self.missing if m in by_name})

    def share(self, layer: str) -> Optional[float]:
        if layer in self.missing_layers():
            return None
        total = self.total_s()
        return self.self_s[layer] / total if total > 0 else 0.0

    def handled_per_type(self, payload_type: str) -> int:
        return sum(k for (_ep, kind), k in self.handled.items() if kind == payload_type)

    def count(self, *names: str) -> Optional[int]:
        """Calls summed over the named targets; ``None`` if one is gone."""
        if any(n not in self.calls for n in names):
            return None
        return sum(self.calls[n] for n in names)
