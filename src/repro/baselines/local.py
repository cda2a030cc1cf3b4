"""The inconsistent-local-storage lower bound (the red lines, §5.3).

Each region runs the application against its *own* local store with no
coordination whatsoever.  This is the best possible latency — and it is
not strongly consistent: regions silently diverge.  Radical's quality
metric is how close it gets to this bound while staying linearizable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core import FunctionRegistry, RadicalConfig
from ..core.config import INVOKE_MS, WASM_LOAD_MS
from ..core.storage_library import PrimaryEnv
from ..sim import Metrics, RandomStreams, Simulator
from ..storage import KVStore
from ..wasm import VM
from .primary import BaselineOutcome, _BaselineSystem

__all__ = ["LocalIdeal", "LocalIdealDeployment"]


class LocalIdeal:
    """One region's local, uncoordinated deployment."""

    def __init__(
        self,
        sim: Simulator,
        region: str,
        registry: FunctionRegistry,
        config: Optional[RadicalConfig] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[Metrics] = None,
        store: Optional[KVStore] = None,
    ):
        self.sim = sim
        self.region = region
        self.registry = registry
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        self.store = store if store is not None else KVStore(name=f"local-{region}")
        self._jitter = (streams or RandomStreams(0)).stream(f"local.{region}")

    def invoke(self, function_id: str, args: List[Any]) -> Generator:
        """Run a function against local storage only; generator returning a
        :class:`BaselineOutcome`.  No network leaves the region."""
        invoked_at = self.sim.now
        record = self.registry.get(function_id)
        yield self.sim.timeout(INVOKE_MS + WASM_LOAD_MS)
        yield self.sim.timeout(
            record.service_ms(self._jitter, self.config.service_jitter_sigma)
        )
        env = PrimaryEnv(self.store)
        trace = VM(env, gas_limit=self.config.gas_limit).execute(record.f, list(args))
        self.metrics.incr("local.requests")
        return BaselineOutcome(
            result=trace.result,
            invoked_at=invoked_at,
            responded_at=self.sim.now,
            read_versions=dict(env.read_versions),
            write_versions=dict(env.write_versions),
            function_id=function_id,
            path="local-ideal",
        )


class LocalIdealDeployment(_BaselineSystem):
    """The local lower bound under a spec's seed and regions: every
    region runs the application on its own, separately seeded store.  The
    spec's network fields describe links no request here ever crosses."""

    def _wire(self) -> None:
        self.locals: Dict[str, LocalIdeal] = {
            region: LocalIdeal(
                self.sim, region, self.registry, self.spec.config, self.streams,
                self.metrics, store=self._seed(KVStore(name=f"local-{region}")),
            )
            for region in self.spec.regions
        }

    def client(self, region: str) -> Tuple[Callable[..., Generator], float]:
        """A client in ``region``: its ``(invoke, client_rtt_ms)`` — the
        same sub-millisecond hop a Radical client pays to its PoP."""
        return self.locals[region].invoke, self.spec.config.client_app_rtt_ms
