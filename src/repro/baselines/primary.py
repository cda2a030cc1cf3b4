"""The primary-datacenter baseline (§5.3).

The status quo for strongly consistent applications: every request is
routed to the application copy running alongside the primary store in
Virginia.  Users near Virginia are fast; everyone else pays the WAN round
trip on every request.  This is the bar Radical is measured against in
Figures 4-6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core import FunctionRegistry, RadicalConfig
from ..core.storage_library import PrimaryEnv
from ..sim import Metrics, Network, RandomStreams, Region, Simulator
from ..storage import KVStore
from ..wasm import VM

Key = Tuple[str, str]

__all__ = ["BaselineOutcome", "PrimaryBaseline"]


@dataclass
class BaselineOutcome:
    """What a baseline invocation returns (mirror of InvocationOutcome)."""

    result: Any
    invoked_at: float
    responded_at: float
    read_versions: Dict[Key, int] = field(default_factory=dict)
    write_versions: Dict[Key, int] = field(default_factory=dict)
    function_id: str = ""
    path: str = "baseline"

    @property
    def latency_ms(self) -> float:
        return self.responded_at - self.invoked_at


class PrimaryBaseline:
    """Application deployed only in the primary datacenter."""

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        registry: FunctionRegistry,
        store: KVStore,
        config: Optional[RadicalConfig] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[Metrics] = None,
        region: str = Region.VA,
    ):
        self.sim = sim
        self.net = net
        self.registry = registry
        self.store = store
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        self.region = region
        self.name = f"baseline-app-{next(PrimaryBaseline._ids)}"
        self._jitter = (streams or RandomStreams(0)).stream(f"baseline.{region}")
        net.serve(self.name, region, self._handle)

    def _handle(self, payload: Tuple, src: str) -> Generator:
        _kind, function_id, args = payload
        record = self.registry.get(function_id)
        yield self.sim.timeout(self.config.invoke_ms + self.config.wasm_load_ms)
        yield self.sim.timeout(
            record.service_ms(self._jitter, self.config.service_jitter_sigma)
        )
        env = PrimaryEnv(self.store)
        trace = VM(env, gas_limit=self.config.gas_limit).execute(record.f, list(args))
        self.metrics.incr("baseline.requests")
        return (trace.result, dict(env.read_versions), dict(env.write_versions))

    def invoke_from(self, client_endpoint: str, function_id: str, args: List[Any]) -> Generator:
        """Invoke from a client endpoint anywhere in the world; generator
        returning a :class:`BaselineOutcome`."""
        invoked_at = self.sim.now
        result, reads, writes = yield from self.net.call(
            client_endpoint, self.name, ("invoke", function_id, list(args))
        )
        return BaselineOutcome(
            result=result,
            invoked_at=invoked_at,
            responded_at=self.sim.now,
            read_versions=reads,
            write_versions=writes,
            function_id=function_id,
        )

    def invoke_local(self, function_id: str, args: List[Any]) -> Generator:
        """Invoke from a client co-located with the primary datacenter:
        only the (sub-ms) client<->app hop, no WAN round trip.  This is the
        baseline's home-field case (Figure 5: VA users)."""
        invoked_at = self.sim.now
        yield self.sim.timeout(self.config.client_app_rtt_ms / 2.0)
        result, reads, writes = yield from self._handle(
            ("invoke", function_id, list(args)), src="local"
        )
        yield self.sim.timeout(self.config.client_app_rtt_ms / 2.0)
        return BaselineOutcome(
            result=result,
            invoked_at=invoked_at,
            responded_at=self.sim.now,
            read_versions=reads,
            write_versions=writes,
            function_id=function_id,
        )
