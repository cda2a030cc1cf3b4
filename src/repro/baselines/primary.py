"""The primary-datacenter baseline (§5.3).

The status quo for strongly consistent applications: every request is
routed to the application copy running alongside the primary store in
Virginia.  Users near Virginia are fast; everyone else pays the WAN round
trip on every request.  This is the bar Radical is measured against in
Figures 4-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..consistency import HistoryRecorder
from ..core import FunctionRegistry, RadicalConfig
from ..core.config import INVOKE_MS, WASM_LOAD_MS
from ..core.storage_library import PrimaryEnv
from ..sim import Metrics, Network, RandomStreams, Region, Simulator
from ..storage import KVStore
from ..topology import TopologySpec
from ..wasm import VM

Key = Tuple[str, str]

__all__ = ["BaselineOutcome", "PrimaryBaseline", "PrimaryDeployment"]


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
        self.name = net.unique_endpoint_name("baseline-app")
        self._jitter = (streams or RandomStreams(0)).stream(f"baseline.{region}")
        net.serve(self.name, region, self._handle)

    def _handle(self, payload: Tuple, src: str) -> Generator:
        _kind, function_id, args = payload
        record = self.registry.get(function_id)
        yield self.sim.timeout(INVOKE_MS + WASM_LOAD_MS)
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


#: TopologySpec fields only a Radical deployment can honour.  A baseline
#: built from a spec that sets one would silently measure a different
#: system than the Radical run beside it, so the builders refuse.
_RADICAL_ONLY = (
    "shards", "shard_map", "mesh", "fault_plan", "trace", "pop_regions", "assignment",
)


class _BaselineSystem:
    """What the baseline systems share: one simulator world described by
    the same :class:`~repro.topology.TopologySpec` a Radical
    :class:`~repro.topology.Deployment` is built from, exposing what a
    workload driver needs — ``sim``, ``metrics``, ``history``, ``streams``
    and ``client(region)``."""

    @classmethod
    def build(cls, spec: TopologySpec, app=None, functions: Sequence[Any] = (),
              seed_data: Optional[Callable[[KVStore], None]] = None):
        """Same function sources as :meth:`Deployment.build`: an ``app``,
        or explicit ``functions`` plus an optional ``seed_data(store)``."""
        spec.validate()
        defaults = TopologySpec()
        radical_only = [
            name for name in _RADICAL_ONLY if getattr(spec, name) != getattr(defaults, name)
        ]
        if radical_only:
            raise ValueError(
                f"{cls.__name__} cannot honour Radical-only spec "
                f"field(s): {', '.join(radical_only)}"
            )
        if app is not None and functions:
            raise ValueError("pass an app or explicit functions, not both")
        self = cls()
        self.spec = spec
        self.sim = Simulator()
        self.streams = RandomStreams(spec.seed)
        self.metrics = Metrics()
        self.history = HistoryRecorder() if spec.record_history else None
        self.registry = FunctionRegistry()
        self.registry.register_all(app.specs() if app is not None else functions)
        self._app, self._seed_data = app, seed_data
        self._wire()
        return self

    def _network(self) -> Network:
        """The spec's network: its RTT dataset, jitter and random streams."""
        latency = self.spec.resolved_rtt_dataset().latency_table()
        self.spec.check_regions(latency)
        return Network(
            self.sim, latency, self.streams, jitter_sigma=self.spec.network_jitter_sigma
        )

    def _seed(self, store: KVStore) -> KVStore:
        if self._app is not None:
            self._app.seed(store, self.streams, self._app.context)
        elif self._seed_data is not None:
            self._seed_data(store)
        return store


class PrimaryDeployment(_BaselineSystem):
    """The primary-datacenter baseline under a spec's network and seed:
    one application copy beside the store in ``spec.primary_region``,
    clients in every ``spec.regions`` entry."""

    def _wire(self) -> None:
        self.net = self._network()
        self.store = self._seed(KVStore())
        self.baseline = PrimaryBaseline(
            self.sim, self.net, self.registry, self.store, self.spec.config,
            self.streams, self.metrics, region=self.spec.primary_region,
        )

    def remote_client(self, region: str, endpoint: str) -> Callable[..., Generator]:
        """Register ``endpoint`` in ``region`` and return an invoke that
        crosses the network from it to the primary datacenter."""
        self.net.register(endpoint, region)
        return lambda function_id, args: self.baseline.invoke_from(endpoint, function_id, args)

    def client(self, region: str) -> Tuple[Callable[..., Generator], float]:
        """A new client in ``region``: its ``(invoke, client_rtt_ms)``.
        The WAN hop is inside ``invoke``, and a client beside the primary
        skips the WAN entirely, so the driver models no extra hop."""
        if region == self.baseline.region:
            return self.baseline.invoke_local, 0.0
        return self.remote_client(region, self.net.unique_endpoint_name(f"client-{region}")), 0.0
