"""The geo-replicated strong-consistency deployment (Figure 1's middle bar).

Application instances run in every region, but storage is a strongly
consistent replicated store (DynamoDB global tables with strong
consistency, reproduced here with the ABD quorum store).  Figure 1's
finding: this is usually *worse* than the totally centralized deployment,
because every storage operation pays cross-region quorum coordination —
the PRAM bound in action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from ..core import RadicalConfig
from ..core.config import INVOKE_MS
from ..core.registry import jittered_ms
from ..sim import Metrics, Network, RandomStreams, Region, Simulator
from ..storage import ReplicatedStore
from .primary import BaselineOutcome, _BaselineSystem

__all__ = ["GeoReplicatedApp", "GeoReplicatedDeployment", "SimpleWorkload"]


@dataclass(frozen=True)
class SimpleWorkload:
    """The §2 motivation workload: ~100 ms of compute plus storage ops."""

    compute_ms: float = 100.0
    reads: int = 1
    writes: int = 0


class GeoReplicatedApp:
    """One region's app instance bound to the shared quorum store."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        region: str,
        store: ReplicatedStore,
        config: Optional[RadicalConfig] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.sim = sim
        self.net = net
        self.region = region
        self.store = store
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        self.client = store.client(region, net.unique_endpoint_name(f"geo-app-{region}"))
        self._jitter = (streams or RandomStreams(0)).stream(f"geo.{region}")

    def invoke(self, workload: SimpleWorkload, key: str = "motivation") -> Generator:
        """Run the synthetic motivation request; generator returning a
        :class:`BaselineOutcome` whose latency includes real quorum ops."""
        invoked_at = self.sim.now
        yield self.sim.timeout(INVOKE_MS)
        yield self.sim.timeout(
            jittered_ms(workload.compute_ms, self._jitter, self.config.service_jitter_sigma)
        )
        result = None
        for _i in range(workload.reads):
            result = yield from self.client.read("app", key)
        for _i in range(workload.writes):
            yield from self.client.write("app", key, {"from": self.region})
        self.metrics.incr("geo.requests")
        return BaselineOutcome(
            result=result,
            invoked_at=invoked_at,
            responded_at=self.sim.now,
            function_id="motivation",
            path="geo-replicated",
        )


class GeoReplicatedDeployment(_BaselineSystem):
    """Figure 1's middle bar under a spec's network and seed: an app
    instance in every ``spec.regions`` entry over one quorum store
    replicated across VA / OH / OR (the paper's global table)."""

    def _wire(self) -> None:
        self.net = self._network()
        self.store = ReplicatedStore(self.sim, self.net, [Region.VA, Region.OH, Region.OR])
        self.apps: Dict[str, GeoReplicatedApp] = {
            region: GeoReplicatedApp(
                self.sim, self.net, region, self.store, self.spec.config,
                self.streams, self.metrics,
            )
            for region in self.spec.regions
        }

    def write(self, key: str, value: Any) -> None:
        """Quorum-write one ``app`` item from beside the primary, to
        completion — how data gets in before traffic."""
        writer = self.store.client(
            self.spec.primary_region, self.net.unique_endpoint_name("geo-seed")
        )
        self.sim.run_process(writer.write("app", key, value))
