"""The three comparison systems of the evaluation: the primary-datacenter
baseline, the geo-replicated quorum deployment (Figure 1), and the
inconsistent local-storage lower bound (the red lines).

Each has one builder taking the :class:`~repro.topology.TopologySpec` a
Radical :class:`~repro.topology.Deployment` is built from, so a comparison
runs every system under the same network, seed and regions."""

from .georeplicated import GeoReplicatedApp, GeoReplicatedDeployment, SimpleWorkload
from .local import LocalIdeal, LocalIdealDeployment
from .primary import BaselineOutcome, PrimaryBaseline, PrimaryDeployment

__all__ = [
    "BaselineOutcome",
    "GeoReplicatedApp",
    "GeoReplicatedDeployment",
    "LocalIdeal",
    "LocalIdealDeployment",
    "PrimaryBaseline",
    "PrimaryDeployment",
    "SimpleWorkload",
]
