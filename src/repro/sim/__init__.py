"""Deterministic discrete-event simulation substrate.

Everything in this reproduction — storage, network, Raft, the LVI protocol,
clients — runs on this kernel in virtual time (milliseconds), making the
paper's WAN-scale latency experiments reproducible in seconds of wall time.
"""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .monitor import Metrics, Summary, percentile
from .network import (
    Batched,
    Endpoint,
    LatencyTable,
    NO_REPLY,
    Network,
    PAPER_RTT_TO_PRIMARY,
    Region,
    RequestBatcher,
    RpcCall,
    RpcTimeout,
    UnknownRegionError,
    paper_latency_table,
)
from .primitives import Channel
from .rand import RandomStreams, ZipfSampler
from .rtt import (
    MatrixFileRttDataset,
    PaperRttDataset,
    RttDataset,
    RttDatasetError,
    SyntheticGeoRttDataset,
    resolve_rtt_dataset,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Batched",
    "Channel",
    "Endpoint",
    "Event",
    "Interrupted",
    "LatencyTable",
    "MatrixFileRttDataset",
    "Metrics",
    "NO_REPLY",
    "Network",
    "PAPER_RTT_TO_PRIMARY",
    "PaperRttDataset",
    "Process",
    "RandomStreams",
    "Region",
    "RequestBatcher",
    "RpcCall",
    "RpcTimeout",
    "RttDataset",
    "RttDatasetError",
    "SimulationError",
    "Simulator",
    "Summary",
    "SyntheticGeoRttDataset",
    "Timeout",
    "UnknownRegionError",
    "ZipfSampler",
    "paper_latency_table",
    "percentile",
    "resolve_rtt_dataset",
]
