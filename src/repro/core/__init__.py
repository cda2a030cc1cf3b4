"""Radical's core: the LVI protocol, near-user runtime, and LVI server."""

from .config import RadicalConfig
from .external import ExternalCall, ExternalService, ExternalServiceHub
from .messages import (
    DirectExecRequest,
    FreshItem,
    LVIRequest,
    LVIResponse,
    ShardDecision,
    ShardDecisionQuery,
    ShardPrepare,
    WriteFollowup,
)
from .registry import FunctionRegistry, FunctionSpec, RegisteredFunction
from .router import ShardRouter
from .runtime import (
    InvocationOutcome,
    NearUserRuntime,
    PATH_BACKUP,
    PATH_DIRECT,
    PATH_MISS,
    PATH_SPECULATIVE,
)
from .server import DECISION_TABLE, LVIServer
from .storage_library import PrimaryEnv, SnapshotReader, SpeculativeEnv

__all__ = [
    "DECISION_TABLE",
    "DirectExecRequest",
    "ExternalCall",
    "ExternalService",
    "ExternalServiceHub",
    "FreshItem",
    "FunctionRegistry",
    "FunctionSpec",
    "InvocationOutcome",
    "LVIRequest",
    "LVIResponse",
    "LVIServer",
    "NearUserRuntime",
    "PATH_BACKUP",
    "PATH_DIRECT",
    "PATH_MISS",
    "PATH_SPECULATIVE",
    "PrimaryEnv",
    "RadicalConfig",
    "RegisteredFunction",
    "ShardDecision",
    "ShardDecisionQuery",
    "ShardPrepare",
    "ShardRouter",
    "SnapshotReader",
    "SpeculativeEnv",
    "WriteFollowup",
]
