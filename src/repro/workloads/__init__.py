"""Workload generation: zipf-skewed request mixes and closed-loop clients."""

from .clients import ClosedLoopClient, Invoker, OpenLoopClient, run_clients, run_open_loop

__all__ = ["ClosedLoopClient", "Invoker", "OpenLoopClient", "run_clients", "run_open_loop"]
