"""Function registration: compile, analyze, and describe each function.

Registration is the first step of the LVI protocol (§3.2): when a function
is uploaded, the static analyzer derives f^rw, and both are distributed to
every near-user location alongside the near-storage backup copy.  The
registry is that shared catalogue.

Each :class:`FunctionSpec` also carries the *service time* — the measured
median execution latency the paper reports in Table 1 (e.g. 213 ms for the
pbkdf2 login, 120 ms for the social timeline).  The simulator charges this
(jittered) to the virtual clock while the VM executes the real logic, since
the authors' Rust/WASM wall-clock times are not reproducible from Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..analysis import AnalyzedFunction, try_analyze
from ..errors import FunctionNotRegistered
from ..wasm import WasmFunction

__all__ = ["FunctionSpec", "RegisteredFunction", "FunctionRegistry", "jittered_ms"]


def jittered_ms(base_ms: float, rng, sigma: float) -> float:
    """``base_ms`` under lognormal service-time jitter (the p99 whiskers in
    Figs 4-6).  The draw comes from the *caller's* stream, so every
    location keeps its own sequence; ``sigma <= 0`` draws nothing."""
    factor = math.exp(rng.gauss(0.0, sigma)) if sigma > 0 else 1.0
    return base_ms * factor


@dataclass(frozen=True)
class FunctionSpec:
    """A function as the application developer supplies it."""

    function_id: str          # e.g. "social.timeline"
    source: str               # restricted-Python source (one def)
    service_time_ms: float    # Table 1 median execution time
    workload_weight: float = 0.0  # Table 1 "Workload %" (for generators)
    description: str = ""


@dataclass
class RegisteredFunction:
    """A spec plus the analyzer's output."""

    spec: FunctionSpec
    analyzed: AnalyzedFunction

    @property
    def function_id(self) -> str:
        return self.spec.function_id

    @property
    def f(self) -> WasmFunction:
        return self.analyzed.f

    @property
    def frw(self) -> Optional[WasmFunction]:
        return self.analyzed.frw

    @property
    def analyzable(self) -> bool:
        return self.analyzed.analyzable

    @property
    def writes(self) -> bool:
        return self.analyzed.writes

    @property
    def service_time_ms(self) -> float:
        return self.spec.service_time_ms

    def service_ms(self, rng, sigma: float) -> float:
        """One execution's (jittered) service time; see :func:`jittered_ms`."""
        return jittered_ms(self.spec.service_time_ms, rng, sigma)


class FunctionRegistry:
    """The catalogue shared by all locations of one deployment.

    A function the analyzer cannot handle registers as unanalyzable and
    runs near storage on every invocation (§3.3, "Failure case").
    """

    def __init__(self) -> None:
        self._functions: Dict[str, RegisteredFunction] = {}

    def register(self, spec: FunctionSpec) -> RegisteredFunction:
        """Analyze and store a function; re-registration replaces (the
        paper's 'upload or update a function' flow)."""
        analyzed = try_analyze(spec.source)
        record = RegisteredFunction(spec=spec, analyzed=analyzed)
        self._functions[spec.function_id] = record
        return record

    def register_all(self, specs: Iterable[FunctionSpec]) -> List[RegisteredFunction]:
        return [self.register(s) for s in specs]

    def get(self, function_id: str) -> RegisteredFunction:
        try:
            return self._functions[function_id]
        except KeyError:
            raise FunctionNotRegistered(function_id) from None

    def ids(self) -> List[str]:
        return sorted(self._functions)

    def __len__(self) -> int:
        return len(self._functions)

    def __contains__(self, function_id: str) -> bool:
        return function_id in self._functions
