"""Determinism lint: forbid wall-clock and ambient randomness in the sim.

Every artifact under ``results/`` is byte-reproducible because the whole
stack below the CLI is a deterministic function of its seeds: virtual
time comes from the :class:`~repro.sim.Simulator`, randomness from
:class:`~repro.sim.RandomStreams`.  A single ``time.time()`` or
module-level ``random.random()`` smuggled into that stack breaks the
property silently — results still *look* plausible, they just stop being
reproducible.  This lint makes the ban mechanical.

Checked (AST-based, so comments and strings never false-positive):

* ``time.time`` / ``time.monotonic`` / ``time.perf_counter`` (and their
  ``_ns`` variants) — wall-clock reads;
* ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today`` (including
  the ``datetime.datetime.now`` spelling) — wall-clock reads;
* module-level ``random.*`` — the shared global RNG.  Constructing a
  seeded instance (``random.Random(seed)``) is the sanctioned idiom and
  stays legal; ``random.SystemRandom`` is OS entropy and is not.

Scope: the deterministic core only (``sim``, ``core``, ``topology``,
``mesh``, ``faults``).  The CLI and bench layers may time themselves with
the wall clock; the simulation may not.

One rule covers every package, because ``events_dispatched`` is a count
the benchmark holds the whole tree to: ``yield <sim>.spawn(<generator>)``
— a process spawned only to be joined on the spot (SIM001).  ``yield from
<generator>`` runs the same steps inside the calling process for two
dispatches less (the child's start and the joiner's resume), with the
same exception flow.  Spawn when the child must run *beside* the caller.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "LintViolation",
    "lint_file",
    "lint_source",
    "lint_tree",
]

#: The packages (relative to ``src/repro``) the determinism ban covers.
DETERMINISTIC_PACKAGES = ("sim", "core", "topology", "mesh", "faults")

_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _check_attribute(node: ast.Attribute, path: str) -> Optional[LintViolation]:
    root = _root_name(node.value)
    if root == "time" and node.attr in _WALL_CLOCK_TIME:
        return LintViolation(
            path, node.lineno, "DET001",
            f"wall-clock read time.{node.attr}: use the simulator's "
            f"virtual clock (sim.now)",
        )
    if root in ("datetime", "date") and node.attr in _WALL_CLOCK_DATETIME:
        return LintViolation(
            path, node.lineno, "DET002",
            f"wall-clock read {root}.{node.attr}: derive timestamps from "
            f"virtual time or pass them in as parameters",
        )
    if root == "random" and isinstance(node.value, ast.Name):
        if node.attr == "Random":
            return None  # seeded instance construction is the idiom
        return LintViolation(
            path, node.lineno, "DET003",
            f"module-level random.{node.attr}: draw from a seeded "
            f"random.Random (see repro.sim.RandomStreams)",
        )
    return None


def _check_yield(node: ast.Yield, path: str) -> Optional[LintViolation]:
    call = node.value
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "spawn"
    ):
        return LintViolation(
            path, node.lineno, "SIM001",
            "process spawned only to be joined: `yield from <generator>` "
            "runs it in this process for two dispatches less",
        )
    return None


def lint_source(
    source: str, path: str = "<string>", deterministic: bool = True
) -> List[LintViolation]:
    """Lint one module's source text; ``deterministic=False`` is a module
    outside the deterministic core, held to SIM001 only."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(path, exc.lineno or 0, "DET000",
                              f"unparseable module: {exc.msg}")]
    violations = []
    for node in ast.walk(tree):
        v = None
        if isinstance(node, ast.Yield):
            v = _check_yield(node, path)
        elif deterministic and isinstance(node, ast.Attribute):
            v = _check_attribute(node, path)
        if v is not None:
            violations.append(v)
    return violations


def lint_file(path: str, deterministic: bool = True) -> List[LintViolation]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path, deterministic)


def lint_tree(
    root: str, packages: Iterable[str] = DETERMINISTIC_PACKAGES
) -> List[LintViolation]:
    """Lint every ``.py`` file under ``root`` (the ``src/repro``
    directory): the named packages by every rule, the rest by SIM001."""
    violations: List[LintViolation] = []
    core = tuple(os.path.join(root, package, "") for package in packages)
    for dirpath, _dirnames, filenames in os.walk(root):
        deterministic = os.path.join(dirpath, "").startswith(core)
        for name in sorted(filenames):
            if name.endswith(".py"):
                violations.extend(
                    lint_file(os.path.join(dirpath, name), deterministic)
                )
    violations.sort(key=lambda v: (v.path, v.line))
    return violations


def repo_root() -> str:
    """The ``src/repro`` package directory this module lives in."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``radical-repro lint``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="radical-repro lint",
        description="Determinism lint over the simulation core "
                    f"({', '.join(DETERMINISTIC_PACKAGES)}): no wall "
                    "clocks, no ambient randomness.  Everywhere: no "
                    "process spawned only to be joined.",
    )
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: the whole "
                             "deterministic core)")
    args = parser.parse_args(argv)

    if args.paths:
        violations = [v for p in args.paths for v in lint_file(p)]
    else:
        violations = lint_tree(repo_root())
    for v in violations:
        print(str(v))
    if violations:
        print(f"{len(violations)} lint violation(s)")
        return 1
    scope = ", ".join(f"repro/{p}" for p in DETERMINISTIC_PACKAGES)
    print(f"determinism lint clean ({scope}); no spawn-then-join anywhere in repro/")
    return 0
