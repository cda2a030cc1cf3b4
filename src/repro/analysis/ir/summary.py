"""Static key-pattern summaries, conflict matrix, and shard affinity.

Consumes :func:`~repro.analysis.ir.access.extract_access_sites` and distils
each function into the facts the running system can use *without* deriving
a concrete rw-set:

* a per-function table / key-prefix pattern list,
* a cross-function **may-conflict** matrix (does one function's write
  pattern possibly overlap another's read or write pattern?),
* a **shard-affinity** verdict: a function whose every access provably
  renders the *same* key string within one invocation is statically
  single-shard, so the runtime can route it after hashing one key instead
  of enumerating the whole set — and a function touching one fully
  constant key has a shard index known at registration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...wasm.ir import Op, WasmFunction
from .access import IRAccessSite, SymValue, extract_access_sites

__all__ = [
    "KeyPattern",
    "KeyFact",
    "KeyConstraint",
    "RequestFacts",
    "ConflictPredicate",
    "FunctionSummary",
    "ConflictMatrix",
    "summarize_function",
    "build_conflict_matrix",
    "conflict_witness",
    "CONSTRAINT_KINDS",
]


@dataclass(frozen=True)
class KeyPattern:
    """One distinct (table, key shape) a function may touch."""

    table: Optional[str]     # None = table not statically known
    pattern: str             # rendered shape, "{…}" marks dynamic parts
    const_prefix: str        # longest constant prefix of the key
    exact: bool              # pattern has no dynamic parts
    kind: str                # "read" | "write"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "table": self.table,
            "pattern": self.pattern,
            "kind": self.kind,
            "exact": self.exact,
        }


def _patterns_overlap(a: KeyPattern, b: KeyPattern) -> bool:
    """Conservative may-overlap: unknown tables overlap everything; known
    tables must match; then one constant prefix must extend the other
    (two exact keys overlap only when equal)."""
    if a.table is None or b.table is None:
        return True
    if a.table != b.table:
        return False
    if a.exact and b.exact:
        return a.pattern == b.pattern
    pa, pb = a.const_prefix, b.const_prefix
    if a.exact:
        return pa.startswith(pb)
    if b.exact:
        return pb.startswith(pa)
    return pa.startswith(pb) or pb.startswith(pa)


# -- argument-sensitive conflict predicates ----------------------------------

#: Static precision buckets a key constraint can fall into, most precise
#: first.  "const" and "exact" instantiate to a single key string,
#: "prefix" to a key-prefix range, "interval" to a finite
#: ``prefix + str(i)`` span, "any" constrains nothing.
CONSTRAINT_KINDS = ("const", "exact", "prefix", "interval", "any")


def _resolve_sym(sym: SymValue, env: Dict[str, Any]) -> Optional[str]:
    """Fully render ``sym`` as a key string under an argument binding, or
    None when any part depends on something other than bound args."""
    if sym.kind == "const":
        return str(sym.payload)
    if sym.kind == "param":
        if sym.payload in env:
            return str(env[sym.payload])  # the VM's FORMAT rendering
        return None
    if sym.kind == "format":
        parts = [_resolve_sym(p, env) for p in sym.payload]
        if all(p is not None for p in parts):
            return "".join(parts)  # type: ignore[arg-type]
        return None
    return None


def _resolve_prefix(sym: SymValue, env: Dict[str, Any]) -> str:
    """Longest leading run of ``sym`` resolvable under ``env``."""
    if sym.kind == "format":
        out: List[str] = []
        for part in sym.payload:
            rendered = _resolve_sym(part, env)
            if rendered is None:
                break
            out.append(rendered)
        return "".join(out)
    return _resolve_sym(sym, env) or ""


def _is_int_repr(text: str) -> bool:
    try:
        return str(int(text)) == text
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class KeyFact:
    """One *instantiated* key constraint of a concrete request.

    ``kind`` is "exact" (the single key ``key``), "prefix" (every key
    starting with ``key``), "interval" (``key + str(i)`` for
    ``lo <= i <= hi``), or "any" (no constraint).  A ``None`` table means
    the table is unconstrained too.
    """

    table: Optional[str]
    kind: str
    key: str = ""
    lo: int = 0
    hi: int = -1

    def covers(self, table: str, key: str) -> bool:
        """Does this fact admit a concrete (table, key) access?"""
        if self.table is not None and table != self.table:
            return False
        if self.kind == "any":
            return True
        if self.kind == "exact":
            return key == self.key
        if self.kind == "prefix":
            return key.startswith(self.key)
        # interval: the remainder must be the canonical rendering of an
        # integer inside the span ("007" is not str(7)).
        if not key.startswith(self.key):
            return False
        rest = key[len(self.key):]
        return _is_int_repr(rest) and self.lo <= int(rest) <= self.hi

    def overlaps(self, other: "KeyFact") -> bool:
        """Conservative: can both facts admit one and the same key?"""
        if self.table is not None and other.table is not None:
            if self.table != other.table:
                return False
        if self.kind == "any" or other.kind == "any":
            return True
        a, b = self, other
        if b.kind == "exact" and a.kind != "exact":
            a, b = b, a
        if a.kind == "exact":
            if b.kind == "exact":
                return a.key == b.key
            if b.kind == "prefix":
                return a.key.startswith(b.key)
            # b is an interval span: a's key must be one of its renderings.
            if not a.key.startswith(b.key):
                return False
            rest = a.key[len(b.key):]
            return _is_int_repr(rest) and b.lo <= int(rest) <= b.hi
        if b.kind == "interval" and a.kind != "interval":
            a, b = b, a
        if a.kind == "interval":
            if b.kind == "interval":
                if a.key == b.key:
                    return a.lo <= b.hi and b.lo <= a.hi
                # Incomparable prefixes cannot render the same string.
                return a.key.startswith(b.key) or b.key.startswith(a.key)
            # b is a prefix fact.
            return a.key.startswith(b.key) or b.key.startswith(a.key)
        # prefix / prefix
        return a.key.startswith(b.key) or b.key.startswith(a.key)

    def describe(self) -> str:
        table = self.table if self.table is not None else "*"
        if self.kind == "exact":
            return f"{table}/{self.key}"
        if self.kind == "prefix":
            return f"{table}/{self.key}…"
        if self.kind == "interval":
            return f"{table}/{self.key}[{self.lo}..{self.hi}]"
        return f"{table}/*"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"table": self.table, "kind": self.kind}
        if self.kind in ("exact", "prefix", "interval"):
            out["key"] = self.key
        if self.kind == "interval":
            out["lo"], out["hi"] = self.lo, self.hi
        return out


@dataclass(frozen=True)
class KeyConstraint:
    """One static key constraint: which access-site keys are functions of
    which request arguments, plus an optional finite interval span."""

    table: Optional[str]
    access: str                     # "read" | "write"
    key: SymValue
    span: Optional[Tuple[str, int, int]] = None   # (prefix, lo, hi)

    @property
    def kind(self) -> str:
        if self.key.is_concrete():
            return "const"
        if self.key.input_only():
            return "exact"
        if self.span is not None:
            return "interval"
        if self.key.kind == "format" and self.key.payload and self.key.payload[0].input_only():
            return "prefix"
        return "any"

    def instantiate(self, env: Dict[str, Any]) -> KeyFact:
        """Bind request arguments, yielding the tightest KeyFact."""
        rendered = _resolve_sym(self.key, env)
        if rendered is not None:
            return KeyFact(self.table, "exact", key=rendered)
        if self.span is not None:
            prefix, lo, hi = self.span
            return KeyFact(self.table, "interval", key=prefix, lo=lo, hi=hi)
        prefix = _resolve_prefix(self.key, env)
        if prefix:
            return KeyFact(self.table, "prefix", key=prefix)
        return KeyFact(self.table, "any")

    def describe(self) -> str:
        shape = self.key.pattern()
        if self.kind == "interval" and self.span is not None:
            prefix, lo, hi = self.span
            shape = f"{prefix}[{lo}..{hi}]"
        table = self.table if self.table is not None else "<?>"
        return f"{self.access:<5} {table}/{shape}  ({self.kind})"


@dataclass(frozen=True)
class RequestFacts:
    """A conflict predicate instantiated with one concrete argument
    vector: the key facts this request may read and write."""

    function: str
    reads: Tuple[KeyFact, ...]
    writes: Tuple[KeyFact, ...]

    @property
    def precise(self) -> bool:
        """No fact degenerated to "any" — verdicts against this request
        are definite, never "unknown"."""
        return all(f.kind != "any" for f in self.reads + self.writes)

    def conflicts_with(self, other: "RequestFacts") -> bool:
        for mine in self.writes:
            for theirs in other.reads + other.writes:
                if mine.overlaps(theirs):
                    return True
        for theirs in other.writes:
            for mine in self.reads:
                if mine.overlaps(theirs):
                    return True
        return False

    def covers_reads(self, keys: Iterable[Tuple[str, str]]) -> bool:
        return all(any(f.covers(t, k) for f in self.reads) for t, k in keys)

    def covers_writes(self, keys: Iterable[Tuple[str, str]]) -> bool:
        return all(any(f.covers(t, k) for f in self.writes) for t, k in keys)


@dataclass(frozen=True)
class ConflictPredicate:
    """Argument-sensitive conflict predicate for one function: a set of
    static key constraints that :meth:`instantiate` binds to a concrete
    argument vector, so two concrete *requests* (not just two function
    names) can be tested for conflict."""

    function: str
    params: Tuple[str, ...]
    constraints: Tuple[KeyConstraint, ...]

    def kind_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in CONSTRAINT_KINDS}
        for c in self.constraints:
            counts[c.kind] += 1
        return counts

    @property
    def precise(self) -> bool:
        return all(c.kind != "any" for c in self.constraints)

    def instantiate(self, args: Sequence[Any]) -> RequestFacts:
        env = dict(zip(self.params, args))
        return RequestFacts(
            function=self.function,
            reads=tuple(c.instantiate(env) for c in self.constraints if c.access == "read"),
            writes=tuple(c.instantiate(env) for c in self.constraints if c.access == "write"),
        )


def _commutative_write_site(site: IRAccessSite) -> bool:
    """A write commutes when its value is the site's own read plus a
    storage-independent delta (read-modify-write increment).  The key
    must be input-only: two opaque keys may be different keys."""
    value = site.value
    while value is not None and value.kind == "incr":
        value = value.payload[0]
    if value is None or value.kind != "dbread":
        return False
    table_sym, key_sym = value.payload
    if not table_sym.is_concrete() or site.table is None:
        return False
    same_key = key_sym == site.key and site.key.input_only()
    return str(table_sym.payload) == site.table and same_key


@dataclass
class FunctionSummary:
    """Everything the router/runtime can know about a function statically."""

    name: str
    patterns: List[KeyPattern] = field(default_factory=list)
    #: Every access in one invocation renders one identical key string
    #: (constants + never-reassigned parameters only) — single shard under
    #: any shard map that hashes whole keys.
    single_key: bool = False
    #: The one concrete (table, key) when the function only ever touches a
    #: fully constant key: its shard is known at registration time.
    static_key: Optional[Tuple[str, str]] = None
    #: No write opcode anywhere in the function body.
    read_only: bool = False
    #: Every write is a read-modify-write increment of its own key: such
    #: writes commute with each other (reported, not yet exploited).
    commutative_writes: bool = False
    #: Argument-sensitive conflict predicate; None for functions that were
    #: never summarized from sites.
    predicate: Optional[ConflictPredicate] = None

    @property
    def lock_skippable(self) -> bool:
        """A read-only function whose every constraint instantiates to a
        definite (non-"any") key fact for *any* argument vector — exactly
        the requests the conflict detector can vouch for."""
        return (
            self.read_only
            and self.predicate is not None
            and self.predicate.precise
        )

    @property
    def tables(self) -> List[str]:
        return sorted({p.table for p in self.patterns if p.table is not None})

    def write_patterns(self) -> List[KeyPattern]:
        return [p for p in self.patterns if p.kind == "write"]

    def may_conflict(self, other: "FunctionSummary") -> bool:
        """True when self's writes may overlap other's reads or writes (or
        vice versa) — the classic read-write / write-write conflict test."""
        return conflict_witness(self, other) is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "patterns": [p.to_dict() for p in self.patterns],
            "single_key": self.single_key,
            "static_key": list(self.static_key) if self.static_key else None,
            "read_only": self.read_only,
            "commutative_writes": self.commutative_writes,
            "lock_skippable": self.lock_skippable,
            "constraint_kinds": self.predicate.kind_counts() if self.predicate else {},
        }


def _reassigned_params(func: WasmFunction) -> set:
    params = set(func.params)
    return {i.arg for i in func.instructions if i.op == Op.STORE and i.arg in params}


def summarize_function(
    func: WasmFunction, sites: Optional[Sequence[IRAccessSite]] = None
) -> FunctionSummary:
    """Build the static summary for one compiled function (f or f^rw)."""
    if sites is None:
        sites = extract_access_sites(func)
    summary = FunctionSummary(name=func.name)
    summary.patterns = list(dict.fromkeys(
        KeyPattern(
            table=site.table,
            pattern=site.key_pattern,
            const_prefix=site.key.const_prefix(),
            exact=site.key.is_concrete(),
            kind=site.kind,
        )
        for site in sites
    ))

    summary.read_only = not any(s.kind == "write" for s in sites)
    write_sites = [s for s in sites if s.kind == "write"]
    summary.commutative_writes = bool(write_sites) and all(
        _commutative_write_site(s) for s in write_sites
    )

    # An input-only key instantiates exactly; a span would only split
    # equal constraints apart.
    constraints = dict.fromkeys(
        KeyConstraint(
            table=site.table,
            access=site.kind,
            key=site.key,
            span=None if site.key.input_only() else site.span,
        )
        for site in sites
    )
    summary.predicate = ConflictPredicate(
        function=func.name, params=tuple(func.params), constraints=tuple(constraints)
    )

    if not sites:
        return summary

    reassigned = _reassigned_params(func)
    shapes = {(s.table, s.key_pattern) for s in sites}
    if (
        len(shapes) == 1
        and all(s.table is not None for s in sites)
        and all(s.key.input_only() for s in sites)
        and not any(_params_of(s.key) & reassigned for s in sites)
    ):
        summary.single_key = True
        only = sites[0]
        if only.key.is_concrete():
            summary.static_key = (only.table, str(only.key.payload))
    return summary


def _params_of(sym) -> set:
    if sym.kind == "param":
        return {sym.payload}
    if sym.kind == "format":
        out = set()
        for part in sym.payload:
            out |= _params_of(part)
        return out
    return set()


@dataclass
class ConflictMatrix:
    """Pairwise may-conflict verdicts over a set of function summaries."""

    names: List[str]
    pairs: Dict[Tuple[str, str], bool]

    def conflicts(self, a: str, b: str) -> bool:
        return self.pairs.get((a, b), self.pairs.get((b, a), True))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "names": list(self.names),
            "conflicting_pairs": sorted(
                [list(pair) for pair, hit in self.pairs.items() if hit]
            ),
        }

    def render(self) -> str:
        """Compact ASCII matrix (`x` = may conflict) for the CLI."""
        width = max((len(n) for n in self.names), default=1)
        lines = []
        header = " " * (width + 1) + " ".join(f"{i:>2d}" for i in range(len(self.names)))
        lines.append(header)
        for i, a in enumerate(self.names):
            cells = []
            for j, b in enumerate(self.names):
                if j < i:
                    cells.append("  ")
                else:
                    cells.append(" x" if self.conflicts(a, b) else " .")
            lines.append(f"{a:<{width}} {''.join(cells)}  [{i}]")
        return "\n".join(lines)


def build_conflict_matrix(summaries: Sequence[FunctionSummary]) -> ConflictMatrix:
    names = [s.name for s in summaries]
    pairs: Dict[Tuple[str, str], bool] = {}
    for i, a in enumerate(summaries):
        for b in summaries[i:]:
            pairs[(a.name, b.name)] = a.may_conflict(b)
    return ConflictMatrix(names=names, pairs=pairs)


def conflict_witness(
    a: FunctionSummary, b: FunctionSummary
) -> Optional[Tuple[str, KeyPattern, str, KeyPattern]]:
    """Why does a pair conflict?  Returns the first overlapping
    (writer name, writer pattern, reader name, touched pattern), or None
    when the pair cannot conflict."""
    for mine in a.write_patterns():
        for theirs in b.patterns:
            if _patterns_overlap(mine, theirs):
                return (a.name, mine, b.name, theirs)
    for theirs in b.write_patterns():
        for mine in a.patterns:
            if _patterns_overlap(theirs, mine):
                return (b.name, theirs, a.name, mine)
    return None
