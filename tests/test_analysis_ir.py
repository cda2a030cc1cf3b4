"""The IR layer: CFG recovery, dataflow solving, the f^rw slice and the
f^rw optimizer.

The load-bearing tests are the corpus sweeps at the bottom: every
optimized slice body must derive the *identical* rw-set as the
unoptimized one on randomized seeded inputs, for strictly-not-more gas
(the optimizer's contract); the corpus replay must reject planted slicer
mutants (the oracle guards the slice); and the slice must be independent
of the interpreter's hash seed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_source,
    build_conflict_matrix,
    build_cfg,
    cross_validate,
    derive_rwset,
    extract_access_sites,
    optimize,
    slice_frw,
    static_gas,
    summarize_function,
    symbolic_analyze,
)
from repro.analysis.ir import Liveness, solve
from repro.analysis.ir import slice as ir_slice
from repro.apps import all_apps
from repro.bench.analysis import analysis_gate_failures, run_analysis_corpus
from repro.sim import RandomStreams
from repro.storage.kvstore import KVStore
from repro.wasm import VM, Instr, Op, compile_source

BRANCHY_SRC = '''
def f(x):
    if x > 0:
        y = 1
    else:
        y = 2
    return y
'''

LOOP_SRC = '''
def f(n):
    total = 0
    for i in range(n):
        total = total + i
    return total
'''


class TestCFG:
    def test_branchy_blocks_and_edges(self):
        cfg = build_cfg(compile_source(BRANCHY_SRC))
        assert len(cfg.blocks) >= 4  # entry, then, else, join
        entry = cfg.blocks[cfg.entry]
        assert len(entry.succs) == 2  # conditional terminator
        reach = cfg.reachable()
        assert cfg.entry in reach
        assert reach <= set(range(len(cfg.blocks)))

    def test_entry_dominates_everything(self):
        cfg = build_cfg(compile_source(BRANCHY_SRC))
        dom = cfg.dominators()
        for b in cfg.reachable():
            assert cfg.entry in dom[b]

    def test_loop_has_back_edge_and_members(self):
        cfg = build_cfg(compile_source(LOOP_SRC))
        assert cfg.back_edges()
        assert cfg.loop_blocks()

    def test_straight_line_has_no_back_edge(self):
        cfg = build_cfg(compile_source(BRANCHY_SRC))
        assert cfg.back_edges() == []

    def test_join_post_dominates_both_arms(self):
        cfg = build_cfg(compile_source(BRANCHY_SRC))
        pdom = cfg.post_dominators()
        ipdom = cfg.immediate_post_dominators()
        join = ipdom[cfg.entry]
        assert join is not None and not cfg.blocks[join].succs  # the return
        for b in cfg.reachable():
            assert join in pdom[b]
        assert ipdom[join] is None

    def test_static_gas_counts_busy_literal(self):
        plain = compile_source("def f():\n    return 1\n")
        busy = compile_source("def f():\n    busy(500)\n    return 1\n")
        assert static_gas(busy) >= static_gas(plain) + 500


class TestDataflow:
    def test_liveness_kills_redefined_var_across_back_edge(self):
        cfg = build_cfg(compile_source(LOOP_SRC))
        in_facts, _out = solve(cfg, Liveness())
        # `n` feeds range() in the loop header, so it is live at entry;
        # `total` is defined before any use at entry.
        assert "n" in in_facts[cfg.entry] or "total" not in in_facts[cfg.entry]

    def test_backward_orientation(self):
        # For a backward analysis (in, out) stay in control-flow
        # orientation: the exit block's OUT is the boundary (empty).
        cfg = build_cfg(compile_source(BRANCHY_SRC))
        _in, out = solve(cfg, Liveness())
        exits = [b.index for b in cfg.blocks if not b.succs]
        assert exits
        for b in exits:
            assert out[b] == frozenset()


class TestOptimizer:
    def _run(self, func, args):
        class Env:
            def db_get(self, t, k):
                return None

            def db_put(self, t, k, v):
                pass

        return VM(Env()).execute(func, list(args))

    def test_constant_folding_preserves_result(self):
        src = "def f(x):\n    y = 2 + 3\n    return y * x\n"
        func = compile_source(src)
        opt, report = optimize(func)
        assert report.constants_folded > 0
        for x in (0, 1, -7):
            assert self._run(opt, [x]).result == self._run(func, [x]).result
        assert self._run(opt, [4]).gas_used <= self._run(func, [4]).gas_used

    def test_dead_branch_removed(self):
        src = "def f():\n    if 1 > 2:\n        return 99\n    return 1\n"
        func = compile_source(src)
        opt, report = optimize(func)
        assert report.branches_removed + report.dead_instrs_removed > 0
        assert self._run(opt, []).result == 1

    def test_report_gas_accounting_matches(self):
        func = compile_source(BRANCHY_SRC)
        opt, report = optimize(func)
        assert report.static_gas_before == static_gas(func)
        assert report.static_gas_after == static_gas(opt)
        assert report.static_gas_after <= report.static_gas_before


class TestSlice:
    def test_dead_value_mutation_dropped_by_slice_not_optimizer(self):
        # A mutation that only shapes a written value: the slice drops it,
        # while the optimizer keeps it in f (dropping it could drop a trap).
        src = (
            "def f(k):\n"
            "    votes = db_get(\"t\", f\"v:{k}\")\n"
            "    votes[\"up\"] = votes[\"up\"] + 1\n"
            "    db_put(\"t\", f\"v:{k}\", votes)\n"
            "    return None\n"
        )
        f = compile_source(src)
        opt_f, _report = optimize(f)
        frw = slice_frw(f).frw
        assert any(i.op == Op.STORE_INDEX for i in opt_f.instructions)
        assert all(i.op != Op.STORE_INDEX for i in frw.instructions)
        assert static_gas(frw) < static_gas(opt_f)

    def test_slice_keeps_statements_feeding_keys(self):
        # The second read's key depends on the first statement's store.
        src = (
            "def f(k):\n"
            "    a = db_get(\"t\", f\"v:{k}\")\n"
            "    b = db_get(\"t\", f\"w:{a}\")\n"
            "    return b\n"
        )
        result = slice_frw(compile_source(src))
        assert result.dependent_reads
        rw, _gas = derive_rwset(result.frw, ["x"], lambda t, key: {"v:x": 5}.get(key))
        assert list(rw.reads) == [("t", "v:x"), ("t", "w:5")]

    def test_frw_returns_none(self):
        frw = slice_frw(compile_source(
            "def f(k):\n    v = db_get(\"t\", k)\n    return v\n"
        )).frw
        trace = VM(_NullEnv()).execute(frw, ["a"])
        assert trace.result is None
        assert [s.kind for s in extract_access_sites(frw)] == ["read"]


class _NullEnv:
    def db_get(self, t, k):
        return None

    def db_put(self, t, k, v):
        pass


class TestAccessAndSummary:
    def test_extractor_sees_read_and_write(self):
        src = (
            "def f(k):\n"
            "    v = db_get(\"t\", f\"a:{k}\")\n"
            "    db_put(\"t\", f\"a:{k}\", v)\n"
            "    return v\n"
        )
        sites = extract_access_sites(compile_source(src))
        kinds = sorted(s.kind for s in sites)
        assert kinds == ["read", "write"]
        assert all(s.table == "t" for s in sites)

    def test_single_key_affinity(self):
        src = "def f(k):\n    return db_get(\"t\", f\"a:{k}\")\n"
        summary = summarize_function(compile_source(src))
        assert summary.single_key
        assert summary.static_key is None

    def test_static_key_known_at_registration(self):
        src = "def f():\n    return db_get(\"t\", \"front-page\")\n"
        summary = summarize_function(compile_source(src))
        assert summary.single_key
        assert summary.static_key == ("t", "front-page")

    def test_distinct_patterns_defeat_affinity(self):
        src = (
            "def f(k):\n"
            "    a = db_get(\"t\", f\"a:{k}\")\n"
            "    b = db_get(\"t\", f\"b:{k}\")\n"
            "    return [a, b]\n"
        )
        assert not summarize_function(compile_source(src)).single_key

    def test_conflict_matrix_separates_tables(self):
        writer = summarize_function(compile_source(
            "def w(k):\n    db_put(\"t\", f\"a:{k}\", 1)\n    return None\n"
        ))
        reader = summarize_function(compile_source(
            "def r(k):\n    return db_get(\"t\", f\"a:{k}\")\n"
        ))
        other = summarize_function(compile_source(
            "def o(k):\n    return db_get(\"u\", f\"a:{k}\")\n"
        ))
        matrix = build_conflict_matrix([writer, reader, other])
        assert matrix.conflicts("w", "r")
        assert not matrix.conflicts("w", "o")
        assert not matrix.conflicts("r", "o")  # two readers never conflict


class TestCorpusDifferential:
    """The optimizer's contract, executed over every app function."""

    @pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
    def test_optimized_frw_is_equivalent_and_cheaper(self, app):
        store = KVStore(app.name)
        app.seed(store, RandomStreams(7), app.context)

        def read(table, key):
            item = store.get_or_none(table, key)
            return None if item is None else item.copy_value()

        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            rng = random.Random(f"differential:{fn.function_id}")
            for _ in range(5):
                args = fn.arggen(app.context, rng)
                rw_before, gas_before = derive_rwset(
                    analyzed.frw_unoptimized, list(args), read
                )
                rw_after, gas_after = derive_rwset(analyzed.frw, list(args), read)
                assert rw_after == rw_before, fn.function_id
                assert gas_after <= gas_before, fn.function_id

    @pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
    def test_three_engines_agree(self, app):
        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            verdict = cross_validate(
                analyzed.f, analyzed.frw, symbolic_analyze(fn.spec.source)
            )
            assert verdict.consistent, verdict.discrepancies
            ir_writes = any(s.kind == "write" for s in extract_access_sites(analyzed.f))
            assert analyzed.writes == ir_writes, fn.function_id

    def test_frw_gas_within_parent_ceilings(self):
        # Mean executed f^rw gas per function on the `analysis` scenario's
        # replay (seed 42, 10 inputs) before the IR slice replaced the AST
        # slicer and the optimizer's dead-statement strike: the slice may
        # only ever execute less.
        payload = run_analysis_corpus(10, 42)
        got = {
            r["function"]: r["replay"]["frw_gas_mean_optimized"]
            for r in payload["functions"]
        }
        assert got.keys() == FRW_GAS_CEILINGS.keys()
        over = {f: (got[f], c) for f, c in FRW_GAS_CEILINGS.items() if got[f] > c}
        assert not over, over
        assert analysis_gate_failures(payload) == []

    def test_frw_independent_of_hash_seed(self):
        # f^rw gas feeds virtual time, so a slice that iterated a set of
        # names in hash order would silently reorder its output.
        script = (
            "from repro.apps import all_apps\n"
            "from repro.analysis import analyze_source\n"
            "for app in all_apps():\n"
            "    for fn in app.functions:\n"
            "        print(analyze_source(fn.spec.source).frw.disassemble())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outs[0] == outs[1]
        assert outs[0].count("[frw]") == 27


#: Executed f^rw gas (mean over the `analysis` replay) per corpus function
#: under the AST slicer plus the optimizer's dead-statement strike.
FRW_GAS_CEILINGS = {
    "forum.homepage": 6, "forum.interact": 19.6, "forum.login": 8,
    "forum.post": 61.6, "forum.view": 18, "hotel.attractions": 18,
    "hotel.book": 47, "hotel.login": 8, "hotel.recommend": 8,
    "hotel.review": 14, "hotel.search": 170.2, "imageboard.favorite": 14,
    "imageboard.moderate": 16, "imageboard.tag_search": 188.8,
    "imageboard.upload": 76, "imageboard.view": 8, "pm.assign_task": 18,
    "pm.board": 8, "pm.comment_task": 14, "pm.complete_task": 162.6,
    "pm.create_task": 76, "pm.login": 8, "social.follow": 38,
    "social.login": 8, "social.post": 287.7, "social.profile": 18,
    "social.timeline": 8,
}


class _DropKeyDefinition(ir_slice._Slicer):
    """Forgets the reaching definition of the first local feeding an
    access key."""

    def _reaching_defs(self):
        super()._reaching_defs()
        for pc, instr in enumerate(self.f.instructions):
            if instr.op not in (Op.DB_GET, Op.DB_PUT) or pc not in self.operands:
                continue
            work, seen = list(self.operands[pc][:2]), set()
            while work:
                web = work.pop()
                if web in seen:
                    continue
                seen.add(web)
                for producer in self.producers.get(web, ()):
                    if self.defs.get(producer):
                        self.defs[producer] = set()
                        return
                    work.extend(self.operands.get(producer, ()))


class _DropControlEdge(ir_slice._Slicer):
    """Forgets that the first conditional branch controls its region."""

    def _regions(self):
        super()._regions()
        branches = [br for brs in self.guards.values() for br in brs]
        if branches:
            first = min(branches)
            for b in self.guards:
                self.guards[b] = [br for br in self.guards[b] if br != first]


class _DropEarlyExit(ir_slice._Slicer):
    """Emits the first guarded early exit — a ``return`` under a branch or
    a ``break`` out of a loop — as a fall-through.  (The corpus has no
    ``break``; its guarded returns play that part.)"""

    def emit(self, kept, webs):
        loops = self.cfg.loop_blocks()
        for b in sorted(self.guards):
            block = self.cfg.blocks[b]
            term = block.terminator
            in_loop = any(self.block_of[g] in loops for g in self.guards[b])
            leaves = term.op == Op.RETURN or (
                term.op == Op.JUMP and in_loop
                and self.cfg.block_at(term.arg) not in loops
            )
            if leaves and block.end < len(self.f.instructions):
                block.instrs[-1] = Instr(Op.JUMP, block.end)
                break
        return super().emit(kept, webs)


class TestReplayOracleCatchesMutants:
    """The corpus replay is what guards the slice: each planted slicer bug
    must fail the `analysis` scenario's gate."""

    @pytest.mark.parametrize(
        "mutant", [_DropKeyDefinition, _DropControlEdge, _DropEarlyExit],
        ids=lambda m: m.__name__.lstrip("_"),
    )
    def test_mutant_fails_the_gate(self, monkeypatch, mutant):
        monkeypatch.setattr(ir_slice, "_Slicer", mutant)
        payload = run_analysis_corpus(10, 42)
        wasted = [r for r in payload["functions"] if r["replay"]["wasted_locks_mean"] > 0]
        checks = payload["checks"]
        assert checks["unsound_executions"] or checks["rwset_mismatches"] or wasted
        assert analysis_gate_failures(payload)

    def test_dropped_break_over_approximates(self, monkeypatch):
        src = (
            "def f(items):\n"
            "    for x in items:\n"
            "        if x == \"stop\":\n"
            "            break\n"
            "        db_put(\"t\", f\"k:{x}\", 1)\n"
            "    return None\n"
        )
        f = compile_source(src)
        args = [["a", "stop", "b"]]
        expected, _gas = derive_rwset(slice_frw(f).frw, args, lambda t, k: None)
        monkeypatch.setattr(ir_slice, "_Slicer", _DropEarlyExit)
        mutated, _gas = derive_rwset(slice_frw(f).frw, args, lambda t, k: None)
        assert list(expected.writes) == [("t", "k:a")]
        assert list(mutated.writes) == [("t", "k:a"), ("t", "k:stop"), ("t", "k:b")]


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
