"""Self-tests of the ledger.  Run with ``python -m pytest ledger/tests -q``
(tier-1 does not collect them: ``testpaths = ["tests"]``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent.parent
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import run  # noqa: E402  (puts src/ on the path)
import spec  # noqa: E402
import workloads  # noqa: E402
from probes import Probes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = ["--smoke", "--seconds", "0"]


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One full ``--smoke`` run of all six workloads, shared by the tests
    that only read it."""
    out = tmp_path_factory.mktemp("ledger") / "report.json"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), *SMOKE, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), done.stdout, elapsed


def test_smoke_is_quick(smoke_report):
    _report, _stdout, elapsed = smoke_report
    assert elapsed < 20.0, f"--smoke took {elapsed:.1f} s"


def test_manifest_matches_spec():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["ledger"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == spec.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    } == {n: (s.unit, s.better, s.seed_bound) for n, s in spec.END_TO_END.items()}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    } == {n: (u, b) for n, (u, b, _exact) in spec.PER_LAYER.items()}
    assert "setup_s" in spec.END_TO_END
    assert all(0 < s.seed_bound <= 0.25 for s in spec.END_TO_END.values())


def test_every_named_metric_appears_and_nothing_else(smoke_report):
    report, stdout, _ = smoke_report
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    assert set(report["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for workload, record in report["workloads"].items():
        assert NAME.fullmatch(workload)
        assert {m: v["unit"] for m, v in record["metrics"].items()} == named, workload
        for metric in record["metrics"]:
            assert NAME.fullmatch(metric)
            assert metric in stdout
        assert record["correct"] and record["metrics"]["invariants_ok"]["value"] == 1
        assert record["probes_missing"] == []
        for metric in spec.END_TO_END:
            assert record["metrics"][metric]["value"] > 0, (workload, metric)
    assert report["claim"] is None
    assert json.loads(stdout.strip().split("\n")[-1])["claim"] is None


def test_layers_are_separated(smoke_report):
    report, _, _ = smoke_report
    value = lambda w, m: report["workloads"][w]["metrics"][m]["value"]  # noqa: E731
    for workload in report["workloads"]:
        on_mesh = workload == "forum-mesh"
        assert (value(workload, "mesh.gossip_msgs_per_req") > 0) == on_mesh
        assert (value(workload, "mesh.self_share") > 0) == on_mesh
        on_router = workload == "readmix-sharded"
        assert (value(workload, "topology.shardmap.self_share") > 0) == on_router
        assert (value(workload, "analysis.self_share") > 0) == on_router
        on_raft = workload == "raft-faulted"
        assert (value(workload, "raft.commits_per_req") > 0) == on_raft
        assert (value(workload, "raft.self_share") > 0) == on_raft
        isolated = workload == "layers-isolated"
        assert (value(workload, "wasm.vm.gas_per_s") > 0) == isolated
    assert value("counter-contended", "core.runtime.backup_share") > 0.5
    assert value("social-closed", "core.runtime.backup_share") < 0.05


def exact_metrics(record):
    return {
        m: v["value"] for m, v in record["metrics"].items()
        if spec.is_exact(m)
    }


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_virtual_metrics_repeat_exactly(workload, seed):
    first = run.run_one(workload, seed, 0.0, None, True)
    second = run.run_one(workload, seed, 0.0, None, True)
    assert first["correct"] and second["correct"]
    assert exact_metrics(first) == exact_metrics(second)
    assert first["attempted"] == second["attempted"] and first["failed"] == second["failed"]


def test_planted_violation_fails_the_run(monkeypatch, capsys):
    from repro.errors import ConsistencyViolation

    def broken(records):
        raise ConsistencyViolation("planted by the self-test")

    monkeypatch.setattr(workloads, "check_strict_serializability", broken)
    status = run.main(["--workload", "social-closed", "--trace", "0", *SMOKE])
    last = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert status != 0
    assert last["correct"] is False
    assert last["metrics"]["invariants_ok"]["value"] == 0


def test_driver_line_has_the_contract_shape(capsys):
    status = run.main(["--workload", "counter-contended", "--seed", "3", "--trace", "1", *SMOKE])
    last = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert status == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(spec.PER_LAYER)
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert last["attempted"] >= 1 and last["failed"] == 0


def test_append_must_leave_the_benchmark_directory(tmp_path):
    with pytest.raises(SystemExit):
        run.main(["--workload", "social-closed", *SMOKE, "--append", str(LEDGER / "traj.jsonl")])
    target = tmp_path / "traj.jsonl"
    for _ in range(2):
        assert run.main(["--workload", "social-closed", "--trace", "0", *SMOKE,
                         "--append", str(target)]) == 0
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(lines) == 2
    assert {"git", "python", "nproc"} <= set(lines[0]["host"])
    assert lines[0]["workloads"]["social-closed"]["info"]["K"] == workloads.SMOKE_REPS


# -- probes -----------------------------------------------------------------


def test_missing_probe_target_is_reported_not_fatal(monkeypatch):
    import probes as probes_module

    gone = (("storage", "sync", "repro.storage", "KVStore.no_such_method"),)
    monkeypatch.setattr(probes_module, "TARGETS", probes_module.TARGETS + gone)
    with Probes() as p:
        pass
    assert p.missing == ["repro.storage:KVStore.no_such_method"]
    assert p.missing_layers() == ["storage"]
    assert p.share("storage") is None
    assert p.share("wasm.vm") is not None
    assert p.count("KVStore.no_such_method") is None


def test_probes_restore_what_they_patch():
    from repro.sim import Network, Simulator
    from repro.storage import cache, kvstore

    before = (Simulator.run, Network.serve, kvstore.fast_deepcopy, cache.fast_deepcopy)
    with Probes():
        assert Simulator.run is not before[0]
        assert kvstore.fast_deepcopy is not before[2]
    assert (Simulator.run, Network.serve, kvstore.fast_deepcopy, cache.fast_deepcopy) == before


def test_generator_probe_forwards_send_throw_and_return():
    p = Probes()
    seen = []

    def body():
        got = yield "first"
        seen.append(got)
        try:
            yield "second"
        except KeyError as exc:
            seen.append(type(exc).__name__)
        return "done"

    gen = p._delegate("storage", body())
    assert next(gen) == "first"
    assert gen.send("hello") == "second"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "done"
    assert seen == ["hello", "KeyError"]
    assert p.self_s["storage"] > 0


def test_self_time_excludes_probed_children():
    ticks = iter(range(100))
    p = Probes(clock=lambda: float(next(ticks)))
    inner = p._wrap_sync("storage", "inner", lambda: None, None)
    p.calls.update({"inner": 0, "outer": 0})
    outer = p._wrap_sync("core.runtime", "outer", inner, None)
    outer()
    # clock reads: outer start 0, inner start 1, inner end 2, outer end 3
    assert p.self_s["storage"] == 1.0
    assert p.self_s["core.runtime"] == 2.0
    assert p.total_s() == 3.0


# -- compare ----------------------------------------------------------------


def _report(tmp_path, name, **overrides):
    metrics = {
        "e2e_p50_ms": 100.0, "run_cpu_s": 1.0, "ok_share": 1.0,
        "sim.core.events_per_req": 30.0, "sim.core.self_share": 0.4,
    }
    metrics.update(overrides)
    record = {
        "seed": 42, "smoke": False, "info": {"run_cpu_s_all": [1.0, 1.01, 1.0, 1.02]},
        "metrics": {m: {"value": v, "unit": "x"} for m, v in metrics.items()},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"workloads": {"social-closed": record}}))
    return str(path)


def test_compare_applies_direction_and_bound(tmp_path, capsys):
    base = _report(tmp_path, "a")
    assert run.main(["compare", base, _report(tmp_path, "same", run_cpu_s=1.05)]) == 0
    assert run.main(["compare", base, _report(tmp_path, "slow", run_cpu_s=1.2)]) == 1
    assert run.main(["compare", base, _report(tmp_path, "fast", run_cpu_s=0.8)]) == 0
    assert "better" in capsys.readouterr().out
    # virtual metrics are exact per seed: any extra event is a regression
    assert run.main(["compare", base, _report(tmp_path, "ev", **{"sim.core.events_per_req": 30.01})]) == 1
    assert run.main(["compare", base, _report(tmp_path, "p50", e2e_p50_ms=100.9)]) == 0
    assert run.main(["compare", base, _report(tmp_path, "p50b", e2e_p50_ms=101.1)]) == 1
    assert run.main(["compare", base, _report(tmp_path, "ok", ok_share=0.9985)]) == 1
    # a probe that went missing, and a layer's unbounded host number
    capsys.readouterr()
    assert run.main(["compare", base, _report(tmp_path, "null", **{"sim.core.self_share": None})]) == 0
    assert run.main(["compare", base, _report(tmp_path, "share", **{"sim.core.self_share": 0.6})]) == 0
    assert capsys.readouterr().out.count("unresolved ") == 2
