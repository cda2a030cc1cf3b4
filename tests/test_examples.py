"""Smoke tests: every shipped example — and the one maintained script
under ``benchmarks/`` — must run cleanly end-to-end."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "path=miss" in out
        assert "path=speculative" in out
        assert "version 2" in out

    def test_hotel_booking_race(self):
        out = run_example("hotel_booking.py")
        assert "strictly serializable" in out
        assert out.count("'ok': True") == 1  # exactly one winner

    def test_failure_injection(self):
        out = run_example("failure_injection.py")
        assert out.count("PASS") == 3
        assert "All failure scenarios behaved as the paper specifies." in out

    @pytest.mark.slow
    def test_social_network(self):
        out = run_example("social_network.py", timeout=420.0)
        assert "Improvement (%)" in out
        assert "Per-region latency" in out

    def test_analyze_functions(self):
        out = run_example("analyze_functions.py")
        assert "All 27 functions" in out
        assert "social.post" in out
        assert "[dependent]" in out

    @pytest.mark.slow
    def test_trace_breakdown(self):
        out = run_example("trace_breakdown.py", timeout=420.0)
        assert "0 orphans" in out
        assert "phase.spec_overlap" in out
        assert "Critical-path signatures" in out
        assert "identical summaries: True" in out


def test_profile_kernel_script():
    """``benchmarks/profile_kernel.py`` is run by hand before a kernel
    optimisation is claimed; nothing else executes it, so a renamed
    harness call would otherwise rot unseen."""
    out = run_example(os.path.join(ROOT, "benchmarks", "profile_kernel.py"),
                      "--requests", "100", "--top", "3")
    assert "fig4 x100 seed=42: e2e median" in out
    assert "== top 3 by cumulative time ==" in out
