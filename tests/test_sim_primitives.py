"""Unit tests for channels."""

import pytest

from repro.sim import Channel, SimulationError, Simulator
from repro.sim.primitives import ChannelClosed


@pytest.fixture
def sim():
    return Simulator()


class TestChannel:
    def test_put_then_get(self, sim):
        ch = Channel(sim)
        ch.put("a")

        def proc():
            got = yield ch.get()
            return got

        assert sim.run_process(proc()) == "a"

    def test_get_blocks_until_put(self, sim):
        ch = Channel(sim)

        def getter():
            got = yield ch.get()
            return got, sim.now

        def putter():
            yield sim.timeout(5.0)
            ch.put("late")

        proc = sim.spawn(getter())
        sim.spawn(putter())
        sim.run()
        assert proc.result == ("late", 5.0)

    def test_fifo_order_items(self, sim):
        ch = Channel(sim)
        for item in ("a", "b", "c"):
            ch.put(item)

        def proc():
            out = []
            for _ in range(3):
                out.append((yield ch.get()))
            return out

        assert sim.run_process(proc()) == ["a", "b", "c"]

    def test_fifo_order_getters(self, sim):
        ch = Channel(sim)
        results = []

        def getter(i):
            got = yield ch.get()
            results.append((i, got))

        for i in range(3):
            sim.spawn(getter(i))

        def putter():
            yield sim.timeout(1.0)
            ch.put("x")
            ch.put("y")
            ch.put("z")

        sim.spawn(putter())
        sim.run()
        assert results == [(0, "x"), (1, "y"), (2, "z")]

    def test_len_reports_queued_items(self, sim):
        ch = Channel(sim)
        ch.put(1)
        ch.put(2)
        assert len(ch) == 2

    def test_close_fails_pending_getters(self, sim):
        ch = Channel(sim)

        def getter():
            try:
                yield ch.get()
            except ChannelClosed:
                return "closed"

        proc = sim.spawn(getter())
        sim.schedule(1.0, ch.close)
        sim.run()
        assert proc.result == "closed"

    def test_put_on_closed_channel_raises(self, sim):
        ch = Channel(sim)
        ch.close()
        with pytest.raises(SimulationError):
            ch.put(1)

    def test_get_on_closed_channel_fails(self, sim):
        ch = Channel(sim)
        ch.close()

        def getter():
            try:
                yield ch.get()
            except ChannelClosed:
                return "closed"

        assert sim.run_process(getter()) == "closed"
