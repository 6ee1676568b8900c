"""Scaling laws: how a run's work or memory grows with its size, measured as
counts and traced bytes, which are the same on every machine, not as time."""

import tracemalloc

import pytest

from socketstore import netsim
from socketstore.experiment import ExperimentConfig, run_experiment
from socketstore.fixtures import FLASH_DELIVERY_ID, evaluation_topology
from socketstore.netsim import FlowId, LatencyInjection, Packet, Simulator
from socketstore.store import BASELINE_MODULE_ID

from .conftest import DEFAULT_PATH, SECOND_PATH


def traced_peak_bytes(config: ExperimentConfig) -> int:
    """The most bytes that `tracemalloc` saw allocated at once during one run."""
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    SMALL, LARGE = 2_000, 20_000

    @pytest.mark.parametrize("module, bound", [(FLASH_DELIVERY_ID, 600),
                                               (BASELINE_MODULE_ID, 300)])
    def test_a_run_keeps_only_its_rows_per_seq(self, module, bound):
        """A run keeps each seq's CSV row and drops its copies' packets and
        records once the row is built. Keeping the records as well, as a
        reduction after the run must, costs about 990 B per seq in module
        mode and 560 B in baseline mode; one row is about 470 and 200 B."""
        run_experiment(ExperimentConfig(module=module, packet_count=10))  # one-time set-up
        small, large = (traced_peak_bytes(ExperimentConfig(module=module, packet_count=n))
                        for n in (self.SMALL, self.LARGE))
        per_seq = (large - small) / (self.LARGE - self.SMALL)
        assert per_seq < bound, f"{per_seq:.0f} B per seq"


def counted(monkeypatch, owner, name: str) -> list:
    """Replace `owner.name` by a wrapper that calls it and appends one entry per call."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestRouteWork:
    """A deploy compiles its route; an injection or a link removal rebuilds each
    deployed route once; a send compiles nothing, and one outside every
    injection window walks no hop."""

    @pytest.mark.parametrize("routes", [2, 20])
    def test_route_builds_follow_table_changes_not_sends(self, monkeypatch, routes):
        sim = Simulator(evaluation_topology())
        keys = [(FlowId("A", "B", f"f{i // 2}"), i % 2) for i in range(routes)]
        for flow, index in keys:
            sim.deploy_path(flow, (DEFAULT_PATH, SECOND_PATH)[index], index)
        builds = counted(monkeypatch, sim, "_route")
        walks = counted(monkeypatch, netsim, "_walk_delays")

        def send_all(sent_at_ms):
            for seq, (flow, index) in enumerate(keys):
                sim.send_packet(Packet(flow, seq, 512, sent_at_ms, 5.0, index))

        send_all(0.0)
        assert (len(builds), len(walks)) == (0, 0)
        sim.inject_latency(LatencyInjection("R4-B", 3.0, 100.0, 200.0))
        assert (len(builds), len(walks)) == (routes, 0)
        send_all(0.0)  # outside the window on every route
        assert (len(builds), len(walks)) == (routes, 0)
        send_all(150.0)  # inside it on the routes over R4-B, one per two keys
        assert (len(builds), len(walks)) == (routes, routes // 2)
        sim.remove_link("R3-R5")  # cuts the routes on SECOND_PATH
        assert len(builds) == 2 * routes
        send_all(0.0)
        assert (len(builds), len(walks)) == (2 * routes, routes // 2)
