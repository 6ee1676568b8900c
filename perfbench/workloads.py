"""The three benchmark workloads, driven through the public API of
`socketstore`.

Each workload is a closed loop in one process: the next request is sent only
after the previous one returns. A run repeats rounds of set-up, measure and
finish. Set-up builds fresh state from the seeded inputs, so every round
measures the same work and memory does not grow with the number of rounds.
Finish releases the state and runs the output checks; a failed check raises
CheckFailed and fails the run. Operations are timed with the yardstick's
clock, which leaves out the slices it runs (see `yardstick.py`).

Layer calls go through module attributes (`experiment.run_experiment`,
`cli.main`) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from socketstore import cli, experiment
from socketstore.dsa import ConnectOptions, DsaClient
from socketstore.fixtures import (
    EVALUATION_TOPOLOGY,
    FLASH_DELIVERY_ID,
    flash_delivery_manifest,
)
from socketstore.netsim import Simulator, build_topology
from socketstore.store import BASELINE_MODULE_ID, SocketStore
from socketstore.wire import (
    LocalTransport,
    StoreProtocol,
    StoreServer,
    TCPTransport,
    TransportError,
)

import inputs as gen
from checkout import OUT_DIR
from yardstick import Yardstick, trimmed_mean

PAYLOAD = b"x" * 512
REVIEWER = "bench-review-board"


class CheckFailed(Exception):
    """An output of the program is wrong; the run's numbers do not count."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Metric(NamedTuple):
    value: float
    unit: str
    samples: int


@dataclass
class Samples:
    """What one pass of a workload measured, pooled over its rounds."""

    times_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    gauges: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0  # measured rounds
    yardstick: Yardstick = field(default_factory=Yardstick)

    def record(self, key: str, seconds: float) -> None:
        self.times_ms[key].append(seconds * 1e3)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency(samples: Samples, key: str, pct: int) -> Metric:
    values = samples.times_ms[key]
    return Metric(percentile(values, pct), "ms", len(values))


def at_reference(samples: Samples, key: str) -> Metric:
    """Trimmed mean time of one operation, at the yardstick's reference
    speed."""
    values = samples.times_ms[key]
    return Metric(trimmed_mean(values) * samples.yardstick.scale(), "ms", len(values))


def rate(samples: Samples, count: int, keys: tuple[str, ...], unit: str,
         at_ref: bool = False) -> Metric:
    """`count` items over the total time of the operations under `keys`;
    with `at_ref`, at the yardstick's reference speed."""
    busy_s = sum(sum(samples.times_ms[key]) for key in keys) / 1e3
    ops = sum(len(samples.times_ms[key]) for key in keys)
    scale = samples.yardstick.scale() if at_ref else 1.0
    return Metric(count / busy_s / scale, unit, ops)


def seeded_tokens(seed: int):
    rng = random.Random(seed)
    return lambda: f"tok-{rng.getrandbits(64):016x}"


def publish_flash_delivery(store: SocketStore) -> None:
    manifest = flash_delivery_manifest(store.library)
    store.register_specialist(manifest.author)
    store.submit_module(manifest)
    store.start_review(manifest.module_id, REVIEWER)
    store.review_decision(manifest.module_id, "accept", REVIEWER)


# -- spike-stream ---------------------------------------------------------------


class SpikeStream:
    """The paper's latency-spike experiment at 10^4 packets, once through the
    flash-delivery module (K=2), then BASELINE_REPEATS times over the bare
    single path."""

    name = "spike-stream"
    # end-to-end metric of the benchmark -> metric of this workload
    GATED = {"throughput_per_s": "stream_pkt_per_s_at_ref",
             "op_ms": "stream_run_ms_at_ref",
             "bypass_ms": "baseline_run_ms_at_ref"}
    TRACED = ("netsim.Simulator.send_packet", "netsim.Simulator.topology_snapshot",
              "netsim.Simulator.deploy_path", "netsim.Simulator.reserve_capacity",
              "dsa.DedupReceiver.offer", "dsa.Connection.send", "dsa.DsaClient.connect",
              "dsa.Connection.close", "kmflash.allocate_disjoint_paths",
              "kmflash.deploy_mirror_paths", "store.SocketStore.instantiate",
              "wire.StoreProtocol.handle", "experiment.run_experiment",
              "experiment.render_csv")
    BASELINE_VIOLATIONS = 20
    # a baseline run is about 7x shorter than a module run; repeating it
    # steadies its median
    BASELINE_REPEATS = 3

    def __init__(self, seed: int):
        self.inputs = gen.spike_inputs(seed)
        self._first_csv: dict[str, str] = {}

    def config(self, module: str, packets: int) -> experiment.ExperimentConfig:
        i = self.inputs
        return experiment.ExperimentConfig(
            module=module, packet_count=packets, gap_ms=i.gap_ms, deadline_ms=i.deadline_ms,
            injection=experiment.InjectionConfig(i.link, i.extra_ms, i.start_ms, i.end_ms),
            k=i.k, seed=i.seed,
        )

    def setup(self):
        """Warm-up: the paper's own 100-packet run in both modes."""
        for module in (FLASH_DELIVERY_ID, BASELINE_MODULE_ID):
            report = experiment.run_experiment(self.config(module, gen.PAPER_PACKETS))
            self.check_report(module, report)
        return None

    def measure(self, state, samples: Samples) -> None:
        clock = samples.yardstick.clock
        runs = [(FLASH_DELIVERY_ID, "stream")]
        runs += [(BASELINE_MODULE_ID, "baseline")] * self.BASELINE_REPEATS
        for module, key in runs:
            config = self.config(module, self.inputs.packet_count)
            # each run starts on a collected heap, so that garbage left by the
            # previous run is not collected on its time
            gc.collect()
            start = clock()
            report = experiment.run_experiment(config)
            text = experiment.render_csv(report)
            elapsed = clock() - start
            samples.record(f"{key}_run", elapsed)
            samples.attempted += config.packet_count
            if module == FLASH_DELIVERY_ID:
                samples.failed += report.stats.losses + report.stats.deadline_violations
            self.check_report(module, report)
            check(experiment.stats_from_csv(text, config.deadline_ms) == report.stats,
                  f"{module}: stats recomputed from the CSV differ from the report")
            first = self._first_csv.setdefault(module, text)
            check(text == first, f"{module}: CSV differs between repeats of one seed")

    def check_report(self, module: str, report) -> None:
        stats = report.stats
        if module == FLASH_DELIVERY_ID:
            check(report.mode == "module", f"flash-delivery ran in {report.mode} mode")
            check(stats.losses == 0 and stats.deadline_violations == 0,
                  f"flash-delivery: {stats.losses} losses, "
                  f"{stats.deadline_violations} violations")
        else:
            check(stats.losses == 0 and stats.deadline_violations == self.BASELINE_VIOLATIONS,
                  f"baseline: {stats.losses} losses, {stats.deadline_violations} violations, "
                  f"expected {self.BASELINE_VIOLATIONS}")

    def finish(self, state, samples: Samples) -> None:
        pass

    @staticmethod
    def metrics(s: Samples) -> dict[str, Metric]:
        packets = gen.SPIKE_PACKETS
        return {
            "stream_pkt_per_s": rate(s, packets * len(s.times_ms["stream_run"]),
                                     ("stream_run",), "packets/s"),
            "baseline_pkt_per_s": rate(s, packets * len(s.times_ms["baseline_run"]),
                                       ("baseline_run",), "packets/s"),
            "stream_pkt_per_s_at_ref": rate(s, packets * len(s.times_ms["stream_run"]),
                                            ("stream_run",), "packets/s", at_ref=True),
            "stream_run_ms_at_ref": at_reference(s, "stream_run"),
            "baseline_run_ms_at_ref": at_reference(s, "baseline_run"),
        }


# -- instance-churn --------------------------------------------------------------


@dataclass
class _ChurnState:
    sim: Simulator
    store: SocketStore
    clients: dict[str, DsaClient]
    tokens: dict[str, str]
    live: list = field(default_factory=list)


def alias_of(host: str) -> str:
    return f"dev-{host}"


class InstanceChurn:
    """About 200 live flash-delivery connections on a seeded 8x8 grid; each
    cycle closes one, connects a new one, sends one packet on it and moves
    simulated time on by 1 ms."""

    name = "instance-churn"
    GATED = {"throughput_per_s": "churn_cycles_per_s_at_ref",
             "op_ms": "connect_ms_at_ref",
             "bypass_ms": "close_ms_at_ref"}
    TRACED = ("netsim.Simulator.send_packet", "netsim.Simulator.topology_snapshot",
              "netsim.Simulator.deploy_path", "netsim.Simulator.retract_path",
              "netsim.Simulator.reserve_capacity", "dsa.DedupReceiver.offer",
              "dsa.Connection.send", "dsa.DsaClient.connect", "dsa.Connection.close",
              "kmflash.allocate_disjoint_paths", "kmflash.deploy_mirror_paths",
              "agents.AgentRuntime.spawn_agent", "agents.AgentRuntime.destroy_agent",
              "store.SocketStore.instantiate", "store.SocketStore.teardown_instance",
              "store.SocketStore.log_action", "wire.StoreProtocol.handle")

    def __init__(self, seed: int, live: int = gen.LIVE_CONNECTIONS,
                 cycles: int = gen.ROUND_CYCLES):
        self.inputs = gen.churn_inputs(seed, live, cycles)
        self.options = ConnectOptions(k=2, rate_mbps=gen.CHURN_RATE_MBPS, max_latency_ms=5.0)

    def _connect(self, state: _ChurnState, src: str, dst: str):
        return state.clients[src].connect(alias_of(dst), FLASH_DELIVERY_ID,
                                          state.tokens[src], self.options)

    def setup(self) -> _ChurnState:
        i = self.inputs
        sim = Simulator(build_topology(i.topology))
        store = SocketStore(sim=sim, token_factory=seeded_tokens(i.token_seed))
        publish_flash_delivery(store)
        protocol = StoreProtocol(store)
        state = _ChurnState(sim, store, {}, {})
        for host in i.hosts:
            client = DsaClient(host, sim, LocalTransport(protocol), app_id=f"app-{host}")
            client.bind(alias_of(host))
            state.clients[host] = client
            state.tokens[host] = store.purchase(client.app_id, FLASH_DELIVERY_ID).token
        for src, dst in i.ramp:
            conn = self._connect(state, src, dst)
            state.live.append(conn)
            check(conn.mode == "module",
                  f"ramp connect {src}->{dst} fell back: {conn.failure_reason}")
        return state

    def measure(self, state: _ChurnState, samples: Samples) -> None:
        clock = samples.yardstick.clock
        sim = state.sim
        for index, src, dst in self.inputs.cycles:
            start = clock()
            state.live.pop(index).close()
            closed = clock()
            conn = self._connect(state, src, dst)
            connected = clock()
            records = conn.send(PAYLOAD)
            sim.run_until(sim.now_ms + 1.0)
            end = clock()
            samples.record("close", closed - start)
            samples.record("connect", connected - closed)
            samples.record("cycle", end - start)
            state.live.append(conn)
            samples.attempted += 3
            samples.failed += (conn.mode != "module") + (not any(r.delivered for r in records))
        # state held per live connection at steady churn
        live = len(state.live)
        reserved = sum(sim.link_load_mbps(link) for link in sim.topology.links)
        samples.gauges["agents.live"] = len(state.store.runtime.agents) / live
        samples.gauges["netsim.rules"] = len(sim.all_rules()) / live
        samples.gauges["netsim.reservations"] = reserved / gen.CHURN_RATE_MBPS / live

    def finish(self, state: _ChurnState, samples: Samples) -> None:
        while state.live:
            state.live.pop().close()
        sim = state.sim
        check(not sim.all_rules(), f"{len(sim.all_rules())} rules left after closing all")
        loaded = [link for link in sim.topology.links if sim.link_load_mbps(link) != 0]
        check(not loaded, f"{len(loaded)} links still carry reservations after closing all")
        check(not state.store.runtime.agents,
              f"{len(state.store.runtime.agents)} agents left after closing all")

    @staticmethod
    def metrics(s: Samples) -> dict[str, Metric]:
        cycles = s.times_ms["cycle"]
        return {
            "churn_cycles_per_s": Metric(1e3 * len(cycles) / sum(cycles), "cycles/s",
                                         len(cycles)),
            "connect_p50_ms": latency(s, "connect", 50),
            "connect_p90_ms": latency(s, "connect", 90),
            "close_p50_ms": latency(s, "close", 50),
            "churn_cycles_per_s_at_ref": rate(s, len(cycles), ("cycle",), "cycles/s",
                                              at_ref=True),
            "connect_ms_at_ref": at_reference(s, "connect"),
            "close_ms_at_ref": at_reference(s, "close"),
        }


# -- persisted-store ---------------------------------------------------------------

APP = "bench-app"
ENDPOINT_A = {"address": "A", "port": 5000, "nic": 0}
INSTANCE_INPUTS = {
    "endpointA": ENDPOINT_A,
    "endpointB": {"address": "B", "port": 5000, "nic": 0},
    "K": 2, "rate": 10.0, "max_latency": 5.0,
}
REPLY_KIND = {"RESOLVE": "RESOLVE_OK", "COST": "COST_REPORT",
              "AUTH": "AUTH_OK", "BIND": "BIND_OK"}
WRITES = ("AUTH", "BIND")
RPC_KEYS = ("rpc_read", "rpc_write")
CLI_KEYS = ("cli_read", "cli_write")


@dataclass
class _StoreState:
    path: Path
    server: StoreServer
    thread: threading.Thread
    client: TCPTransport
    token: str
    instance_id: str
    expected_log: int
    measured: bool = False

    def stop_server(self) -> None:
        if not self.thread.is_alive():
            return
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        check(not self.thread.is_alive(), "store server thread did not stop")


class PersistedStore:
    """Phase 1: a TCP client runs device RPCs, reads and writes 3:1, against a
    served store while its action log grows from empty to about 10^3
    entries. Phase 2: the server stops and in-process CLI calls read and
    write the same data file."""

    name = "persisted-store"
    GATED = {"throughput_per_s": "rpc_per_s_at_ref",
             "op_ms": "rpc_write_ms_at_ref",
             "bypass_ms": "rpc_read_ms_at_ref"}
    TRACED = ("store.SocketStore.log_action", "store.SocketStore.load",
              "moduledef.manifest_from_doc", "wire.StoreProtocol.handle",
              "wire.TCPTransport.request", "cli.main")

    def __init__(self, seed: int, writes: int = gen.RPC_WRITES, prefill: int = 0):
        self.inputs = gen.store_inputs(seed, writes)
        self.prefill = prefill  # log entries made before the file is first written
        self._rounds = 0

    def setup(self) -> _StoreState:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"store-{os.getpid()}-{self._rounds}.json"
        self._rounds += 1
        path.unlink(missing_ok=True)
        store = SocketStore(token_factory=seeded_tokens(self.inputs.token_seed))
        store.attach_network(Simulator(build_topology(EVALUATION_TOPOLOGY)))
        publish_flash_delivery(store)
        token = store.purchase(APP, FLASH_DELIVERY_ID).token
        for _ in range(self.prefill):
            store.authorize(token, FLASH_DELIVERY_ID)
        # the next logged action writes the whole store to the file
        store.data_path = str(path)
        instance = store.instantiate(token, FLASH_DELIVERY_ID, INSTANCE_INPUTS)
        for alias in self.inputs.aliases:
            store.bind_alias(alias, [ENDPOINT_A], f"{APP}@{ENDPOINT_A['address']}")
        server = StoreServer(store)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  name="store-server")
        thread.start()
        state = _StoreState(path, server, thread, TCPTransport(*server.address), token,
                            instance.instance_id, expected_log=len(store.log))
        try:
            reply = state.client.request({"kind": "HELLO", "app_id": APP})
            check(reply.get("kind") == "HELLO_OK", f"HELLO answered {reply}")
        except BaseException:
            state.stop_server()
            raise
        return state

    def _message(self, kind: str, alias: str, state: _StoreState) -> dict:
        if kind == "RESOLVE":
            return {"kind": kind, "alias": alias}
        if kind == "COST":
            return {"kind": kind, "instance_id": state.instance_id}
        if kind == "AUTH":
            return {"kind": kind, "token": state.token, "module_id": FLASH_DELIVERY_ID}
        return {"kind": kind, "alias": alias, "connectivity": [ENDPOINT_A]}

    def measure(self, state: _StoreState, samples: Samples) -> None:
        clock = samples.yardstick.clock
        state.measured = True
        for kind, alias in self.inputs.rpcs:
            message = self._message(kind, alias, state)
            start = clock()
            try:
                ok = state.client.request(message).get("kind") == REPLY_KIND[kind]
            except TransportError:
                ok = False
            elapsed = clock() - start
            write = kind in WRITES
            samples.record("rpc_write" if write else "rpc_read", elapsed)
            samples.attempted += 1
            samples.failed += not ok
            state.expected_log += write  # every handled write logs one action
        state.stop_server()

        data = ["--data", str(state.path)]
        for command, query in self.inputs.cli:
            if command == "search":
                argv = data + ["search", query]
            else:
                argv = data + ["authorize", "--token", state.token,
                               "--module", FLASH_DELIVERY_ID]
            out = io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            elapsed = clock() - start
            samples.record(f"cli_{'read' if command == 'search' else 'write'}", elapsed)
            samples.attempted += 1
            samples.failed += code != 0
            if command == "authorize":
                state.expected_log += 1
                check(out.getvalue().strip() == "allow",
                      f"CLI authorize printed {out.getvalue().strip()!r}, expected 'allow'")

    def finish(self, state: _StoreState, samples: Samples) -> None:
        state.stop_server()
        try:
            entries = len(SocketStore(data_path=str(state.path)).log)
            if state.measured:
                samples.gauges["store.log_entries"] = entries
                samples.gauges["store.file_bytes"] = state.path.stat().st_size
            check(entries == state.expected_log,
                  f"reopened store has {entries} log entries, expected {state.expected_log}")
        finally:
            state.path.unlink(missing_ok=True)

    @staticmethod
    def metrics(s: Samples) -> dict[str, Metric]:
        rpcs = sum(len(s.times_ms[key]) for key in RPC_KEYS)
        clis = sum(len(s.times_ms[key]) for key in CLI_KEYS)
        return {
            "rpc_read_p50_ms": latency(s, "rpc_read", 50),
            "rpc_read_p90_ms": latency(s, "rpc_read", 90),
            "rpc_write_p50_ms": latency(s, "rpc_write", 50),
            "rpc_write_p90_ms": latency(s, "rpc_write", 90),
            "cli_read_p50_ms": latency(s, "cli_read", 50),
            "cli_write_p50_ms": latency(s, "cli_write", 50),
            "rpc_per_s": rate(s, rpcs, RPC_KEYS, "requests/s"),
            "cli_calls_per_s": rate(s, clis, CLI_KEYS, "calls/s"),
            "rpc_per_s_at_ref": rate(s, rpcs, RPC_KEYS, "requests/s", at_ref=True),
            "rpc_write_ms_at_ref": at_reference(s, "rpc_write"),
            "rpc_read_ms_at_ref": at_reference(s, "rpc_read"),
        }


WORKLOADS = {w.name: w for w in (SpikeStream, InstanceChurn, PersistedStore)}
