"""The seeded input generator: reproducible, and every host pair it can
draw is servable by a K=2 flash-delivery connection."""

import itertools

import pytest

from socketstore.kmflash import AllocationFailure, allocate_disjoint_paths, deploy_mirror_paths
from socketstore.netsim import FlowId, Simulator, build_topology

import inputs

SEEDS = (1, 2, inputs.HELD_OUT_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_inputs(seed):
    assert inputs.spike_inputs(seed) == inputs.spike_inputs(seed)
    assert inputs.churn_inputs(seed) == inputs.churn_inputs(seed)
    assert inputs.store_inputs(seed) == inputs.store_inputs(seed)


def test_seeds_differ():
    assert inputs.churn_inputs(1).cycles != inputs.churn_inputs(2).cycles
    assert inputs.store_inputs(1).rpcs != inputs.store_inputs(2).rpcs


def test_store_mix_is_three_reads_to_one_write():
    rpcs = inputs.store_inputs(1).rpcs
    writes = sum(kind in ("AUTH", "BIND") for kind, _ in rpcs)
    assert writes == inputs.RPC_WRITES
    assert len(rpcs) - writes == 3 * writes


@pytest.mark.parametrize("seed", SEEDS)
def test_every_host_pair_admits_a_deployable_k2_allocation(seed):
    churn = inputs.churn_inputs(seed)
    drawn = set(churn.ramp) | {(src, dst) for _, src, dst in churn.cycles}
    assert drawn <= set(itertools.permutations(churn.hosts, 2))
    for src, dst in itertools.permutations(churn.hosts, 2):
        sim = Simulator(build_topology(churn.topology))
        pathset = allocate_disjoint_paths(sim.topology_snapshot(), src, dst, 2,
                                          inputs.CHURN_RATE_MBPS, 5.0)
        assert not isinstance(pathset, AllocationFailure), (src, dst, pathset)
        deployed = deploy_mirror_paths(sim, FlowId(src, dst, "probe"), pathset,
                                       inputs.CHURN_RATE_MBPS)
        assert not isinstance(deployed, AllocationFailure), (src, dst, deployed)
