"""Fleet simulation (Figure 1: one server, many devices).

The fleet runs on a discrete-event scheduler: one simulated clock,
live uplink/shard contention.  These tests pin the contract: a
1-client fleet is bit-identical to a solo run, the scheduler matches
closed-form single-server FIFO answers exactly, fault plans compose
with the live queue, and sharding the MC never changes architectural
state.  See docs/FLEET.md.
"""

import pytest

from repro.fleet import ClientTrace, RpcRecord, run_event_sim, simulate_fleet
from repro.net import FaultPlan, LinkModel, RetryPolicy
from repro.sim import DEFAULT_COSTS
from repro.softcache import (
    MemoryController,
    SoftCacheConfig,
    SoftCacheSystem,
)
from repro.softcache.debug import architectural_state
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def image():
    return build_workload("sensor", 0.05)


@pytest.fixture(scope="module")
def config():
    return SoftCacheConfig(tcache_size=8192, record_timeline=True)


def test_single_client(image, config):
    result = simulate_fleet(image, 1, config)
    assert result.n_clients == 1
    assert result.clients[0].report.exit_code == 0
    assert result.mean_queue_delay_s == 0.0 or \
        result.delayed_requests >= 0
    assert result.chunk_cache_sharing == 0.0  # nothing to share


def test_single_client_bit_identical_to_solo(image, config):
    """A 1-client event fleet IS the solo run: same simulated seconds
    (exactly — arrivals are derived from integer cycle counts, never
    accumulated float deltas) and same architectural digest."""
    solo = SoftCacheSystem(image, config)
    report = solo.run()
    fleet = simulate_fleet(image, 1, config)
    assert fleet.makespan_s == report.seconds
    assert fleet.clients[0].report.seconds == report.seconds
    assert fleet.clients[0].queue_delay_s == 0.0
    assert fleet.architectural_digest == architectural_state(solo)


def test_chunk_cache_sharing_grows_with_fleet(image, config):
    result = simulate_fleet(image, 8, config)
    # the server rewrote each chunk once; 7/8 of requests were cache hits
    assert result.mc_chunks_built * 8 == result.mc_requests
    assert result.chunk_cache_sharing == pytest.approx(7 / 8)


def test_clients_identical_results(image, config):
    result = simulate_fleet(image, 4, config, stagger_s=0.01)
    outputs = {c.report.output for c in result.clients}
    assert len(outputs) == 1
    translations = {c.translations for c in result.clients}
    assert len(translations) == 1


def test_stagger_spreads_load(image, config):
    burst = simulate_fleet(image, 6, config, stagger_s=0.0)
    spread = simulate_fleet(image, 6, config, stagger_s=0.05)
    # simultaneous boot queues requests; staggering removes the queue
    assert spread.mean_queue_delay_s <= burst.mean_queue_delay_s
    assert burst.delayed_requests > 0
    assert burst.max_queue_delay_s > 0


def test_low_load_fleet_never_waits(image, config):
    """Boots staggered by a whole solo run never overlap on the
    uplink: no request waits, and the makespan is the last client's
    boot plus its solo seconds, exactly."""
    solo = SoftCacheSystem(image, config).run()
    result = simulate_fleet(image, 4, config, stagger_s=solo.seconds)
    assert all(c.queue_delay_s == 0.0 for c in result.clients)
    assert result.delayed_requests == 0
    assert result.max_queue_delay_s == 0.0
    assert result.makespan_s == max(c.start_s + c.report.seconds
                                    for c in result.clients)


# -- closed-form oracles: synthetic traces, dyadic times, exact == -----

#: Wire time per RPC: a power of two, so every sum the scheduler forms
#: (k*W, 1.0 + k*W, 2.0 + k*W) is exact in binary floating point.
W = 2.0 ** -12
N_CLIENTS = 8


def _trace(cycles, total_cycles, *, shard=-1):
    records = [RpcRecord(start_cycles=c, kind="chunk", wire_s=W,
                         wire_bytes=0, traversals=1, shard=shard,
                         keys=()) for c in cycles]
    return ClientTrace(records=records, total_cycles=total_cycles)


def test_feedback_wave_closed_form():
    """n clients boot together and issue two RPCs, at 0 s and 1 s.
    Wave 1 queues FIFO (client k waits k*W); that wait shifts client
    k's second RPC to 1.0 + k*W, which spaces wave 2 out so it never
    queues.  A model without feedback re-collides wave 2 and doubles
    every figure (2*k*W waits, 2*(n-1) delayed requests)."""
    hz = int(DEFAULT_COSTS.cpu_hz)
    trace = _trace([0, hz], 2 * hz)
    out = run_event_sim([trace] * N_CLIENTS, [0.0] * N_CLIENTS,
                        costs=DEFAULT_COSTS)
    ks = range(N_CLIENTS)
    assert out.waits == [k * W for k in ks]
    assert out.delayed_requests == N_CLIENTS - 1
    assert out.busy_until == 1.0 + N_CLIENTS * W
    assert out.ends == [2.0 + k * W for k in ks]
    assert out.uplink_busy_s == 2 * N_CLIENTS * W


@pytest.mark.parametrize("service", [W, 3 * W])
def test_shard_tier_closed_form(service):
    """One simultaneous wave of chunk RPCs through the uplink and then
    one origin shard whose service time s >= W: the shard is the
    bottleneck, so client k waits k*W on the uplink plus k*(s - W) at
    the shard, k*s in all."""
    trace = _trace([0], int(DEFAULT_COSTS.cpu_hz), shard=0)
    out = run_event_sim([trace] * N_CLIENTS, [0.0] * N_CLIENTS,
                        costs=DEFAULT_COSTS, origin_service_s=service)
    assert out.waits == [k * service for k in range(N_CLIENTS)]
    assert out.shard_requests == [N_CLIENTS]
    assert out.shard_busy_s == [N_CLIENTS * service]
    assert out.max_shard_delay_s == (N_CLIENTS - 1) * (service - W)


def test_chaos_fleet_composes_with_event_queue(image, config):
    """PR 4 fault plans under the event scheduler: retries are live
    uplink load (more wire occupancy than the fault-free fleet), yet
    architectural state is bit-identical — transient faults shift
    timing, never execution."""
    clean = simulate_fleet(image, 4, config)
    chaos = simulate_fleet(
        image, 4, config, fault_plan=FaultPlan.chaos(seed=7),
        retry_policy=RetryPolicy(max_attempts=8,
                                 backoff_base_s=1e-4, jitter=0.0))
    assert chaos.link_retries > 0
    assert chaos.architectural_digest == clean.architectural_digest
    assert chaos.total_transfer_s > clean.total_transfer_s


def test_sharded_mc_is_architecturally_invisible(image, config):
    """Consistent-hash sharding repartitions the server tier without
    changing what any client executes or how much the tier serves."""
    mono = simulate_fleet(image, 6, config, shards=1)
    sharded = simulate_fleet(image, 6, config, shards=4)
    assert sharded.n_shards == 4
    assert len(sharded.shard_loads) == 4
    assert sharded.architectural_digest == mono.architectural_digest
    assert sharded.mc_requests == mono.mc_requests
    assert sharded.mc_chunks_built == mono.mc_chunks_built
    # every demand chunk RPC was routed to exactly one shard
    assert sum(s.requests for s in sharded.shard_loads) == \
        sum(s.requests for s in mono.shard_loads)
    # the ring spread the key space: no shard owns everything
    loaded = [s for s in sharded.shard_loads if s.requests > 0]
    assert len(loaded) > 1
    assert sharded.shard_balance >= 1.0


def test_edge_hub_shields_origin_shards(image, config):
    """A shared edge hub absorbs repeat chunk fetches before they
    reach the origin shards — and stays architecturally invisible."""
    plain = simulate_fleet(image, 6, config, shards=2)
    hubbed = simulate_fleet(image, 6, config, shards=2,
                            hub_capacity=64 * 1024)
    assert hubbed.hub_requests > 0
    assert hubbed.hub_hits > 0
    assert 0.0 < hubbed.hub_hit_rate <= 1.0
    assert hubbed.architectural_digest == plain.architectural_digest
    # hub hits never reach a shard FIFO
    assert sum(s.requests for s in hubbed.shard_loads) < \
        sum(s.requests for s in plain.shard_loads)


def test_slow_link_raises_utilization(image):
    fast = simulate_fleet(
        image, 4, SoftCacheConfig(tcache_size=8192,
                                  link=LinkModel(bandwidth_bps=10e6)))
    slow = simulate_fleet(
        image, 4, SoftCacheConfig(tcache_size=8192,
                                  link=LinkModel(bandwidth_bps=0.5e6)))
    assert slow.total_transfer_s > fast.total_transfer_s
    assert slow.link_utilization > fast.link_utilization


def test_shared_mc_validation(image, config):
    # scale 1.0 compiles to genuinely different code; 0.1 rounds to the
    # same program as 0.05 and the check is content-based, not identity
    other = build_workload("sensor", 1.0)
    mc = MemoryController(other)
    with pytest.raises(ValueError, match="different image"):
        SoftCacheSystem(image, config, shared_mc=mc)
    mc2 = MemoryController(image, granularity="proc")
    with pytest.raises(ValueError, match="granularity"):
        SoftCacheSystem(image, config, shared_mc=mc2)


def test_empty_fleet(image, config):
    """n_clients=0 is a degenerate fleet, not an error: every
    aggregate reads as zero and no division blows up."""
    empty = simulate_fleet(image, 0, config)
    assert empty.n_clients == 0
    assert empty.clients == []
    assert empty.makespan_s == 0.0
    assert empty.link_utilization == 0.0
    assert empty.mean_queue_delay_s == 0.0
    assert empty.chunk_cache_sharing == 0.0
    assert empty.shard_balance == 0.0
    assert empty.hub_hit_rate == 0.0
    assert empty.architectural_digest is None


def test_negative_clients_rejected(image, config):
    with pytest.raises(ValueError):
        simulate_fleet(image, -1, config)


def test_replication_preserves_server_accounting(image, config):
    """Replicated clients (beyond distinct_clients) replay captured
    traces, but the server tier is still billed for every demand
    fetch they would have issued."""
    small = simulate_fleet(image, 4, config, distinct_clients=2)
    big = simulate_fleet(image, 32, config, distinct_clients=2)
    assert big.distinct_clients == 2
    assert big.mc_chunks_built == small.mc_chunks_built
    assert big.mc_requests == big.mc_chunks_built * 32
    assert big.chunk_cache_sharing == pytest.approx(31 / 32)
