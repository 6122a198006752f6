"""Fleet simulation (Figure 1: one server, many devices).

The fleet runs on a discrete-event scheduler: one simulated clock,
live uplink/shard contention.  These tests pin the contract: a
1-client fleet is bit-identical to a solo run, the scheduler matches
closed-form single-server FIFO answers exactly and equals a plain
reference heap loop on randomized traces, fault plans compose with the
live queue, and sharding the MC never changes architectural state.
See docs/FLEET.md.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    ClientTrace,
    MCProbe,
    RpcRecord,
    SimOutcome,
    run_event_sim,
    simulate_fleet,
)
from repro.net import FaultPlan, LinkModel, RetryPolicy
from repro.net.hub import LruChunkCache
from repro.obs import FlightRecorder
from repro.sim import DEFAULT_COSTS
from repro.softcache import (
    MemoryController,
    SoftCacheConfig,
    SoftCacheSystem,
)
from repro.softcache.debug import architectural_state
from repro.softcache.update import derive_patched_image
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


def test_out_of_tier_shard_rejected():
    """A record naming a shard the tier lacks is a capture/tier
    mismatch: the replay refuses it instead of billing shard 0."""
    trace = _trace([0], 1000, shard=2)
    with pytest.raises(ValueError, match="shard 2"):
        run_event_sim([trace], [0.0], costs=DEFAULT_COSTS, n_shards=2)


def test_hub_misses_a_changed_chunk_after_publish(image):
    """The probe stages hub keys the way the hub forms them: after a
    publish a chunk is keyed by its serving epoch, so the edge hub
    cannot answer a post-publish fetch from the pre-publish entry."""
    mc = MemoryController(image)
    probe = MCProbe(mc)
    patched = derive_patched_image(image, seed=1)
    orig = image.text_base + next(
        off for off in range(0, len(image.text), 4)
        if image.text[off:off + 4] != patched.text[off:off + 4])
    before = mc.serve_chunk(orig)
    shard, keys_before = probe.take()
    mc.publish(patched)
    after = mc.serve_chunk(orig)
    _, keys_after = probe.take()
    assert before.words != after.words
    assert keys_before[0][0] != keys_after[0][0]
    trace = ClientTrace(records=[
        RpcRecord(start_cycles=c, kind="chunk", wire_s=W, wire_bytes=0,
                  traversals=1, shard=shard, keys=keys)
        for c, keys in ((0, keys_before), (10_000, keys_after))],
        total_cycles=20_000)
    out = run_event_sim([trace], [0.0], costs=DEFAULT_COSTS,
                        hub_capacity=64 * 1024)
    assert out.hub_requests == 2
    assert out.hub_hits == 0
    assert out.shard_requests == [2]


# -- randomized differential: the replay kernel vs a reference loop ----

def reference_event_sim(traces, boots, *, costs, n_shards=1,
                        origin_service_s=0.0, hub_capacity=0):
    """The straightforward heap loop the replay kernel must equal:
    ``(arrival, push order, client)`` events, one record at a time,
    hub touch on a demand hit and an insert of every key."""
    cts = costs.cycles_to_seconds
    n = len(traces)
    idx, waits, ends = [0] * n, [0.0] * n, [0.0] * n
    heap, seq = [], 0
    for c in range(n):
        if traces[c].records:
            t = boots[c] + cts(traces[c].records[0].start_cycles)
            heap.append((t, seq, c))
            seq += 1
        else:
            ends[c] = boots[c] + cts(traces[c].total_cycles)
    heapq.heapify(heap)
    uplink_free = uplink_busy = 0.0
    shard_free = [0.0] * n_shards
    shard_busy = [0.0] * n_shards
    shard_req = [0] * n_shards
    hub = LruChunkCache(hub_capacity) if hub_capacity > 0 else None
    hub_requests = hub_hits = q_n = delayed = 0
    q_total = q_max = s_total = s_max = 0.0
    while heap:
        t, _, c = heapq.heappop(heap)
        r = traces[c].records[idx[c]]
        begin = max(t, uplink_free)
        du = begin - t
        uplink_free = begin + r.wire_s
        uplink_busy += r.wire_s
        ds = 0.0
        if r.shard >= 0:
            at_hub = False
            if hub is not None:
                hub_requests += 1
                if r.keys and r.keys[0][0] in hub:
                    hub.touch(r.keys[0][0])
                    hub_hits += 1
                    at_hub = True
            if not at_hub:
                shard_req[r.shard] += 1
                if origin_service_s > 0.0:
                    arrive = begin + r.wire_s
                    sbegin = max(arrive, shard_free[r.shard])
                    ds = sbegin - arrive
                    shard_free[r.shard] = sbegin + origin_service_s
                    shard_busy[r.shard] += origin_service_s
                    s_total += ds
                    s_max = max(s_max, ds)
            if hub is not None:
                for key, size in r.keys:
                    hub.insert(key, size)
        wait = du + ds
        q_n += 1
        q_total += wait
        q_max = max(q_max, wait)
        delayed += wait > 0
        waits[c] += wait
        idx[c] += 1
        records = traces[c].records
        if idx[c] < len(records):
            heapq.heappush(heap, (boots[c] + cts(
                records[idx[c]].start_cycles) + waits[c], seq, c))
            seq += 1
        else:
            ends[c] = boots[c] + cts(traces[c].total_cycles) + waits[c]
    visits = sum(shard_req)
    return SimOutcome(
        waits=waits, ends=ends, uplink_busy_s=uplink_busy,
        busy_until=uplink_free,
        mean_queue_delay_s=q_total / q_n if q_n else 0.0,
        max_queue_delay_s=q_max, delayed_requests=delayed,
        shard_requests=shard_req, shard_busy_s=shard_busy,
        mean_shard_delay_s=s_total / visits if visits else 0.0,
        max_shard_delay_s=s_max, hub_requests=hub_requests,
        hub_hits=hub_hits)


#: Hub keys as the probe stages them: raw addresses before a publish,
#: ``(group, epoch, orig)`` after.
_KEYS = st.sampled_from([0x100, 0x140, 0x180, 0x1c0,
                         ("default", 1, 0x100), ("default", 1, 0x140)])
#: Dyadic and non-dyadic wire times, zero included (a zero-wire RPC
#: can re-arrive at the instant it left).
_WIRE = st.sampled_from([0.0, W, 3 * W, 1e-4, 7.3e-5])


@st.composite
def _fleet_case(draw):
    n_shards = draw(st.integers(1, 3))
    shard = st.integers(-1, n_shards - 1)

    def record(start):
        sid = draw(shard)
        keys = (tuple(draw(st.lists(
            st.tuples(_KEYS, st.sampled_from([24, 40, 64])),
            min_size=0, max_size=3))) if sid >= 0 else ())
        return RpcRecord(start_cycles=start, kind="chunk",
                         wire_s=draw(_WIRE), wire_bytes=0,
                         traversals=1, shard=sid, keys=keys)

    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        starts = sorted(draw(st.lists(st.integers(0, 40_000),
                                      max_size=6)))
        total = (starts[-1] if starts else 0) + draw(
            st.integers(0, 40_000))
        distinct.append(ClientTrace(
            records=[record(s) for s in starts], total_cycles=total))
    n = draw(st.integers(0, 7))
    traces = [draw(st.sampled_from(distinct)) for _ in range(n)]
    if draw(st.booleans()):
        boots = [0.0] * n                       # every arrival ties
    else:
        boots = [draw(st.sampled_from([0.0, 1e-4, 2 * W, 0.5]))
                 for _ in range(n)]
    kwargs = dict(costs=DEFAULT_COSTS, n_shards=n_shards,
                  origin_service_s=draw(
                      st.sampled_from([0.0, W, 3 * W, 2e-4])),
                  hub_capacity=draw(st.sampled_from([0, 64, 100,
                                                     64 * 1024])))
    return traces, boots, kwargs


@settings(max_examples=300, deadline=None)
@given(_fleet_case())
def test_replay_matches_reference_loop(case):
    traces, boots, kwargs = case
    assert run_event_sim(traces, boots, **kwargs) == \
        reference_event_sim(traces, boots, **kwargs)


def test_recorded_replay_matches_and_logs_every_wait():
    """A recorder observes the replay without changing it: the same
    outcome, and one ``fleet.queue`` event per delayed request."""
    hz = int(DEFAULT_COSTS.cpu_hz)
    shard_trace = _trace([0, hz // 4], hz, shard=0)
    link_trace = _trace([0, 10, 20], hz)
    traces = [shard_trace, link_trace] * 4
    boots = [0.0] * len(traces)
    kwargs = dict(costs=DEFAULT_COSTS, origin_service_s=3 * W)
    recorder = FlightRecorder()
    recorded = run_event_sim(traces, boots, recorder=recorder, **kwargs)
    assert recorded == run_event_sim(traces, boots, **kwargs)
    assert recorded == reference_event_sim(traces, boots, **kwargs)
    queued = [e for e in recorder.events if e.name == "fleet.queue"]
    assert recorded.delayed_requests > 0
    assert len(queued) == recorded.delayed_requests
    assert {e.args["where"] for e in queued} == {"uplink", "shard0"}
