"""Eviction-path equivalence with the seed's scan-based unlink.

The indexed unlink (per-block incoming-link indexes, `LinkIndex`) must
be *observationally identical* to the seed's linear scans: the goldens
below were captured from the scan-based implementation on thrashing
workloads and pin down cycles, translations, evictions and patches
exactly.  A hypothesis property then drives random translate / flush
interleavings through the controller (with `debug_poison` active) and
audits that no interleaving ever leaves a dangling incoming-link.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import compile_program
from repro.net import LOCAL_LINK
from repro.softcache import (
    FifoPolicy,
    FlushPolicy,
    NhitPolicy,
    SeqCutoffPolicy,
    SoftCacheConfig,
    SoftCacheSystem,
    policy_names,
)
from repro.softcache.debug import check_consistency
from repro.workloads import build_workload

#: (workload, scale, config kwargs) -> exact counters captured from the
#: seed's scan-based eviction path.  The compress95 row matches the
#: Figure 5 "512B" bar of the seed byte for byte.
GOLDENS = [
    ("sensor", 0.05,
     dict(tcache_size=768, granularity="block", policy="fifo"),
     dict(cycles=1_622_021, translations=2040, evictions=2018,
          blocks_flushed=0, patches=2827)),
    ("sensor", 0.05,
     dict(tcache_size=1024, granularity="block", policy="flush"),
     dict(cycles=922_955, translations=109, evictions=0,
          blocks_flushed=103, patches=108)),
    ("sensor", 0.05,
     dict(tcache_size=1536, granularity="proc", policy="fifo"),
     dict(cycles=889_025, translations=18, evictions=12,
          blocks_flushed=0, patches=17)),
    ("compress95", 0.05,
     dict(tcache_size=512, granularity="block", policy="fifo"),
     dict(cycles=8_710_851, translations=21_693, evictions=21_681,
          blocks_flushed=0, patches=23_871)),
]


@pytest.mark.parametrize("workload,scale,kwargs,expected", GOLDENS,
                         ids=[f"{w}-{k['granularity']}-{k['policy']}-"
                              f"{k['tcache_size']}B"
                              for w, _, k, _ in GOLDENS])
def test_eviction_golden_equivalence(workload, scale, kwargs, expected):
    image = build_workload(workload, scale)
    system = SoftCacheSystem(image, SoftCacheConfig(
        link=LOCAL_LINK, record_timeline=False, **kwargs))
    report = system.run(600_000_000)
    s = system.stats
    got = dict(cycles=report.cycles, translations=s.translations,
               evictions=s.evictions, blocks_flushed=s.blocks_flushed,
               patches=s.patches)
    assert got == expected


@pytest.mark.parametrize("workload,scale,kwargs,expected", GOLDENS,
                         ids=[f"{w}-{k['granularity']}-{k['policy']}-"
                              f"{k['tcache_size']}B-object"
                              for w, _, k, _ in GOLDENS])
def test_policy_object_golden_equivalence(workload, scale, kwargs,
                                          expected):
    """The same goldens, word for word, through policy *objects*: a
    `FifoPolicy()` / `FlushPolicy()` instance handed to the config must
    be indistinguishable from the baked-in name — every hook on the
    fifo object is a no-op and the admission predicate stays the raw
    residency check, so the counters cannot move by even one cycle."""
    objects = {"fifo": FifoPolicy, "flush": FlushPolicy}
    kwargs = dict(kwargs)
    kwargs["policy"] = objects[kwargs["policy"]]()
    image = build_workload(workload, scale)
    system = SoftCacheSystem(image, SoftCacheConfig(
        link=LOCAL_LINK, record_timeline=False, **kwargs))
    report = system.run(600_000_000)
    s = system.stats
    got = dict(cycles=report.cycles, translations=s.translations,
               evictions=s.evictions, blocks_flushed=s.blocks_flushed,
               patches=s.patches)
    assert got == expected


def _policy_instance(spec: str):
    """A *fresh* policy object per call — metadata must not leak
    between test cases."""
    if spec == "nhit":
        return NhitPolicy(n=2)
    if spec == "seqcutoff":
        return SeqCutoffPolicy(cutoff=2)
    return {"fifo": FifoPolicy, "flush": FlushPolicy}[spec]()


#: Every registered policy.
POLICY_SPECS = policy_names()


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_policy_structural_invariants_sensor(spec):
    """Whole-workload invariant run: sensor through a thrashing tcache
    with deep prefetch under every policy must finish with the link
    graph closed, the residency map exact and the policy's own
    metadata clean (`check_consistency` audits all three)."""
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=1024, link=LOCAL_LINK, prefetch_depth=2,
        policy=_policy_instance(spec), record_timeline=False,
        debug_poison=True))
    report = system.run(600_000_000)
    assert report.exit_code == 0
    assert check_consistency(system.cc) > 0


# -- property: no interleaving leaves a dangling incoming-link --------

CHURN_SRC = r"""
int f1(int x) { return x * 3 + 1; }
int f2(int x) { if (x & 1) return f1(x); return x - 2; }
int f3(int n) {
    int i; int acc = 0;
    for (i = 0; i < n; i++) acc += f2(i);
    return acc;
}
int main(void) {
    int round;
    int acc = 0;
    for (round = 0; round < 8; round++) acc += f3(12 + round);
    __putint(acc);
    return 0;
}
"""

_churn_image = None


def churn_image():
    global _churn_image
    if _churn_image is None:
        _churn_image = compile_program(CHURN_SRC, "churn")
    return _churn_image


def _assert_no_dangling_links(cc):
    """Every incoming link's source must be alive and still claim the
    link, and every outgoing link's destination must know about it."""
    resident = list(cc.tcache.order) + list(cc.tcache.pinned_blocks)
    for block in resident:
        for link in block.incoming:
            if link.src is not None:
                assert link.src.alive, (
                    f"incoming link at {link.site_addr:#x} from a dead "
                    f"block")
                assert link in link.src.outgoing
        for link in block.outgoing:
            assert link.dst.alive
            assert link in link.dst.incoming


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(min_value=0, max_value=3),
    actions=st.lists(st.integers(min_value=0, max_value=4),
                     min_size=1, max_size=30),
)
def test_random_interleavings_never_dangle(depth, actions):
    """Random translate/evict/flush interleavings keep the link graph
    closed.  Translations into a tiny tcache force evictions; the
    sentinel action flushes; `debug_poison` makes any stale pointer
    fault loudly inside the controller itself."""
    image = churn_image()
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=512, link=LOCAL_LINK, prefetch_depth=depth,
        record_timeline=False, debug_poison=True))
    cc = system.cc
    cc.start()
    targets = [image.symbols[name] for name in ("f1", "f2", "f3")]
    targets.append(image.entry)
    for action in actions:
        if action == len(targets):
            cc.flush()
        else:
            block = cc.ensure_translated(targets[action])
            assert block.alive
        _assert_no_dangling_links(cc)
        check_consistency(cc)   # raises ConsistencyError on any drift
    cc.ensure_translated(image.entry)
    assert check_consistency(cc) > 0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    drop=st.floats(min_value=0.0, max_value=0.3),
    corrupt=st.floats(min_value=0.0, max_value=0.2),
    partition=st.booleans(),
    depth=st.integers(min_value=0, max_value=2),
    actions=st.lists(st.integers(min_value=0, max_value=4),
                     min_size=1, max_size=25),
)
def test_faulty_interleavings_never_dangle(seed, drop, corrupt,
                                           partition, depth, actions):
    """The eviction property under fire: random fault plans (loss,
    corruption, partitions that exhaust the tight retry budget and
    force degraded-mode replays) composed with random translate/flush
    interleavings into a tiny tcache must never dangle a backpatch or
    leave a resident block unreachable from the residency map —
    `check_consistency` audits both after every action."""
    from repro.net import FaultPlan, RetryPolicy
    plan = FaultPlan(seed=seed, drop_request_p=drop / 2,
                     drop_reply_p=drop / 2, corrupt_p=corrupt,
                     partitions=((6, 26),) if partition else ())
    image = churn_image()
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=512, link=LOCAL_LINK, prefetch_depth=depth,
        record_timeline=False, debug_poison=True, fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, jitter=0.0)))
    cc = system.cc
    cc.start()
    targets = [image.symbols[name] for name in ("f1", "f2", "f3")]
    targets.append(image.entry)
    for action in actions:
        if action == len(targets):
            cc.flush()
        else:
            block = cc.ensure_translated(targets[action])
            assert block.alive
        _assert_no_dangling_links(cc)
        check_consistency(cc)
    cc.ensure_translated(image.entry)
    assert check_consistency(cc) > 0
    if system.faults is not None:
        assert not cc.pending_misses


@settings(max_examples=15, deadline=None)
@given(
    spec=st.sampled_from(POLICY_SPECS),
    chaos=st.booleans(),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    depth=st.integers(min_value=0, max_value=2),
    actions=st.lists(st.integers(min_value=0, max_value=4),
                     min_size=1, max_size=25),
)
def test_policy_interleavings_never_dangle(spec, chaos, seed, depth,
                                           actions):
    """The eviction property × the policy layer: every policy under
    random translate/flush interleavings — optionally through a `chaos`-preset fault plan —
    must keep the link graph closed, the residency map exact and its
    own metadata free of stale block references.  `check_consistency`
    runs the policy's `audit()` against the resident set after every
    action, so a policy that forgets to drop state on evict or flush
    fails here, not in a later run."""
    from repro.net import FaultPlan, RetryPolicy

    plan = FaultPlan.chaos(seed) if chaos else None
    image = churn_image()
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=512, link=LOCAL_LINK, prefetch_depth=depth,
        policy=_policy_instance(spec),
        record_timeline=False, debug_poison=True, fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, jitter=0.0)))
    cc = system.cc
    cc.start()
    targets = [image.symbols[name] for name in ("f1", "f2", "f3")]
    targets.append(image.entry)
    for action in actions:
        if action == len(targets):
            cc.flush()
        else:
            block = cc.ensure_translated(targets[action])
            assert block.alive
        _assert_no_dangling_links(cc)
        check_consistency(cc)
    cc.ensure_translated(image.entry)
    assert check_consistency(cc) > 0
    if system.faults is not None:
        assert not cc.pending_misses
