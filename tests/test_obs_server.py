"""The live ops plane: ObsServer routes, admin control, digest safety."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import ControlPlane, ObsServer, parse_serve
from repro.sim import CycleLimitExceeded
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.softcache.debug import architectural_state
from repro.workloads import build_workload


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def _post(url, payload, timeout=15):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


# -- parse_serve -----------------------------------------------------------

def test_parse_serve():
    assert parse_serve("127.0.0.1:9178") == ("127.0.0.1", 9178)
    assert parse_serve("9178") == ("127.0.0.1", 9178)
    assert parse_serve(":0") == ("127.0.0.1", 0)
    assert parse_serve("0.0.0.0:80") == ("0.0.0.0", 80)
    with pytest.raises(ValueError):
        parse_serve("not-a-port")
    with pytest.raises(ValueError):
        parse_serve("host:99999")


# -- GET routes ------------------------------------------------------------

@pytest.fixture(scope="module")
def served_run():
    """One finished sensor run with an ObsServer attached."""
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(system)
        report = system.run()
        yield server, system, report


def test_healthz(served_run):
    server, _, _ = served_run
    status, body = _get(server.url + "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["system"] is True
    assert health["control"] is True


def test_metrics_scrape_is_prometheus_text(served_run):
    server, system, _ = served_run
    status, body = _get(server.url + "/metrics")
    assert status == 200
    assert f"repro_cc_translations_total "\
           f"{system.stats.translations}" in body
    assert "# HELP repro_cc_translations_total" in body
    assert "repro_build_info{" in body
    assert 'granularity="block"' in body
    assert "jit=" not in body


def test_inspect_tcache(served_run):
    server, system, _ = served_run
    status, body = _get(server.url + "/inspect/tcache")
    assert status == 200
    snap = json.loads(body)
    assert snap["capacity"] == 2048
    assert snap["boot_capacity"] == 2048
    assert snap["resident_blocks"] == len(snap["blocks"])
    assert snap["used"] == sum(b["size"] for b in snap["blocks"])
    assert snap["policy_state"] == {"name": "fifo"}
    for block in snap["blocks"]:
        assert block["orig"] >= 0 and block["size"] > 0


def test_inspect_superblocks(served_run):
    server, system, _ = served_run
    status, body = _get(server.url + "/inspect/superblocks")
    snap = json.loads(body)
    assert status == 200
    assert snap["blocks"] == sum(snap["kinds"].values())
    assert set(snap["kinds"]) == {"compiled", "single"}
    cpu = system.machine.cpu
    assert snap["shapes"] == cpu.jit_stats.jit_blocks > 0
    assert snap["retargeted"] == cpu.sb_stats.retargeted_blocks
    assert "hottest" not in snap


def test_inspect_shards_solo(served_run):
    server, system, _ = served_run
    status, body = _get(server.url + "/inspect/shards")
    snap = json.loads(body)
    assert status == 200
    assert snap["n_shards"] == 1
    assert snap["requests"] == system.mc_stats.requests


def test_unknown_routes_404(served_run):
    server, _, _ = served_run
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(server.url + "/nope")
    assert exc.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(server.url + "/inspect/nope")
    assert exc.value.code == 404


def test_unattached_server_503():
    with ObsServer("127.0.0.1", 0) as server:
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/inspect/tcache")
        assert exc.value.code == 503
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url + "/admin/flush", {})
        assert exc.value.code == 503


# -- cycle invisibility ----------------------------------------------------

def test_served_and_scraped_run_is_digest_identical():
    """The tentpole guarantee: a run scraped mid-flight ends in
    exactly the architectural state of an unserved run."""
    image = build_workload("sensor", 0.05)
    config = SoftCacheConfig(tcache_size=2048, debug_poison=True)

    plain = SoftCacheSystem(image, config)
    plain_report = plain.run()
    want = architectural_state(plain)

    served = SoftCacheSystem(image, config)
    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(served)
        stop = threading.Event()
        scrapes = []

        def scraper():
            while not stop.is_set():
                for route in ("/metrics", "/inspect/tcache",
                              "/inspect/superblocks", "/healthz"):
                    try:
                        status, _ = _get(server.url + route, timeout=5)
                        scrapes.append(status)
                    except urllib.error.HTTPError as exc:
                        scrapes.append(exc.code)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        report = served.run()
        stop.set()
        thread.join(timeout=10)

    assert scrapes, "scraper never got a request through mid-run"
    assert all(code in (200, 503) for code in scrapes)
    assert report.output == plain_report.output
    assert report.cycles == plain_report.cycles
    assert architectural_state(served) == want


# -- admin control at miss boundaries --------------------------------------

def _run_partially(system, instructions=5_000):
    """Start a system and stop it mid-run (resumable)."""
    system.cc.start()
    with pytest.raises(CycleLimitExceeded):
        system.machine.cpu.run(instructions)


def test_resize_applies_at_next_miss_boundary():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)

    ctl = ControlPlane()
    system.cc._control = ctl
    cmd = ctl.post("resize", {"tcache_size": 1024})
    assert not cmd.done.is_set()
    before = system.machine.cpu.cycles

    exit_code = system.machine.cpu.run(2_000_000_000)
    assert exit_code == 0
    assert cmd.done.is_set() and cmd.error is None
    assert cmd.result["tcache_size"] == 1024
    assert cmd.result["previous_size"] == 2048
    assert system.cc.tcache.size == 1024
    assert system.cc.tcache.geom.size == 2048  # boot ceiling frozen
    assert system.stats.admin_commands == 1
    assert system.stats.flushes >= 1           # resize flushes
    assert system.machine.cpu.cycles > before
    # the shrunken cache is what inspect() now reports
    snap = system.inspect()
    assert snap["tcache"]["capacity"] == 1024
    assert snap["tcache"]["used"] <= 1024
    assert snap["stats"]["admin_commands"] == 1


def test_resize_rejects_beyond_boot_geometry():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)
    resident = system.stats.translations - system.stats.evictions

    ctl = ControlPlane()
    system.cc._control = ctl
    cmd = ctl.post("resize", {"tcache_size": 4096})
    system.machine.cpu.run(2_000_000_000)
    assert cmd.done.is_set()
    assert cmd.error is not None and "2048" in cmd.error
    assert system.cc.tcache.size == 2048
    # a rejected resize must not have flushed anything
    assert system.stats.flushes == 0
    assert resident >= 0


def test_admin_set_and_flush():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=4096))
    _run_partially(system)

    ctl = ControlPlane()
    system.cc._control = ctl
    set_cmd = ctl.post("set", {"prefetch_depth": 2})
    flush_cmd = ctl.post("flush", {})
    system.machine.cpu.run(2_000_000_000)

    assert set_cmd.result == {"verb": "set", "prefetch_depth": 2}
    assert system.cc.prefetch_depth == 2
    assert flush_cmd.result["verb"] == "flush"
    assert system.stats.admin_commands == 2
    assert ctl.applied == 2


def test_admin_rejects_bad_args():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)
    ctl = ControlPlane()
    system.cc._control = ctl
    bad_depth = ctl.post("set", {"prefetch_depth": -1})
    bad_verb = ctl.post("defrag", {})
    empty_set = ctl.post("set", {})
    unknown_knob = ctl.post("set", {"jit": "off"})
    system.machine.cpu.run(2_000_000_000)
    assert bad_depth.error is not None
    assert bad_verb.error is not None
    assert empty_set.error is not None
    assert "jit" in unknown_knob.error
    assert ctl.applied == 0
    # failed commands still bill their MC service round trip
    assert system.stats.admin_commands == 4


def test_resize_resets_policy_state():
    """Admin resize flushes the tcache *and* resets policy metadata:
    nhit's per-address touch history survives ordinary flushes by
    design, so the resize boundary is the one place it must be wiped —
    stale heat counters against a reshaped cache would promote the
    wrong chunks."""
    from repro.softcache import NhitPolicy

    class ProbeNhit(NhitPolicy):
        def __init__(self):
            super().__init__(n=2)
            self.reset_history = []

        def reset(self):
            self.reset_history.append(len(self.touches))
            super().reset()

    probe = ProbeNhit()
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=2048, policy=probe, prefetch_depth=2))
    _run_partially(system)
    accumulated = len(probe.touches)
    assert accumulated > 0       # mid-run heat exists to go stale

    ctl = ControlPlane()
    system.cc._control = ctl
    cmd = ctl.post("resize", {"tcache_size": 1024})
    exit_code = system.machine.cpu.run(2_000_000_000)
    assert exit_code == 0
    assert cmd.error is None
    # exactly one reset, at the resize, clearing the stale history
    assert len(probe.reset_history) == 1
    assert probe.reset_history[0] >= accumulated
    # post-resize touches are fresh accumulation, not stale + new
    snap = system.inspect()["tcache"]["policy_state"]
    assert snap["name"] == "nhit"
    assert snap["tracked_origs"] == len(probe.touches)


def test_admin_set_policy():
    """`admin set --policy` swaps the policy at a miss boundary; an
    unknown name fails with the full valid set in the error."""
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)
    assert system.cc.policy == "fifo"

    ctl = ControlPlane()
    system.cc._control = ctl
    good = ctl.post("set", {"policy": "nhit"})
    bad = ctl.post("set", {"policy": "lru"})
    assert system.machine.cpu.run(2_000_000_000) == 0

    assert good.error is None
    assert good.result["policy"] == "nhit"
    assert system.cc.policy == "nhit"
    snap = system.inspect()["tcache"]["policy_state"]
    assert snap["name"] == "nhit"
    assert bad.error is not None
    for name in ("fifo", "flush", "nhit", "seqcutoff"):
        assert name in bad.error


def test_resize_over_http_202_then_visible():
    """POST ?wait=0 queues; the command applies once the run resumes
    and the new geometry shows up in /inspect/tcache."""
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)

    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(system)
        status, body = _post(server.url + "/admin/resize?wait=0",
                             {"tcache_size": 1024})
        assert status == 202
        assert json.loads(body)["status"] == "pending"

        done = threading.Event()

        def finish():
            system.machine.cpu.run(2_000_000_000)
            done.set()

        thread = threading.Thread(target=finish, daemon=True)
        thread.start()
        assert done.wait(60)
        thread.join(timeout=10)

        status, body = _get(server.url + "/inspect/tcache")
        snap = json.loads(body)
        assert snap["capacity"] == 1024
        assert snap["boot_capacity"] == 2048


def test_resize_over_http_waits_for_miss_boundary():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)

    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(system)
        results = {}

        def poster():
            results["resp"] = _post(
                server.url + "/admin/resize?wait=30",
                {"tcache_size": 1536})

        thread = threading.Thread(target=poster, daemon=True)
        thread.start()
        # give the POST time to land on the control queue, then run
        # to completion — the reply arrives once a miss applies it
        assert _wait_for(lambda: server.control.pending, 10)
        system.machine.cpu.run(2_000_000_000)
        thread.join(timeout=30)

    status, body = results["resp"]
    assert status == 200
    reply = json.loads(body)
    assert reply["status"] == "applied"
    assert reply["result"]["tcache_size"] == 1536
    assert system.cc.tcache.size == 1536


def _wait_for(predicate, timeout_s):
    import time
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# -- live code update over the ops plane -----------------------------------

def test_inspect_images_route(served_run):
    server, system, _ = served_run
    status, body = _get(server.url + "/inspect/images")
    snap = json.loads(body)
    assert status == 200
    assert snap["epoch"] == 0
    assert snap["group"] == "default"
    assert len(snap["versions"]) == 1
    assert snap["versions"][0]["digest"] == snap["digest"]


def test_admin_publish_over_http(tmp_path):
    """POST /admin/publish hot-patches a live run: the epoch bump is
    taken at the next miss boundary and the run finishes on the new
    image with the old image's observable behaviour."""
    from repro.softcache.debug import check_consistency
    from repro.softcache.update import (derive_patched_image,
                                        image_digest, save_image)
    image = build_workload("sensor", 0.05)
    patched = derive_patched_image(image, seed=1)
    path = tmp_path / "patched.img"
    save_image(patched, path)

    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)

    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(system)
        status, body = _post(server.url + "/admin/publish?wait=0",
                             {"image": str(path)})
        assert status == 202
        exit_code = system.machine.cpu.run(2_000_000_000)
        assert exit_code == 0

        status, body = _get(server.url + "/inspect/images")
        snap = json.loads(body)
        assert snap["epoch"] == 1
        assert snap["digest"] == image_digest(patched)
        assert len(snap["versions"]) == 2

    assert system.stats.update_barriers == 1
    assert system.cc._epoch == 1
    assert check_consistency(system.cc) > 0


def test_served_update_run_is_digest_identical_to_unserved():
    """Cycle invisibility composes with live updates: a mid-run
    publish scheduled by cycle count lands at the same simulated
    boundary whether or not an ops server is scraping, so both runs
    end observably identical (and here, architecturally too — the
    schedule, not wall clock, drives the barrier)."""
    image = build_workload("sensor", 0.05)
    config = SoftCacheConfig(tcache_size=2048, debug_poison=True,
                             update_at=("20000:patch",))

    plain = SoftCacheSystem(image, config)
    plain_report = plain.run()
    want = architectural_state(plain)
    assert plain.stats.update_barriers >= 1

    served = SoftCacheSystem(image, config)
    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(served)
        stop = threading.Event()
        scrapes = []

        def scraper():
            while not stop.is_set():
                for route in ("/metrics", "/inspect/images",
                              "/inspect/tcache", "/healthz"):
                    try:
                        status, _ = _get(server.url + route, timeout=5)
                        scrapes.append(status)
                    except urllib.error.HTTPError as exc:
                        scrapes.append(exc.code)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        report = served.run()
        stop.set()
        thread.join(timeout=10)

    assert scrapes, "scraper never got a request through mid-run"
    assert all(code in (200, 503) for code in scrapes)
    assert report.output == plain_report.output
    assert report.cycles == plain_report.cycles
    assert served.cc._epoch == 1
    assert architectural_state(served) == want


# -- fleet attachment ------------------------------------------------------

def test_fleet_serve_exposes_shards():
    from repro.fleet import simulate_fleet
    image = build_workload("sensor", 0.05)
    with ObsServer("127.0.0.1", 0) as server:
        simulate_fleet(image, 3, SoftCacheConfig(tcache_size=8192),
                       shards=2, server=server)
        status, body = _get(server.url + "/inspect/shards")
        snap = json.loads(body)
        assert snap["n_shards"] == 2
        assert snap["requests"] == sum(s["requests"]
                                       for s in snap["shards"])
        assert snap["requests"] > 0
        # fleet attachment is read-only: replay contract forbids
        # mid-capture retuning
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url + "/admin/flush", {})
        assert exc.value.code == 503
        status, body = _get(server.url + "/metrics")
        assert "repro_fleet_shard0_requests_total" in body
        assert "repro_fleet_shard1_requests_total" in body


# -- CLI -------------------------------------------------------------------

def test_cli_run_serve_smoke(capsys):
    from repro.cli import main
    rc = main(["run", "sensor", "--scale", "0.05", "--tcache", "1024",
               "--local-link", "--serve", "127.0.0.1:0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[serve] ops endpoint on http://127.0.0.1:" in out


def test_cli_tcache_auto(capsys):
    from repro.cli import main
    rc = main(["run", "sensor", "--scale", "0.05", "--tcache", "auto",
               "--local-link"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[auto-tcache]" in out
    assert "rewritten" in out


def test_cli_admin_live(served_run, capsys):
    from repro.cli import main
    server, system, _ = served_run
    rc = main(["admin", "stats", "--url", server.url])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro_cc_translations_total" in out

    rc = main(["admin", "inspect", "--url", server.url,
               "--route", "tcache"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["capacity"] == 2048

    # control verb with --no-wait: queued (202), rc 0
    rc = main(["admin", "set", "--url", server.url,
               "--prefetch-depth", "1", "--no-wait"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["status"] == "pending"


def test_cli_admin_publish(tmp_path, capsys):
    from repro.cli import main
    from repro.softcache.update import derive_patched_image, save_image

    # publish without --image is a usage error, not a request
    rc = main(["admin", "publish", "--url", "http://127.0.0.1:1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--image" in err

    image = build_workload("sensor", 0.05)
    path = tmp_path / "patched.img"
    save_image(derive_patched_image(image, seed=1), path)
    system = SoftCacheSystem(image, SoftCacheConfig(tcache_size=2048))
    _run_partially(system)
    with ObsServer("127.0.0.1", 0) as server:
        server.attach_system(system)
        rc = main(["admin", "publish", "--url", server.url,
                   "--image", str(path), "--no-wait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["status"] == "pending"
        assert system.machine.cpu.run(2_000_000_000) == 0

        rc = main(["admin", "inspect", "--url", server.url,
                   "--route", "images"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["epoch"] == 1


def test_cli_admin_unreachable(capsys):
    from repro.cli import main
    rc = main(["admin", "stats", "--url", "http://127.0.0.1:1",
               "--timeout", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot reach" in err


def test_cli_admin_offline(tmp_path, capsys):
    from repro.cli import main
    trace = tmp_path / "run"
    rc = main(["trace", "sensor", "--scale", "0.05", "--tcache",
               "1024", "--local-link", "--out", str(trace)])
    capsys.readouterr()
    assert rc == 0
    jsonl = str(trace) + ".jsonl"

    rc = main(["admin", "inspect", "--from", jsonl])
    out = capsys.readouterr().out
    assert rc == 0
    assert "hot chunks from" in out

    rc = main(["admin", "stats", "--from", jsonl])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace_events_total{" in out

    # control verbs cannot target a recording
    rc = main(["admin", "flush", "--from", jsonl])
    err = capsys.readouterr().err
    assert rc == 2
    assert "live endpoint" in err
