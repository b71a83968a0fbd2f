"""Tests for the durable work queue and the queue executor (repro.runs)."""

import multiprocessing as mp
import signal

import numpy as np
import pytest

from repro.runs import (
    ResultCache,
    ScenarioSpec,
    WorkQueue,
    compile_plan,
    drain_queue,
    run_plan,
    run_plan_queue,
    run_spec,
)
from repro.runs.executor import _queue_worker_entry
from repro.runs.queue import default_queue_sibling, writable_queue_path


def grid_spec(t_end=6.0):
    return ScenarioSpec(
        name="queue-test",
        model={
            "topology": {"kind": "ring", "n": 10, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver={"method": "rk4"},
        initial={"kind": "normal", "std": 1e-3, "seed": 0},
        axes=[("potential.sigma", [0.5, 1.0, 1.5, 2.0]), ("seed", [0, 1])],
    )


@pytest.fixture
def plan():
    return compile_plan(grid_spec(), shard_members=2)


@pytest.fixture
def queue(tmp_path, plan):
    q = WorkQueue(tmp_path / "campaign.db", backoff=0.5)
    q.enqueue_plan(plan)
    return q


class TestWorkQueue:
    def test_enqueue_is_idempotent(self, queue, plan):
        assert queue.counts()["pending"] == 4
        assert queue.enqueue_plan(plan) == 0
        assert queue.counts()["pending"] == 4
        assert queue.spec_hash() == plan.spec.content_hash()

    def test_claim_is_atomic_and_ordered(self, queue):
        a = queue.claim("w1", lease_ttl=60, now=100.0)
        b = queue.claim("w2", lease_ttl=60, now=100.0)
        assert a.index == 0 and b.index == 1
        assert a.lease_id != b.lease_id
        queue.claim("w1", now=100.0)
        queue.claim("w2", now=100.0)
        assert queue.claim("w3", now=100.0) is None  # all leased out
        assert queue.counts()["leased"] == 4

    def test_complete_and_heartbeat_are_fenced(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        assert queue.heartbeat(lease.key, lease.lease_id,
                               lease_ttl=10, now=5.0)
        assert not queue.heartbeat(lease.key, "not-the-lease", now=6.0)
        # lease expires at 15 (refreshed by the heartbeat); the reaper
        # takes it back and the original holder is fenced out.
        assert queue.reap(now=16.0) == [lease.key]
        assert not queue.heartbeat(lease.key, lease.lease_id, now=16.5)
        assert not queue.complete(lease.key, lease.lease_id, now=16.5)
        assert queue.counts()["pending"] == 4

    def test_reap_applies_exponential_backoff(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        assert queue.reap(now=5.0) == []          # still within the lease
        assert queue.reap(now=11.0) == [lease.key]
        # attempt 1 lost -> not claimable until 11 + backoff*2**0 = 11.5
        held = [queue.claim("w", now=11.0) for _ in range(3)]
        assert all(lease_.index != lease.index for lease_ in held
                   if lease_ is not None)
        retried = queue.claim("w2", now=20.0)
        # the other three shards were claimed above; the backed-off one
        # is the only shard left, now claimable with attempts=2
        assert retried.index == lease.index
        assert retried.attempts == 2

    def test_fail_retries_then_quarantines(self, queue):
        key = None
        for attempt in (1, 2, 3):
            lease = queue.claim("w1", lease_ttl=60, now=1000.0 * attempt)
            key = lease.key
            verdict = queue.fail(key, lease.lease_id, f"boom {attempt}",
                                 now=1000.0 * attempt + 1)
            assert verdict == ("quarantined" if attempt == 3 else "retry")
        counts = queue.counts()
        assert counts["quarantined"] == 1 and counts["pending"] == 3
        (row,) = queue.quarantined()
        assert row.key == key and "boom 3" in row.error
        assert queue.describe()["quarantined"][0]["attempts"] == 3

        assert queue.requeue_quarantined() == 1
        fresh = queue.claim("w1", now=10000.0)
        assert fresh.key == key and fresh.attempts == 1

    def test_fail_is_fenced(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        queue.reap(now=11.0)
        assert queue.fail(lease.key, lease.lease_id, "late", now=12.0) \
            == "fenced"

    def test_requeue_resets_done(self, queue):
        lease = queue.claim("w1", now=0.0)
        assert queue.complete(lease.key, lease.lease_id, seconds=1.0,
                              now=1.0)
        assert queue.counts()["done"] == 1
        assert queue.requeue([lease.key], now=2.0) == 1
        assert queue.counts()["done"] == 0
        assert queue.unfinished() == 4

    def test_writable_probe(self, tmp_path):
        assert writable_queue_path(tmp_path / "sub" / "q.db")
        blocker = tmp_path / "a-file"
        blocker.write_text("x")
        # parent is a regular file: mkdir/connect must fail cleanly
        assert not writable_queue_path(blocker / "q.db")

    def test_default_queue_sibling(self, tmp_path):
        assert default_queue_sibling(tmp_path / "q.db", "cache") \
            == tmp_path / "q.db.cache"


class TestDrainQueue:
    def test_drain_solves_everything(self, queue, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        events = []
        stats = drain_queue(queue, cache, worker="w0",
                            progress=events.append)
        assert stats["solved"] == 4
        assert queue.counts()["done"] == 4
        assert {e["outcome"] for e in events} == {"solved"}
        # a second drain has nothing to do
        assert drain_queue(queue, cache)["solved"] == 0

    def test_drain_serves_requeues_from_cache(self, queue, plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        drain_queue(queue, cache)
        queue.requeue([s.key for s in plan.shards])
        stats = drain_queue(queue, cache, worker="w1")
        assert stats["cache_hits"] == 4 and stats["solved"] == 0


class TestQueueExecutor:
    def test_queue_run_bits_match_inline(self, tmp_path):
        spec = grid_spec()
        ref = run_spec(spec, jobs=1, shard_members=2)
        queued = run_spec(spec, jobs=2, shard_members=2,
                          queue=tmp_path / "q.db", lease_ttl=10.0)
        assert queued.queue is not None
        assert queued.queue["counts"]["done"] == 4
        assert queued.n_executed == 4
        for a, b in zip(ref.members, queued.members):
            assert a.index == b.index
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_queue_replay_is_pure_cache_hit(self, tmp_path):
        spec = grid_spec()
        first = run_spec(spec, jobs=2, shard_members=2,
                         queue=tmp_path / "q.db")
        replay = run_spec(spec, jobs=2, shard_members=2,
                          queue=tmp_path / "q.db")
        assert replay.n_executed == 0
        assert replay.n_cached == 4
        for a, b in zip(first.members, replay.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_unwritable_queue_degrades_to_inline(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning, match="degrading"):
            res = run_spec(grid_spec(), jobs=2, shard_members=2,
                           queue=blocker / "q.db")
        assert res.queue is None           # plain run_plan result
        assert res.n_executed == 4

    def test_queue_kwargs_require_queue(self):
        with pytest.raises(TypeError, match="queue"):
            run_spec(grid_spec(), jobs=1, lease_ttl=5.0)

    def test_poisoned_shard_quarantines_with_traceback(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("POM_FAULTS", "raise:shard=0,times=3")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        with pytest.raises(RuntimeError, match="quarantined"):
            run_spec(grid_spec(), jobs=2, shard_members=2,
                     queue=tmp_path / "q.db",
                     lease_ttl=5.0, backoff=0.05, max_attempts=3)
        queue = WorkQueue(tmp_path / "q.db")
        (row,) = queue.quarantined()
        assert row.index == 0 and row.attempts == 3
        assert "InjectedFault" in row.error

        # operator workflow: requeue and rerun clean
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        queue.requeue_quarantined()
        res = run_spec(grid_spec(), jobs=2, shard_members=2,
                       queue=tmp_path / "q.db", backoff=0.05)
        ref = run_spec(grid_spec(), jobs=1, shard_members=2)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)


class TestKilledWorkerResume:
    def test_sigkilled_worker_campaign_resumes_bit_identical(
            self, tmp_path, plan, monkeypatch):
        """Satellite: SIGKILL a worker mid-shard, restart the campaign,
        and the result is bit-identical to an uninterrupted jobs=1 run."""
        queue = WorkQueue(tmp_path / "q.db", backoff=0.05)
        queue.enqueue_plan(plan)
        cache_root = tmp_path / "q.db.cache"

        monkeypatch.setenv("POM_FAULTS", "kill:shard=0")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        victim = mp.Process(
            target=_queue_worker_entry,
            args=(str(queue.path), str(cache_root),
                  {"worker": "victim", "lease_ttl": 1.0}))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        # the shard died leased; its lease must still be visible
        counts = queue.counts()
        assert counts["leased"] == 1 and counts["done"] == 0

        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        result = run_plan_queue(plan, queue.path, jobs=2,
                                cache=ResultCache(cache_root),
                                lease_ttl=1.0, backoff=0.05)
        ref = run_plan(plan)
        assert len(result.members) == len(ref.members) == 8
        for a, b in zip(ref.members, result.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)
        # the recovered death is visible in the report, not hidden
        assert result.queue["retried"].get(0, 0) >= 2

    def test_orchestrator_respawns_killed_workers(self, tmp_path,
                                                  monkeypatch):
        """End-to-end chaos through run_plan_queue itself: the injected
        kill takes a spawned worker down and the orchestrator recovers
        without outside help.

        The stall holds the other worker on shard 0 for three
        orchestrator polls, so the death is seen while work is still
        pending however fast the shards solve (a lone survivor that
        drains everything else first needs no replacement)."""
        monkeypatch.setenv("POM_FAULTS", "kill:shard=1;stall:shard=0,secs=0.6")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        res = run_spec(grid_spec(), jobs=2, shard_members=2,
                       queue=tmp_path / "q.db",
                       lease_ttl=1.0, backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(grid_spec(), jobs=1, shard_members=2)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)
        assert res.queue["spawned"] >= 3   # at least one respawn
        assert res.queue["retried"].get(1, 0) >= 2
