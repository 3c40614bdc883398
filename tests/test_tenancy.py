"""Tests for repro.tenancy: bucket, quota ledger, DRR queue, registry,
and the admission controller.

The token-bucket and fair-queue tests are property-based (hypothesis):
they drive the bucket with an injected deterministic clock and the queue
with random push/pop schedules, asserting the contracts the subsystem
documents — rate+burst never exceeded over *any* window, refill
monotonicity, work conservation, weighted sharing, starvation freedom,
and per-lane FIFO.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy import (
    DEFAULT_LANE,
    AuthenticationError,
    FairQueue,
    LaneBacklogFull,
    QuotaExceededError,
    QuotaLedger,
    RateLimitedError,
    TenancyController,
    TenantConfigError,
    TenantRegistry,
    TokenBucket,
)
from repro.tenancy import scheduler
from repro.tenancy.registry import _parse_config


# --------------------------------------------------------------- TokenBucket


class TestTokenBucket:
    def test_full_burst_available_initially(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_acquire(now=0.0).allowed
        assert not bucket.try_acquire(now=0.0).allowed

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        bucket.try_acquire(now=0.0)
        bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0).allowed
        assert bucket.try_acquire(now=0.5).allowed  # 2/s * 0.5s = 1 token

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_acquire(now=0.0).allowed
        denied = bucket.try_acquire(now=0.0)
        assert not denied.allowed
        assert denied.retry_after_s == pytest.approx(0.25)
        # Advancing exactly retry_after_s makes the next acquire succeed.
        assert bucket.try_acquire(now=denied.retry_after_s).allowed

    def test_idle_bucket_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=5.0)
        assert bucket.peek(now=1e6) == pytest.approx(5.0)

    def test_backwards_clock_does_not_drain(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        bucket.try_acquire(now=100.0)
        before = bucket.peek(now=100.0)
        assert bucket.peek(now=50.0) == pytest.approx(before)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    @settings(max_examples=200)
    @given(
        rate=st.floats(min_value=0.5, max_value=50.0),
        burst=st.floats(min_value=1.0, max_value=20.0),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=60
        ),
    )
    def test_never_exceeds_rate_plus_burst_over_any_window(
        self, rate, burst, steps
    ):
        """Over ANY window [s, t]: grants <= burst + rate * (t - s)."""
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        grant_times: list[float] = []
        for dt in steps:
            now += dt
            if bucket.try_acquire(now=now).allowed:
                grant_times.append(now)
        for i, start in enumerate(grant_times):
            for j in range(i, len(grant_times)):
                window = grant_times[j] - start
                granted = j - i + 1
                assert granted <= burst + rate * window + 1e-6, (
                    f"{granted} grants in a {window:.3f}s window "
                    f"(rate={rate}, burst={burst})"
                )

    @settings(max_examples=200)
    @given(
        rate=st.floats(min_value=0.5, max_value=50.0),
        burst=st.floats(min_value=1.0, max_value=20.0),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=60
        ),
    )
    def test_refill_is_monotonic_between_acquisitions(self, rate, burst, steps):
        """With no acquisitions, advancing time never loses tokens."""
        bucket = TokenBucket(rate=rate, burst=burst)
        bucket.try_acquire(now=0.0)  # take one so there is room to refill
        now, previous = 0.0, bucket.peek(now=0.0)
        for dt in steps:
            now += dt
            current = bucket.peek(now=now)
            assert current >= previous - 1e-9
            assert current <= burst + 1e-9
            previous = current


# ----------------------------------------------------------------- FairQueue


class TestFairQueue:
    def test_single_lane_fifo(self):
        q = FairQueue()
        for i in range(5):
            q.push("a", i)
        assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_none_key_uses_default_lane(self):
        q = FairQueue()
        q.push(None, "x")
        assert q.backlog(None) == 1
        assert q.lanes() == {DEFAULT_LANE: 1}
        assert q.pop() == "x"

    def test_weighted_sharing_is_proportional(self):
        """Weight-4 'gold' is served ~4 items per weight-1 'bronze' item."""
        q = FairQueue()
        for i in range(40):
            q.push("gold", ("gold", i), weight=4)
            q.push("bronze", ("bronze", i), weight=1)
        first = [q.pop() for _ in range(20)]
        gold = sum(1 for tenant, _ in first if tenant == "gold")
        bronze = 20 - gold
        assert gold == 16 and bronze == 4

    def test_no_starvation_within_one_round(self):
        """Every backlogged lane is served within sum(weights) pops."""
        q = FairQueue()
        weights = {"a": 8, "b": 4, "c": 1}
        for key, weight in weights.items():
            for i in range(30):
                q.push(key, (key, i), weight=weight)
        round_size = sum(weights.values())
        drained = [q.pop() for _ in range(3 * round_size)]
        for start in range(0, len(drained) - round_size, round_size):
            window = {tenant for tenant, _ in drained[start:start + round_size]}
            assert window == set(weights), (
                f"lane starved in window {start}..{start + round_size}"
            )

    def test_global_bound_raises_full(self):
        q = FairQueue(maxsize=2)
        q.push("a", 1)
        q.push("b", 2)
        with pytest.raises(queue.Full):
            q.push("c", 3)

    def test_per_lane_bound_raises_lane_backlog_full(self):
        q = FairQueue(maxsize=10, per_lane_limit=2)
        q.push("a", 1)
        q.push("a", 2)
        with pytest.raises(LaneBacklogFull):
            q.push("a", 3)
        q.push("b", 4)  # other lanes unaffected

    def test_lane_backlog_full_is_a_queue_full(self):
        assert issubclass(LaneBacklogFull, queue.Full)

    def test_control_items_win_over_data(self):
        q = FairQueue()
        q.push("a", "data")
        sentinel = object()
        q.push_control(sentinel)
        assert q.pop() is sentinel
        assert q.pop() == "data"

    def test_control_bypasses_bounds(self):
        q = FairQueue(maxsize=1)
        q.push("a", 1)
        q.push_control("stop")  # must not raise
        assert not q.empty()

    def test_returning_lane_forfeits_leftover_deficit(self):
        q = FairQueue()
        q.push("a", 1, weight=8)
        assert q.pop() == 1  # lane drains; unused deficit must vanish
        q.push("a", 2, weight=8)
        q.push("b", 3, weight=1)
        drained = [q.pop(), q.pop()]
        assert set(drained) == {2, 3}

    def test_work_conserving_concurrent(self):
        """pop() never blocks while items remain (single hot lane)."""
        q = FairQueue()
        for i in range(200):
            q.push("hot", i)
        got: list[int] = []
        lock = threading.Lock()
        stop = object()

        def drain():
            while (item := q.pop()) is not stop:
                with lock:
                    got.append(item)

        threads = [threading.Thread(target=drain, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        # A pop() that blocked with items queued would leave them there.
        deadline = time.monotonic() + 10.0
        while q.qsize() and time.monotonic() < deadline:
            time.sleep(0.005)
        for _ in threads:
            q.push_control(stop)  # control wins over data: only after the drain
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(got) == list(range(200))

    @settings(max_examples=100)
    @given(
        pushes=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_drain_preserves_items_and_per_lane_order(self, pushes):
        """Complete drain: nothing lost, nothing duplicated, FIFO per lane."""
        q = FairQueue()
        expected: dict[str, list[int]] = {}
        for seq, (key, weight) in enumerate(pushes):
            q.push(key, (key, seq), weight=weight)
            expected.setdefault(key, []).append(seq)
        drained: dict[str, list[int]] = {}
        for _ in range(len(pushes)):
            key, seq = q.pop()
            drained.setdefault(key, []).append(seq)
        assert q.empty()
        assert drained == expected


def _item_key(item):
    return item[-1]


class _RecordingQueue(FairQueue):
    """A FairQueue that records the timeout of every ``Condition.wait``
    and signals ``waiting`` just before blocking in one."""

    def __init__(self):
        super().__init__()
        self.waits: list[float | None] = []
        self.waiting = threading.Event()
        wait = self._not_empty.wait

        def recording_wait(timeout=None):
            self.waits.append(timeout)
            self.waiting.set()
            return wait(timeout)

        self._not_empty.wait = recording_wait

    def pop_batch_in_thread(self):
        """Run ``pop_batch`` on a thread; returns (thread, result list)."""
        out: list = []
        thread = threading.Thread(
            target=lambda: out.append(self.pop_batch(8, _item_key)), daemon=True
        )
        thread.start()
        return thread, out


class TestPopBatch:
    """``pop_batch`` forms batches without reordering, without taking
    what it will not serve, and waits only when it found a backlog."""

    @settings(max_examples=100, deadline=None)
    @given(
        pushes=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=8),
                st.sampled_from(["k1", "k2"]),
            ),
            min_size=1,
            max_size=60,
        ),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_batches_are_single_key_runs_of_the_pop_order(self, pushes, limit):
        batched, twin = FairQueue(), FairQueue()
        for seq, (lane, weight, key) in enumerate(pushes):
            batched.push(lane, (lane, seq, key), weight=weight)
            twin.push(lane, (lane, seq, key), weight=weight)
        expected = [twin.pop() for _ in pushes]
        batches = []
        while not batched.empty():
            batches.append(batched.pop_batch(limit, _item_key))
        assert [item for batch in batches for item in batch] == expected
        for batch, following in zip(batches, batches[1:] + [[]]):
            assert 1 <= len(batch) <= limit
            assert len({_item_key(item) for item in batch}) == 1
            # Maximal: a batch ends only at its limit or at another key.
            if len(batch) < limit and following:
                assert _item_key(following[0]) != _item_key(batch[0])

    def test_item_with_another_key_stays_queued(self):
        q = _RecordingQueue()
        q.push("a", ("a", 0, "k1"))
        q.push("a", ("a", 1, "k2"))
        q.push("a", ("a", 2, "k1"))
        assert q.pop_batch(8, _item_key) == [("a", 0, "k1")]
        assert q.qsize() == 2 and q.backlog("a") == 2
        assert q.waits == []  # found its answer in the queue: no wait at all
        assert q.pop() == ("a", 1, "k2")

    def test_control_item_comes_back_alone_and_first(self):
        q = FairQueue()
        sentinel = object()
        q.push("a", ("a", 0, "k"))
        q.push("a", ("a", 1, "k"))
        q.push_control(sentinel)
        assert q.pop_batch(8, _item_key) == [sentinel]
        assert q.pop_batch(2, _item_key) == [("a", 0, "k"), ("a", 1, "k")]

    def test_control_item_ends_a_linger_and_is_not_batched(self, monkeypatch):
        monkeypatch.setattr(scheduler, "_LINGER_S", 30.0)
        q = _RecordingQueue()
        sentinel = object()
        q.push("a", ("a", 0, "k"))
        thread, out = q.pop_batch_in_thread()
        assert q.waiting.wait(timeout=10.0)  # lingering for companions
        q.push_control(sentinel)
        thread.join(timeout=10.0)
        assert out == [[("a", 0, "k")]]
        assert q.pop_batch(8, _item_key) == [sentinel]

    def test_idle_consumer_returns_at_once(self):
        q = _RecordingQueue()
        thread, out = q.pop_batch_in_thread()
        assert q.waiting.wait(timeout=10.0)
        q.push("a", ("a", 0, "k"))
        thread.join(timeout=10.0)
        assert out == [[("a", 0, "k")]]
        # It blocked (untimed) for its first item and never lingered.
        assert q.waits and set(q.waits) == {None}

    def test_backlog_consumer_lingers_once(self, monkeypatch):
        q = _RecordingQueue()
        q.push("a", ("a", 0, "k"))
        assert q.pop_batch(8, _item_key) == [("a", 0, "k")]
        assert q.waits == [scheduler._LINGER_S] and scheduler._LINGER_S <= 0.002
        # A companion that arrives during the linger joins the batch; the
        # consumer does not linger a second time for a third.
        monkeypatch.setattr(scheduler, "_LINGER_S", 30.0)
        q.waits.clear()
        q.waiting.clear()
        q.push("a", ("a", 1, "k"))
        thread, out = q.pop_batch_in_thread()
        assert q.waiting.wait(timeout=10.0)
        q.push("b", ("b", 2, "k"))
        thread.join(timeout=10.0)
        assert out == [[("a", 1, "k"), ("b", 2, "k")]]
        assert q.waits == [30.0]

    def test_wakeup_absorbed_by_a_linger_is_passed_on(self, monkeypatch):
        """A lingering consumer woken for an item it will not take must
        not leave an idle sibling asleep next to a non-empty queue."""
        monkeypatch.setattr(scheduler, "_LINGER_S", 30.0)
        q = _RecordingQueue()
        q.push("a", ("a", 0, "k1"))
        lingering, lingering_out = q.pop_batch_in_thread()
        assert q.waiting.wait(timeout=10.0)
        q.waiting.clear()
        idle, idle_out = q.pop_batch_in_thread()
        assert q.waiting.wait(timeout=10.0)
        # notify() wakes the longest waiter: the lingering consumer.
        q.push("a", ("a", 1, "k2"))
        lingering.join(timeout=10.0)
        idle.join(timeout=10.0)
        assert lingering_out == [[("a", 0, "k1")]]
        assert idle_out == [[("a", 1, "k2")]]


# --------------------------------------------------------------- QuotaLedger


class FakeClock:
    """Injectable UTC clock for deterministic day rollover."""

    def __init__(self, start: datetime):
        self.now = start

    def __call__(self) -> datetime:
        return self.now

    def advance(self, **kwargs) -> None:
        self.now = self.now + timedelta(**kwargs)


class TestQuotaLedger:
    def setup_method(self):
        self.clock = FakeClock(datetime(2026, 8, 8, 12, 0, tzinfo=timezone.utc))

    def test_charge_until_limit(self):
        ledger = QuotaLedger(now_fn=self.clock)
        assert ledger.charge("t", 2).allowed
        assert ledger.charge("t", 2).allowed
        denied = ledger.charge("t", 2)
        assert not denied.allowed
        assert denied.used == 2
        assert denied.retry_after_s == pytest.approx(12 * 3600)

    def test_unlimited_still_counts(self):
        ledger = QuotaLedger(now_fn=self.clock)
        for _ in range(5):
            assert ledger.charge("t", None).allowed
        assert ledger.usage("t") == ("2026-08-08", 5)

    def test_day_rollover_resets_counts(self):
        ledger = QuotaLedger(now_fn=self.clock)
        assert ledger.charge("t", 1).allowed
        assert not ledger.charge("t", 1).allowed
        self.clock.advance(days=1)
        assert ledger.charge("t", 1).allowed
        assert ledger.usage("t") == ("2026-08-09", 1)

    def test_checkpoint_survives_restart(self, tmp_path):
        path = tmp_path / "quota.json"
        ledger = QuotaLedger(path, now_fn=self.clock)
        for _ in range(3):
            ledger.charge("t", 10)
        ledger.close()
        reborn = QuotaLedger(path, now_fn=self.clock)
        assert reborn.usage("t") == ("2026-08-08", 3)
        # The budget keeps counting from the restored state.
        for _ in range(7):
            assert reborn.charge("t", 10).allowed
        assert not reborn.charge("t", 10).allowed

    def test_stale_checkpoint_from_previous_day_ignored(self, tmp_path):
        path = tmp_path / "quota.json"
        ledger = QuotaLedger(path, now_fn=self.clock)
        ledger.charge("t", 10)
        ledger.close()
        self.clock.advance(days=2)
        reborn = QuotaLedger(path, now_fn=self.clock)
        assert reborn.usage("t") == ("2026-08-10", 0)

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path):
        path = tmp_path / "quota.json"
        path.write_text("{not json!!")
        ledger = QuotaLedger(path, now_fn=self.clock)
        assert ledger.charge("t", 5).allowed
        ledger.flush()
        assert json.loads(path.read_text())["counts"] == {"t": 1}

    def test_flush_every_batches_checkpoints(self, tmp_path):
        path = tmp_path / "quota.json"
        ledger = QuotaLedger(path, flush_every=3, now_fn=self.clock)
        ledger.charge("t", None)
        ledger.charge("t", None)
        assert not path.exists()  # below the batch threshold
        ledger.charge("t", None)
        assert json.loads(path.read_text())["counts"] == {"t": 3}


# ------------------------------------------------------------ TenantRegistry


def write_config(path, *, version=1, tenants=None, admin_keys=(), classes=None):
    payload = {
        "version": version,
        "admin_keys": list(admin_keys),
        "tenants": tenants if tenants is not None else [
            {"id": "acme", "api_key": "acme-secret-key", "class": "gold",
             "rate": 50, "burst": 100, "daily_quota": 1000},
            {"id": "blip", "api_key": "blip-secret-key", "class": "bronze"},
        ],
    }
    if classes is not None:
        payload["priority_classes"] = classes
    path.write_text(json.dumps(payload))
    # Hot reload keys on (mtime_ns, size); pin mtime to the version so
    # back-to-back rewrites are detected even on coarse-mtime filesystems.
    os.utime(path, ns=(version * 10**9, version * 10**9))


class TestTenantRegistry:
    def test_from_file_and_authenticate(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, admin_keys=["ops-admin-key"])
        registry = TenantRegistry.from_file(config)
        assert registry.version == 1
        acme = registry.authenticate("acme-secret-key")
        assert acme is not None and acme.tenant_id == "acme"
        assert acme.weight == 8  # gold default class weight
        assert registry.authenticate("wrong-key-000") is None
        assert registry.authenticate(None) is None
        assert registry.is_admin("ops-admin-key")
        assert not registry.is_admin("acme-secret-key")

    def test_disabled_tenant_cannot_authenticate(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, tenants=[
            {"id": "off", "api_key": "offline-key-1", "enabled": False},
        ])
        registry = TenantRegistry.from_file(config)
        assert registry.authenticate("offline-key-1") is None
        assert registry.get("off") is not None  # record (and quota) kept

    def test_custom_priority_classes(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(
            config,
            classes={"platinum": 16},
            tenants=[{"id": "t", "api_key": "ttttttttt", "class": "platinum"}],
        )
        registry = TenantRegistry.from_file(config)
        assert registry.get("t").weight == 16

    @pytest.mark.parametrize("bad", [
        {"tenants": [{"id": "x y", "api_key": "long-enough-key"}]},  # bad id
        {"tenants": [{"id": "x", "api_key": "short"}]},              # short key
        {"tenants": [{"id": "x", "api_key": "kkkkkkkk", "class": "nope"}]},
        {"tenants": [{"id": "x", "api_key": "kkkkkkkk", "rate": 0}]},
        {"tenants": [
            {"id": "x", "api_key": "kkkkkkkk"},
            {"id": "x", "api_key": "jjjjjjjj"},                      # dup id
        ]},
        {"tenants": [
            {"id": "x", "api_key": "kkkkkkkk"},
            {"id": "y", "api_key": "kkkkkkkk"},                      # dup key
        ]},
    ])
    def test_malformed_configs_rejected(self, bad):
        with pytest.raises(TenantConfigError):
            _parse_config({"version": 1, **bad})

    def test_hot_reload_swaps_table(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, version=1)
        registry = TenantRegistry.from_file(config)
        generation = registry.generation
        write_config(config, version=2, tenants=[
            {"id": "new", "api_key": "new-tenant-key"},
        ])
        assert registry.reload_if_changed(min_interval_s=0.0)
        assert registry.version == 2
        assert registry.generation == generation + 1
        assert registry.authenticate("acme-secret-key") is None
        assert registry.authenticate("new-tenant-key").tenant_id == "new"

    def test_bad_reload_keeps_serving_old_table(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, version=1)
        registry = TenantRegistry.from_file(config)
        config.write_text("{broken json")
        assert not registry.reload_if_changed(min_interval_s=0.0)
        assert registry.version == 1
        assert registry.authenticate("acme-secret-key") is not None

    def test_reload_is_throttled(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, version=1)
        registry = TenantRegistry.from_file(config)
        write_config(config, version=2)
        registry.reload_if_changed(min_interval_s=0.0)
        write_config(config, version=3)
        # Within the throttle interval nothing is stat'd, so no reload.
        assert not registry.reload_if_changed(min_interval_s=3600.0)
        assert registry.version == 2


# -------------------------------------------------------- TenancyController


def make_controller(tmp_path, **tenant_overrides):
    config = tmp_path / "tenants.json"
    tenant = {"id": "acme", "api_key": "acme-secret-key",
              "class": "gold", "rate": 1000.0, "burst": 1000.0}
    tenant.update(tenant_overrides)
    write_config(config, tenants=[tenant], admin_keys=["ops-admin-key"])
    return TenancyController(TenantRegistry.from_file(config))


class TestTenancyController:
    def test_admit_happy_path(self, tmp_path):
        controller = make_controller(tmp_path)
        tenant = controller.admit("acme-secret-key")
        assert tenant.tenant_id == "acme"
        assert controller.usage("acme")["admitted"] == 1

    def test_unknown_key_raises_authentication_error(self, tmp_path):
        controller = make_controller(tmp_path)
        with pytest.raises(AuthenticationError):
            controller.admit("wrong-key-0000")
        with pytest.raises(AuthenticationError):
            controller.admit(None)
        assert controller.overview()["auth_failures"] == 2

    def test_rate_limit_maps_to_rate_limited_error(self, tmp_path):
        controller = make_controller(tmp_path, rate=1.0, burst=1.0)
        controller.admit("acme-secret-key")
        with pytest.raises(RateLimitedError) as excinfo:
            controller.admit("acme-secret-key")
        assert excinfo.value.retry_after_s > 0
        assert controller.usage("acme")["rejected"]["rate_limited"] == 1

    def test_quota_maps_to_quota_exceeded_error(self, tmp_path):
        controller = make_controller(tmp_path, daily_quota=2)
        controller.admit("acme-secret-key")
        controller.admit("acme-secret-key")
        with pytest.raises(QuotaExceededError) as excinfo:
            controller.admit("acme-secret-key")
        assert excinfo.value.retry_after_s > 0
        usage = controller.usage("acme")
        assert usage["quota_used"] == 2
        assert usage["quota_remaining"] == 0
        assert usage["rejected"]["quota"] == 1

    def test_buckets_survive_noop_reload_but_resync_on_change(self, tmp_path):
        config = tmp_path / "tenants.json"
        write_config(config, version=1, tenants=[
            {"id": "acme", "api_key": "acme-secret-key",
             "rate": 10.0, "burst": 10.0},
        ])
        registry = TenantRegistry.from_file(config)
        controller = TenancyController(registry)
        for _ in range(10):
            controller.admit("acme-secret-key")  # bucket now empty
        # Unrelated config change: the drained bucket must survive (no
        # free burst refill from a config push).
        write_config(config, version=2, tenants=[
            {"id": "acme", "api_key": "acme-secret-key",
             "rate": 10.0, "burst": 10.0},
            {"id": "other", "api_key": "other-key-0001"},
        ])
        assert registry.reload_if_changed(min_interval_s=0.0)
        with pytest.raises(RateLimitedError):
            controller.admit("acme-secret-key")
        # Changing the tenant's limits DOES hand it a fresh bucket.
        write_config(config, version=3, tenants=[
            {"id": "acme", "api_key": "acme-secret-key",
             "rate": 10.0, "burst": 20.0},
        ])
        assert registry.reload_if_changed(min_interval_s=0.0)
        assert controller.admit("acme-secret-key").tenant_id == "acme"

    def test_overview_lists_tenants_without_keys(self, tmp_path):
        controller = make_controller(tmp_path)
        overview = controller.overview()
        assert overview["config_version"] == 1
        [entry] = overview["tenants"]
        assert entry["id"] == "acme"
        assert "api_key" not in entry
