"""Ingress tier units: admission, coalescing, metrics, crash put-back."""

import pytest

from repro.core.protocol import build_publish, parse_publish
from repro.errors import EnclaveLost, NetworkError
from repro.ingress import (POLICY_DROP_OLDEST, SHED_QUEUE_FULL,
                           SHED_RATE_LIMIT, IngressConfig, IngressTier)

from tests.ingress.conftest import make_pub


def make_tier(world, **config_kwargs):
    config_kwargs.setdefault("inbox_capacity", 64)
    config_kwargs.setdefault("batch_size", 4)
    return IngressTier(world.router, IngressConfig(**config_kwargs))


def hal_frames(world, count, start=0):
    return [make_pub(world, {"symbol": "HAL", "price": 10.0},
                     b"m%03d" % (start + i)) for i in range(count)]


class TestConfigValidation:

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            IngressConfig(inbox_capacity=0)
        with pytest.raises(ValueError):
            IngressConfig(batch_size=0)
        with pytest.raises(ValueError):
            IngressConfig(service_per_tick=0)
        with pytest.raises(ValueError):
            IngressConfig(shed_policy="yolo")

    def test_rate_and_burst_must_pair(self):
        with pytest.raises(ValueError):
            IngressConfig(rate_per_tick=2.0)
        with pytest.raises(ValueError):
            IngressConfig(burst=4.0)
        with pytest.raises(ValueError):
            IngressConfig(rate_per_tick=-1.0, burst=4.0)


class TestConnections:

    def test_connect_is_idempotent(self, world):
        tier = make_tier(world)
        assert tier.connect("alice") is tier.connect("alice")
        with pytest.raises(NetworkError):
            tier.connect("")

    def test_submit_after_close_raises(self, world):
        tier = make_tier(world)
        connection = tier.connect("alice")
        tier.disconnect("alice")
        with pytest.raises(NetworkError):
            connection.submit(b"frame")

    def test_disconnect_sheds_unadmitted_buffer(self, world):
        tier = make_tier(world)
        connection = tier.connect("alice")
        for frame in hal_frames(world, 3):
            connection.submit(frame)
        assert tier.disconnect("alice") == 3
        assert tier.offered == 3
        assert tier.shed == 3
        assert tier.shed_by_reason == {SHED_QUEUE_FULL: 3}
        assert tier.offered == tier.accepted + tier.shed + tier.backlog


class TestAdmission:

    def test_rate_limit_sheds_with_reason(self, world):
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        tier = make_tier(world, rate_per_tick=1.0, burst=1.0)
        connection = tier.connect("pub")
        for frame in hal_frames(world, 3):
            connection.submit(frame)
        tier.pump()
        assert tier.accepted == 1
        assert tier.shed == 2
        assert tier.shed_by_reason == {SHED_RATE_LIMIT: 2}
        metric = world.registry.counter("ingress.shed_total")
        assert metric.labelled(reason=SHED_RATE_LIMIT) == 2

    def test_queue_full_reject_new(self, world):
        tier = make_tier(world, inbox_capacity=2, service_per_tick=1)
        connection = tier.connect("pub")
        sheds = []
        tier.on_shed = lambda entry, reason: sheds.append(
            (entry.token, reason))
        for token, frame in enumerate(hal_frames(world, 4)):
            connection.submit(frame, token=token)
        tier.pump()
        # admission runs before dispatch: 0 and 1 fill the inbox, so
        # 2 and 3 bounce; dispatch then serves one entry
        assert tier.accepted == 1
        assert sheds == [(2, SHED_QUEUE_FULL), (3, SHED_QUEUE_FULL)]
        assert tier.queue_depth == 1
        assert tier.offered == tier.accepted + tier.shed + tier.backlog

    def test_queue_full_drop_oldest(self, world):
        tier = make_tier(world, inbox_capacity=2, service_per_tick=1,
                         shed_policy=POLICY_DROP_OLDEST)
        connection = tier.connect("pub")
        sheds = []
        tier.on_shed = lambda entry, reason: sheds.append(
            (entry.token, reason))
        for token, frame in enumerate(hal_frames(world, 4)):
            connection.submit(frame, token=token)
        tier.pump()
        # admission first: 2 evicts 0, 3 evicts 1; dispatch serves 2
        assert tier.accepted == 1
        assert sheds == [(0, SHED_QUEUE_FULL), (1, SHED_QUEUE_FULL)]
        completed = []
        tier.on_complete = lambda entry: completed.append(entry.token)
        tier.drain()
        assert completed == [3]


class TestCoalescing:

    def test_pub_runs_batch_to_size(self, world):
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        tier = make_tier(world, batch_size=4)
        connection = tier.connect("pub")
        for frame in hal_frames(world, 10):
            connection.submit(frame)
        tier.pump()
        assert tier.batches == 3  # 4 + 4 + 2
        histogram = world.registry.histogram("ingress.batch_size")
        assert histogram.count == 3
        assert histogram.total == 10
        assert world.router.publications == 10
        world.settle()
        assert len(world.deliveries()["alice"]) == 10

    def test_non_pub_frame_flushes_run_and_quarantines(self, world):
        """Junk between PUBs keeps FIFO order: the run flushes, the
        junk takes the per-frame boundary (quarantined), and the
        trailing PUBs form a fresh batch."""
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        tier = make_tier(world, batch_size=8)
        connection = tier.connect("pub")
        frames = hal_frames(world, 2) + [b"not a frame"] \
            + hal_frames(world, 2, start=2)
        completed = []
        tier.on_complete = lambda entry: completed.append(entry.token)
        for token, frame in enumerate(frames):
            connection.submit(frame, token=token)
        tier.pump()
        assert completed == [0, 1, 2, 3, 4]  # junk completes too
        assert tier.batches == 2
        assert len(world.router.dead_letters) == 1
        assert next(iter(world.router.dead_letters)).sender == "pub"
        assert tier.offered == tier.accepted + tier.shed

    def test_poison_pub_in_batch_quarantines_only_itself(self, world):
        """A corrupted envelope fails the whole batched ecall; the
        fallback isolates it per frame — the healthy neighbours still
        deliver, only the poison frame is dead-lettered. The batch is
        32 wide, so the ecall runs the lockstep CMAC path."""
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        frames = hal_frames(world, 32)
        # Break the header CMAC (via its last aad byte) inside a
        # well-formed PUB frame, so the tier coalesces it with the rest.
        header, payload = parse_publish(frames[13])
        frames[13] = build_publish(
            header[:-1] + bytes([header[-1] ^ 1]), payload)
        tier = make_tier(world, batch_size=32)
        connection = tier.connect("pub")
        for frame in frames:
            connection.submit(frame)
        tier.pump()
        world.settle()
        assert tier.accepted == 32  # poison is processed (quarantined)
        assert tier.batches == 1  # one 32-wide batched ecall
        assert len(world.router.dead_letters) == 1
        assert len(world.deliveries()["alice"]) == 31


class TestCrashPutBack:

    def test_enclave_loss_preserves_undispatched_entries(self, world):
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        tier = make_tier(world, batch_size=4)
        connection = tier.connect("pub")
        completed = []
        tier.on_complete = lambda entry: completed.append(entry.token)
        for token, frame in enumerate(hal_frames(world, 6)):
            connection.submit(frame, token=token)

        original = world.router.handle_publish_batch
        calls = []

        def flaky(frames, senders=None, progress=None):
            if not calls:
                calls.append("boom")
                raise EnclaveLost("injected mid-dispatch")
            return original(frames, senders=senders,
                            progress=progress)

        world.router.handle_publish_batch = flaky
        with pytest.raises(EnclaveLost):
            tier.pump()
        # nothing confirmed: everything is back in the tier, intact
        assert completed == []
        assert tier.accepted == 0
        assert tier.backlog == 6
        assert tier.offered == tier.accepted + tier.shed + tier.backlog

        tier.drain()
        assert completed == [0, 1, 2, 3, 4, 5]  # exactly once, in order
        assert tier.accepted == 6
        world.settle()
        assert len(world.deliveries()["alice"]) == 6

    def test_partial_batch_progress_is_honoured(self, world):
        """Frames the router confirmed before the crash complete and
        are not re-dispatched after recovery."""
        world.client("alice", subscription={"symbol": "HAL"})
        world.settle()
        tier = make_tier(world, batch_size=4)
        connection = tier.connect("pub")
        completed = []
        tier.on_complete = lambda entry: completed.append(entry.token)
        for token, frame in enumerate(hal_frames(world, 4)):
            connection.submit(frame, token=token)

        original = world.router.handle_publish_batch
        calls = []

        def flaky(frames, senders=None, progress=None):
            if not calls:
                calls.append("boom")
                original(frames[:2], senders=senders[:2],
                         progress=progress)
                raise EnclaveLost("died after two frames")
            return original(frames, senders=senders,
                            progress=progress)

        world.router.handle_publish_batch = flaky
        with pytest.raises(EnclaveLost):
            tier.pump()
        assert completed == [0, 1]
        assert tier.accepted == 2
        assert tier.backlog == 2
        tier.drain()
        assert completed == [0, 1, 2, 3]
        world.settle()
        assert len(world.deliveries()["alice"]) == 4


class TestStats:

    def test_stats_and_gauges_snapshot(self, world):
        tier = make_tier(world, service_per_tick=1)
        connection = tier.connect("pub")
        for frame in hal_frames(world, 3):
            connection.submit(frame)
        tier.pump()
        stats = tier.stats()
        assert stats["offered"] == 3
        assert stats["accepted"] == 1
        assert stats["queue_depth"] == 2
        assert stats["connections"] == 1
        snapshot = world.registry.snapshot()
        assert snapshot["ingress.offered_total"] == 3
        assert snapshot["ingress.accepted_total"] == 1
        assert snapshot["ingress.queue_depth"] == 2
        assert snapshot["ingress.connections"] == 1
