"""Tests for the credit-bucket link with FIFO overflow queue, and for the
source-link column store's charge, refill and lazy replay."""

import numpy as np
import pytest

from repro.network.bandwidth import (
    ConstantBandwidth,
    SineBandwidth,
    TraceBandwidth,
)
from repro.network.link import Link
from repro.network.messages import FeedbackMessage, RefreshMessage
from repro.network.source_links import SourceLinks
from repro.network.topology import StarTopology


def make_link(rate=5.0, sink=None):
    delivered = [] if sink is None else sink
    link = Link("test", ConstantBandwidth(rate), deliver=delivered.append)
    return link, delivered


def msg(source_id=0):
    return FeedbackMessage(source_id=source_id)


def star(*profiles):
    """A star over ``profiles`` whose cache link never runs dry."""
    return StarTopology(ConstantBandwidth(1e9), list(profiles))


def eager_lazy_pair(make_profile):
    """Source row 0 refills eagerly every tick; row 1 replays lazily."""
    topology = star(make_profile(), make_profile())
    topology.source_links.set_lazy(0, False)
    return topology


def send(topology, row, at):
    """One upstream send from ``row`` at ``at``: sync, accrue, charge."""
    return topology.send_upstream(RefreshMessage(source_id=row, sent_at=at))


def assert_rows_equal(links, eager, lazy):
    assert links.credit[lazy] == links.credit[eager]
    assert links.last_accrue[lazy] == links.last_accrue[eager]
    assert links.tick_added[lazy] == links.tick_added[eager]


class TestTrySend:
    """A source link refuses a send without credit; it never queues."""

    def test_try_send_without_credit_fails(self):
        topology = star(ConstantBandwidth(5.0))
        delivered = []
        topology.set_cache_receiver(delivered.append)
        assert not send(topology, 0, 0.0)
        assert delivered == []
        assert topology.source_links.sends == [0]

    def test_try_send_with_credit_delivers_immediately(self):
        topology = star(ConstantBandwidth(5.0))
        delivered = []
        topology.set_cache_receiver(delivered.append)
        topology.on_network_tick(1.0)
        assert send(topology, 0, 1.0)
        assert len(delivered) == 1
        assert topology.source_links.sends == [1]

    def test_try_send_consumes_credit(self):
        topology = star(ConstantBandwidth(2.0))
        topology.on_network_tick(1.0)  # 2 units
        assert send(topology, 0, 1.0)
        assert send(topology, 0, 1.0)
        assert not send(topology, 0, 1.0)
        assert topology.source_links.sends == [2]
        assert topology.source_links.units == [2.0]
        assert topology.cache_link.queued == 0  # refused, not queued


class TestQueueing:
    def test_enqueue_then_drain_fifo(self):
        link, delivered = make_link(rate=10.0)
        first, second = msg(1), msg(2)
        link.enqueue(first)
        link.enqueue(second)
        link.refill(1.0)
        assert link.drain() == 2
        assert delivered == [first, second]

    def test_drain_limited_by_credit(self):
        link, delivered = make_link(rate=2.0)
        for i in range(5):
            link.enqueue(msg(i))
        link.refill(1.0)
        assert link.drain() == 2
        assert link.queued == 3

    def test_messages_never_lost(self):
        link, delivered = make_link(rate=1.0)
        total = 17
        for i in range(total):
            link.enqueue(msg(i))
        now = 0.0
        for _ in range(40):
            now += 1.0
            link.refill(now)
            link.drain()
        assert len(delivered) + link.queued == total
        assert len(delivered) == total  # 40 ticks at 1/tick is enough

    def test_queued_peak_tracked(self):
        link, _ = make_link(rate=0.0)
        for i in range(4):
            link.enqueue(msg(i))
        assert link.total_queued_peak == 4


class TestCredit:
    def test_refill_accrues_profile_capacity(self):
        link, _ = make_link(rate=3.0)
        link.refill(2.0)
        assert link.credit == pytest.approx(6.0)

    def test_carryover_capped_at_one_tick(self):
        link, _ = make_link(rate=5.0)
        link.refill(1.0)  # 5 credits, unused
        link.refill(2.0)  # carry capped at 5, plus 5 new
        assert link.credit == pytest.approx(10.0)
        link.refill(3.0)
        assert link.credit == pytest.approx(10.0)  # still capped

    def test_fractional_capacity_accumulates(self):
        """0.5 msgs/tick must deliver one message every two ticks."""
        link, delivered = make_link(rate=0.5)
        link.enqueue(msg())
        link.refill(1.0)
        assert link.drain() == 0
        link.refill(2.0)
        assert link.drain() == 1

    def test_utilization_and_surplus(self):
        link, _ = make_link(rate=4.0)
        link.enqueue(msg())
        link.refill(1.0)
        link.drain()
        assert link.utilization() == pytest.approx(0.25)
        assert link.surplus() == pytest.approx(3.0)

    def test_surplus_zero_when_backlogged(self):
        link, _ = make_link(rate=1.0)
        link.enqueue(msg(0))
        link.enqueue(msg(1))
        link.refill(1.0)
        link.drain()
        assert link.queued == 1
        assert link.surplus() == 0.0

    def test_surplus_accrues_mid_tick_credit(self):
        """Regression: a mid-tick surplus reading must include capacity
        earned since the link was last touched, not a stale balance."""
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        assert link.surplus() == pytest.approx(4.0)
        # Half a tick later the bucket has earned 2 more units; without
        # the accrual the reading under-counts at exactly 4.0.
        assert link.surplus(1.5) == pytest.approx(6.0)

    def test_surplus_without_now_matches_tick_aligned_reading(self):
        """At the refill boundary the accrual is a no-op, so readers that
        pass ``now`` and readers that do not agree bit for bit."""
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        assert link.surplus(1.0) == link.surplus()

    def test_utilization_zero_with_no_capacity(self):
        link, _ = make_link(rate=0.0)
        link.refill(1.0)
        assert link.utilization() == 0.0


class TestPublicCreditApi:
    def test_try_consume_spends_credit(self):
        link, _ = make_link(rate=2.0)
        link.refill(1.0)
        assert link.try_consume(1.0)
        assert link.credit == pytest.approx(1.0)

    def test_try_consume_refuses_without_credit(self):
        link, _ = make_link(rate=0.0)
        link.refill(1.0)
        assert not link.try_consume(1.0)
        assert link.credit == pytest.approx(0.0)

    def test_try_consume_counts_toward_utilization(self):
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        link.try_consume(2.0)
        assert link.utilization() == pytest.approx(0.5)

    def test_send_bypasses_queue(self):
        """Downstream sends share credit with, but not the queue of, the
        upstream flow."""
        link, delivered = make_link(rate=2.0)
        link.enqueue(msg(0))
        link.refill(1.0)
        got = []
        assert link.send(msg(1), got.append)
        assert len(got) == 1
        assert link.queued == 1  # the queued message was not overtaken...
        assert delivered == []  # ...nor delivered by the send

    def test_send_without_credit_fails(self):
        link, _ = make_link(rate=0.0)
        got = []
        assert not link.send(msg(), got.append)
        assert got == []

    def test_send_without_receiver_still_spends(self):
        link, _ = make_link(rate=2.0)
        link.refill(1.0)
        assert link.send(msg())
        assert link.credit == pytest.approx(1.0)
        assert link.total_sent == 1


class TestLazyRequiresSteadyProfile:
    """Lazy refill replay is only exact for steady profiles; marking any
    other source row lazy must fail loudly instead of silently
    diverging."""

    def test_non_steady_profile_refuses_lazy(self):
        links = star(SineBandwidth(4.0, 0.25)).source_links
        assert links.eager == [0]
        with pytest.raises(ValueError, match="not steady"):
            links.set_lazy(0, True)
        assert links.eager == [0]

    def test_steady_profile_accepts_lazy(self):
        links = star(ConstantBandwidth(4.0)).source_links
        links.set_lazy(0, False)
        assert links.eager == [0]
        links.set_lazy(0, True)
        assert links.eager == []

    def test_non_steady_may_be_marked_eager(self):
        links = star(SineBandwidth(4.0, 0.25)).source_links
        links.set_lazy(0, False)  # the classification always assigns
        assert links.eager == [0]


class TestLazySync:
    """SourceLinks.sync must replay skipped refills bit-for-bit: the same
    accrue/cap float operations at the same tick boundaries the eager
    schedule performed, including non-dyadic rates whose per-tick sums
    differ from any closed form in the last ulp.  Each test compares an
    eager row, refilled every tick, with a lazy row over the same
    profile."""

    @staticmethod
    def eager_lazy_pair(rate):
        return eager_lazy_pair(lambda: ConstantBandwidth(rate))

    def test_sync_matches_eager_refills_when_idle(self):
        topology = self.eager_lazy_pair(2.5)
        for tick in range(1, 8):
            topology.on_network_tick(float(tick))
        links = topology.source_links
        links.sync(1, 7, 7.0, 6.0, 1.0)
        assert_rows_equal(links, 0, 1)

    def test_sync_matches_eager_after_mid_tick_sends(self):
        topology = self.eager_lazy_pair(1.5)
        topology.on_network_tick(1.0)
        for row in (0, 1):
            assert send(topology, row, 1.4)  # accrues to its send time
        for tick in range(2, 6):
            topology.on_network_tick(float(tick))
        links = topology.source_links
        links.sync(1, 5, 5.0, 4.0, 1.0)
        assert_rows_equal(links, 0, 1)

    def test_sync_is_idempotent_per_tick(self):
        links = SourceLinks([ConstantBandwidth(2.0)])
        links.sync(0, 3, 3.0, 2.0, 1.0)
        credit = links.credit[0]
        links.sync(0, 3, 3.0, 2.0, 1.0)  # same tick: no double refill
        assert links.credit[0] == credit
        assert links.synced_tick[0] == 3

    @pytest.mark.parametrize("rate", [0.25, 0.1, 0.3, 1.0 / 3.0, 0.7])
    def test_fractional_rate_sync_is_bit_exact(self, rate):
        """Credit accumulates across skipped ticks exactly as the eager
        schedule banked it.  The non-dyadic rates are the regression
        case: summing rate*dt per tick differs from rate*k*dt in the
        last ulp (e.g. ten 0.1-steps give 0.9999999999999999, not 1.0),
        which is enough to flip an at-capacity decision."""
        topology = self.eager_lazy_pair(rate)
        for tick in range(1, 11):
            topology.on_network_tick(float(tick))
        links = topology.source_links
        links.sync(1, 10, 10.0, 9.0, 1.0)
        assert_rows_equal(links, 0, 1)
        assert topology.source_at_capacity(1) == \
            topology.source_at_capacity(0)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 2.5])
    def test_long_idle_span_saturation_jump(self, rate):
        """A long idle span saturates the bucket; the replay's jump to
        the final boundary must land on the eager schedule's floats."""
        topology = self.eager_lazy_pair(rate)
        boundary = 0.0
        for _ in range(500):
            boundary = boundary + 1.0
            topology.on_network_tick(boundary)
        links = topology.source_links
        links.sync(1, 500, boundary, boundary - 1.0, 1.0)
        assert_rows_equal(links, 0, 1)

    def test_consume_between_syncs_stays_exact(self):
        """Interleave sends and idle spans: the replayed chain must track
        the eager chain through every consume/refill alternation."""
        topology = self.eager_lazy_pair(0.3)
        links = topology.source_links
        tick = 0
        boundary = 0.0
        for span in (4, 7, 1, 13, 2):
            prev = boundary
            for _ in range(span):
                prev = boundary
                boundary = boundary + 1.0
                topology.on_network_tick(boundary)
            tick += span
            links.sync(1, tick, boundary, prev, 1.0)
            assert_rows_equal(links, 0, 1)
            send_at = boundary + 0.4
            for row in (0, 1):
                send(topology, row, send_at)
            assert_rows_equal(links, 0, 1)
        assert links.sends[1] == links.sends[0] > 0

    def test_on_queue_hook_fires(self):
        link = Link("hooked", ConstantBandwidth(0.0))
        queued = []
        link.on_queue = queued.append
        message = FeedbackMessage(source_id=0, sent_at=1.0)
        link.enqueue(message)
        assert queued == [message]


def _diurnal(mean, duration, segments, amplitude=0.6):
    times = np.linspace(0.0, duration, segments, endpoint=False)
    rates = mean * (1.0 + amplitude * np.sin(2 * np.pi * times / duration))
    return TraceBandwidth(times=times, rates=rates)


class TestLazyTraceSync:
    """Trace-profile lazy replay: the segment-indexed fast path must be
    bit-for-bit against the eager per-tick chain through saturation
    jumps, partial jumps at barrier segments (rate more than doubling),
    and zero-rate outage runs."""

    TRACES = {
        # Segments (0.6 ticks) shorter than dt: every tick straddles a
        # breakpoint, so only the cross-segment jump can skip anything.
        "diurnal-dense": lambda: _diurnal(1.0, 120.0, 200),
        "diurnal-coarse": lambda: _diurnal(2.5, 120.0, 12),
        # Sharp alternations: every transition is a barrier (the earned
        # capacity more than doubles), forcing explicit replay there.
        "sawtooth": lambda: TraceBandwidth(
            times=[0.0, 17.0, 31.0, 54.0, 80.0],
            rates=[0.2, 5.0, 0.1, 8.0, 0.3]),
        # A mid-run blackout: the zero-rate run fixpoint jump.
        "outage": lambda: TraceBandwidth.with_outage(3.0, 40.0, 85.0),
        # Trickle rates saturate the one-message floor cap immediately.
        "trickle": lambda: _diurnal(0.05, 120.0, 60),
    }

    @staticmethod
    def boundaries(ticks, dt=1.0):
        """The ticker's float-accumulation chain, index = tick number."""
        chain = [0.0]
        for _ in range(ticks):
            chain.append(chain[-1] + dt)
        return chain

    def run_pair(self, make_trace, checkpoints, consume_at=(),
                 pass_boundaries=True):
        topology = eager_lazy_pair(make_trace)
        links = topology.source_links
        ticks = max(checkpoints)
        chain = self.boundaries(ticks)
        consume_at = set(consume_at)
        checkpoint_set = set(checkpoints)
        for tick in range(1, ticks + 1):
            topology.on_network_tick(chain[tick])
            if tick in checkpoint_set:
                links.sync(1, tick, chain[tick], chain[tick - 1], 1.0,
                           chain if pass_boundaries else None)
                assert links.credit[1] == links.credit[0], f"tick {tick}"
                assert_rows_equal(links, 0, 1)
                assert links.synced_tick[1] == tick
            if tick in consume_at:
                send_at = chain[tick] + 0.37
                for row in (0, 1):
                    send(topology, row, send_at)
                assert_rows_equal(links, 0, 1)
        assert links.sends[1] == links.sends[0]
        return topology

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_sparse_sync_matches_eager(self, name):
        """Long idle gaps between syncs: jumps must land on the eager
        floats at every checkpoint."""
        self.run_pair(self.TRACES[name],
                      checkpoints=[3, 40, 41, 95, 150, 151, 290])

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_every_tick_sync_matches_eager(self, name):
        """Degenerate case: syncing every tick is the eager chain."""
        self.run_pair(self.TRACES[name], checkpoints=range(1, 60))

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_consumes_between_syncs_stay_exact(self, name):
        """Sends drain credit below the cap mid-gap; the next replay must
        track the eager chain from that exact float."""
        self.run_pair(self.TRACES[name],
                      checkpoints=[5, 30, 31, 70, 130, 200],
                      consume_at=[5, 30, 70, 130])

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_without_boundaries_replays_exactly(self, name):
        """No recorded boundary chain: per-tick replay, still exact
        because the synthesized chain is the same float accumulation."""
        self.run_pair(self.TRACES[name], checkpoints=[7, 50, 120],
                      pass_boundaries=False)

    def test_random_checkpoints_fuzz(self):
        rng = np.random.default_rng(5)
        for name, make_trace in sorted(self.TRACES.items()):
            ticks = 400
            checkpoints = sorted(set(
                rng.integers(1, ticks, size=25).tolist()) | {ticks})
            consume_at = set(
                rng.choice(checkpoints, size=8, replace=False).tolist())
            self.run_pair(make_trace, checkpoints, consume_at)

    def test_shared_trace_instance_across_links(self):
        """Many links sharing one trace (the m = 10^5 layout) must not
        interfere through the shared segment cache and jump memos."""
        trace = _diurnal(1.0, 120.0, 200)
        # Rows 0-2 refill eagerly, each on its own trace; rows 3-5 share
        # one trace and replay lazily.
        topology = star(*[_diurnal(1.0, 120.0, 200) for _ in range(3)],
                        trace, trace, trace)
        links = topology.source_links
        for row in range(3):
            links.set_lazy(row, False)
        chain = self.boundaries(300)
        schedules = [[50, 170, 300], [51, 290, 300], [120, 121, 300]]
        for tick in range(1, 301):
            topology.on_network_tick(chain[tick])
            for row, schedule in enumerate(schedules, start=3):
                if tick in schedule:
                    links.sync(row, tick, chain[tick], chain[tick - 1],
                               1.0, chain)
        for row in range(3):
            assert_rows_equal(links, row, row + 3)

    def test_trace_profile_accepts_lazy(self):
        links = star(_diurnal(1.0, 60.0, 20)).source_links
        assert links.eager == []
        links.set_lazy(0, False)
        links.set_lazy(0, True)
        assert links.eager == []

    def test_flat_trace_takes_steady_path(self):
        """An all-equal-rate trace reports a steady rate and uses the
        constant closed-form jump, bit-identical to ConstantBandwidth."""
        flat = TraceBandwidth(times=[0.0, 30.0], rates=[2.5, 2.5])
        topology = star(ConstantBandwidth(2.5), flat)
        links = topology.source_links
        links.set_lazy(0, False)
        assert links.trace[1] is None  # routed to the steady sync
        chain = self.boundaries(200)
        for tick in range(1, 201):
            topology.on_network_tick(chain[tick])
        links.sync(1, 200, chain[200], chain[199], 1.0, chain)
        assert_rows_equal(links, 0, 1)
