"""E14: pluggable delivery planes and multicast replica refresh.

Two benches pin the delivery layer of ``repro.network.delivery``:

* a reduced delivery x replication matrix whose three structural
  verdicts (multicast == unicast bitwise at replication 1, multicast
  strictly better divergence per cache-side unit at replication >= 2,
  CGM/ideal invariant across planes) are hard asserts everywhere --
  they are exactness/dominance claims, not timings;
* a plane-indirection overhead pair: the refactored
  ``Topology.send_upstream`` (charge block + bound ``fan_out`` call)
  against a hand-inlined replica of the pre-refactor star send path on
  an identical fresh topology.  The wall-clock ratio must stay within
  ``PLANE_OVERHEAD_LIMIT`` -- the acceptance number for routing every
  unicast send through the plane interface.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job, while the verdict asserts are hard
everywhere.
"""

import time

from conftest import run_once

from repro.experiments.harness import render, run
from repro.experiments.multicast import MULTICAST
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import RefreshMessage
from repro.network.topology import StarTopology

#: Max refactored / hand-inlined wall-clock ratio for unicast sends.
PLANE_OVERHEAD_LIMIT = 1.1
_SENDS = 40_000


def test_multicast_matrix_verdicts(benchmark):
    """Reduced E14 matrix: all three structural verdicts must hold."""
    points = run_once(benchmark, run, MULTICAST, replications=(1, 2),
                      sources=8, objects=4, cache_bandwidth=8.0,
                      source_bandwidth=4.0, warmup=40.0, measure=160.0)
    print()
    print(render(MULTICAST, points, "E14 (reduced): multicast matrix"))
    assert len(points) == 4  # 2 planes x 2 replications
    for verdict in MULTICAST.verdicts:
        assert verdict.judge(points) == "yes", verdict.label


def _make_star():
    """A star whose links never run dry over the benchmark window."""
    topology = StarTopology(ConstantBandwidth(1e9),
                            [ConstantBandwidth(1e9)])
    topology.set_cache_receiver(lambda message: None)
    topology.on_network_tick(1.0)
    return topology


def _send_via_plane(topology, count):
    send = topology.send_upstream
    for i in range(count):
        send(RefreshMessage(source_id=0, sent_at=1.0))


def _send_inlined(topology, count):
    """The pre-refactor star fast path, verbatim minus the plane."""
    for i in range(count):
        message = RefreshMessage(source_id=0, sent_at=1.0)
        links = topology.source_links
        j = message.source_id
        if links.synced_tick[j] < topology._tick_no:
            links.sync(j, topology._tick_no, topology._tick_time,
                       topology._prev_tick_time, topology._tick_dt,
                       topology._tick_boundaries)
        now = message.sent_at
        credit = links.credit
        balance = credit[j]
        last_accrue = links.last_accrue
        last = last_accrue[j]
        if now > last:
            rate = links.const_rate[j]
            added = (rate * (now - last) if rate is not None
                     else links.profile[j].capacity(last, now))
            last_accrue[j] = now
            balance += added
            links.tick_added[j] += added
        size = message.size
        if balance < size:
            credit[j] = balance
            continue
        credit[j] = balance - size
        links.units[j] += size
        links.sends[j] += 1
        if topology._reliable is not None:
            topology._reliable.on_send(message)
        topology.cache_link.transmit_or_queue(message)


def test_unicast_plane_overhead(benchmark):
    """Plane-routed unicast sends stay within 1.1x the inlined path.

    Fresh topologies per repeat (links accumulate credit/counters);
    interleaved minima so clock drift hits both arms equally.
    """

    def both():
        walls_plane, walls_inline = [], []
        sent = []
        for _ in range(3):
            topology = _make_star()
            start = time.perf_counter()
            _send_via_plane(topology, _SENDS)
            walls_plane.append(time.perf_counter() - start)
            sent.append(topology.cache_link.total_sent)
            topology = _make_star()
            start = time.perf_counter()
            _send_inlined(topology, _SENDS)
            walls_inline.append(time.perf_counter() - start)
            sent.append(topology.cache_link.total_sent)
        return min(walls_plane), min(walls_inline), sent

    wall_plane, wall_inline, sent = run_once(benchmark, both)
    assert all(count == _SENDS for count in sent), \
        "a benchmark arm dropped sends (link ran dry?)"
    ratio = wall_plane / wall_inline
    print(f"\nplane {wall_plane:.4f}s vs inlined {wall_inline:.4f}s "
          f"-> ratio {ratio:.3f} (limit {PLANE_OVERHEAD_LIMIT})")
    assert ratio <= PLANE_OVERHEAD_LIMIT, (
        f"plane-routed unicast send ran {ratio:.2f}x the inlined path "
        f"(limit {PLANE_OVERHEAD_LIMIT}x) -- the delivery indirection "
        f"is leaking into the hot path")
