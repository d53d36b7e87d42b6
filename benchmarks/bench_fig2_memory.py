"""Figure 2: BGP table memory usage as #prefixes and #peers increase.

The paper loads one Quagga router with N peers × X routes and plots
resident table memory.  We regenerate both series:

* **measured** — a deep size walk of our own router's RIBs
  under exactly that workload (real UPDATE messages through real
  sessions);
* **modeled** — the calibrated Quagga memory model
  (:class:`repro.emulation.quagga.QuaggaMemoryModel`).

Both series include the Internet-scale 500K × 1 point the paper shows.

Shape checks: memory grows ~linearly in prefixes for fixed peers, and
~linearly in peers for fixed prefixes (the per-path term dominates).
"""

import sys

import pytest
from conftest import emit

from repro.bgp.policy import RouteMap
from repro.bgp.router import BGPRouter, PeerConfig, connect_routers
from repro.emulation.quagga import QuaggaMemoryModel
from repro.net.addr import IPAddress, Prefix
from repro.sim import Engine

PEER_COUNTS = [1, 2, 4, 8]
PREFIX_COUNTS = [1_000, 3_000, 9_000]
FULL_TABLE = 500_000

DENY_ALL = RouteMap(name="deny-all")  # listener never re-exports


def _prefixes(count):
    """``count`` distinct /24s counted up from 10.0.0.0: 65,536 fill
    10.0.0.0/8 and the rest run on into 11/8, 12/8, ... (500K end in
    17/8)."""
    base = IPAddress("10.0.0.0").value
    return [
        Prefix(IPAddress(base + (i << 8)), 24) for i in range(count)
    ]


def load_router(n_peers: int, n_prefixes: int) -> BGPRouter:
    """One listener; ``n_peers`` senders each announce ``n_prefixes``.

    Each sender holds its table before its session comes up, so the table
    crosses the wire as a full export: NLRI packed into 4096-byte UPDATEs,
    as a real speaker sends it.
    """
    engine = Engine()
    listener = BGPRouter(engine, asn=65000, router_id=IPAddress("10.255.0.1"))
    prefixes = _prefixes(n_prefixes)
    for i in range(n_peers):
        sender = BGPRouter(
            engine, asn=65001 + i, router_id=IPAddress(f"10.254.0.{i + 1}")
        )
        for prefix in prefixes:
            sender.originate(prefix)
        connect_routers(
            engine,
            listener,
            PeerConfig(
                peer_id=f"peer-{i}",
                remote_asn=sender.asn,
                local_address=listener.router_id,
                export_policy=DENY_ALL,
            ),
            sender,
            PeerConfig(
                peer_id="to-listener",
                remote_asn=listener.asn,
                local_address=sender.router_id,
            ),
        )
    engine.run_for(10)
    return listener


def deep_sizeof(obj, seen=None) -> int:
    """Recursive ``sys.getsizeof`` over the object graph (ids deduped) —
    the resident size of the router's table structures."""
    if seen is None:
        seen = set()
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_sizeof(key, seen) + deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_sizeof(item, seen)
    elif hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            if hasattr(obj, slot):
                size += deep_sizeof(getattr(obj, slot), seen)
    return size


def measure_memory(n_peers: int, n_prefixes: int) -> int:
    """Bytes held by the router's RIB structures under the Figure 2
    workload (deep walk of Adj-RIB-Ins + Loc-RIB)."""
    router = load_router(n_peers, n_prefixes)
    assert router.table_size() == n_prefixes
    assert router.adj_in_size() == n_peers * n_prefixes
    seen = set()
    total = deep_sizeof(router.loc_rib, seen)
    for peer_id in router.peers():
        total += deep_sizeof(router.peer(peer_id).adj_in, seen)
        total += deep_sizeof(router.peer(peer_id).adj_out, seen)
    return total


@pytest.mark.parametrize("n_peers", PEER_COUNTS)
def test_fig2_memory_vs_peers(benchmark, n_peers):
    """One Figure 2 series: fixed 3K prefixes, growing peer count."""
    n_prefixes = 3_000
    benchmark.pedantic(load_router, args=(n_peers, n_prefixes), rounds=1, iterations=1)
    measured = measure_memory(n_peers, n_prefixes)
    modeled = QuaggaMemoryModel().table_bytes(n_prefixes, n_peers)
    benchmark.extra_info["measured_mb"] = round(measured / 2**20, 1)
    benchmark.extra_info["modeled_quagga_mb"] = round(modeled / 2**20, 1)


def test_fig2_full_grid(benchmark):
    """The whole figure: memory grid + linearity shape checks."""
    model = QuaggaMemoryModel()
    benchmark.pedantic(load_router, args=(2, 2_000), rounds=1, iterations=1)
    rows = []
    measured_grid = {}
    for n_prefixes in PREFIX_COUNTS:
        for n_peers in PEER_COUNTS:
            measured = measure_memory(n_peers, n_prefixes)
            measured_grid[(n_prefixes, n_peers)] = measured
            rows.append(
                [
                    f"{n_prefixes:6d} prefixes",
                    f"{n_peers} peers",
                    f"measured(ours) {measured / 2**20:7.1f} MB",
                    f"modeled(quagga) {model.table_megabytes(n_prefixes, n_peers):7.1f} MB",
                ]
            )
    # The paper's headline point: an Internet-scale table, measured (about
    # a minute and 1.7 GB peak RSS on a 2-vCPU Xeon VM).
    full_table = measure_memory(1, FULL_TABLE)
    rows.append(
        [
            f"{FULL_TABLE} prefixes",
            "1 peers",
            f"measured(ours) {full_table / 2**20:7.1f} MB",
            f"modeled(quagga) {model.table_megabytes(FULL_TABLE, 1):7.1f} MB",
        ]
    )
    emit("Figure 2: BGP table memory", rows)

    # Shape: linear-ish growth in peers at fixed prefixes...
    for n_prefixes in PREFIX_COUNTS:
        series = [measured_grid[(n_prefixes, n)] for n in PEER_COUNTS]
        assert series == sorted(series)
        # 8 peers should cost ~4-12x of 1 peer (linear in the per-path term)
        ratio = series[-1] / series[0]
        assert 2.5 < ratio < 16, f"peers ratio {ratio} not ~linear"
    # ...and in prefixes at fixed peers.
    for n_peers in PEER_COUNTS:
        series = [measured_grid[(n, n_peers)] for n in PREFIX_COUNTS]
        assert series == sorted(series)
        ratio = series[-1] / series[0]
        expected = PREFIX_COUNTS[-1] / PREFIX_COUNTS[0]
        assert expected / 3 < ratio < expected * 3
