"""A defect the benchmark works around, pinned so that it stays visible.

``testbed_ops`` announces over BIRD-mode sessions without steering
communities because of it; when this test starts passing, the workload
can select peers by community over BGP too.

    python3 -m pytest peerbench/tests -q
"""

import pytest

from repro.bgp.attributes import Community
from repro.core import Testbed
from repro.core.server import MuxMode
from repro.inet.gen import InternetConfig


@pytest.mark.xfail(
    strict=True,
    reason="the BIRD-mode mux maps a withdrawal's ADD-PATH id to one peer, "
    "so a community-steered announcement is never retracted",
)
def test_bird_withdrawal_retracts_a_community_steered_announcement():
    testbed = Testbed.build_default(InternetConfig(n_ases=600, total_prefixes=30_000, seed=7))
    client = testbed.register_client("exp")
    prefix = client.prefixes[0]
    mux = "amsterdam01"
    router = client.attach_bgp(mux, mode=MuxMode.BIRD)
    testbed.engine.run_for(5)
    peers = sorted(testbed.server(mux).neighbor_asns)[:2]
    router.originate(prefix, communities=[Community(testbed.asn, p) for p in peers])
    testbed.engine.run_for(5)
    assert prefix in testbed.announced_prefixes()
    router.withdraw_local(prefix)
    testbed.engine.run_for(5)
    assert prefix not in testbed.announced_prefixes()
