"""Wire-format codec tests: every message type round-trips through bytes."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.bgp.attributes import (
    ASPath,
    ASPathSegment,
    Community,
    Origin,
    PathAttributes,
    SegmentType,
)
from repro.bgp.errors import BGPError, MessageDecodeError, OpenError, UpdateError
from repro.bgp.messages import (
    AS_TRANS,
    Capability,
    CapabilityCode,
    HEADER_LEN,
    KeepaliveMessage,
    MARKER,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    MAX_MESSAGE_LEN,
    UpdateMessage,
    decode,
    split_routes,
)


def make_open(asn=47065, add_path=False):
    caps = [Capability.multiprotocol(), Capability.four_octet_as(asn)]
    if add_path:
        caps.append(Capability.add_path())
    return OpenMessage(
        asn=asn if asn <= 0xFFFF else AS_TRANS,
        hold_time=90,
        bgp_id=IPAddress("10.0.0.1"),
        capabilities=tuple(caps),
    )


class TestOpen:
    def test_roundtrip(self):
        msg = make_open()
        decoded = decode(msg.encode())
        assert isinstance(decoded, OpenMessage)
        assert decoded.real_asn == 47065
        assert decoded.hold_time == 90
        assert decoded.bgp_id == IPAddress("10.0.0.1")

    def test_four_octet_asn(self):
        msg = make_open(asn=4_200_000_100)
        raw = msg.encode()
        decoded = decode(raw)
        assert decoded.asn == AS_TRANS
        assert decoded.real_asn == 4_200_000_100

    def test_add_path_capability(self):
        decoded = decode(make_open(add_path=True).encode())
        assert decoded.supports_add_path
        cap = decoded.capability(CapabilityCode.ADD_PATH)
        assert cap.add_path_tuples() == [(1, 1, 3)]

    def test_no_add_path(self):
        assert not decode(make_open().encode()).supports_add_path

    def test_bad_version(self):
        raw = bytearray(make_open().encode())
        raw[HEADER_LEN] = 3  # version byte
        with pytest.raises(OpenError):
            decode(bytes(raw))

    def test_unacceptable_hold_time(self):
        msg = make_open()
        msg.hold_time = 2
        with pytest.raises(OpenError):
            decode(msg.encode())

    def test_hold_time_zero_allowed(self):
        msg = make_open()
        msg.hold_time = 0
        assert decode(msg.encode()).hold_time == 0


class TestHeader:
    def test_bad_marker(self):
        raw = bytearray(KeepaliveMessage().encode())
        raw[0] = 0
        with pytest.raises(MessageDecodeError):
            decode(bytes(raw))

    def test_truncated(self):
        with pytest.raises(MessageDecodeError):
            decode(MARKER[:10])

    def test_length_mismatch(self):
        raw = KeepaliveMessage().encode() + b"extra"
        with pytest.raises(MessageDecodeError):
            decode(raw)

    def test_bad_type(self):
        raw = bytearray(KeepaliveMessage().encode())
        raw[18] = 99
        with pytest.raises(MessageDecodeError):
            decode(bytes(raw))

    def test_keepalive_with_body(self):
        raw = bytearray(KeepaliveMessage().encode())
        # Manually append a body and fix the length.
        raw += b"\x00"
        raw[16:18] = (len(raw)).to_bytes(2, "big")
        with pytest.raises(MessageDecodeError):
            decode(bytes(raw))


def full_attributes():
    return PathAttributes(
        origin=Origin.EGP,
        as_path=ASPath(
            (
                ASPathSegment(SegmentType.AS_SEQUENCE, (47065, 3356)),
                ASPathSegment(SegmentType.AS_SET, (1, 2)),
            )
        ),
        next_hop=IPAddress("192.0.2.1"),
        med=50,
        local_pref=200,
        communities=frozenset({Community(47065, 100), Community(65535, 65281)}),
        atomic_aggregate=True,
        aggregator=(47065, IPAddress("10.0.0.1")),
        originator_id=IPAddress("10.0.0.9"),
        cluster_list=(1, 2),
    )


class TestUpdate:
    def test_announce_roundtrip(self):
        attrs = full_attributes()
        update = UpdateMessage.announce(
            [Prefix("184.164.224.0/24"), Prefix("184.164.225.0/24")], attrs
        )
        decoded = decode(update.encode())
        assert isinstance(decoded, UpdateMessage)
        assert decoded.prefixes() == [
            Prefix("184.164.224.0/24"),
            Prefix("184.164.225.0/24"),
        ]
        assert decoded.attributes == attrs

    def test_withdraw_roundtrip(self):
        update = UpdateMessage.withdraw([Prefix("10.0.0.0/8")])
        decoded = decode(update.encode())
        assert decoded.withdrawn_prefixes() == [Prefix("10.0.0.0/8")]
        assert decoded.attributes is None

    def test_odd_prefix_lengths(self):
        attrs = PathAttributes(as_path=ASPath.from_asns([1]), next_hop=IPAddress("10.0.0.1"))
        for length in (0, 1, 7, 8, 9, 15, 17, 22, 25, 31, 32):
            prefix = Prefix(IPAddress("128.0.0.0") if length else IPAddress(0, 4), length, strict=False)
            decoded = decode(UpdateMessage.announce([prefix], attrs).encode())
            assert decoded.prefixes() == [prefix]

    def test_add_path_roundtrip(self):
        attrs = PathAttributes(as_path=ASPath.from_asns([9]), next_hop=IPAddress("10.0.0.1"))
        update = UpdateMessage.announce(
            [Prefix("10.0.0.0/8"), Prefix("10.0.0.0/8")], attrs, path_ids=[1, 2]
        )
        decoded = decode(update.encode(), add_path=True)
        assert decoded.nlri == ((1, Prefix("10.0.0.0/8")), (2, Prefix("10.0.0.0/8")))

    def test_add_path_misaligned(self):
        attrs = PathAttributes(as_path=ASPath.from_asns([9]))
        with pytest.raises(ValueError):
            UpdateMessage.announce([Prefix("10.0.0.0/8")], attrs, path_ids=[1, 2])

    def test_nlri_without_attributes_rejected_on_encode(self):
        update = UpdateMessage(nlri=((None, Prefix("10.0.0.0/8")),))
        with pytest.raises(UpdateError):
            update.encode()

    def test_missing_as_path_rejected(self):
        # Hand-craft an UPDATE whose attributes lack AS_PATH.
        import struct

        attrs = bytes([0x40, 1, 1, 0])  # ORIGIN only
        body = struct.pack("!H", 0) + struct.pack("!H", len(attrs)) + attrs + bytes([8, 10])
        raw = MARKER + struct.pack("!HB", HEADER_LEN + len(body), 2) + body
        with pytest.raises(UpdateError):
            decode(raw)

    def test_duplicate_attribute_rejected(self):
        import struct

        one = bytes([0x40, 1, 1, 0])
        attrs = one + one
        body = struct.pack("!H", 0) + struct.pack("!H", len(attrs)) + attrs
        raw = MARKER + struct.pack("!HB", HEADER_LEN + len(body), 2) + body
        with pytest.raises(UpdateError):
            decode(raw)

    def test_invalid_origin_value(self):
        import struct

        attrs = bytes([0x40, 1, 1, 9])
        body = struct.pack("!H", 0) + struct.pack("!H", len(attrs)) + attrs
        raw = MARKER + struct.pack("!HB", HEADER_LEN + len(body), 2) + body
        with pytest.raises(UpdateError):
            decode(raw)

    def test_empty_update_is_eor(self):
        decoded = decode(UpdateMessage().encode())
        assert decoded.nlri == () and decoded.withdrawn == ()


class TestNotification:
    def test_roundtrip(self):
        msg = NotificationMessage(6, 2, b"bye")
        decoded = decode(msg.encode())
        assert (decoded.code, decoded.subcode, decoded.data) == (6, 2, b"bye")


class TestRouteRefresh:
    def test_roundtrip(self):
        decoded = decode(RouteRefreshMessage().encode())
        assert isinstance(decoded, RouteRefreshMessage)
        assert decoded.afi == 1


asns = st.integers(min_value=1, max_value=2**32 - 1)
v4_prefixes = st.builds(
    lambda v, l: Prefix(IPAddress(v, 4), l, strict=False),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@given(
    st.lists(v4_prefixes, min_size=1, max_size=20, unique=True),
    st.lists(asns, min_size=1, max_size=10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.sets(
        st.builds(
            Community,
            st.integers(min_value=0, max_value=65535),
            st.integers(min_value=0, max_value=65535),
        ),
        max_size=6,
    ),
)
def test_update_roundtrip_property(prefixes, path, med, local_pref, communities):
    attrs = PathAttributes(
        as_path=ASPath.from_asns(path),
        next_hop=IPAddress("192.0.2.1"),
        med=med,
        local_pref=local_pref,
        communities=frozenset(communities),
    )
    update = UpdateMessage.announce(prefixes, attrs)
    decoded = decode(update.encode())
    assert decoded.prefixes() == prefixes
    assert decoded.attributes == attrs


v6_prefixes = st.builds(
    lambda v, l: Prefix(IPAddress(v, 6), l, strict=False),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)


@given(
    st.one_of(
        st.lists(v4_prefixes, min_size=1, max_size=1500),
        st.lists(v6_prefixes, min_size=1, max_size=600),
    ),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
)
def test_split_routes_fills_updates_to_the_limit(prefixes, add_path, n_communities):
    """Runs keep order, each encodes within 4096 bytes (ADD-PATH ids and
    IPv6 lengths counted) and decodes back, and no run could take the
    next entry."""
    version = prefixes[0].version
    routes = [(i if add_path else None, p) for i, p in enumerate(prefixes)]
    attrs = None
    if n_communities is not None:
        attrs = PathAttributes(
            as_path=ASPath.from_asns([65001, 65002]),
            next_hop=IPAddress("192.0.2.1"),
            communities=frozenset(Community(65001, v) for v in range(n_communities)),
        )
    runs = split_routes(routes, attrs)
    assert [entry for run in runs for entry in run] == routes

    def message(entries):
        if attrs is None:
            return UpdateMessage(withdrawn=tuple(entries), add_path=add_path)
        return UpdateMessage(nlri=tuple(entries), attributes=attrs, add_path=add_path)

    for i, run in enumerate(runs):
        wire = message(run).encode()
        assert len(wire) <= MAX_MESSAGE_LEN
        decoded = decode(wire, add_path=add_path, version=version)
        assert list(decoded.withdrawn if attrs is None else decoded.nlri) == list(run)
        if i + 1 < len(runs):
            with pytest.raises(MessageDecodeError):
                message(run + (runs[i + 1][0],)).encode()


def test_split_routes_keeps_a_small_update_whole():
    routes = [(None, Prefix(f"10.0.{i}.0/24")) for i in range(100)]
    assert split_routes(routes) == [tuple(routes)]
    assert split_routes([]) == []


@pytest.mark.parametrize(
    "base,length,add_path,per_run",
    [
        ("10.0.0.0", 24, False, 1018),  # 4 bytes each in 4,073
        ("10.0.0.0", 24, True, 509),  # + 4-byte path id
        ("2001:db8::", 48, True, 370),  # 1 + 6 + 4 bytes
    ],
)
def test_split_routes_run_sizes(base, length, add_path, per_run):
    start = IPAddress(base)
    step = 1 << (start.bits - length)
    routes = [
        (i + 1 if add_path else None, Prefix(start + i * step, length)) for i in range(2000)
    ]
    runs = split_routes(routes)
    assert [len(run) for run in runs[:-1]] == [per_run] * (len(runs) - 1)
    assert sum(len(run) for run in runs) == 2000
