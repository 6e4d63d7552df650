"""Unit tests for the LRP demultiplexing function."""

from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.tcp import SYN, TcpSegment
from repro.net.udp import UdpDatagram
from repro.nic.channels import NiChannel
from repro.nic.demux import (
    MATCHED,
    UNMATCHED,
    DemuxTable,
    flow_key,
)

SRC = IPAddr("10.0.0.2")
DST = IPAddr("10.0.0.1")


def udp_packet(dst_port=9000, src_port=1234, payload_len=14):
    dgram = UdpDatagram(src_port, dst_port, payload_len=payload_len)
    return IpPacket(SRC, DST, IPPROTO_UDP, dgram, dgram.total_len)


def tcp_packet(dst_port=80, src_port=5555):
    seg = TcpSegment(src_port, dst_port, seq=1, flags=SYN)
    return IpPacket(SRC, DST, IPPROTO_TCP, seg, seg.total_len)


def test_wildcard_match_udp():
    table = DemuxTable()
    chan = NiChannel("udp-9000")
    table.register_wildcard(IPPROTO_UDP, 9000, chan)
    outcome, got = table.demux(udp_packet())
    assert outcome == MATCHED and got is chan


def test_exact_match_beats_wildcard():
    table = DemuxTable()
    wild, exact = NiChannel("wild"), NiChannel("exact")
    table.register_wildcard(IPPROTO_TCP, 80, wild)
    table.register_exact(
        flow_key(IPPROTO_TCP, DST, 80, SRC, 5555), exact)
    outcome, got = table.demux(tcp_packet())
    assert got is exact
    outcome, got = table.demux(tcp_packet(src_port=6666))
    assert got is wild


def test_unmatched_packet():
    table = DemuxTable()
    outcome, got = table.demux(udp_packet())
    assert outcome == UNMATCHED and got is None


def test_protocol_disambiguates_ports():
    table = DemuxTable()
    udp_chan, tcp_chan = NiChannel("u"), NiChannel("t")
    table.register_wildcard(IPPROTO_UDP, 80, udp_chan)
    table.register_wildcard(IPPROTO_TCP, 80, tcp_chan)
    assert table.demux(udp_packet(dst_port=80))[1] is udp_chan
    assert table.demux(tcp_packet(dst_port=80))[1] is tcp_chan


def test_unregister_paths():
    table = DemuxTable()
    chan = NiChannel("c")
    key = flow_key(IPPROTO_TCP, DST, 80, SRC, 5555)
    table.register_exact(key, chan)
    table.register_wildcard(IPPROTO_UDP, 9000, chan)
    assert table.channel_count == 2
    table.unregister_exact(key)
    table.unregister_wildcard(IPPROTO_UDP, 9000)
    assert table.channel_count == 0
    assert table.demux(tcp_packet())[0] == UNMATCHED


def test_lookup_counter():
    table = DemuxTable()
    table.demux(udp_packet())
    table.demux(tcp_packet())
    assert table.lookups == 2
