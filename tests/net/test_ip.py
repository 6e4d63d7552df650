"""Unit tests for IP packets."""

from repro.net.addr import IPAddr
from repro.net.ip import IP_HEADER_LEN, IPPROTO_UDP, IpPacket
from repro.net.udp import UdpDatagram


def make_packet(payload_len):
    dgram = UdpDatagram(1000, 2000, payload_len=payload_len - 8)
    return IpPacket(IPAddr("10.0.0.1"), IPAddr("10.0.0.2"),
                    IPPROTO_UDP, dgram, payload_len)


def test_total_len_includes_header():
    packet = make_packet(100)
    assert packet.total_len == 100 + IP_HEADER_LEN
