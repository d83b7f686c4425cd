#!/usr/bin/env python3
"""Regenerates the checked-in capture fixtures in this directory.

The fixtures pin real-world pcap shapes that the synthetic emulator
never produces — nanosecond magics, Linux cooked captures, VLAN tags,
IPv4 fragments, snaplen-clipped records, and a torn final record — so
the ingest counters asserted in tests/test_ingest.cpp and the
analyze_pcap ctest entries are hand-computable from this file.

Run from anywhere: python3 tests/fixtures/make_fixtures.py
The output bytes are deterministic; regeneration must not change them.
"""
import os
import struct

OUT = os.path.dirname(os.path.abspath(__file__))

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
LINK_ETHERNET = 1
LINK_SLL = 113


def global_header(magic, linktype):
    return struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def record(sec, sub, data, orig_len=None, keep=None):
    """One pcap record. `orig_len` lies about the wire size (snaplen
    clipping); `keep` truncates the stored bytes (torn tail)."""
    incl = len(data)
    orig = incl if orig_len is None else orig_len
    if keep is not None:
        data = data[:keep]
    return struct.pack("<IIII", sec, sub, incl, orig) + data


def checksum(header):
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def ipv4(src, dst, proto, payload, ident=0, flags_frag=0):
    hdr = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(payload), ident,
                      flags_frag, 64, proto, 0, src, dst)
    hdr = hdr[:10] + struct.pack(">H", checksum(hdr)) + hdr[12:]
    return hdr + payload


def udp(sport, dport, payload):
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def ether(payload, ethertype=0x0800):
    return (bytes.fromhex("020000000002") + bytes.fromhex("020000000001") +
            struct.pack(">H", ethertype) + payload)


def vlan_ether(payload, tags):
    """tags = [(tpid, vid), ...] outermost first."""
    frame = bytes.fromhex("020000000002") + bytes.fromhex("020000000001")
    for tpid, vid in tags:
        frame += struct.pack(">HH", tpid, vid)
    return frame + struct.pack(">H", 0x0800) + payload


def sll(payload):
    # pkttype=0 (to us), ARPHRD_ETHER, 6-byte address (zero padded to 8),
    # protocol 0x0800. As raw bytes inside an Ethernet-linktype file the
    # would-be ethertype at offset 12 reads the address padding: 0x0000.
    return (struct.pack(">HHH", 0, 1, 6) + bytes.fromhex("0200000000010000") +
            struct.pack(">H", 0x0800) + payload)


STUN_BIND = bytes.fromhex("000100002112a442") + bytes(range(12))
RTP16 = bytes.fromhex("8060100020003000aabbccdd01020304")  # 12B hdr + 4B

IP_A = bytes([192, 0, 2, 1])
IP_B = bytes([192, 0, 2, 2])


def write(name, blob):
    path = os.path.join(OUT, name)
    with open(path, "wb") as f:
        f.write(blob)
    print(f"{name}: {len(blob)} bytes")


# --- ns_magic.pcap: nanosecond-resolution magic, two clean STUN frames.
# Expected ingest: frames_seen=2 frames_decoded=2, everything else 0;
# timestamps 1.5 and 1.500000001 (1 ns apart — invisible at µs scale).
ns = global_header(MAGIC_NS, LINK_ETHERNET)
ns += record(1, 500000000, ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
ns += record(1, 500000001, ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
write("ns_magic.pcap", ns)

# --- sll.pcap: LINUX_SLL (cooked) linktype, two clean STUN records.
# Expected ingest: frames_seen=2 frames_decoded=2.
cooked = global_header(MAGIC_US, LINK_SLL)
cooked += record(1, 0, sll(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
cooked += record(1, 250000, sll(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
write("sll.pcap", cooked)

# --- vlan.pcap: one 802.1Q frame, one QinQ (802.1ad outer) frame.
# Expected ingest: frames_seen=2 frames_decoded=2 vlan_stripped=2.
vlan = global_header(MAGIC_US, LINK_ETHERNET)
vlan += record(1, 0, vlan_ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND)),
                                [(0x8100, 10)]))
vlan += record(1, 250000,
               vlan_ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND)),
                          [(0x88A8, 100), (0x8100, 10)]))
write("vlan.pcap", vlan)

# --- kitchen_sink.pcap: every ingest hazard in one Ethernet capture.
#
#  # record                                   counter it exercises
#  1 STUN over UDP A:4000->B:3478             frames_decoded
#  2 same stream, 802.1Q tagged               frames_decoded + vlan_stripped
#  3 fragment 1/2 of an RTP datagram          fragments_seen
#    (UDP header only: 8 bytes, MF=1, off=0)
#  4 fragment 2/2 (16 bytes at offset 8) —    fragments_seen + reassembled
#    completes A:5000->B:5004; pre-fix this     + frames_decoded
#    record misparsed as UDP port 0x8060...
#  5 SLL-shaped bytes in an Ethernet file     non_ip (ethertype 0x0000)
#  6 STUN frame with usec=2,000,000           bad_usec (clamped to 999999)
#  7 60-byte frame stored as 20 bytes         snaplen_clipped
#                                               + clipped_undecodable
#  8 record header promises 100 bytes, file   torn_tail (not in frames_seen)
#    ends after 40
#
# Hand-computed ingest: frames_seen=7 torn_tail=1 snaplen_clipped=1
# bad_usec=1 frames_decoded=4 vlan_stripped=1 fragments_seen=2
# fragments_reassembled=1 fragments_expired=0 non_ip=1
# clipped_undecodable=1 undecodable=0 unsupported_linktype=0
# => loss_events=5, and exactly 2 UDP streams (zero spurious flows).
full_udp = udp(5000, 5004, RTP16)  # 24 bytes: fragmented as 8 + 16
frag1 = ipv4(IP_A, IP_B, 17, full_udp[:8], ident=0x1234, flags_frag=0x2000)
frag2 = ipv4(IP_A, IP_B, 17, full_udp[8:], ident=0x1234, flags_frag=0x0001)
clipped_frame = ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND)))

sink = global_header(MAGIC_US, LINK_ETHERNET)
sink += record(1, 0, ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
sink += record(1, 100000,
               vlan_ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND)),
                          [(0x8100, 10)]))
sink += record(1, 200000, ether(frag1))
sink += record(1, 250000, ether(frag2))
sink += record(1, 300000, sll(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
sink += record(1, 2000000, ether(ipv4(IP_A, IP_B, 17, udp(4000, 3478, STUN_BIND))))
sink += record(1, 400000, clipped_frame[:20], orig_len=len(clipped_frame))
sink += record(1, 500000, b"\x00" * 100, keep=40)
write("kitchen_sink.pcap", sink)


# --- Scenario fixtures: hand-built mid-call mobility and TURN-over-TCP
# captures consumed by tests/test_scenario_fixtures.cpp and the
# analyze_fixture_handoff / analyze_fixture_turn_tcp ctest entries
# (batch + RTCC_STREAM=1 parity pins).

def stun(msg_type, txid, attrs=b""):
    return struct.pack(">HHI", msg_type, len(attrs), 0x2112A442) + txid + attrs


def stun_attr(attr_type, value):
    pad = (-len(value)) % 4
    return struct.pack(">HH", attr_type, len(value)) + value + b"\x00" * pad


def xor_addr(attr_type, ip, port):
    """XOR-MAPPED(0x0020)/XOR-PEER(0x0012)/XOR-RELAYED(0x0016) address."""
    cookie = struct.pack(">I", 0x2112A442)
    xip = bytes(b ^ m for b, m in zip(ip, cookie))
    return stun_attr(attr_type, struct.pack(">BBH", 0, 1, port ^ 0x2112) + xip)


def rtp(seq, ts, ssrc):
    return struct.pack(">BBHII", 0x80, 0x60, seq, ts, ssrc) + bytes([1, 2, 3, 4])


def tcp(sport, dport, seq, payload):
    """Established-phase PSH|ACK segment, 20-byte header, no options."""
    return struct.pack(">HHIIBBHHH", sport, dport, seq, 1, 5 << 4, 0x18,
                       65535, 0, 0) + payload


def channel_data(number, payload):
    pad = (-len(payload)) % 4
    return struct.pack(">HH", number, len(payload)) + payload + b"\x00" * pad


DEV_WIFI = bytes([192, 168, 1, 10])
DEV_CELL = bytes([10, 64, 7, 10])
RELAY = bytes([198, 51, 100, 90])
STUN_SRV = bytes([198, 51, 100, 91])
PEER = bytes([203, 0, 113, 50])

# --- handoff.pcap: one call surviving a Wi-Fi -> cellular handoff.
# Two 5-tuples, one media session: the Wi-Fi epoch (192.168.1.10:40000
# <-> relay:3478, STUN bind round trip + 2x2 RTP) ends, then an ICE
# restart re-establishes from 10.64.7.10:40001 and the SAME uplink SSRC
# (0xAABBCCDD) continues with advancing seq — the wire shape of a
# mid-call network switch. analyze window 10..40 with both device IPs.
# Expected ingest: frames_seen=12 frames_decoded=12, all losses 0.
# Expected filtering: UDP 2 streams -> 2 RTC streams (12 -> 12 dgrams).
hand = global_header(MAGIC_US, LINK_ETHERNET)


def udp_frame(sec, usec, src, sport, dst, dport, payload):
    return record(sec, usec, ether(ipv4(src, dst, 17, udp(sport, dport, payload))))


wifi_tx = bytes(range(12))
hand += udp_frame(12, 0, DEV_WIFI, 40000, RELAY, 3478,
                  stun(0x0001, wifi_tx))  # binding request
hand += udp_frame(12, 20000, RELAY, 3478, DEV_WIFI, 40000,
                  stun(0x0101, wifi_tx, xor_addr(0x0020, DEV_WIFI, 40000)))
hand += udp_frame(13, 0, DEV_WIFI, 40000, RELAY, 3478,
                  rtp(0x1000, 0x20000, 0xAABBCCDD))
hand += udp_frame(13, 20000, RELAY, 3478, DEV_WIFI, 40000,
                  rtp(0x2000, 0x30000, 0x11223344))
hand += udp_frame(14, 0, DEV_WIFI, 40000, RELAY, 3478,
                  rtp(0x1001, 0x203C0, 0xAABBCCDD))
hand += udp_frame(14, 20000, RELAY, 3478, DEV_WIFI, 40000,
                  rtp(0x2001, 0x303C0, 0x11223344))

cell_tx = bytes(range(12, 24))  # ICE restart: fresh transaction
hand += udp_frame(25, 0, DEV_CELL, 40001, RELAY, 3478,
                  stun(0x0001, cell_tx))
hand += udp_frame(25, 20000, RELAY, 3478, DEV_CELL, 40001,
                  stun(0x0101, cell_tx, xor_addr(0x0020, DEV_CELL, 40001)))
hand += udp_frame(26, 0, DEV_CELL, 40001, RELAY, 3478,
                  rtp(0x1002, 0x20780, 0xAABBCCDD))
hand += udp_frame(26, 20000, RELAY, 3478, DEV_CELL, 40001,
                  rtp(0x2002, 0x30780, 0x11223344))
hand += udp_frame(27, 0, DEV_CELL, 40001, RELAY, 3478,
                  rtp(0x1003, 0x20B40, 0xAABBCCDD))
hand += udp_frame(27, 20000, RELAY, 3478, DEV_CELL, 40001,
                  rtp(0x2003, 0x30B40, 0x11223344))
write("handoff.pcap", hand)

# --- turn_tcp.pcap: UDP blocked, TURN falls back to TCP on port 443.
#
#  # frame                                            t
#  1 STUN binding request dev:40000 -> 198.51.100.91  11.0   unanswered
#  2 retransmit of the same request                   11.5   unanswered
#  3 TCP Allocate request (REQUESTED-TRANSPORT       12.0
#    0x11000000 = relay UDP to the peer)
#  4 TCP Allocate success (XOR-RELAYED relay:49160,   12.05
#    XOR-MAPPED dev:49500, LIFETIME 600)
#  5 TCP ChannelBind request (CHANNEL-NUMBER 0x4000,  12.2
#    XOR-PEER 203.0.113.50:40000)
#  6 TCP ChannelBind success (zero attributes)        12.25
#  7-10 ChannelData 0x4000 wrapping RTP, both dirs    13.0/13.05/14.0/14.05
#
# The TCP stream rides dev:49500 <-> relay:443 as PSH|ACK segments with
# contiguous sequence numbers per direction. analyze window 10..40.
# Expected ingest: frames_seen=10 frames_decoded=10, all losses 0.
# Expected filtering: UDP 1 streams -> 1 RTC streams (2 -> 2 dgrams);
# the TCP stream survives into rtc_tcp (port 443 is not excluded).
turn = global_header(MAGIC_US, LINK_ETHERNET)
probe_tx = bytes(range(24, 36))
turn += udp_frame(11, 0, DEV_WIFI, 40000, STUN_SRV, 3478,
                  stun(0x0001, probe_tx))
turn += udp_frame(11, 500000, DEV_WIFI, 40000, STUN_SRV, 3478,
                  stun(0x0001, probe_tx))

up_seq, down_seq = 1000, 5000


def tcp_up(sec, usec, payload):
    global up_seq
    f = record(sec, usec,
               ether(ipv4(DEV_WIFI, RELAY, 6, tcp(49500, 443, up_seq, payload))))
    up_seq += len(payload)
    return f


def tcp_down(sec, usec, payload):
    global down_seq
    f = record(sec, usec,
               ether(ipv4(RELAY, DEV_WIFI, 6, tcp(443, 49500, down_seq, payload))))
    down_seq += len(payload)
    return f


alloc_tx = bytes(range(36, 48))
turn += tcp_up(12, 0, stun(0x0003, alloc_tx,
                           stun_attr(0x0019, struct.pack(">I", 0x11000000))))
turn += tcp_down(12, 50000, stun(0x0103, alloc_tx,
                                 xor_addr(0x0016, RELAY, 49160) +
                                 xor_addr(0x0020, DEV_WIFI, 49500) +
                                 stun_attr(0x000D, struct.pack(">I", 600))))
bind_tx = bytes(range(48, 60))
turn += tcp_up(12, 200000, stun(0x0009, bind_tx,
                                stun_attr(0x000C, struct.pack(">I", 0x40000000)) +
                                xor_addr(0x0012, PEER, 40000)))
turn += tcp_down(12, 250000, stun(0x0109, bind_tx))
turn += tcp_up(13, 0, channel_data(0x4000, rtp(0x3000, 0x40000, 0xAABBCCDD)))
turn += tcp_down(13, 50000, channel_data(0x4000, rtp(0x4000, 0x50000, 0x11223344)))
turn += tcp_up(14, 0, channel_data(0x4000, rtp(0x3001, 0x403C0, 0xAABBCCDD)))
turn += tcp_down(14, 50000, channel_data(0x4000, rtp(0x4001, 0x503C0, 0x11223344)))
write("turn_tcp.pcap", turn)
