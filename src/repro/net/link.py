"""The local-area network model.

A :class:`Network` is a switched LAN: every NIC attaches with its IP
address, and frames are forwarded to the NIC owning the destination
address.  Each attachment point serializes traffic at the link
bandwidth in both directions (modelling the 155 Mbit/s ATM links of
the paper's testbed) with a finite output queue at the receiving port.

An optional *congestion knee* reproduces the artifact the paper
observed at very high packet rates ("the slight drop in NI-LRP's
delivery rate beyond 19,000 pkts/sec is actually due to a reduction in
the delivery rate of our ATM network, most likely caused by
congestion-related phenomena in either the switch or the network
interfaces"): above the knee, delivery degrades slightly and
stochastically.  It is off by default and enabled only by the Figure 3
scenario.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.packet import Frame
from repro.net.signalling import SignallingDirectory

#: 155 Mbit/s expressed in bits per microsecond.
ATM_155_BITS_PER_USEC = 155.0


class CongestionKnee:
    """The stochastic congestion knee of the flat LAN and of switched
    topologies.

    An EWMA (weight 0.05) over frame inter-arrival gaps estimates the
    offered rate; above *knee_pps* a frame drops with probability
    ``slope`` per excess pkt/sec, capped at 0.2.  Drops draw from the
    ``"net.congestion"`` named stream (not ``sim.rng``) so enabling
    the knee — or injecting faults — never perturbs anyone else's
    randomness; see :meth:`Simulator.named_rng`.
    """

    def __init__(self, sim: Simulator, knee_pps: float,
                 slope: float) -> None:
        self.sim = sim
        self.knee_pps = knee_pps
        self.slope = slope
        self._rng = sim.named_rng("net.congestion")
        self._last_arrival = 0.0
        self._ewma_interarrival: Optional[float] = None

    def drop(self) -> bool:
        """Note one frame arrival now; ``True`` if it is dropped."""
        now = self.sim.now
        gap = now - self._last_arrival
        self._last_arrival = now
        if self._ewma_interarrival is None:
            self._ewma_interarrival = gap if gap > 0 else 1.0
            return False
        alpha = 0.05
        self._ewma_interarrival = ((1 - alpha) * self._ewma_interarrival
                                   + alpha * max(gap, 1e-6))
        rate_pps = 1e6 / self._ewma_interarrival
        if rate_pps <= self.knee_pps:
            return False
        p_drop = min(0.2, self.slope * (rate_pps - self.knee_pps))
        return self._rng.random() < p_drop


class Network:
    """A switched LAN forwarding frames between attached NICs."""

    def __init__(self, sim: Simulator,
                 bandwidth_bits_per_usec: float = ATM_155_BITS_PER_USEC,
                 propagation_usec: float = 10.0,
                 port_queue_frames: int = 64,
                 congestion_knee_pps: Optional[float] = None,
                 congestion_slope: float = 4e-6):
        self.sim = sim
        self.bandwidth = bandwidth_bits_per_usec
        self.propagation = propagation_usec
        self.port_queue_frames = port_queue_frames
        self.congestion = (CongestionKnee(sim, congestion_knee_pps,
                                          congestion_slope)
                           if congestion_knee_pps is not None else None)

        #: Attached :class:`~repro.faults.plane.FaultPlane`, if any.
        self.fault_plane = None

        #: ATM-style VCI assignments for NI-demultiplexed endpoints.
        self.signalling = SignallingDirectory()
        self._nics: Dict[int, object] = {}       # addr value -> NIC
        self._tx_busy_until: Dict[int, float] = {}
        self._rx_busy_until: Dict[int, float] = {}
        self._rx_queued: Dict[int, int] = {}

        self.frames_sent = 0
        self.frames_delivered = 0
        self.drops_port_queue = 0
        self.drops_congestion = 0
        self.drops_no_route = 0
        self.drops_fault = 0
        self.dup_frames = 0

    # ------------------------------------------------------------------
    def attach(self, nic, addr: IPAddr) -> None:
        """Attach *nic* (anything with ``receive_frame(frame)``)."""
        key = IPAddr(addr).value
        if key in self._nics:
            raise ValueError(f"address {addr} already attached")
        self._nics[key] = nic
        self._tx_busy_until[key] = 0.0
        self._rx_busy_until[key] = 0.0
        self._rx_queued[key] = 0

    def send(self, frame: Frame, src_addr: IPAddr) -> bool:
        """Transmit *frame*; returns False if the network dropped it.

        The caller (a NIC) is responsible for its own interface queue;
        this method models wire serialization, switch forwarding and
        the receiving port.
        """
        self.frames_sent += 1
        src_key = IPAddr(src_addr).value
        dst_key = (IPAddr(frame.link_dst).value
                   if frame.link_dst is not None
                   else frame.packet.dst.value)
        dst_nic = self._nics.get(dst_key)
        if dst_nic is None:
            self.drops_no_route += 1
            return False

        now = self.sim.now
        tx_time = frame.wire_len * 8.0 / self.bandwidth

        # Serialize on the sender's link.
        start = max(now, self._tx_busy_until.get(src_key, 0.0))
        done_tx = start + tx_time
        self._tx_busy_until[src_key] = done_tx

        if self.congestion is not None and self.congestion.drop():
            self.drops_congestion += 1
            return False

        # Fault plane: the wire may lose, corrupt, delay or duplicate
        # the frame after successful transmission.
        extra_delay = 0.0
        dup_frame = None
        if self.fault_plane is not None:
            drop, extra_delay, dup_frame = \
                self.fault_plane.link_disposition(frame)
            if drop:
                self.drops_fault += 1
                return False

        # Receiving port: serialize again; bounded output queue.
        rx_start = max(done_tx + self.propagation + extra_delay,
                       self._rx_busy_until[dst_key])
        if self._rx_queued[dst_key] >= self.port_queue_frames:
            self.drops_port_queue += 1
            return False
        self._rx_queued[dst_key] += 1
        rx_done = rx_start + tx_time
        self._rx_busy_until[dst_key] = rx_done
        self.sim.schedule_at_detached(rx_done, self._deliver, dst_key,
                                      dst_nic, frame)
        if dup_frame is not None and \
                self._rx_queued[dst_key] < self.port_queue_frames:
            # The duplicate trails the original through the same port.
            self._rx_queued[dst_key] += 1
            dup_done = rx_done + tx_time
            self._rx_busy_until[dst_key] = dup_done
            self.dup_frames += 1
            self.sim.schedule_at_detached(dup_done, self._deliver,
                                          dst_key, dst_nic, dup_frame)
        return True

    def _deliver(self, dst_key: int, dst_nic, frame: Frame) -> None:
        self._rx_queued[dst_key] -= 1
        self.frames_delivered += 1
        dst_nic.receive_frame(frame)
