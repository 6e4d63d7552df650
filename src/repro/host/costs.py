"""Calibration constants: per-step CPU costs in microseconds.

Every experiment shares one :class:`CostModel` instance.  The defaults
were fitted once against the paper's anchors (Section 4.2) and then
frozen:

* BSD's per-packet interrupt path (hardware + software interrupt,
  including protocol processing) is "approximately 60 usecs";
  SOFT-LRP's hardware interrupt including demux is "approx. 25 usecs".
* Peak UDP receive-and-discard rates: 7380 pkts/s (4.4BSD),
  9760 pkts/s (SOFT-LRP), 11163 pkts/s (NI-LRP) — i.e. whole-path
  costs of roughly 135, 102 and 90 us per delivered packet.

The values describe a 60 MHz SuperSPARC+; they are *host* properties,
independent of which network-subsystem architecture is in use — the
architectures differ only in *where* and *when* these costs are paid,
and to whom they are charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class CostModel:
    """Per-operation CPU costs (all microseconds unless noted)."""

    # --- interrupt machinery -----------------------------------------
    #: Hardware interrupt dispatch + packet capture into an mbuf.
    hw_intr: float = 10.0
    #: Posting + dispatching a software interrupt activation.
    sw_intr_dispatch: float = 16.0
    #: Periodic clock interrupt body.
    hardclock: float = 2.0

    # --- demultiplexing ----------------------------------------------
    #: The LRP demux function, when run on the host (soft demux).  The
    #: paper quotes hw interrupt *including* demux at ~25 us.
    soft_demux: float = 15.0
    #: Latency of the demux function on the NIC's embedded CPU
    #: (i960); overlapped with DMA, so throughput is governed by
    #: ni_service_gap instead.
    ni_demux: float = 15.0
    #: Per-packet service interval of the NIC firmware pipeline (AAL5
    #: handling + demux + queue manipulation on the i960).  Well above
    #: the host's consumption rate, so the NIC is never the bottleneck.
    ni_service_gap: float = 20.0
    #: Host-side cost, per received packet, of managing an NI channel's
    #: shared free-buffer queue (NI-LRP only: the host must return
    #: buffers to the adaptor).  Together with the lazy receive path
    #: this calibrates NI-LRP's ~11.2k pkts/s plateau (Figure 3).
    ni_buffer_replenish: float = 16.0
    #: BSD in_pcblookup on the host (bypassed by LRP's early demux).
    pcb_lookup: float = 6.0

    # --- protocol processing -----------------------------------------
    ip_input: float = 14.0
    ip_output: float = 12.0
    udp_input: float = 14.0
    udp_output: float = 12.0
    tcp_input: float = 30.0
    tcp_output: float = 25.0
    #: Handling a SYN for a listening socket (PCB creation etc.).
    tcp_syn_processing: float = 35.0
    #: Checksum cost per byte of payload (disabled for the UDP tests,
    #: as in the paper).
    checksum_per_byte: float = 0.01

    # --- socket layer and syscalls -----------------------------------
    socket_enqueue: float = 4.0
    #: Dequeue from a socket queue or NI channel in the receive call
    #: (includes free-buffer replenishment for NI channels).
    dequeue: float = 6.0
    syscall_overhead: float = 20.0
    #: Fixed part of copying data between kernel and user space.
    copy_fixed: float = 16.0
    #: Per-byte copy cost (~27 MB/s effective copy bandwidth).
    copy_per_byte: float = 0.035
    #: sleep()/wakeup() bookkeeping.
    wakeup: float = 4.0

    # --- scheduling / memory system ----------------------------------
    context_switch: float = 15.0
    #: Cache refill cost per KB of evicted working set re-touched.
    cache_refill_per_kb: float = 8.0
    #: KB of cache a running process touches per microsecond.
    cache_touch_kb_per_usec: float = 2.0
    #: KB of cache displaced per microsecond of interrupt execution
    #: (evicted from resident processes, repaid as refill time when
    #: they resume).
    intr_pollution_kb_per_usec: float = 0.02

    # --- mbuf management ----------------------------------------------
    mbuf_alloc: float = 3.0
    mbuf_free: float = 2.0

    def copy_cost(self, nbytes: int) -> float:
        """Cost of a kernel<->user copy of *nbytes*."""
        return self.copy_fixed + self.copy_per_byte * nbytes

    def checksum_cost(self, nbytes: int) -> float:
        return self.checksum_per_byte * nbytes

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy of this model with some constants replaced."""
        return replace(self, **kwargs)


#: The calibrated model used by all experiments.
DEFAULT_COSTS = CostModel()
