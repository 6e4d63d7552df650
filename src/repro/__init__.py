"""repro: a simulated reproduction of Lazy Receiver Processing (LRP).

Reproduces "Lazy Receiver Processing (LRP): A Network Subsystem
Architecture for Server Systems" (Druschel & Banga, OSDI 1996) as a
discrete-event simulation of a network server host: a preemptive CPU,
a 4.3BSD decay-usage scheduler, mbufs, a TCP/UDP/IP stack, two NIC
models, and the four kernel architectures of the paper's evaluation
(4.4BSD, Early-Demux, SOFT-LRP, NI-LRP).

Quick start::

    from repro.engine import Syscall, World
    from repro.core import Architecture

    world = World(seed=1)
    host = world.add_host("10.0.0.1", Architecture.SOFT_LRP)

    def app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        dgram, src, stamp = yield Syscall("recvfrom", sock=sock)

    host.spawn("app", app())
    world.run(1_000_000.0)

See ``repro.experiments`` for the paper's tables and figures.
"""

from repro.core import Architecture, build_host
from repro.engine import Simulator

__version__ = "1.0.0"

__all__ = ["Architecture", "Simulator", "build_host", "__version__"]
