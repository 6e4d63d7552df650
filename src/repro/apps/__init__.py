"""Simulated application programs used by the experiments."""

from repro.apps.blast import (
    udp_blast_sink,
    udp_blast_source,
    udp_sliding_window_sink,
    udp_sliding_window_source,
)
from repro.apps.compute import (
    COMPUTE_CHUNK,
    rpc_worker,
    spinner,
)
from repro.apps.httpd import (
    DEFAULT_DOC_BYTES,
    dummy_server,
    http_client,
    httpd_child,
    httpd_master,
)
from repro.apps.pingpong import pingpong_client, pingpong_server
from repro.apps.rpc import rpc_server, rpc_single_call_client

__all__ = [
    "COMPUTE_CHUNK",
    "DEFAULT_DOC_BYTES",
    "dummy_server",
    "http_client",
    "httpd_child",
    "httpd_master",
    "pingpong_client",
    "pingpong_server",
    "rpc_server",
    "rpc_single_call_client",
    "rpc_worker",
    "spinner",
    "udp_blast_sink",
    "udp_blast_source",
    "udp_sliding_window_sink",
    "udp_sliding_window_source",
]
