"""Network interface models: channels, demux, and the adaptors."""

from repro.nic.base import BaseNic, IFQ_MAXLEN
from repro.nic.channels import DEFAULT_CHANNEL_DEPTH, NiChannel
from repro.nic.demux import (
    DAEMON,
    DEFAULT_RSS_SEED,
    MATCHED,
    UNMATCHED,
    DemuxTable,
    RssHasher,
    flow_key,
    rss_key,
    toeplitz_hash,
)
from repro.nic.polling import PollingNic
from repro.nic.programmable import AgentNic, ProgrammableNic
from repro.nic.simple import SimpleNic

__all__ = [
    "AgentNic",
    "BaseNic",
    "DAEMON",
    "DEFAULT_CHANNEL_DEPTH",
    "DEFAULT_RSS_SEED",
    "DemuxTable",
    "IFQ_MAXLEN",
    "MATCHED",
    "NiChannel",
    "PollingNic",
    "ProgrammableNic",
    "RssHasher",
    "SimpleNic",
    "UNMATCHED",
    "flow_key",
    "rss_key",
    "toeplitz_hash",
]
