"""Workload generation: distributions, traces, churn, pcap I/O."""

from repro.traffic.churn import (
    absolute_churn_fpm,
    churn_trace,
    relative_from_absolute,
    write_fraction,
)
from repro.traffic.distributions import (
    PAPER_N_FLOWS,
    PAPER_TOP_FLOWS,
    PAPER_TOP_SHARE,
    fit_zipf_exponent,
    paper_zipf_weights,
    top_share,
    zipf_weights,
)
from repro.traffic.generator import INTERNET_MIX, Trace, TraceColumns, TrafficGenerator
from repro.traffic.pcap import read_pcap, write_pcap

__all__ = [
    "absolute_churn_fpm",
    "churn_trace",
    "relative_from_absolute",
    "write_fraction",
    "PAPER_N_FLOWS",
    "PAPER_TOP_FLOWS",
    "PAPER_TOP_SHARE",
    "fit_zipf_exponent",
    "paper_zipf_weights",
    "top_share",
    "zipf_weights",
    "INTERNET_MIX",
    "Trace",
    "TraceColumns",
    "TrafficGenerator",
    "read_pcap",
    "write_pcap",
]
