"""Measurement harnesses, theory references and report formatting.

* :mod:`repro.analysis.ber` — Monte-Carlo BER/PER measurement over the
  sample-level link;
* :mod:`repro.analysis.contention` — pooled summaries of replicated MAC
  contention runs, with Wilson bounds on delivery;
* :mod:`repro.analysis.theory` — closed-form references (Q function,
  envelope-detection BER, ALOHA throughput, Wilson intervals) used to
  sanity-check the simulators;
* :mod:`repro.analysis.throughput` — closed-form protocol economics
  (expected energy / airtime per delivered packet) cross-checking the
  event simulator;
* :mod:`repro.analysis.reporting` — plain-text tables the benchmarks
  print.
"""

from repro.analysis.ber import (
    BerEstimate,
    measure_feedback_ber,
    measure_forward_ber,
    measure_frame_delivery,
)
from repro.analysis.contention import ContentionSummary, summarize_mac_table
from repro.analysis.reporting import format_table
from repro.analysis.theory import (
    aloha_throughput,
    ook_envelope_ber,
    q_function,
    wilson_interval,
)
from repro.analysis.throughput import (
    expected_energy_per_delivered_fd,
    expected_energy_per_delivered_hd,
    goodput_ratio_fd_over_hd,
)

__all__ = [
    "BerEstimate",
    "ContentionSummary",
    "aloha_throughput",
    "expected_energy_per_delivered_fd",
    "expected_energy_per_delivered_hd",
    "format_table",
    "goodput_ratio_fd_over_hd",
    "measure_feedback_ber",
    "measure_forward_ber",
    "measure_frame_delivery",
    "ook_envelope_ber",
    "q_function",
    "summarize_mac_table",
    "wilson_interval",
]
