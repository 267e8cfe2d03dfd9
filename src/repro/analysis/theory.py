"""Closed-form references used to sanity-check the simulators.

None of these *drive* the system — they are independent cross-checks the
tests and benchmarks compare measured results against:

* :func:`q_function` / :func:`ook_envelope_ber` — detection theory for
  on-off keying with an energy detector;
* :func:`aloha_throughput` — the classic unslotted-ALOHA load curve the
  contention simulator should approach for the no-ARQ policy;
* :func:`wilson_interval` — confidence intervals on measured error
  rates, so benches can report uncertainty honestly.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_non_negative


def q_function(x: float) -> float:
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ook_envelope_ber(separation: float, sigma: float) -> float:
    """BER of binary amplitude levels separated by ``separation`` with
    per-decision Gaussian dispersion ``sigma``, under the differential
    (half-vs-half) decision rule.

    The differential comparison doubles the noise variance, giving
    ``Q(separation / (sigma * sqrt(2)))`` — the reference curve the
    sample-level receiver should approach when the chip-mean statistics
    are near-Gaussian.
    """
    check_non_negative("separation", separation)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return q_function(separation / (sigma * math.sqrt(2.0)))


def aloha_throughput(offered_load: float) -> float:
    """Unslotted ALOHA success throughput ``S = G · exp(-2G)``.

    ``offered_load`` G and the result are both in packets per packet
    time.  Peaks at ``1/(2e) ≈ 0.184`` at ``G = 0.5``.
    """
    check_non_negative("offered_load", offered_load)
    return offered_load * math.exp(-2.0 * offered_load)


def aloha_success_probability(offered_load: float) -> float:
    """Probability an unslotted-ALOHA attempt escapes collision,
    ``exp(-2G)``."""
    check_non_negative("offered_load", offered_load)
    return math.exp(-2.0 * offered_load)


def wilson_interval(
    errors: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at 0 and small counts, which BER measurements hit
    constantly.  Returns ``(low, high)``.
    """
    if trials < 0 or errors < 0 or errors > trials:
        raise ValueError("need 0 <= errors <= trials")
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - half), min(1.0, centre + half)


def wilson_halfwidth(errors: int, trials: int, z: float = 1.96) -> float:
    """Half the width of the Wilson interval — the ``±`` precision.

    The adaptive campaign scheduler's convergence measure: a grid cell
    is "precise to ±p" once ``wilson_halfwidth(k, n) <= p``.
    """
    low, high = wilson_interval(errors, trials, z)
    return 0.5 * (high - low)


def expected_abort_savings_fraction(
    asymmetry_ratio: int,
    detection_latency_bits: int,
    packet_bits: int,
) -> float:
    """Expected fraction of a *doomed* packet's bits saved by early abort,
    for a corruption onset uniform over the packet.

    For onset ``u``, the sender stops at
    ``(floor((u + L)/r) + 2) · r`` (or never, when that passes the end).
    Averaging the saved fraction ``max(0, 1 - stop/packet)`` over uniform
    ``u`` gives this closed form's numerical evaluation — the F4 bench
    compares the simulator against it.
    """
    check_non_negative("detection_latency_bits", detection_latency_bits)
    if asymmetry_ratio <= 0 or packet_bits <= 0:
        raise ValueError("asymmetry_ratio and packet_bits must be positive")
    r = asymmetry_ratio
    total_saved = 0.0
    for onset in range(packet_bits):
        stop = (math.floor((onset + detection_latency_bits) / r) + 2) * r
        if stop < packet_bits:
            total_saved += 1.0 - stop / packet_bits
    return total_saved / packet_bits
