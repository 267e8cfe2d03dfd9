"""Pinned sha256 digests of the sample-level exchange outputs.

The serial trial functions, the vectorized backend and the one-lane
``FullDuplexLink.run`` / ``run_raw_bits`` calls all run one exchange
pipeline.  These digests freeze what that pipeline produced before it
was folded into one implementation per stage, so any later drift —
including in the half-duplex ``feedback_enabled=False`` arm that no
batched trial kind exercises — shows up here, not in a plot.

Like the golden fixtures, exact outputs are only reproducible under the
numerics stack that produced them; the test skips when numpy or scipy
differ from :data:`PINNED_ENVIRONMENT`.
"""

import hashlib
import json

import numpy
import pytest
import scipy

from repro.experiments import (
    ExperimentRunner,
    energy_trial,
    feedback_ber_trial,
    forward_ber_trial,
    frame_delivery_trial,
    get_scenario,
)
from repro.experiments.runner import BITS_PER_TRIAL
from repro.phy.framing import random_frame
from repro.utils.rng import random_bits, spawn_rngs

PINNED_ENVIRONMENT = {"numpy": "2.4.6", "scipy": "1.17.1"}

#: The golden fixtures' scenarios and root seed.
SCENARIOS = ["calibrated-default", "fast-short-range", "rayleigh-mobile"]
SEED = 20260729

TRIALS = {
    "forward_ber": forward_ber_trial,
    "feedback_ber": feedback_ber_trial,
    "frame_delivery": frame_delivery_trial,
    "energy": energy_trial,
}

#: ``"<scenario>/<trial kind>"`` → digest of the serial 2-trial records.
TABLE_DIGESTS = {
    "calibrated-default/energy":
        "1b51935990aa20d06372784fe07410343febddb4fc2e181fda56bff203fa0e6d",
    "calibrated-default/feedback_ber":
        "cb705905da902a4bf75e4ea0aada7aefb6d285c9289af9bb3cd9560866920622",
    "calibrated-default/forward_ber":
        "0f4d6e11db633c777c805852c24dcfb4ed81c15688eabc5f9d41dd8ef029e9ea",
    "calibrated-default/frame_delivery":
        "de20eb74fc40f2cf271254a7e42edd2a3e0329305bbe77b4574ed601d099477e",
    "fast-short-range/energy":
        "5f180477ba5256c91f9138cc99d89995c459c496e0660a4057431f7ab332f239",
    "fast-short-range/feedback_ber":
        "cb705905da902a4bf75e4ea0aada7aefb6d285c9289af9bb3cd9560866920622",
    "fast-short-range/forward_ber":
        "50b2793470c840b1334cc48c2ad9aa3e74e734abdbb85272cd3234f9bb835418",
    "fast-short-range/frame_delivery":
        "e7c9cabf1f0c75d3d71031654c6cdda1e1427f7015a258437ff5b158a8b51174",
    "rayleigh-mobile/energy":
        "313c1f93ba3f98a2e5e51b5cbe24d0a5fa5635a826351ee0427fbc7f36597feb",
    "rayleigh-mobile/feedback_ber":
        "e897bc48f7dd9dd7ca2895b76ba5a43a5aeb882b0820c097284b086e81528e07",
    "rayleigh-mobile/forward_ber":
        "e8af9a05e6ae447b0b3ff1fd02bcadd01d7e36c3571a47bc6e6e860a3317da1e",
    "rayleigh-mobile/frame_delivery":
        "e7c9cabf1f0c75d3d71031654c6cdda1e1427f7015a258437ff5b158a8b51174",
}

#: ``"<scenario>/<run|run_raw_bits>/<feedback on|off>"`` → digest of 4
#: exchanges (seeds 0..3).  The ``off`` arm is the half-duplex baseline.
EXCHANGE_DIGESTS = {
    "calibrated-default/run/off":
        "1009b47fa0c4657bdf0279165eb3a9676706a44cbd22e311c4a730a81ef0446b",
    "calibrated-default/run/on":
        "486e81f3bf2f98846658b23bfe713dbf10aa07860b640158aa31e172180fc5fd",
    "calibrated-default/run_raw_bits/off":
        "cf3bc2cacf66b83a7d422672571f35ca0af79d874ba7dd7a7b2bb32635de1181",
    "calibrated-default/run_raw_bits/on":
        "a9b35383c25951c0c69a6104586d1f9e611d0acb3eae6bec97e609fd75ec196f",
    "fast-short-range/run/off":
        "48e10eea0a4be09a26b326e68be7c7af5a56b5ff622294493223830dfe364a03",
    "fast-short-range/run/on":
        "3ee41195cb983500915f7c56c729867420a87f9e4f49fe364263cfccd1e6b29e",
    "fast-short-range/run_raw_bits/off":
        "f4d01049da075188cfd4414edca53d0745b5f20a2b5b01c5bc9f460ca39fc581",
    "fast-short-range/run_raw_bits/on":
        "3c7e08cdbce1e229ed39b4a93575e03fd632daa4f5a13d7d8444f9bac9de4111",
    "rayleigh-mobile/run/off":
        "d074827c4e6197e61f4b94bf0235a48c56e477382bd881b14f78b61e9c7e36f9",
    "rayleigh-mobile/run/on":
        "40fd42e4119ec65b8d74286ab8d33cceccfc78a549caf44d4ddd05eef72677de",
    "rayleigh-mobile/run_raw_bits/off":
        "cf3bc2cacf66b83a7d422672571f35ca0af79d874ba7dd7a7b2bb32635de1181",
    "rayleigh-mobile/run_raw_bits/on":
        "a9b35383c25951c0c69a6104586d1f9e611d0acb3eae6bec97e609fd75ec196f",
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(name: str, trial, backend: str) -> str:
    table = ExperimentRunner(trial=trial, max_trials=2, backend=backend).run(
        get_scenario(name), seed=SEED
    )
    return _digest(table.records)


def _bits(array) -> list:
    return [int(b) for b in array]


def exchange_digest(name: str, method: str, feedback_enabled: bool) -> str:
    """Digest of ``method`` over seeds 0..3."""
    stack = get_scenario(name).build()
    outputs = []
    for seed in range(4):
        rng_ch, rng_bits, rng_run = spawn_rngs(numpy.random.default_rng(seed), 3)
        gains = stack.realize(rng_ch)
        fb = random_bits(rng_bits, 16)
        if method == "run_raw_bits":
            data = random_bits(rng_bits, BITS_PER_TRIAL)
            decoded, fb_sent, fb_decoded = stack.link.run_raw_bits(
                gains, data, fb, rng=rng_run,
                feedback_enabled=feedback_enabled,
            )
            outputs.append([_bits(decoded), _bits(fb_sent), _bits(fb_decoded)])
            continue
        frame = random_frame(4, rng_bits)
        ex = stack.link.run(
            gains, frame, fb, rng=rng_run, feedback_enabled=feedback_enabled
        )
        result = ex.data_result
        outputs.append({
            "crc_ok": result.crc_ok,
            "sync": [result.sync.found, int(result.sync.start_sample),
                     float(result.sync.peak_correlation),
                     int(result.sync.polarity)],
            "body_bits": _bits(result.body_bits),
            "feedback": [_bits(ex.feedback_sent), _bits(ex.feedback_decoded)],
            "air_bits": _bits(ex.data_bits_sent),
            "harvested": [float(ex.harvested_a_joule),
                          float(ex.harvested_b_joule)],
        })
    return _digest(outputs)


@pytest.fixture(autouse=True)
def _pinned_environment():
    current = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if current != PINNED_ENVIRONMENT:
        pytest.skip(
            f"digests pinned under {PINNED_ENVIRONMENT}, running under "
            f"{current}"
        )


@pytest.mark.parametrize("kind", sorted(TRIALS))
@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_trial_tables_pinned(backend, name, kind):
    digest = table_digest(name, TRIALS[kind], backend)
    assert digest == TABLE_DIGESTS[f"{name}/{kind}"]


@pytest.mark.parametrize("feedback", ["off", "on"])
@pytest.mark.parametrize("method", ["run", "run_raw_bits"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_exchange_outputs_pinned(name, method, feedback):
    digest = exchange_digest(name, method, feedback == "on")
    assert digest == EXCHANGE_DIGESTS[f"{name}/{method}/{feedback}"]
