"""Outside-in layer trace: spans around the public callables of each layer.

The program under ``src/`` is not changed to carry spans.  Instead,
:class:`LayerTrace` replaces each public callable listed in
:data:`CALLABLES` with a thin wrapper that records one span per call
(name, start, end, parent span) in memory.  Several modules import these
callables by name (``receiver.py`` imports ``acquire_frame_start``,
``store.py`` imports the codec's ``encode``/``decode``, ``cache.py`` and
``spec.py`` import ``result_key``, ``envelope.py`` imports
``single_pole_lowpass``, the batch registry holds the ``batch_*_trials``
in a dict), so a wrapper is installed at *every* place the original
object is reachable from a loaded ``repro`` module: module globals and
module-level dicts, not only the defining module.

Spans are timed in wall seconds, so time a callable spends blocked on
file I/O lands in its layer (the end-to-end metrics are CPU seconds).
Self time of a span is its duration minus the time its child spans
cover; a layer's self time is the sum over its callables.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

#: ``(layer, metric stem, module, qualified name)`` of every timed
#: callable.  A stem equal to its layer name stands for the whole layer.
CALLABLES = (
    ("ambient", "ambient.batch_samples", "repro.ambient.sources",
     "OfdmLikeSource.batch_samples"),
    ("ambient", "ambient.samples", "repro.ambient.sources",
     "OfdmLikeSource.samples"),
    ("channel", "channel.realize_batch", "repro.channel.link",
     "ChannelModel.realize_batch"),
    ("channel", "channel.realize", "repro.channel.link",
     "ChannelModel.realize"),
    ("channel", "channel.batch_received", "repro.channel.link",
     "BatchLinkGains.received"),
    ("channel", "channel.received", "repro.channel.link",
     "LinkGains.received"),
    ("fullduplex", "fullduplex.stage", "repro.fullduplex.batch",
     "BatchFullDuplexEngine.stage"),
    ("fullduplex", "fullduplex.decode_aligned_bits", "repro.fullduplex.batch",
     "BatchFullDuplexEngine.decode_aligned_bits"),
    ("fullduplex", "fullduplex.decode_feedback", "repro.fullduplex.batch",
     "BatchFullDuplexEngine.decode_feedback"),
    ("fullduplex", "fullduplex.run", "repro.fullduplex.link",
     "FullDuplexLink.run"),
    ("fullduplex", "fullduplex.run_raw_bits", "repro.fullduplex.link",
     "FullDuplexLink.run_raw_bits"),
    ("phy.sync", "phy.sync", "repro.phy.sync", "acquire_frame_start"),
    ("phy", "phy.receive_frame", "repro.phy.receiver",
     "BackscatterReceiver.receive_frame"),
    ("phy", "phy.transmit", "repro.phy.transmitter",
     "BackscatterTransmitter.transmit"),
    ("phy", "phy.encode_batch", "repro.phy.coding", "encode_batch"),
    ("dsp", "dsp.single_pole_lowpass", "repro.dsp.filters",
     "single_pole_lowpass"),
    ("dsp", "dsp.square_law_detector", "repro.dsp.envelope",
     "square_law_detector"),
    ("dsp", "dsp.normalized_correlation", "repro.dsp.ops",
     "normalized_correlation"),
    ("hardware", "hardware.harvested_energy", "repro.hardware.tag",
     "TagFrontEnd.harvested_energy"),
    ("hardware", "hardware.receive_envelope", "repro.hardware.tag",
     "TagFrontEnd.receive_envelope"),
    ("mac.batch", "mac.batch.run_chunk", "repro.mac.batch",
     "SlottedMacEngine.run_chunk"),
    ("mac.batch", "mac.batch.init", "repro.mac.batch",
     "SlottedMacEngine.__init__"),
    ("mac.simulator", "mac.simulator", "repro.mac.simulator",
     "NetworkSimulator.run"),
    ("experiments", "experiments.runner_run", "repro.experiments.runner",
     "ExperimentRunner.run"),
    ("experiments", "experiments.batch_forward_ber_trials",
     "repro.experiments.batch", "batch_forward_ber_trials"),
    ("experiments", "experiments.batch_feedback_ber_trials",
     "repro.experiments.batch", "batch_feedback_ber_trials"),
    ("experiments", "experiments.batch_frame_delivery_trials",
     "repro.experiments.batch", "batch_frame_delivery_trials"),
    ("experiments", "experiments.batch_energy_trials",
     "repro.experiments.batch", "batch_energy_trials"),
    ("experiments", "experiments.batch_mac_trials",
     "repro.experiments.batch", "batch_mac_trials"),
    ("store.keys", "store.keys", "repro.store.keys", "result_key"),
    ("store.io", "store.get", "repro.store.store", "ResultStore.get"),
    ("store.io", "store.put", "repro.store.store", "ResultStore.put"),
    ("store.io", "store.has", "repro.store.store", "ResultStore.has"),
    ("store.io", "store.best_prefix", "repro.store.store",
     "ResultStore.best_prefix"),
    ("store.codec", "store.codec.encode", "repro.store.codec", "encode"),
    ("store.codec", "store.codec.decode", "repro.store.codec", "decode"),
    ("campaigns.run", "campaigns.run", "repro.campaigns.runner",
     "CampaignRunner.run"),
    ("campaigns.report", "campaigns.report", "repro.campaigns.runner",
     "CampaignRunner.report"),
)

#: The stop predicate the benchmark hands to serial BER runners; it is
#: the benchmark's own callable, so it is wrapped where it is built.
STOP_RULE = ("experiments", "experiments.stop_rule")

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in CALLABLES))
STEMS = tuple(stem for _, stem, *_ in CALLABLES) + (STOP_RULE[1],)
LAYER_OF = {stem: layer for layer, stem, *_ in CALLABLES}
LAYER_OF[STOP_RULE[1]] = STOP_RULE[0]


def _resolve(module: str, qualname: str):
    """``(owner, attribute, original)`` for a dotted callable."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class LayerTrace:
    """In-memory span recorder over the callables in :data:`CALLABLES`.

    ``install()`` patches every site, ``uninstall()`` restores them.
    Spans are recorded only while ``phase`` is set; ``phase`` also tags
    the counters (``cached_run`` outcomes) that differ between cold and
    warm passes.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [stem, start, end, parent]
        self._stack: list[int] = []
        self._sites: list[tuple] = []
        self.phase: str | None = None
        self.sync_found = 0
        self.mac_lanes = 0
        self.outcomes: dict[tuple[str, str], int] = {}

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Record spans, tagged ``phase``, inside the ``with`` block."""
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    def wrap(self, stem: str, fn, after=None):
        """``fn`` with a span per call; ``after(args, result)`` if given."""
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if trace.phase is None:
                return fn(*args, **kwargs)
            index = len(trace.spans)
            parent = trace._stack[-1] if trace._stack else -1
            span = [stem, time.perf_counter(), 0.0, parent]
            trace.spans.append(span)
            trace._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                trace._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_sync(self, args, result) -> None:
        self.sync_found += bool(result.found)

    def _count_lanes(self, args, result) -> None:
        self.mac_lanes += len(args[1])

    def _count_outcome(self, fn):
        trace = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if trace.phase is not None:
                slot = (trace.phase, result.outcome)
                trace.outcomes[slot] = trace.outcomes.get(slot, 0) + 1
            return result

        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable at its definition and at every alias."""
        hooks = {
            "phy.sync": self._count_sync,
            "mac.batch.run_chunk": self._count_lanes,
        }
        for _, stem, module, qualname in CALLABLES:
            owner, attr, original = _resolve(module, qualname)
            wrapped = self.wrap(stem, original, hooks.get(stem))
            self._replace(owner, attr, original, wrapped)
        owner, attr, original = _resolve("repro.store.cache", "cached_run")
        self._replace(owner, attr, original, self._count_outcome(original))

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._sites.append((owner, attr, original))
        if isinstance(owner, type):
            return  # methods are looked up through the class
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._sites.append((module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self._sites.append((value, k, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, key, original in reversed(self._sites):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._sites.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``stem → (calls, self seconds)`` over every recorded span."""
        covered = [0.0] * len(self.spans)
        for stem, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {stem: (0, 0.0) for stem in STEMS}
        for (stem, start, end, _), child in zip(self.spans, covered):
            calls, busy = out[stem]
            out[stem] = (calls + 1, busy + (end - start) - child)
        return out

    def hit_ratio(self, phase: str) -> float:
        """``cached_run`` hits ÷ calls during ``phase`` (0.0 if none)."""
        calls = sum(n for (p, _), n in self.outcomes.items() if p == phase)
        hits = self.outcomes.get((phase, "hit"), 0)
        return hits / calls if calls else 0.0

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as fh:
            for i, (stem, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": stem, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")
