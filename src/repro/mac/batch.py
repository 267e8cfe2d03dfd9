"""Slotted, tensorized MAC contention engine: many replications at once.

:class:`SlottedMacEngine` is the ``backend="vectorized"`` implementation
behind the ``mac`` trial kind.  One *lane* is one independent contention
replication (the workload :class:`~repro.mac.simulator.NetworkSimulator`
runs event by event); the engine advances a whole chunk of lanes through
discrete time slots, with every per-link state variable held in a flat
``(lanes * links,)`` array and every protocol transition expressed as a
masked array update.

Discretisation model
--------------------
Time is quantised to *feedback slots* of ``asymmetry_ratio`` bits — the
natural granularity of the paper's protocol, since the full-duplex
abort/resume points are multiples of ``r`` by construction:

* Poisson arrivals replay the serial path's draws exactly (same spawned
  per-link generators, same exponential gaps), then bin to the slot
  grid (floor); the continuous arrival instant is kept for latency
  accounting.  Offered workloads are therefore bit-identical to the
  serial trials'.
* A transmission occupies ``ceil(bits / slot)`` slots of the single
  collision domain; per-slot occupancy counts >= 2 corrupt every
  transmission covering that slot (first corruption wins, exactly the
  event-driven rule).
* Binary-exponential backoff draws are floored to slots; the
  half-duplex turnaround + ACK + guard exchange rounds up to whole
  slots (it is sub-slot at the default ``r = 64``).
* Energy, airtime and bit tallies use the exact *bit* quantities
  (attempt length, abort point, ACK length) — only event timing and
  collision geometry are quantised.

Equivalence contract (DESIGN §7)
--------------------------------
Because collision geometry is quantised, the engine is **statistically
equivalent** to the event-driven simulator, not bitwise: paired-seed
runs must produce overlapping Wilson intervals on pooled delivery (and
closely matching goodput/abort/energy statistics), which
``tests/test_batch_equivalence.py`` pins across the contention presets.
Lane ``i`` consumes only the generators derived from trial ``i``'s seed
child, so records are independent of the chunk size and the store's
top-up/truncation contracts remain valid.

Lanes of different specs
------------------------
One engine call may carry lanes of different specs, so a campaign can
pool the missing trials of many units into a few wide calls (the slot
loop costs per visited slot, not per lane).  The fields in
:data:`LANE_FIELDS` — arrival rate, load asymmetry and loss
probability — are read per lane; everything else (slot size, horizon,
packet and payload bits, link count, retry budget, policy and its
parameters) is shared, and lanes are grouped by :func:`shared_spec`.
A lane's record does not depend on the other lanes: every draw comes
from its own per-link generators, and the union of all lanes' event
slots includes each lane's own, so a lane sees the same transitions at
the same slots whatever else shares the call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.mac.fdmac import FullDuplexAbortPolicy
from repro.mac.traffic import poisson_arrivals
from repro.utils.rng import ensure_rng, spawn_rngs

#: Per-link protocol phases (values are arbitrary but stable).
_IDLE, _TX, _WAIT, _BACKOFF, _ACK = 0, 1, 2, 3, 4

#: Initial per-(lane, link) budget of pre-drawn event uniforms; the
#: block doubles on exhaustion (values depend only on each link
#: generator's stream position, so late refills are deterministic).
_EVENT_BLOCK = 128


#: Spec fields the engine reads per lane; all other fields are shared by
#: every lane of one call.
LANE_FIELDS = (
    "mac_arrival_rate_pps", "mac_load_asymmetry", "mac_loss_probability",
)


def _ceil_div(a, b):
    return -(-a // b)


def shared_spec(spec):
    """``spec`` with its :data:`LANE_FIELDS` at their defaults.

    Lanes whose specs have equal shared specs may run in one call.
    """
    return spec.replace(**{
        f.name: f.default
        for f in dataclasses.fields(spec)
        if f.name in LANE_FIELDS
    })


class SlottedMacEngine:
    """Vectorized executor for chunks of MAC contention replications.

    Parameters
    ----------
    spec:
        A :class:`~repro.experiments.spec.ScenarioSpec`; the engine
        mirrors ``mac_trial``'s workload (``spec.build_mac_config()``)
        and policy arm (``spec.build_mac_policy()``); the lanes of
        :meth:`run_chunk` share all of it but :data:`LANE_FIELDS`.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        cfg = spec.build_mac_config()
        policy = spec.build_mac_policy()
        self.cfg = cfg
        self.kind = spec.mac_policy
        self.is_fd = isinstance(policy, FullDuplexAbortPolicy)
        self.is_resume = self.kind == "fd-resume"
        self.is_hd = self.kind == "hd-arq"
        self.energy = EnergyModel()

        self.rate = float(cfg.bit_rate_bps)
        self.slot_bits = max(1, int(spec.asymmetry_ratio))
        self.slot_sec = self.slot_bits / self.rate
        self.full_bits = int(cfg.packet_bits)
        self.payload_bits = int(cfg.payload_bits)
        self.packet_sec = cfg.packet_seconds
        self.horizon = float(cfg.horizon_seconds)
        grace = 50.0 * cfg.packet_seconds
        self.max_slot = int((self.horizon + grace) / self.slot_sec)
        self.links = int(cfg.num_links)
        self.max_retries = int(policy.max_retries)

        if self.is_fd:
            self.r = int(policy.asymmetry_ratio)
            self.detect = int(policy.detection_latency_bits)
            self.tail_slots = _ceil_div(
                int(policy.ack_tail_slots) * self.r, self.slot_bits
            )
        if self.is_resume:
            self.resume_overhead = int(policy.resume_overhead_bits)
        if self.is_hd:
            ack_bits = int(policy.ack_bits)
            turnaround = int(policy.turnaround_bits)
            guard = int(policy.timeout_guard_bits)
            self.ack_slots = max(
                1, _ceil_div(turnaround + ack_bits, self.slot_bits)
            )
            self.timeout_slots = max(
                1, _ceil_div(turnaround + ack_bits + guard, self.slot_bits)
            )
            # ACK exchange costs (the receiver transmits, the original
            # transmitter listens), applied at ACK start like the
            # event-driven simulator does.
            self.ack_rx_e = self.energy.tx_cost(ack_bits)
            self.ack_tx_e = self.energy.rx_cost(ack_bits)
            self.ack_busy = ack_bits / self.rate

    # -- lane-local randomness --------------------------------------------

    def _lane_params(self, specs):
        """Per-lane ``(lanes, links)`` arrival rates and ``(lanes,)``
        loss probabilities of ``specs``, checked to share this engine's
        :func:`shared_spec`."""
        shared = shared_spec(self.spec)
        params = {}
        rates, p_loss = [], []
        for spec in specs:
            if spec not in params:
                if shared_spec(spec) != shared:
                    raise ValueError(
                        "lanes of one engine call may differ only in "
                        f"{LANE_FIELDS}"
                    )
                cfg = spec.build_mac_config()
                params[spec] = (
                    cfg.link_arrival_rates(), cfg.loss.loss_probability
                )
            lane_rates, lane_loss = params[spec]
            rates.append(lane_rates)
            p_loss.append(lane_loss)
        return np.asarray(rates, dtype=float), np.asarray(p_loss, dtype=float)

    def _draw_arrivals(self, children, rates):
        """Per-lane Poisson workloads, drawn exactly as the serial path.

        Each lane replays ``NetworkSimulator.run``'s seeding verbatim —
        one spawned child generator per link, exponential-gap arrivals
        from it at that lane's per-link ``rates`` — so lane *i*'s
        offered workload is bit-identical to serial trial *i*'s, and
        only the contention *dynamics* are slot quantised.  Every draw
        comes from lane-local generators, so records are chunk-size
        independent.
        """
        lanes, links = len(children), self.links
        link_rngs = []
        arrivals = []
        counts = np.zeros((lanes, links), dtype=np.int64)
        for i, child in enumerate(children):
            gen = ensure_rng(child)
            lane_rngs = spawn_rngs(gen, links)
            link_rngs.append(lane_rngs)
            lane_arrivals = []
            for j in range(links):
                arr = poisson_arrivals(
                    float(rates[i, j]), self.horizon, lane_rngs[j]
                )
                lane_arrivals.append(arr)
                counts[i, j] = arr.size
            arrivals.append(lane_arrivals)
        kmax = max(1, int(counts.max()))
        arr_sec = np.full((lanes, links, kmax), np.inf)
        for i in range(lanes):
            for j in range(links):
                k = int(counts[i, j])
                if k:
                    arr_sec[i, j, :k] = arrivals[i][j]
        arr_slot = np.full((lanes, links, kmax), self.max_slot + 1,
                           dtype=np.int64)
        finite = np.isfinite(arr_sec)
        arr_slot[finite] = (arr_sec[finite] / self.slot_sec).astype(np.int64)
        return counts, arr_sec, arr_slot, link_rngs

    # -- chunk execution ---------------------------------------------------

    def run_chunk(self, children, specs) -> list[dict]:
        """Run one replication per seed child; one record per lane.

        ``specs`` gives lane *i* its spec, which may differ from the
        engine's only in :data:`LANE_FIELDS`.  Records carry exactly the
        keys of :func:`repro.experiments.mac.flatten_network_metrics`.
        """
        children = list(children)
        if not children:
            return []
        specs = list(specs)
        if len(specs) != len(children):
            raise ValueError(
                f"{len(specs)} lane specs for {len(children)} seeds"
            )
        lanes, links = len(children), self.links
        rates, lane_loss = self._lane_params(specs)
        counts, arr_sec, arr_slot, link_rngs = self._draw_arrivals(
            children, rates
        )
        n = lanes * links
        p_loss = np.repeat(lane_loss, links)
        kmax = arr_slot.shape[2]
        arr_sec_f = arr_sec.reshape(n, kmax)
        arr_slot_f = arr_slot.reshape(n, kmax)
        counts_f = counts.reshape(n)
        lane_of = np.repeat(np.arange(lanes), links)
        flat_rngs = [rng for lane in link_rngs for rng in lane]

        # Pre-drawn event uniforms, consumed per (lane, link) through a
        # cursor; each cell draws from its own link generator (after its
        # arrival draws), so every lane stays self-contained.
        def draw_block(width):
            out = np.empty((n, width))
            for k, rng in enumerate(flat_rngs):
                out[k] = rng.random(width)
            return out

        block = draw_block(_EVENT_BLOCK)
        ptr = np.zeros(n, dtype=np.int64)

        def take(f):
            nonlocal block
            if int(ptr[f].max()) >= block.shape[1]:
                block = np.concatenate(
                    [block, draw_block(block.shape[1])], axis=1
                )
            vals = block[f, ptr[f]]
            ptr[f] += 1
            return vals

        phase = np.zeros(n, dtype=np.int8)
        phase_end = np.zeros(n, dtype=np.int64)
        next_idx = np.zeros(n, dtype=np.int64)
        has_pkt = counts_f > 0
        head_slot = arr_slot_f[:, 0].copy()
        pkt_arr = np.zeros(n)
        pkt_deliv = np.zeros(n, dtype=bool)
        retry = np.zeros(n, dtype=np.int64)
        acked = np.zeros(n, dtype=np.int64)
        att_bits = np.zeros(n, dtype=np.int64)
        att_start = np.zeros(n, dtype=np.int64)
        corrupt = np.zeros(n, dtype=bool)
        onset = np.full(n, -1, dtype=np.int64)
        aborted = np.zeros(n, dtype=bool)
        abort_bits = np.zeros(n, dtype=np.int64)
        cur_bits = np.zeros(n, dtype=np.int64)
        cur_aborted = np.zeros(n, dtype=bool)
        pend_deliv = np.zeros(n, dtype=bool)
        pend_know = np.zeros(n, dtype=bool)
        ack_corrupt = np.zeros(n, dtype=bool)

        m_attempts = np.zeros(n, dtype=np.int64)
        m_aborted = np.zeros(n, dtype=np.int64)
        m_delivered = np.zeros(n, dtype=np.int64)
        m_failed = np.zeros(n, dtype=np.int64)
        m_bits = np.zeros(n, dtype=np.int64)
        m_payload = np.zeros(n, dtype=np.int64)
        m_tx_e = np.zeros(n)
        m_rx_e = np.zeros(n)
        m_lat = np.zeros(n)
        m_busy = np.zeros(n)

        t = 0
        big = self.max_slot + 1

        def fd_abort(f, onset_bits, bits, start):
            """Early-abort bookkeeping for newly corrupted fd attempts."""
            stop = ((onset_bits + self.detect) // self.r + 2) * self.r
            can = stop < bits
            fa = f[can]
            if fa.size:
                aborted[fa] = True
                abort_bits[fa] = stop[can]
                phase_end[fa] = np.maximum(
                    start[can] + _ceil_div(stop[can], self.slot_bits), t + 1
                )

        while t <= self.max_slot:
            # -- 1. data transmissions ending at this slot ----------------
            m = (phase == _TX) & (phase_end <= t)
            if m.any():
                f = np.nonzero(m)[0]
                cur_bits[f] = np.where(
                    aborted[f], abort_bits[f], att_bits[f]
                )
                cur_aborted[f] = aborted[f]
                if self.kind == "no-arq":
                    phase[f] = _WAIT
                    phase_end[f] = t
                    pend_deliv[f] = ~corrupt[f]
                elif self.is_fd:
                    # The trailing feedback slot carries the final
                    # ACK/NACK; it rides the backscatter, no occupancy.
                    phase[f] = _WAIT
                    phase_end[f] = t + self.tail_slots
                    pend_deliv[f] = ~corrupt[f]
                    pend_know[f] = True
                else:  # hd-arq
                    bad = corrupt[f]
                    fb_ = f[bad]
                    phase[fb_] = _WAIT
                    phase_end[fb_] = t + self.timeout_slots
                    pend_deliv[fb_] = False
                    pend_know[fb_] = True
                    fg = f[~bad]
                    if fg.size:
                        phase[fg] = _ACK
                        phase_end[fg] = t + self.ack_slots
                        ack_corrupt[fg] = take(fg) < p_loss[fg]
                        m_rx_e[fg] += self.ack_rx_e
                        m_tx_e[fg] += self.ack_tx_e
                        m_busy[fg] += self.ack_busy

            # -- 2. waits / ACK exchanges resolving at this slot ----------
            m = ((phase == _WAIT) | (phase == _ACK)) & (phase_end <= t)
            if m.any():
                f = np.nonzero(m)[0]
                is_ack = phase[f] == _ACK
                dv = pend_deliv[f] | is_ack
                kn = np.where(is_ack, ~ack_corrupt[f], pend_know[f])
                bits = cur_bits[f]
                m_bits[f] += bits
                m_aborted[f] += cur_aborted[f]
                m_tx_e[f] += self.energy.tx_bit_joule * bits
                fb = bits // self.r if self.is_fd else 0
                m_rx_e[f] += (
                    self.energy.rx_bit_joule * bits
                    + self.energy.feedback_bit_joule * fb
                )
                m_busy[f] += bits / self.rate
                was = pkt_deliv[f]
                first = dv & ~was
                ff = f[first]
                m_delivered[ff] += 1
                m_payload[ff] += self.payload_bits
                m_lat[ff] += t * self.slot_sec - pkt_arr[ff]
                pkt_deliv[ff] = True
                retrying = ~(dv & kn) & (retry[f] < self.max_retries)
                done = ~retrying
                if self.is_resume:
                    upd = retrying & corrupt[f] & (onset[f] >= 0)
                    fu = f[upd]
                    acked[fu] = np.minimum(
                        self.full_bits,
                        acked[fu] + (onset[fu] // self.r) * self.r,
                    )
                fail = done & ~(was | dv)
                m_failed[f[fail]] += 1
                phase[f[done]] = _IDLE
                fr = f[retrying]
                if fr.size:
                    retry[fr] += 1
                    window = self.packet_sec * (
                        2.0 ** np.minimum(retry[fr], 6)
                    )
                    boff = take(fr) * window
                    phase[fr] = _BACKOFF
                    phase_end[fr] = t + (boff / self.slot_sec).astype(
                        np.int64
                    )

            # -- 3. attempts starting at this slot ------------------------
            idle_start = (phase == _IDLE) & has_pkt & (head_slot <= t)
            m = idle_start | ((phase == _BACKOFF) & (phase_end <= t))
            if m.any():
                fi = np.nonzero(idle_start)[0]
                if fi.size:
                    pkt_arr[fi] = arr_sec_f[fi, next_idx[fi]]
                    pkt_deliv[fi] = False
                    retry[fi] = 0
                    acked[fi] = 0
                    next_idx[fi] += 1
                    has_pkt[fi] = next_idx[fi] < counts_f[fi]
                    head_slot[fi] = arr_slot_f[
                        fi, np.minimum(next_idx[fi], kmax - 1)
                    ]
                fs = np.nonzero(m)[0]
                if self.is_resume:
                    abits = np.where(
                        retry[fs] == 0,
                        self.full_bits,
                        np.minimum(
                            self.full_bits,
                            np.maximum(1, self.full_bits - acked[fs])
                            + self.resume_overhead,
                        ),
                    )
                else:
                    abits = np.full(fs.size, self.full_bits, dtype=np.int64)
                att_bits[fs] = abits
                att_start[fs] = t
                corrupt[fs] = False
                aborted[fs] = False
                onset[fs] = -1
                pend_know[fs] = False
                m_attempts[fs] += 1
                phase[fs] = _TX
                phase_end[fs] = t + _ceil_div(abits, self.slot_bits)
                u_loss = take(fs)
                u_pos = take(fs)
                lost = u_loss < p_loss[fs]
                fl = fs[lost]
                if fl.size:
                    ob = (u_pos[lost] * abits[lost]).astype(np.int64)
                    corrupt[fl] = True
                    onset[fl] = ob
                    if self.is_fd:
                        fd_abort(fl, ob, abits[lost], att_start[fl])

            # -- 4. collision domain: occupancy >= 2 corrupts all ---------
            occ = (phase == _TX) | (phase == _ACK)
            cnt = occ.reshape(lanes, links).sum(axis=1)
            if (cnt >= 2).any():
                coll = occ & (cnt >= 2)[lane_of]
                newly = coll & (phase == _TX) & ~corrupt
                f = np.nonzero(newly)[0]
                if f.size:
                    ob = np.minimum(
                        (t - att_start[f]) * self.slot_bits,
                        att_bits[f] - 1,
                    )
                    np.maximum(ob, 0, out=ob)
                    corrupt[f] = True
                    onset[f] = ob
                    if self.is_fd:
                        fd_abort(f, ob, att_bits[f], att_start[f])
                ack_corrupt[coll & (phase == _ACK)] = True

            # -- 5. advance to the next event slot ------------------------
            active = phase != _IDLE
            nxt = min(
                int(np.min(phase_end, where=active, initial=big)),
                int(np.min(head_slot, where=~active & has_pkt, initial=big)),
            )
            if nxt > self.max_slot:
                break
            t = max(t + 1, nxt)

        # Idle leakage over the un-busy remainder of each link's horizon.
        idle = np.maximum(0.0, self.horizon - m_busy)
        m_tx_e += self.energy.idle_second_joule * idle
        m_rx_e += self.energy.idle_second_joule * idle

        def grid(a):
            return a.reshape(lanes, links)

        return self._records(
            grid(counts_f), grid(m_delivered), grid(m_failed),
            grid(m_attempts), grid(m_aborted), grid(m_bits),
            grid(m_payload), grid(m_tx_e), grid(m_rx_e), grid(m_lat),
        )

    def _records(self, offered, delivered, failed, attempts, aborted,
                 bits, payload, tx_e, rx_e, lat) -> list[dict]:
        """Per-lane network sums in the ``flatten_network_metrics`` shape."""
        lanes, links = offered.shape
        off = offered.sum(axis=1)
        del_ = delivered.sum(axis=1)
        fail = failed.sum(axis=1)
        att = attempts.sum(axis=1)
        ab = aborted.sum(axis=1)
        bit = bits.sum(axis=1)
        pay = payload.sum(axis=1)
        txe = tx_e.sum(axis=1)
        tote = txe + rx_e.sum(axis=1)
        lat_s = lat.sum(axis=1)
        pay_sq = (payload.astype(float) ** 2).sum(axis=1)
        records = []
        for i in range(lanes):
            d = int(del_[i])
            p = int(pay[i])
            a = int(att[i])
            jain = (
                1.0
                if p == 0
                else float(p) ** 2 / (links * float(pay_sq[i]))
            )
            records.append({
                "offered_packets": int(off[i]),
                "delivered_packets": d,
                "failed_packets": int(fail[i]),
                "attempts": a,
                "aborted_attempts": int(ab[i]),
                "bits_transmitted": int(bit[i]),
                "payload_bits_delivered": p,
                "tx_energy_joule": float(txe[i]),
                "total_energy_joule": float(tote[i]),
                "latency_sum_seconds": float(lat_s[i]),
                "duration_seconds": self.horizon,
                "goodput_bps": p / self.horizon,
                "delivery_ratio": d / off[i] if off[i] else 0.0,
                "abort_fraction": int(ab[i]) / a if a else 0.0,
                "mean_latency_seconds": (
                    float(lat_s[i]) / d if d else 0.0
                ),
                "energy_per_delivered_bit": (
                    float(tote[i]) / p if p else 0.0
                ),
                "jain_fairness": jain,
            })
        return records
