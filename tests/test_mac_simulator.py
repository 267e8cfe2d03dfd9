"""Network-simulator tests: policies, metrics and the paper's
protocol-level claims."""

import pytest

from repro.mac.arq import HalfDuplexArqPolicy, NoArqPolicy
from repro.mac.fdmac import FullDuplexAbortPolicy
from repro.mac.metrics import NetworkMetrics, NodeMetrics
from repro.mac.node import run_policy_comparison, standard_policies
from repro.mac.simulator import NetworkSimulator, SimulationConfig
from repro.mac.traffic import BernoulliLoss


def _run(policy_factory, **overrides):
    defaults = dict(num_links=1, arrival_rate_pps=0.5, horizon_seconds=120.0,
                    payload_bytes=32)
    defaults.update(overrides)
    cfg = SimulationConfig(**defaults)
    sim = NetworkSimulator(config=cfg, policy_factory=policy_factory)
    return cfg, sim.run(rng=0)


class TestLossFreeSingleLink:
    """With one link and no loss, every policy must deliver everything."""

    @pytest.mark.parametrize("factory", [
        NoArqPolicy,
        HalfDuplexArqPolicy,
        FullDuplexAbortPolicy,
    ])
    def test_full_delivery(self, factory):
        cfg, metrics = _run(factory)
        node = metrics.nodes[0]
        assert node.offered_packets > 20
        assert node.delivered_packets == node.offered_packets
        assert node.failed_packets == 0
        assert node.attempts == node.offered_packets

    def test_no_aborts_without_corruption(self):
        _, metrics = _run(FullDuplexAbortPolicy)
        assert metrics.abort_fraction == 0.0

    def test_goodput_matches_offered_load(self):
        cfg, metrics = _run(NoArqPolicy)
        offered = metrics.nodes[0].offered_packets
        offered_bps = offered * cfg.payload_bits / cfg.horizon_seconds
        assert metrics.goodput_bps == pytest.approx(offered_bps, rel=1e-6)


class TestLossySingleLink:
    def test_arq_recovers_what_noarq_loses(self):
        loss = BernoulliLoss(0.3)
        _, no_arq = _run(NoArqPolicy, loss=loss)
        _, hd = _run(HalfDuplexArqPolicy, loss=loss)
        _, fd = _run(FullDuplexAbortPolicy, loss=loss)
        assert no_arq.delivery_ratio < 0.85
        assert hd.delivery_ratio > 0.95
        assert fd.delivery_ratio > 0.95

    def test_fd_spends_less_energy_than_hd(self):
        loss = BernoulliLoss(0.3)
        _, hd = _run(HalfDuplexArqPolicy, loss=loss)
        _, fd = _run(FullDuplexAbortPolicy, loss=loss)
        assert fd.energy_per_delivered_bit < hd.energy_per_delivered_bit

    def test_fd_aborts_on_losses(self):
        _, fd = _run(FullDuplexAbortPolicy, loss=BernoulliLoss(0.4))
        assert fd.abort_fraction > 0.1

    def test_fd_latency_beats_hd(self):
        loss = BernoulliLoss(0.3)
        _, hd = _run(HalfDuplexArqPolicy, loss=loss)
        _, fd = _run(FullDuplexAbortPolicy, loss=loss)
        assert (fd.nodes[0].mean_latency_seconds
                < hd.nodes[0].mean_latency_seconds)


class TestContention:
    def test_collisions_reduce_delivery(self):
        _, light = _run(NoArqPolicy, num_links=2, arrival_rate_pps=0.1,
                        horizon_seconds=200.0)
        _, heavy = _run(NoArqPolicy, num_links=10, arrival_rate_pps=1.0,
                        horizon_seconds=200.0)
        assert heavy.delivery_ratio < light.delivery_ratio

    def test_fd_beats_hd_under_contention(self):
        kwargs = dict(num_links=8, arrival_rate_pps=0.3,
                      horizon_seconds=200.0, loss=BernoulliLoss(0.05))
        _, hd = _run(HalfDuplexArqPolicy, **kwargs)
        _, fd = _run(FullDuplexAbortPolicy, **kwargs)
        assert fd.goodput_bps > hd.goodput_bps
        assert fd.energy_per_delivered_bit < hd.energy_per_delivered_bit

    def test_abort_reduces_airtime(self):
        kwargs = dict(num_links=8, arrival_rate_pps=0.3,
                      horizon_seconds=200.0, loss=BernoulliLoss(0.05))
        _, hd = _run(HalfDuplexArqPolicy, **kwargs)
        _, fd = _run(FullDuplexAbortPolicy, **kwargs)
        hd_bits = sum(n.bits_transmitted for n in hd.nodes)
        fd_bits = sum(n.bits_transmitted for n in fd.nodes)
        # FD sends no ACK packets and aborts doomed packets.
        assert fd_bits < hd_bits


class TestMetricsObjects:
    def test_node_metrics_derived_values(self):
        n = NodeMetrics(offered_packets=10, delivered_packets=8,
                        payload_bits_delivered=4096,
                        tx_energy_joule=4e-6, rx_energy_joule=4e-6,
                        latency_sum_seconds=4.0)
        assert n.delivery_ratio == pytest.approx(0.8)
        assert n.mean_latency_seconds == pytest.approx(0.5)
        assert n.energy_per_delivered_bit == pytest.approx(8e-6 / 4096)

    def test_zero_division_guards(self):
        n = NodeMetrics()
        assert n.delivery_ratio == 0.0
        assert n.mean_latency_seconds == 0.0
        assert n.energy_per_delivered_bit == 0.0
        n.tx_energy_joule = 1.0
        assert n.energy_per_delivered_bit == float("inf")

    def test_network_aggregation(self):
        net = NetworkMetrics(
            nodes=[
                NodeMetrics(offered_packets=4, delivered_packets=4,
                            payload_bits_delivered=1000, attempts=4),
                NodeMetrics(offered_packets=6, delivered_packets=3,
                            payload_bits_delivered=500, attempts=6,
                            aborted_attempts=3),
            ],
            duration_seconds=10.0,
        )
        assert net.goodput_bps == pytest.approx(150.0)
        assert net.delivery_ratio == pytest.approx(0.7)
        assert net.abort_fraction == pytest.approx(0.3)

    def test_jain_fairness(self):
        equal = NetworkMetrics(nodes=[
            NodeMetrics(payload_bits_delivered=100),
            NodeMetrics(payload_bits_delivered=100),
        ])
        skewed = NetworkMetrics(nodes=[
            NodeMetrics(payload_bits_delivered=200),
            NodeMetrics(payload_bits_delivered=0),
        ])
        assert equal.jain_fairness() == pytest.approx(1.0)
        assert skewed.jain_fairness() == pytest.approx(0.5)


class TestPolicies:
    def test_standard_policies_names(self):
        policies = standard_policies()
        assert list(policies) == ["no-arq", "hd-arq", "fd-abort"]

    def test_run_policy_comparison_is_paired(self):
        cfg = SimulationConfig(num_links=2, arrival_rate_pps=0.2,
                               horizon_seconds=60.0)
        a = run_policy_comparison(cfg, seed=5)
        b = run_policy_comparison(cfg, seed=5)
        for name in a:
            assert a[name].goodput_bps == b[name].goodput_bps

    def test_fd_abort_bit_granularity(self):
        p = FullDuplexAbortPolicy(asymmetry_ratio=32,
                                  detection_latency_bits=4)
        assert p.abort_bit(0, 1000) == 64
        assert p.abort_bit(31, 1000) == 96
        assert p.abort_bit(990, 1000) is None

    def test_feedback_slots(self):
        p = FullDuplexAbortPolicy(asymmetry_ratio=64)
        assert p.feedback_slots(640) == 10
        assert NoArqPolicy().feedback_slots(640) == 0


class TestAttemptStateIsolation:
    """Regression: `_LinkRuntime` used to stash undeclared `_attempt` /
    `_hooks` attributes in `_start_attempt`, so hooks could outlive the
    attempt they were bound to.  Policies must always be called with
    hooks whose `attempt` is the attempt the event was raised for, and
    no hooks may leak across packets."""

    class _RecordingPolicy(FullDuplexAbortPolicy):
        def __init__(self):
            super().__init__()
            self.mismatches = 0
            self.corruptions = 0
            self.data_ends = 0

        def on_corruption(self, hooks, attempt):
            self.corruptions += 1
            if hooks.attempt is not attempt:
                self.mismatches += 1
            super().on_corruption(hooks, attempt)

        def on_data_end(self, hooks, attempt):
            self.data_ends += 1
            if hooks.attempt is not attempt:
                self.mismatches += 1
            super().on_data_end(hooks, attempt)

    def test_hooks_always_bound_to_their_attempt(self):
        policies = []

        def factory():
            policies.append(self._RecordingPolicy())
            return policies[-1]

        cfg = SimulationConfig(num_links=2, arrival_rate_pps=0.8,
                               horizon_seconds=60.0, payload_bytes=32,
                               loss=BernoulliLoss(0.6))
        sim = NetworkSimulator(config=cfg, policy_factory=factory)
        sim.run(rng=0)
        assert sum(p.corruptions for p in policies) > 10  # retries happened
        assert sum(p.data_ends for p in policies) > 10
        assert all(p.mismatches == 0 for p in policies)

    def test_back_to_back_packets_reset_attempt_state(self):
        # Certain loss: every packet burns its full retry budget, then
        # the next queued packet must start from a clean attempt slate.
        cfg = SimulationConfig(num_links=1, arrival_rate_pps=0.4,
                               horizon_seconds=80.0, payload_bytes=32,
                               loss=BernoulliLoss(1.0))
        sim = NetworkSimulator(
            config=cfg,
            policy_factory=lambda: HalfDuplexArqPolicy(max_retries=2),
        )
        metrics = sim.run(rng=2)
        node = metrics.nodes[0]
        assert node.offered_packets > 5
        # 1 initial + 2 retries per packet — any cross-packet leak of
        # attempt or retry state would break this exact count.
        assert node.attempts == 3 * node.offered_packets
        # No hooks survive past the last packet of any link.
        assert all(link._hooks is None for link in sim.links)


class TestLoadAsymmetry:
    def test_rates_uniform_by_default(self):
        cfg = SimulationConfig(num_links=4, arrival_rate_pps=0.5)
        assert cfg.link_arrival_rates() == [0.5] * 4

    def test_rates_spread_and_mean_preserved(self):
        cfg = SimulationConfig(num_links=6, arrival_rate_pps=0.3,
                               load_asymmetry=4.0)
        rates = cfg.link_arrival_rates()
        assert max(rates) / min(rates) == pytest.approx(4.0)
        assert sum(rates) / 6 == pytest.approx(0.3)
        assert rates == sorted(rates)

    def test_single_link_ignores_asymmetry(self):
        cfg = SimulationConfig(num_links=1, arrival_rate_pps=0.5,
                               load_asymmetry=8.0)
        assert cfg.link_arrival_rates() == [0.5]

    def test_rejects_sub_unit_asymmetry(self):
        with pytest.raises(ValueError):
            SimulationConfig(load_asymmetry=0.5)

    def test_asymmetry_one_is_bitwise_identical(self):
        cfg_a = SimulationConfig(num_links=3, arrival_rate_pps=0.4,
                                 horizon_seconds=50.0)
        cfg_b = SimulationConfig(num_links=3, arrival_rate_pps=0.4,
                                 horizon_seconds=50.0, load_asymmetry=1.0)
        a = NetworkSimulator(config=cfg_a, policy_factory=NoArqPolicy).run(rng=7)
        b = NetworkSimulator(config=cfg_b, policy_factory=NoArqPolicy).run(rng=7)
        assert a == b

    def test_skewed_load_lowers_fairness(self):
        base = dict(num_links=6, arrival_rate_pps=0.5,
                    horizon_seconds=120.0, payload_bytes=32)
        even = SimulationConfig(**base)
        skewed = SimulationConfig(**base, load_asymmetry=16.0)
        m_even = NetworkSimulator(config=even,
                                  policy_factory=NoArqPolicy).run(rng=0)
        m_skew = NetworkSimulator(config=skewed,
                                  policy_factory=NoArqPolicy).run(rng=0)
        assert m_skew.jain_fairness() < m_even.jain_fairness()
