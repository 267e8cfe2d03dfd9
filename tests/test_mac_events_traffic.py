"""Event queue and traffic model tests."""

import numpy as np
import pytest

from repro.mac.events import EventQueue
from repro.mac.traffic import BernoulliLoss, UniformLossPosition, poisson_arrivals


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(3.0, lambda: log.append("c"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(2.0, lambda: log.append("b"))
        q.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_fifo_for_simultaneous(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(1.0, lambda: log.append(2))
        q.run_until(2.0)
        assert log == [1, 2]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(2.5, lambda: seen.append(q.now))
        q.run_until(5.0)
        assert seen == [2.5]
        assert q.now == 5.0

    def test_events_can_schedule_events(self):
        q = EventQueue()
        log = []

        def first():
            log.append("first")
            q.schedule(1.0, lambda: log.append("second"))

        q.schedule(1.0, first)
        q.run_until(3.0)
        assert log == ["first", "second"]

    def test_run_until_excludes_later_events(self):
        q = EventQueue()
        log = []
        q.schedule(5.0, lambda: log.append("late"))
        q.run_until(4.0)
        assert log == []
        q.run_until(6.0)
        assert log == ["late"]

    def test_cancel(self):
        q = EventQueue()
        log = []
        handle = q.schedule(1.0, lambda: log.append("x"))
        q.cancel(handle)
        q.run_until(2.0)
        assert log == []

    def test_schedule_at(self):
        q = EventQueue()
        log = []
        q.schedule_at(2.0, lambda: log.append(q.now))
        q.run_until(3.0)
        assert log == [2.0]

    def test_rejects_past(self):
        q = EventQueue()
        q.run_until(5.0)
        with pytest.raises(ValueError):
            q.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            q.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            q.run_until(1.0)

class TestPoissonArrivals:
    def test_sorted_and_bounded(self):
        t = poisson_arrivals(5.0, 10.0, rng=0)
        assert np.all(np.diff(t) >= 0)
        assert t.size == 0 or (t[0] >= 0 and t[-1] < 10.0)

    def test_rate_matches(self):
        t = poisson_arrivals(20.0, 100.0, rng=1)
        assert t.size == pytest.approx(2000, rel=0.1)

    def test_deterministic_with_seed(self):
        assert np.allclose(poisson_arrivals(3.0, 5.0, rng=7),
                           poisson_arrivals(3.0, 5.0, rng=7))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 0.0)


class TestLossModels:
    def test_zero_probability_never_loses(self):
        loss = BernoulliLoss(0.0)
        assert not any(loss.draw(np.random.default_rng(i)) for i in range(20))

    def test_rate_matches_probability(self):
        loss = BernoulliLoss(0.3)
        gen = np.random.default_rng(0)
        hits = sum(loss.draw(gen) for _ in range(10_000))
        assert hits == pytest.approx(3000, rel=0.1)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_position_in_range(self):
        pos = UniformLossPosition()
        gen = np.random.default_rng(0)
        draws = [pos.draw(100, gen) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) < 100

    def test_position_roughly_uniform(self):
        pos = UniformLossPosition()
        gen = np.random.default_rng(1)
        draws = np.array([pos.draw(1000, gen) for _ in range(5000)])
        assert abs(draws.mean() - 500) < 30

    def test_position_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            UniformLossPosition().draw(0, np.random.default_rng(0))
