"""Scene geometry, noise and composite channel tests."""

import numpy as np
import pytest

from repro.channel.geometry import Node, Scene
from repro.channel.link import ChannelModel
from repro.channel.noise import complex_awgn


class TestNodeScene:
    def test_distance(self):
        a = Node("a", 0.0, 0.0)
        b = Node("b", 3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_floor(self):
        a = Node("a", 0.0, 0.0)
        assert a.distance_to(Node("b", 0.0, 0.0)) == pytest.approx(1e-3)

    def test_add_and_lookup(self):
        scene = Scene()
        scene.place("source", 0, 10)
        scene.place("t1", 0, 0)
        assert scene.distance("source", "t1") == pytest.approx(10.0)

    def test_duplicate_name_rejected(self):
        scene = Scene()
        scene.place("x", 0, 0)
        with pytest.raises(ValueError):
            scene.place("x", 1, 1)

    def test_move(self):
        scene = Scene()
        scene.place("x", 0, 0)
        scene.move("x", 5, 0)
        scene.place("y", 0, 0)
        assert scene.distance("x", "y") == pytest.approx(5.0)

    def test_move_missing(self):
        with pytest.raises(KeyError):
            Scene().move("ghost", 0, 0)

    def test_missing_distance(self):
        with pytest.raises(KeyError):
            Scene().distance("a", "b")

    def test_device_names_excludes_source(self):
        scene = Scene.two_device_line(1.0)
        assert sorted(scene.device_names()) == ["alice", "bob"]

    def test_two_device_line_geometry(self):
        scene = Scene.two_device_line(2.0, source_distance_m=100.0)
        assert scene.distance("alice", "bob") == pytest.approx(2.0)
        assert scene.distance("source", "alice") == pytest.approx(
            scene.distance("source", "bob")
        )

    def test_cluster_count_and_radius(self):
        scene = Scene.cluster(10, radius_m=3.0, rng=0)
        assert len(scene.device_names()) == 10
        for name in scene.device_names():
            node = scene.nodes[name]
            assert np.hypot(node.x, node.y) <= 3.0 + 1e-9

    def test_bad_construction_args(self):
        with pytest.raises(ValueError):
            Scene.two_device_line(0.0)
        with pytest.raises(ValueError):
            Scene.cluster(0, 1.0)


class TestNoise:
    def test_power(self):
        n = complex_awgn(100_000, 2e-9, rng=0)
        assert np.mean(np.abs(n) ** 2) == pytest.approx(2e-9, rel=0.05)

    def test_zero_power_is_silent(self):
        assert np.all(complex_awgn(10, 0.0) == 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            complex_awgn(10, -1.0)


class TestChannelModel:
    def test_requires_source(self):
        scene = Scene()
        scene.place("t1", 0, 0)
        with pytest.raises(ValueError, match="source"):
            ChannelModel().realize(scene)

    def test_reciprocity(self):
        gains = ChannelModel().realize(Scene.two_device_line(1.0), rng=0)
        assert gains.gain("alice", "bob") == gains.gain("bob", "alice")
        assert gains.gain("source", "alice") == gains.gain("alice", "source")

    def test_missing_path(self):
        gains = ChannelModel().realize(Scene.two_device_line(1.0), rng=0)
        with pytest.raises(KeyError):
            gains.gain("alice", "carol")

    def test_direct_power_scales_with_source_power(self):
        scene = Scene.two_device_line(1.0)
        g1 = ChannelModel(source_power_watt=1e3).realize(scene, rng=0)
        g2 = ChannelModel(source_power_watt=2e3).realize(scene, rng=0)
        assert g2.direct_power("bob") == pytest.approx(
            2 * g1.direct_power("bob")
        )

    def test_backscatter_much_weaker_than_direct(self):
        gains = ChannelModel().realize(Scene.two_device_line(1.0), rng=0)
        # Full-strength (Γ=1) reflection: the dyadic source→alice→bob path.
        backscatter = gains.source_power_watt * abs(
            gains.gain("source", "alice") * gains.gain("alice", "bob")
        ) ** 2
        assert backscatter < 0.01 * gains.direct_power("bob")


class TestReceivedComposition:
    def setup_method(self):
        self.scene = Scene.two_device_line(0.5)
        self.model = ChannelModel(noise_power_watt=0.0)
        self.gains = self.model.realize(self.scene, rng=0)

    def test_direct_only(self):
        x = np.ones(64, dtype=complex)
        y = self.gains.received("bob", x, include_noise=False)
        expected = np.sqrt(self.gains.source_power_watt) * self.gains.gain(
            "source", "bob"
        )
        assert np.allclose(y, expected)

    def test_reflection_adds_dyadic_term(self):
        x = np.ones(64, dtype=complex)
        gamma = np.full(64, 0.5)
        y = self.gains.received(
            "bob", x, {"alice": gamma}, include_noise=False
        )
        direct = np.sqrt(self.gains.source_power_watt) * self.gains.gain(
            "source", "bob"
        )
        dyadic = (
            np.sqrt(self.gains.source_power_watt)
            * self.gains.gain("source", "alice")
            * self.gains.gain("alice", "bob")
            * 0.5
        )
        assert np.allclose(y, direct + dyadic)

    def test_own_reflection_ignored(self):
        x = np.ones(32, dtype=complex)
        y0 = self.gains.received("bob", x, include_noise=False)
        y1 = self.gains.received(
            "bob", x, {"bob": np.ones(32)}, include_noise=False
        )
        assert np.allclose(y0, y1)

    def test_reflection_shape_mismatch(self):
        with pytest.raises(ValueError):
            self.gains.received(
                "bob", np.ones(32, dtype=complex), {"alice": np.ones(16)}
            )

    def test_noise_included_by_default(self):
        model = ChannelModel(noise_power_watt=1e-9)
        gains = model.realize(self.scene, rng=0)
        x = np.ones(256, dtype=complex)
        y1 = gains.received("bob", x, rng=1)
        y2 = gains.received("bob", x, rng=2)
        assert not np.allclose(y1, y2)
