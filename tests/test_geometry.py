import numpy as np
import pytest

from ofdmpcl import (
    SPEED_OF_LIGHT,
    CoincidentNodes,
    Node,
    Scene,
    UnknownNode,
    bistatic_path,
    enumerate_paths,
    los_path,
)
from oracles import finite_difference_doppler, finite_difference_doppler_los


def make_node(node_id, pos, vel=(0.0, 0.0), kind="target", refl=1.0):
    return Node(id=node_id, position=np.array(pos, float),
                velocity=np.array(vel, float), kind=kind, reflectivity=refl)


TX = make_node("tx", (0.0, 0.0), kind="illuminator")
RX = make_node("rx", (100.0, 0.0), kind="sensor")


def test_bistatic_delay_matches_distance_sum():
    target = make_node("t", (50.0, 50.0))
    path = bistatic_path(TX, RX, target, 3e9, 100.0)
    total_range = path.delay_s * SPEED_OF_LIGHT
    assert total_range == pytest.approx(141.4213562373095, abs=1e-9)
    assert total_range - 100.0 == pytest.approx(41.4213562373095, abs=1e-9)


def test_velocity_parallel_to_baseline_on_bisector_gives_zero_doppler():
    # On the perpendicular bisector the two range rates cancel exactly.
    target = make_node("t", (50.0, 50.0), vel=(10.0, 0.0))
    path = bistatic_path(TX, RX, target, 3e9, 100.0)
    assert path.doppler_hz == pytest.approx(0.0, abs=1e-9)


def test_bistatic_doppler_frozen_value():
    # wavelength 0.1 m <-> carrier c / 0.1
    target = make_node("t", (50.0, 50.0), vel=(0.0, 10.0))
    carrier = SPEED_OF_LIGHT / 0.1
    path = bistatic_path(TX, RX, target, carrier, 100.0)
    # frozen from the central-difference oracle over +-1 ms
    fd = finite_difference_doppler(TX, RX, target, 0.1, h=1e-3)
    assert path.doppler_hz == pytest.approx(-141.4213562, abs=1e-3)
    assert path.doppler_hz == pytest.approx(fd, rel=1e-6)


def test_los_delay_and_static_doppler():
    path = los_path(TX, RX, 3e9)
    assert path.delay_s == pytest.approx(333.5640952e-9, abs=1e-15)
    assert path.doppler_hz == 0.0


def test_los_comoving_zero_doppler():
    tx = make_node("tx", (0.0, 0.0), vel=(7.0, -3.0), kind="illuminator")
    rx = make_node("rx", (100.0, 0.0), vel=(7.0, -3.0), kind="sensor")
    path = los_path(tx, rx, 3e9)
    assert path.doppler_hz == pytest.approx(0.0, abs=1e-12)


def test_los_receding_frozen_value():
    rx = make_node("rx", (100.0, 0.0), vel=(10.0, 0.0), kind="sensor")
    carrier = SPEED_OF_LIGHT / 0.1
    path = los_path(TX, rx, carrier)
    assert path.doppler_hz == pytest.approx(-100.0, abs=1e-9)
    fd = finite_difference_doppler_los(TX, rx, 0.1, h=1e-3)
    assert path.doppler_hz == pytest.approx(fd, rel=1e-6)


def test_coincident_nodes_rejected():
    target = make_node("t", (0.0, 0.0))
    with pytest.raises(CoincidentNodes):
        bistatic_path(TX, RX, target, 3e9, 100.0)


def test_clutter_must_be_static():
    with pytest.raises(ValueError):
        make_node("c", (1.0, 2.0), vel=(1.0, 0.0), kind="clutter")


def scene_with(n_targets, n_clutter):
    nodes = [
        make_node("tx", (0.0, 0.0), kind="illuminator"),
        make_node("rx", (100.0, 0.0), kind="sensor"),
    ]
    for i in range(n_targets):
        nodes.append(make_node(f"t{i}", (40.0 + 5 * i, 30.0), vel=(5.0, 0.0)))
    for i in range(n_clutter):
        nodes.append(make_node(f"c{i}", (20.0 + 7 * i, -10.0), kind="clutter"))
    return Scene(nodes=nodes, seed=77)


def test_enumerate_path_counts_and_order():
    scene = scene_with(1, 5)
    paths = enumerate_paths(scene, scene.pair("tx", "rx"), 3e9)
    assert len(paths) == 7
    assert paths[0].kind == "los"
    assert [p.via_node for p in paths[1:]] == ["t0", "c0", "c1", "c2", "c3", "c4"]


def test_enumerate_empty_scene_gives_los_only():
    scene = scene_with(0, 0)
    paths = enumerate_paths(scene, scene.pair("tx", "rx"), 3e9)
    assert len(paths) == 1
    assert paths[0].kind == "los"


def test_enumerate_is_deterministic():
    scene = scene_with(2, 3)
    pair = scene.pair("tx", "rx")
    a = enumerate_paths(scene, pair, 3e9)
    b = enumerate_paths(scene, pair, 3e9)
    assert all(pa.gain == pb.gain for pa, pb in zip(a, b))


def test_seeds_that_differ_above_32_bits_draw_different_phases():
    scene = scene_with(2, 3)
    pair = scene.pair("tx", "rx")
    a, b = (enumerate_paths(Scene(nodes=scene.nodes, seed=seed), pair, 3e9)
            for seed in (1, 2**32 + 1))
    assert all(pa.gain != pb.gain for pa, pb in zip(a, b))


def test_los_exceeds_strongest_target_by_configured_excess():
    scene = scene_with(2, 3)
    scene.los_excess_db = 30.0
    paths = enumerate_paths(scene, scene.pair("tx", "rx"), 3e9)
    target_gain = max(abs(p.gain) for p in paths if p.kind == "target")
    assert abs(paths[0].gain) == pytest.approx(10 ** 1.5 * target_gain, rel=1e-12)


def test_two_sensors_see_target_at_different_delay_and_doppler():
    nodes = [
        make_node("tx", (0.0, 0.0), kind="illuminator"),
        make_node("rx1", (100.0, 0.0), kind="sensor"),
        make_node("rx2", (0.0, 80.0), kind="sensor"),
        make_node("t", (60.0, 50.0), vel=(12.0, -4.0)),
    ]
    scene = Scene(nodes=nodes, seed=1)
    results = {}
    for rx_id in ("rx1", "rx2"):
        paths = enumerate_paths(scene, scene.pair("tx", rx_id), 5.9e9)
        target = next(p for p in paths if p.kind == "target")
        # per-pair geometry oracle
        tx, rx, tgt = scene.node("tx"), scene.node(rx_id), scene.node("t")
        expected_delay = (
            np.linalg.norm(tgt.position - tx.position)
            + np.linalg.norm(rx.position - tgt.position)
        ) / SPEED_OF_LIGHT
        assert target.delay_s == pytest.approx(expected_delay, rel=1e-12)
        fd = finite_difference_doppler(tx, rx, tgt, SPEED_OF_LIGHT / 5.9e9, h=1e-4)
        assert target.doppler_hz == pytest.approx(fd, rel=1e-5)
        results[rx_id] = (target.delay_s, target.doppler_hz)
    assert results["rx1"][0] != pytest.approx(results["rx2"][0], rel=1e-3)
    assert results["rx1"][1] != pytest.approx(results["rx2"][1], rel=1e-3)


def test_unknown_pair_node():
    scene = scene_with(1, 1)
    with pytest.raises(UnknownNode):
        scene.pair("tx", "rx9")


def _random_scene(rng):
    def pick_position(existing):
        while True:
            p = rng.uniform(-2000.0, 2000.0, 2)
            if all(np.linalg.norm(p - q) >= 300.0 for q in existing):
                return p

    positions = []
    for _ in range(3):
        positions.append(pick_position(positions))
    velocities = []
    for _ in range(3):
        speed = rng.uniform(0.0, 100.0)
        angle = rng.uniform(0.0, 2 * np.pi)
        velocities.append(speed * np.array([np.cos(angle), np.sin(angle)]))
    tx = make_node("tx", positions[0], velocities[0], kind="illuminator")
    rx = make_node("rx", positions[1], velocities[1], kind="sensor")
    tgt = make_node("t", positions[2], velocities[2], kind="target")
    return tx, rx, tgt


def test_scatter_delay_never_undercuts_los():
    rng = np.random.default_rng(99)
    for _ in range(200):
        tx, rx, tgt = _random_scene(rng)
        scatter = bistatic_path(tx, rx, tgt, 3e9, 100.0)
        los = los_path(tx, rx, 3e9)
        assert scatter.delay_s >= los.delay_s


def test_all_static_paths_have_exactly_zero_doppler():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tx, rx, tgt = _random_scene(rng)
        for node in (tx, rx, tgt):
            node.velocity = np.zeros(2)
        assert bistatic_path(tx, rx, tgt, 3e9, 100.0).doppler_hz == 0.0
        assert los_path(tx, rx, 3e9).doppler_hz == 0.0


def test_scatterer_lies_on_its_delay_ellipse():
    rng = np.random.default_rng(12)
    for _ in range(100):
        tx, rx, tgt = _random_scene(rng)
        path = bistatic_path(tx, rx, tgt, 3e9, 100.0)
        focal_sum = np.linalg.norm(tgt.position - tx.position) + np.linalg.norm(
            rx.position - tgt.position
        )
        assert abs(focal_sum - SPEED_OF_LIGHT * path.delay_s) < 1e-9 * focal_sum
