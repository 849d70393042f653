"""2D multistatic scene geometry: bistatic delay, Doppler and path gains.

Nodes are points with constant velocity, evaluated at frame start. Every
transmitter/receiver pair sees one line-of-sight path plus one single-bounce
path per target and per clutter node.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentNodes, UnknownNode

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

RADIO_KINDS = ("illuminator", "sensor")
NODE_KINDS = RADIO_KINDS + ("target", "clutter")


@dataclass
class Node:
    """A scene participant: illuminator, sensor, target or clutter point."""

    id: str
    position: np.ndarray  # (2,) m
    velocity: np.ndarray  # (2,) m/s
    kind: str
    reflectivity: float = 1.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(2)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(2)
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == "clutter" and np.any(self.velocity != 0.0):
            raise ValueError(f"clutter node {self.id!r} must be static")
        if self.reflectivity < 0:
            raise ValueError("reflectivity must be non-negative")


@dataclass
class Path:
    """One propagation path, parameterized by delay, Doppler and gain."""

    delay_s: float
    doppler_hz: float
    gain: complex
    kind: str  # "los" | "target" | "clutter"
    via_node: str | None = None


@dataclass
class BistaticPair:
    """An illuminator/sensor pairing with its focal positions."""

    tx_id: str
    rx_id: str
    tx_position: np.ndarray
    rx_position: np.ndarray

    def __post_init__(self):
        self.tx_position = np.asarray(self.tx_position, dtype=float).reshape(2)
        self.rx_position = np.asarray(self.rx_position, dtype=float).reshape(2)
        if self.baseline_m <= 0:
            raise CoincidentNodes(
                f"pair {self.tx_id!r}/{self.rx_id!r} has zero baseline"
            )

    @property
    def baseline_m(self) -> float:
        return float(distance(self.rx_position - self.tx_position))


@dataclass
class Scene:
    """Node collection plus the knobs of the path-gain model.

    Scatter paths get amplitude ``reference_power_range_m**2 * reflectivity /
    (r_tx * r_rx)``; the line-of-sight amplitude is set per pair so that it
    exceeds the strongest target return by ``los_excess_db``.
    """

    nodes: list[Node]
    seed: int = 0
    reference_power_range_m: float = 100.0
    los_excess_db: float = 30.0

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise UnknownNode(f"no node with id {node_id!r}")

    def nodes_of_kind(self, kind: str) -> list[Node]:
        return sorted((n for n in self.nodes if n.kind == kind), key=lambda n: n.id)

    def pair(self, tx_id: str, rx_id: str) -> BistaticPair:
        tx = self.node(tx_id)
        rx = self.node(rx_id)
        return BistaticPair(tx_id, rx_id, tx.position, rx.position)


def distance(v):
    """Length of 2-D vectors over the last axis; plain ufuncs, no CPU-dependent BLAS call."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _range_and_rate(p_from: Node, p_to: Node) -> tuple[float, float]:
    """Distance between two nodes and its time derivative at frame start."""
    dp = p_to.position - p_from.position
    r = float(distance(dp))
    if r == 0.0:
        raise CoincidentNodes(
            f"nodes {p_from.id!r} and {p_to.id!r} share a position"
        )
    dv = p_to.velocity - p_from.velocity
    return r, float(dp[0] * dv[0] + dp[1] * dv[1]) / r


def bistatic_path(
    tx: Node,
    rx: Node,
    scatterer: Node,
    carrier_frequency_hz: float,
    reference_power_range_m: float,
    phase: float = 0.0,
) -> Path:
    """Single-bounce path Tx -> scatterer -> Rx.

    Delay is the total path length over c. Doppler is the negative rate of
    change of the total path length in carrier wavelengths. Amplitude follows
    a product-of-ranges law normalized at the reference range.
    """
    r1, rdot1 = _range_and_rate(tx, scatterer)
    r2, rdot2 = _range_and_rate(scatterer, rx)
    magnitude = reference_power_range_m**2 * scatterer.reflectivity / (r1 * r2)
    return _path(r1 + r2, rdot1 + rdot2, carrier_frequency_hz, magnitude, phase,
                 "clutter" if scatterer.kind == "clutter" else "target", scatterer.id)


def los_path(
    tx: Node,
    rx: Node,
    carrier_frequency_hz: float,
    gain_magnitude: float = 1.0,
    phase: float = 0.0,
) -> Path:
    """Direct Tx -> Rx path; Doppler comes from baseline-length rate."""
    r, rdot = _range_and_rate(tx, rx)
    return _path(r, rdot, carrier_frequency_hz, gain_magnitude, phase, "los", None)


def _path(length_m, rate_mps, carrier_frequency_hz, magnitude, phase, kind, via_node) -> Path:
    """A path of total length ``length_m`` changing at ``rate_mps``: delay is the
    length over c, Doppler the negative rate in carrier wavelengths per second."""
    if carrier_frequency_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    wavelength = SPEED_OF_LIGHT / carrier_frequency_hz
    return Path(delay_s=length_m / SPEED_OF_LIGHT, doppler_hz=-rate_mps / wavelength,
                gain=magnitude * np.exp(1j * phase), kind=kind, via_node=via_node)


def seed_words(seed: int, *labels: str) -> tuple:
    """Entropy of one random stream: the run's seed, then a CRC-32 per label.

    Each seed and each label tuple draws its own stream.
    """
    return (seed, *(zlib.crc32(label.encode()) for label in labels))


def _path_phase(scene: Scene, tx_id: str, rx_id: str, via: str | None) -> float:
    """Uniform random phase, reproducible from the scene seed and the ids."""
    rng = np.random.default_rng(seed_words(scene.seed, tx_id, rx_id, via or "\x00los"))
    return float(rng.uniform(0.0, 2.0 * np.pi))


def enumerate_paths(
    scene: Scene, pair: BistaticPair, carrier_frequency_hz: float
) -> list[Path]:
    """All propagation paths for one pair, in deterministic order.

    Returns the line-of-sight path first, then one path per target (by id),
    then one per clutter node (by id). The LoS amplitude exceeds the strongest
    target return by the scene's configured excess; with no targets the
    strongest clutter return is used as the yardstick instead.
    """
    tx = scene.node(pair.tx_id)
    rx = scene.node(pair.rx_id)

    scatter_paths = []
    for node in scene.nodes_of_kind("target") + scene.nodes_of_kind("clutter"):
        scatter_paths.append(
            bistatic_path(
                tx,
                rx,
                node,
                carrier_frequency_hz,
                scene.reference_power_range_m,
                phase=_path_phase(scene, pair.tx_id, pair.rx_id, node.id),
            )
        )

    los = los_path(
        tx,
        rx,
        carrier_frequency_hz,
        gain_magnitude=los_magnitude(scene, pair, scatter_paths),
        phase=_path_phase(scene, pair.tx_id, pair.rx_id, None),
    )
    return [los] + scatter_paths


def los_magnitude(scene: Scene, pair: BistaticPair, scatter_paths: list[Path]) -> float:
    """Amplitude of the pair's LoS path, by the rule ``enumerate_paths`` states."""
    target_gains = [abs(p.gain) for p in scatter_paths if p.kind == "target"]
    clutter_gains = [abs(p.gain) for p in scatter_paths if p.kind == "clutter"]
    yardstick = target_gains or clutter_gains or [scene.reference_power_range_m / pair.baseline_m]
    return 10.0 ** (scene.los_excess_db / 20.0) * max(yardstick)
