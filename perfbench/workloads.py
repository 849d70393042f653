"""The four workloads: seeded input generators, ops and output checks.

Every input is generated from the benchmark's ``--seed``; the library only
ever sees the generated scenario documents or measurement sets. Ops call the
library through module attributes (``scenario.run_scenario``, ``cli.main``,
``locate.fuse_position``) so that the traced run can rebind them.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ofdmpcl import cli, geometry, locate, mapfile, scenario
from ofdmpcl.errors import AmbiguousFix, ScenarioError

C = geometry.SPEED_OF_LIGHT


class SetupError(RuntimeError):
    """Set-up could not produce a valid, detectable workload."""


@dataclass
class Case:
    """One generated op input plus the ground truth its outputs are scored on."""

    doc: dict
    scn: object = None  # validated Scenario (scene workloads)
    path: Path | None = None  # scenario file (CLI workload)
    shape: tuple = ()  # expected map shape (M, Doppler window)
    truth_bins: dict = field(default_factory=dict)  # pair id -> [(delay, doppler) bin]
    targets: list = field(default_factory=list)  # true target positions, (2,) arrays
    measurements: list = field(default_factory=list)  # fix_batch only


@dataclass
class Outcome:
    """Output check and quality counts of one op."""

    ok: bool
    reason: str = ""
    hits: int = 0  # (pair, target) with a detection within +-1 bin
    truths: int = 0  # (pair, target) scored
    false_dets: int = 0  # detections not within +-1 bin of any target path
    cells: int = 0  # map cells the detector scanned
    pfa: float = 0.0
    pos_err_m: float | None = None  # nearest candidate to the true target
    artifact_bytes: int = 0  # map and CSV bytes the op wrote


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


def _r(x) -> float:
    return round(float(x), 3)


# ---------------------------------------------------------------- geometry


def _points(rng, n, half, min_sep, avoid=()):
    """n points in [-half, half]^2, each min_sep from the others and from avoid."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-half, half, size=2)
        if all(np.hypot(*(p - q)) >= min_sep for q in list(avoid) + pts):
            pts.append(p)
    return pts


def _bistatic(tx, rx, pos, vel, wavelength):
    """Total path length and Doppler of a Tx -> scatterer -> Rx bounce."""
    u1 = (pos - tx) / np.hypot(*(pos - tx))
    u2 = (pos - rx) / np.hypot(*(pos - rx))
    total = np.hypot(*(pos - tx)) + np.hypot(*(pos - rx))
    return total, -float((u1 + u2) @ vel) / wavelength


def _scene_nodes(rng, *, n_tx, n_rx, n_targets, n_clutter, half, speed, num,
                 doppler_window, min_doppler_bins):
    """Random static radios, moving targets and static clutter posts.

    Targets are drawn until every pair sees each of them outside the clutter
    notch (at least ``min_doppler_bins`` Doppler bins from zero), inside the
    narrowband bound, beyond the line of sight in delay, and apart from the
    other targets; every scatterer path stays inside the cyclic prefix.
    """
    wavelength = C / num["carrier_frequency_hz"]
    t_sym = (1.0 + num["cp_fraction"]) / num["subcarrier_spacing_hz"]
    doppler_bin = 1.0 / (doppler_window * t_sym)
    delay_bin_m = C / (num["num_carriers"] * num["subcarrier_spacing_hz"])
    cp_m = C * num["cp_fraction"] / num["subcarrier_spacing_hz"]
    radios = _points(rng, n_tx + n_rx, half * 0.6, 40.0)
    txs, rxs = radios[:n_tx], radios[n_tx:]
    pairs = [(t, r) for t in txs for r in rxs]

    targets = []
    while len(targets) < n_targets:
        pos = _points(rng, 1, half, 25.0, avoid=radios)[0]
        heading = rng.uniform(0, 2 * np.pi)
        vel = rng.uniform(*speed) * np.array([np.cos(heading), np.sin(heading)])
        cells = []
        for tx, rx in pairs:
            total, fd = _bistatic(tx, rx, pos, vel, wavelength)
            cells.append((total / delay_bin_m, fd / doppler_bin))
            excess = total - np.hypot(*(rx - tx))
            if (excess < 3 * delay_bin_m or total > 0.9 * cp_m
                    or abs(fd) < min_doppler_bins * doppler_bin
                    or abs(fd) * t_sym > 0.08):
                break
        else:
            apart = all(
                abs(d - d2) > 3 or abs(f - f2) > 3
                for other in targets
                for (d, f), (d2, f2) in zip(cells, other[2])
            )
            if apart:
                targets.append((pos, vel, cells))

    clutter = []
    while len(clutter) < n_clutter:
        pos = _points(rng, 1, half, 10.0, avoid=radios)[0]
        if all(_bistatic(tx, rx, pos, np.zeros(2), wavelength)[0] < 0.9 * cp_m
               for tx, rx in pairs):
            clutter.append(pos)

    nodes = [{"id": f"tx{i}", "kind": "illuminator", "position_m": [_r(p[0]), _r(p[1])]}
             for i, p in enumerate(txs)]
    nodes += [{"id": f"rx{i}", "kind": "sensor", "position_m": [_r(p[0]), _r(p[1])]}
              for i, p in enumerate(rxs)]
    nodes += [{"id": f"tgt{i}", "kind": "target", "position_m": [_r(p[0]), _r(p[1])],
               "velocity_mps": [_r(v[0]), _r(v[1])], "reflectivity": 0.1}
              for i, (p, v, _) in enumerate(targets)]
    nodes += [{"id": f"post{i}", "kind": "clutter", "position_m": [_r(p[0]), _r(p[1])],
               "reflectivity": 0.25}
              for i, p in enumerate(clutter)]
    pair_docs = [{"tx": f"tx{i}", "rx": f"rx{j}"} for i in range(n_tx) for j in range(n_rx)]
    return nodes, pair_docs


# ---------------------------------------------------------------- generators


def fig4_docs(seed: int, count: int) -> list[dict]:
    """The bundled fig4_analog scene with its seed stepped per op."""
    base = json.loads(scenario.bundled_scenario_path("fig4_analog").read_text())
    first = int(_rng(seed, "fig4_mc").integers(0, 2**31 - count))
    docs = []
    for i in range(count):
        doc = copy.deepcopy(base)
        doc["seed"] = first + i
        docs.append(doc)
    return docs


def sparse_docs(seed: int, count: int) -> list[dict]:
    """Wide 1200 x 560 maps on a 0.5-density random allocation, fresh geometry."""
    rng = _rng(seed, "sparse_long")
    num = {"subcarrier_spacing_hz": 15000.0, "num_carriers": 1200,
           "symbols_per_frame": 560, "cp_fraction": 1.0 / 14.0,
           "carrier_frequency_hz": 5.9e9}
    docs = []
    for i in range(count):
        nodes, pairs = _scene_nodes(
            rng, n_tx=2, n_rx=2, n_targets=2, n_clutter=6, half=200.0,
            speed=(8.0, 25.0), num=num, doppler_window=560, min_doppler_bins=4)
        docs.append({
            "name": f"sparse_long_{i}",
            "seed": int(rng.integers(0, 2**31)),
            "numerology": dict(num),
            "nodes": nodes,
            "pairs": pairs,
            "allocation": {"type": "random", "user": "u0", "density": 0.5,
                           "seed": int(rng.integers(0, 2**31))},
            "snr_db": 10.0,
            "doppler_window_symbols": 560,
            "delay_window": "hann",
            "doppler_window": "hann",
            "los_excess_db": 10.0,
            "localization": True,
        })
    return docs


def uplink_docs(seed: int, count: int) -> list[dict]:
    """Narrowband 600 x 140 three-user scenes processed for one user's band."""
    rng = _rng(seed, "uplink_small")
    num = {"subcarrier_spacing_hz": 15000.0, "num_carriers": 600,
           "symbols_per_frame": 140, "cp_fraction": 1.0 / 14.0,
           "carrier_frequency_hz": 5.9e9}
    rows, slots = 600 // 12, 140 // 7
    docs = []
    for i in range(count):
        nodes, pairs = _scene_nodes(
            rng, n_tx=1, n_rx=4, n_targets=1, n_clutter=3, half=150.0,
            speed=(15.0, 30.0), num=num, doppler_window=140, min_doppler_bins=3)
        a = int(rng.integers(10, rows - 20))
        b = int(rng.integers(a + 10, rows - 9))
        band_user = [("u0", 0, a), ("u1", a, b), ("u2", b, rows)]
        tiles = [[user, row, 0, slots] for user, lo, hi in band_user for row in range(lo, hi)]
        docs.append({
            "name": f"uplink_small_{i}",
            "seed": int(rng.integers(0, 2**31)),
            "numerology": dict(num),
            "nodes": nodes,
            "pairs": pairs,
            "allocation": {"type": "tiles", "tiles": tiles},
            "snr_db": 20.0,
            "doppler_window_symbols": 140,
            "process_user": band_user[int(rng.integers(0, 3))][0],
            "localization": True,
        })
    return docs


def fix_docs(seed: int, count: int) -> list[dict]:
    """Measurement sets of 2-8 pairs with 1 m range noise around a random target."""
    rng = _rng(seed, "fix_batch")
    docs = []
    for _ in range(count):
        n_tx, n_rx = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        radios = _points(rng, n_tx + n_rx, 300.0, 30.0)
        pairs = [(tx, rx) for tx in radios[:n_tx] for rx in radios[n_tx:]]
        # A target on or near a baseline segment gives a degenerate ellipse.
        while True:
            target = _points(rng, 1, 300.0, 20.0, avoid=radios)[0]
            totals = [np.hypot(*(target - tx)) + np.hypot(*(target - rx)) for tx, rx in pairs]
            if all(t - np.hypot(*(rx - tx)) >= 10.0 for t, (tx, rx) in zip(totals, pairs)):
                break
        meas = [{"tx_m": [_r(tx[0]), _r(tx[1])], "rx_m": [_r(rx[0]), _r(rx[1])],
                 "total_range_m": _r(total + rng.standard_normal()), "variance_m2": 1.0}
                for total, (tx, rx) in zip(totals, pairs)]
        docs.append({"target_m": [_r(target[0]), _r(target[1])], "measurements": meas})
    return docs


# ---------------------------------------------------------------- set-up


def _truth(scn) -> tuple[dict, list]:
    """True (delay, Doppler) bin of every (pair, target) path, from the geometry."""
    num = scn.numerology
    m, dw = num.num_carriers, scn.doppler_window_symbols
    doppler_bin_hz = 1.0 / (dw * num.symbol_duration_s)
    scene = geometry.Scene(nodes=scn.nodes, seed=scn.seed,
                           reference_power_range_m=scn.reference_power_range_m,
                           los_excess_db=scn.los_excess_db)
    bins = {}
    for p in scn.pairs:
        paths = geometry.enumerate_paths(scene, scene.pair(p.tx, p.rx),
                                         num.carrier_frequency_hz)
        bins[p.pair_id] = [
            (round(path.delay_s / num.delay_bin_s) % m,
             (dw // 2 + round(path.doppler_hz / doppler_bin_hz)) % dw)
            for path in paths if path.kind == "target"
        ]
    targets = [n.position.copy() for n in scn.nodes if n.kind == "target"]
    return bins, targets


def scene_cases(docs: list[dict], input_dir: Path | None = None) -> list[Case]:
    """Validate every document; with ``input_dir`` also write it to a file."""
    cases = []
    for i, doc in enumerate(docs):
        try:
            scn = scenario.scenario_from_dict(copy.deepcopy(doc), name=doc.get("name", "bench"))
        except ScenarioError as exc:
            raise SetupError(f"document {i} rejected: {'; '.join(exc.messages)}") from exc
        bins, targets = _truth(scn)
        case = Case(doc=doc, scn=scn, shape=(scn.numerology.num_carriers,
                                             scn.doppler_window_symbols),
                    truth_bins=bins, targets=targets)
        if input_dir is not None:
            case.path = input_dir / f"scene_{i:04d}.json"
            case.path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        cases.append(case)
    return cases


def fix_cases(docs: list[dict]) -> list[Case]:
    cases = []
    for i, doc in enumerate(docs):
        try:
            meas = [
                locate.BistaticMeasurement(
                    pair=geometry.BistaticPair(f"tx{k}", f"rx{k}", m["tx_m"], m["rx_m"]),
                    total_range_m=m["total_range_m"], doppler_hz=0.0,
                    variance_m2=m["variance_m2"])
                for k, m in enumerate(doc["measurements"])
            ]
        except ValueError as exc:
            raise SetupError(f"measurement set {i} rejected: {exc}") from exc
        cases.append(Case(doc=doc, targets=[np.array(doc["target_m"])], measurements=meas))
    return cases


# ---------------------------------------------------------------- ops


def run_scene(case: Case, out: Path):
    """One scene op: a fresh Scenario from the document, run end to end."""
    scn = scenario.scenario_from_dict(case.doc, name=case.doc.get("name", "bench"))
    return scenario.run_scenario(scn, out_dir=out, log=_discard)


def run_cli(case: Case, out: Path):
    """One scene op through the command line, as a user would run it."""
    code = cli.main(["run", str(case.path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"ofdmpcl run exited with {code}")
    return code


def run_fix(case: Case, out: Path):
    """One fusion op; an ambiguous fix yields its two candidates."""
    try:
        return [locate.fuse_position(case.measurements)]
    except AmbiguousFix as exc:
        return list(exc.estimates)


def _discard(_message: str) -> None:
    pass


# ---------------------------------------------------------------- checks


def _near(a: int, b: int, n: int) -> bool:
    d = abs(a - b) % n
    return min(d, n - d) <= 1


def check_scene(case: Case, out: Path) -> Outcome:
    """Artifacts match the manifest digests, maps read back as M x D, and
    detections and fixes are scored against the geometry."""
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = manifest["artifacts"]
    for name, digest in artifacts.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            return Outcome(False, f"{name}: SHA-256 differs from the manifest")
    outcome = Outcome(True, pfa=case.scn.cfar.pfa,
                      artifact_bytes=sum((out / n).stat().st_size for n in artifacts))
    m, dw = case.shape
    for pair in case.scn.pairs:
        stem = f"{pair.tx}_{pair.rx}"
        if f"map_{stem}.bin" not in artifacts or f"detections_{stem}.csv" not in artifacts:
            return Outcome(False, f"pair {pair.pair_id}: artifact missing from the manifest")
        shape = mapfile.read_map(out / f"map_{stem}.bin").power.shape
        if shape != case.shape:
            return Outcome(False, f"map_{stem}.bin is {shape}, expected {case.shape}")
        with open(out / f"detections_{stem}.csv", newline="") as f:
            dets = [(int(r["delay_bin"]), int(r["doppler_bin"])) for r in csv.DictReader(f)]
        truths = case.truth_bins[pair.pair_id]
        outcome.truths += len(truths)
        outcome.hits += sum(
            any(_near(d, td, m) and _near(f, tf, dw) for d, f in dets) for td, tf in truths
        )
        outcome.false_dets += sum(
            not any(_near(d, td, m) and _near(f, tf, dw) for td, tf in truths) for d, f in dets
        )
        outcome.cells += m * dw
    if len(case.targets) == 1 and "positions.csv" in artifacts:
        with open(out / "positions.csv", newline="") as f:
            rows = [(float(r["x_m"]), float(r["y_m"])) for r in csv.DictReader(f)]
        if rows:
            outcome.pos_err_m = min(math.dist(r, case.targets[0]) for r in rows)
    return outcome


def check_fix(case: Case, estimates) -> Outcome:
    """Every candidate position and covariance is finite."""
    for est in estimates:
        if not (np.all(np.isfinite(est.position)) and np.all(np.isfinite(est.covariance))):
            return Outcome(False, "non-finite position or covariance")
    return Outcome(True, pos_err_m=min(
        float(np.hypot(*(est.position - case.targets[0]))) for est in estimates))


def same_artifacts(out_a: Path, out_b: Path) -> bool:
    """Byte-identical artifacts in two scene output directories."""
    names = json.loads((out_a / "manifest.json").read_text())["artifacts"]
    return all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)


def same_fix(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.position, y.position) and np.array_equal(x.covariance, y.covariance)
        for x, y in zip(a, b))


@dataclass(frozen=True)
class Workload:
    """Generator, op and kind of output check of one workload.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    pool: int  # generated inputs; ops cycle through them
    generate: object
    op: object
    scene: bool  # artifacts on disk, scored against the scene geometry
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4_mc", 64, fig4_docs, run_scene, True),
        Workload("sparse_long", 64, sparse_docs, run_scene, True),
        Workload("uplink_small", 256, uplink_docs, run_cli, True, via_cli=True),
        Workload("fix_batch", 2048, fix_docs, run_fix, False),
    )
}

# Runnable and reported by report.py, but not in BENCHMARK.json: on a shared
# 2-vCPU host the speed of its pure-Python fusion ops moved by about 30%
# between 20 s runs, wider than the 0.25 bound of the other workloads' times.
INFORMATIONAL = ("fix_batch",)
