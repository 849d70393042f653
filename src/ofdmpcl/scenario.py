"""Scenario files and the end-to-end processing pipeline.

A scenario is a JSON document with explicit SI units in its field names. It
describes the OFDM numerology, the scene (nodes and Tx/Rx pairs), the
allocation, and the processing knobs. ``run_scenario`` executes the whole
chain per pair - channel simulation, inverse filtering, delay and Doppler
transforms, clutter notch, CFAR - and writes one scattering-map file and one
detection CSV per pair, a positions CSV when localization applies, and a
manifest echoing the effective configuration for reproducibility.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import sys
import zlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .channel import apply_channel
from .detect import CfarConfig, cfar_detect, suppress_clutter
from .dsp import (
    delay_transform,
    doppler_transform,
    estimate_channel,
    max_integration_time,
    scattering_map,
)
from .errors import (
    AmbiguousFix,
    NoConvergence,
    ScenarioError,
)
from .geometry import SPEED_OF_LIGHT, Node, Scene, enumerate_paths
from .grid import Numerology, ResourceGrid, build_grid, full_allocation, random_allocation
from .locate import fuse_position, measurement_from_detection
from .mapfile import (
    write_detections_csv,
    write_map,
    write_positions_csv,
)

WINDOW_NAMES = ("rect", "hann")


@dataclass
class PairSpec:
    tx: str
    rx: str

    @property
    def pair_id(self) -> str:
        return f"{self.tx}-{self.rx}"


@dataclass
class Scenario:
    """Validated scenario configuration."""

    name: str
    seed: int
    numerology: Numerology
    nodes: list[Node]
    pairs: list[PairSpec]
    allocation: dict
    snr_db: float | None
    doppler_window_symbols: int
    delay_window: str = "rect"
    doppler_window: str = "rect"
    notch_half_width_bins: int = 1
    cfar: CfarConfig = field(default_factory=CfarConfig)
    reference_power_range_m: float = 100.0
    los_excess_db: float = 30.0
    process_user: str | None = None
    localization: bool = True
    output_dir: str = "out"

    def to_dict(self) -> dict:
        """Complete configuration echo; re-running it reproduces the outputs."""
        return {
            "name": self.name,
            "seed": self.seed,
            "numerology": {
                "subcarrier_spacing_hz": self.numerology.subcarrier_spacing_hz,
                "num_carriers": self.numerology.num_carriers,
                "symbols_per_frame": self.numerology.symbols_per_frame,
                "cp_fraction": self.numerology.cp_fraction,
                "carrier_frequency_hz": self.numerology.carrier_frequency_hz,
            },
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind,
                    "position_m": list(n.position),
                    "velocity_mps": list(n.velocity),
                    "reflectivity": n.reflectivity,
                }
                for n in self.nodes
            ],
            "pairs": [{"tx": p.tx, "rx": p.rx} for p in self.pairs],
            "allocation": self.allocation,
            "snr_db": self.snr_db,
            "doppler_window_symbols": self.doppler_window_symbols,
            "delay_window": self.delay_window,
            "doppler_window": self.doppler_window,
            "notch_half_width_bins": self.notch_half_width_bins,
            "cfar": {
                "train_cells": self.cfar.train_cells,
                "guard_cells": self.cfar.guard_cells,
                "pfa": self.cfar.pfa,
            },
            "reference_power_range_m": self.reference_power_range_m,
            "los_excess_db": self.los_excess_db,
            "process_user": self.process_user,
            "localization": self.localization,
            "output_dir": self.output_dir,
        }


class _Checker:
    """Accumulates path-anchored validation diagnostics."""

    def __init__(self):
        self.messages = []

    def fail(self, path, message):
        self.messages.append(f"at $.{path}: {message}")

    def number(self, data, path, key, default=None, minimum=None, allow_none=False):
        value = data.get(key, default)
        if value is None and allow_none:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.fail(f"{path}{key}", "expected a number")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{path}{key}", f"must be >= {minimum}")
        return value

    def integer(self, data, path, key, default=None, minimum=None):
        value = data.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(f"{path}{key}", "expected an integer")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{path}{key}", f"must be >= {minimum}")
        return value

    def string(self, data, path, key, default=None, choices=None):
        value = data.get(key, default)
        if not isinstance(value, str):
            self.fail(f"{path}{key}", "expected a string")
            return default
        if choices is not None and value not in choices:
            self.fail(f"{path}{key}", f"must be one of {', '.join(choices)}")
        return value

    def vector2(self, data, path, key, default=None):
        value = data.get(key, default)
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            self.fail(f"{path}{key}", "expected a pair of numbers")
            return [0.0, 0.0]
        return [float(value[0]), float(value[1])]


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Validate a parsed scenario document; raises ScenarioError on problems."""
    if not isinstance(data, dict):
        raise ScenarioError(["at $: expected a JSON object"])
    chk = _Checker()

    known = {
        "name", "seed", "numerology", "nodes", "pairs", "allocation", "snr_db",
        "doppler_window_symbols", "delay_window", "doppler_window",
        "notch_half_width_bins", "cfar", "reference_power_range_m",
        "los_excess_db", "process_user", "localization", "output_dir",
    }
    for key in data:
        if key not in known:
            chk.fail(key, "unknown field")

    scenario_name = data.get("name", name)
    seed = chk.integer(data, "", "seed", default=0)

    num_block = data.get("numerology")
    numerology = None
    if not isinstance(num_block, dict):
        chk.fail("numerology", "expected an object")
    else:
        spacing = chk.number(num_block, "numerology.", "subcarrier_spacing_hz", default=15e3, minimum=1e-9)
        m = chk.integer(num_block, "numerology.", "num_carriers", minimum=12)
        d_total = chk.integer(num_block, "numerology.", "symbols_per_frame", minimum=1)
        cp = chk.number(num_block, "numerology.", "cp_fraction", default=1.0 / 14.0)
        fc = chk.number(num_block, "numerology.", "carrier_frequency_hz", default=5.9e9, minimum=1e-9)
        if cp is not None and not 0.0 <= cp <= 0.5:
            chk.fail("numerology.cp_fraction", "must lie in [0, 0.5]")
        if not chk.messages and m and d_total:
            numerology = Numerology(
                subcarrier_spacing_hz=float(spacing),
                num_carriers=m,
                symbols_per_frame=d_total,
                cp_fraction=float(cp),
                carrier_frequency_hz=float(fc),
            )

    nodes = []
    node_ids = set()
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        chk.fail("nodes", "expected a non-empty array")
        raw_nodes = []
    for i, raw in enumerate(raw_nodes):
        prefix = f"nodes[{i}]."
        if not isinstance(raw, dict):
            chk.fail(f"nodes[{i}]", "expected an object")
            continue
        node_id = chk.string(raw, prefix, "id")
        kind = chk.string(raw, prefix, "kind", choices=("illuminator", "sensor", "target", "clutter"))
        position = chk.vector2(raw, prefix, "position_m")
        velocity = chk.vector2(raw, prefix, "velocity_mps", default=[0.0, 0.0])
        reflectivity = chk.number(raw, prefix, "reflectivity", default=1.0, minimum=0.0)
        if node_id is None or kind is None:
            continue
        if node_id in node_ids:
            chk.fail(f"nodes[{i}].id", f"duplicate node id {node_id!r}")
            continue
        node_ids.add(node_id)
        if kind == "clutter" and velocity != [0.0, 0.0]:
            chk.fail(f"nodes[{i}].velocity_mps", "clutter nodes must be static")
            velocity = [0.0, 0.0]
        nodes.append(
            Node(id=node_id, position=np.array(position), velocity=np.array(velocity),
                 kind=kind, reflectivity=float(reflectivity))
        )

    radio_kinds = {"illuminator", "sensor"}
    by_id = {n.id: n for n in nodes}
    pairs = []
    raw_pairs = data.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        chk.fail("pairs", "expected a non-empty array")
        raw_pairs = []
    for i, raw in enumerate(raw_pairs):
        prefix = f"pairs[{i}]."
        if not isinstance(raw, dict):
            chk.fail(f"pairs[{i}]", "expected an object")
            continue
        tx = chk.string(raw, prefix, "tx")
        rx = chk.string(raw, prefix, "rx")
        if tx is None or rx is None:
            continue
        ok = True
        for label, node_id in (("tx", tx), ("rx", rx)):
            if node_id not in by_id:
                chk.fail(f"pairs[{i}].{label}", f"unknown node {node_id!r}")
                ok = False
            elif by_id[node_id].kind not in radio_kinds:
                chk.fail(f"pairs[{i}].{label}", f"node {node_id!r} is not a radio node")
                ok = False
        if ok and tx == rx:
            chk.fail(f"pairs[{i}]", "tx and rx must differ")
            ok = False
        if ok and any(p.tx == tx and p.rx == rx for p in pairs):
            chk.fail(f"pairs[{i}]", f"duplicate pair {tx!r}/{rx!r}")
            ok = False
        if ok:
            pairs.append(PairSpec(tx=tx, rx=rx))

    allocation = data.get("allocation", {"type": "full", "user": "u0"})
    if not isinstance(allocation, dict):
        chk.fail("allocation", "expected an object")
        allocation = {"type": "full", "user": "u0"}
    alloc_type = chk.string(allocation, "allocation.", "type", choices=("full", "tiles", "random"))
    users = set()
    if alloc_type == "tiles":
        tiles = allocation.get("tiles")
        if not isinstance(tiles, list) or not tiles:
            chk.fail("allocation.tiles", "expected a non-empty array")
        else:
            for i, tile in enumerate(tiles):
                if (
                    not isinstance(tile, list)
                    or len(tile) != 4
                    or not isinstance(tile[0], str)
                    or not all(isinstance(v, int) and not isinstance(v, bool) for v in tile[1:])
                ):
                    chk.fail(
                        f"allocation.tiles[{i}]",
                        "expected [user, prb_row, col_start, col_end]",
                    )
                else:
                    users.add(tile[0])
    elif alloc_type == "random":
        density = chk.number(allocation, "allocation.", "density", minimum=1e-9)
        if density is not None and density > 1.0:
            chk.fail("allocation.density", "must lie in (0, 1]")
        chk.integer(allocation, "allocation.", "seed", default=0)
        users.add(chk.string(allocation, "allocation.", "user", default="u0"))
    elif alloc_type == "full":
        users.add(chk.string(allocation, "allocation.", "user", default="u0"))

    snr_db = chk.number(data, "", "snr_db", default=None, allow_none=True)
    d_window = chk.integer(data, "", "doppler_window_symbols",
                           default=numerology.symbols_per_frame if numerology else 2,
                           minimum=2)
    if numerology and d_window and d_window > numerology.symbols_per_frame:
        chk.fail("doppler_window_symbols",
                 f"exceeds symbols_per_frame ({numerology.symbols_per_frame})")

    delay_window = chk.string(data, "", "delay_window", default="rect", choices=WINDOW_NAMES)
    doppler_window = chk.string(data, "", "doppler_window", default="rect", choices=WINDOW_NAMES)
    notch = chk.integer(data, "", "notch_half_width_bins", default=1, minimum=0)
    if numerology and d_window and 2 * notch + 1 > d_window // 2:
        chk.fail("notch_half_width_bins",
                 f"notch of {2 * notch + 1} columns exceeds half of the {d_window} Doppler bins")

    cfar_block = data.get("cfar", {})
    cfar = CfarConfig()
    if not isinstance(cfar_block, dict):
        chk.fail("cfar", "expected an object")
    else:
        train = chk.integer(cfar_block, "cfar.", "train_cells", default=8, minimum=1)
        guard = chk.integer(cfar_block, "cfar.", "guard_cells", default=2, minimum=0)
        pfa = chk.number(cfar_block, "cfar.", "pfa", default=1e-4, minimum=0.0)
        if pfa is not None and not 0.0 < pfa < 0.5:
            chk.fail("cfar.pfa", "must lie in (0, 0.5)")
        elif train >= 1 and guard >= 0:
            cfar = CfarConfig(train_cells=train, guard_cells=guard, pfa=float(pfa))
            if numerology and d_window and min(numerology.num_carriers, d_window) <= cfar.window:
                chk.fail("cfar.train_cells",
                         f"{cfar.window}x{cfar.window} CFAR window does not fit the "
                         f"{numerology.num_carriers}x{d_window} map")

    ref_range = chk.number(data, "", "reference_power_range_m", default=100.0, minimum=1e-9)
    los_excess = chk.number(data, "", "los_excess_db", default=30.0)
    process_user = data.get("process_user")
    if process_user is not None and not isinstance(process_user, str):
        chk.fail("process_user", "expected a string or null")
        process_user = None
    if process_user is not None and users and process_user not in users:
        chk.fail("process_user", f"user {process_user!r} owns no allocation")
    localization = data.get("localization", True)
    if not isinstance(localization, bool):
        chk.fail("localization", "expected a boolean")
        localization = True
    output_dir = chk.string(data, "", "output_dir", default="out")

    if chk.messages:
        raise ScenarioError(chk.messages)

    return Scenario(
        name=str(scenario_name),
        seed=seed,
        numerology=numerology,
        nodes=nodes,
        pairs=pairs,
        allocation=allocation,
        snr_db=None if snr_db is None else float(snr_db),
        doppler_window_symbols=d_window,
        delay_window=delay_window,
        doppler_window=doppler_window,
        notch_half_width_bins=notch,
        cfar=cfar,
        reference_power_range_m=float(ref_range),
        los_excess_db=float(los_excess),
        process_user=process_user,
        localization=localization,
        output_dir=str(output_dir),
    )


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. "fig4_analog")."""
    return Path(str(resources.files("ofdmpcl").joinpath("scenarios", f"{name}.json")))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Syntax errors are reported with their line and column; schema problems
    with their JSON path. Bare bundled scenario names are resolved too.
    """
    path = Path(path)
    if not path.exists() and path.suffix == "" and "/" not in str(path):
        bundled = bundled_scenario_path(path.name)
        if bundled.exists():
            path = bundled
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc.strerror or exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    return scenario_from_dict(data, name=path.stem)


def _allocations_from_spec(scn: Scenario) -> dict:
    spec = scn.allocation
    if spec["type"] == "full":
        return full_allocation(scn.numerology, spec.get("user", "u0"))
    if spec["type"] == "random":
        return random_allocation(
            scn.numerology, spec.get("user", "u0"), spec["density"], spec.get("seed", 0)
        )
    allocations: dict[str, list] = {}
    for user, row, col_start, col_end in spec["tiles"]:
        allocations.setdefault(user, []).append((row, col_start, col_end))
    return allocations


def _noise_seed(scn: Scenario, pair: PairSpec) -> tuple:
    return (
        scn.seed & 0xFFFFFFFF,
        zlib.crc32(b"noise"),
        zlib.crc32(pair.tx.encode()),
        zlib.crc32(pair.rx.encode()),
    )


@dataclass
class PairResult:
    pair: PairSpec
    paths: list
    detections: list
    map_file: Path
    detections_file: Path


@dataclass
class RunResult:
    output_dir: Path
    pair_results: list[PairResult]
    positions: list  # (target_hint, x, y, residual_rms, n_pairs)
    positions_file: Path | None
    manifest_file: Path

    @property
    def detections(self) -> dict:
        return {pr.pair.pair_id: pr.detections for pr in self.pair_results}


def _run_pair(scenario: Scenario, scene: Scene, grid: ResourceGrid, pair_spec: PairSpec,
              out: Path) -> PairResult:
    """One Tx/Rx pair through the chain, writing its map and detection CSV.
    Each stage's input is released as soon as the next stage returns."""
    pair = scene.pair(pair_spec.tx, pair_spec.rx)
    paths = enumerate_paths(scene, pair, scenario.numerology.carrier_frequency_hz)
    frame = apply_channel(grid, paths, scenario.snr_db, _noise_seed(scenario, pair_spec))
    est = estimate_channel(frame, grid, user_id=scenario.process_user)
    del frame
    cir = delay_transform(est, window=scenario.delay_window)
    del est
    sf = doppler_transform(cir, window=scenario.doppler_window,
                           num_symbols=scenario.doppler_window_symbols)
    del cir
    smap = scattering_map(sf)
    del sf

    map_file = out / f"map_{pair_spec.tx}_{pair_spec.rx}.bin"
    write_map(map_file, smap)
    detections = cfar_detect(suppress_clutter(smap, scenario.notch_half_width_bins),
                             scenario.cfar)
    det_file = out / f"detections_{pair_spec.tx}_{pair_spec.rx}.csv"
    write_detections_csv(det_file, pair_spec.pair_id, detections)
    return PairResult(pair=pair_spec, paths=paths, detections=detections,
                      map_file=map_file, detections_file=det_file)


def run_scenario(scenario, out_dir=None, seed=None, log=None) -> RunResult:
    """Execute a scenario end to end and write its artifacts.

    ``scenario`` may be a Scenario or a path to one. ``seed`` overrides the
    configured seed, ``out_dir`` the configured output directory.
    """
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=int(seed))
    log = log or (lambda msg: print(msg, file=sys.stderr))

    out = Path(out_dir) if out_dir is not None else Path(scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    scene = Scene(
        nodes=scenario.nodes,
        seed=scenario.seed,
        reference_power_range_m=scenario.reference_power_range_m,
        los_excess_db=scenario.los_excess_db,
    )
    grid = build_grid(scenario.numerology, _allocations_from_spec(scenario), scenario.seed)

    fastest = max(
        (float(np.linalg.norm(n.velocity)) for n in scenario.nodes if n.kind == "target"),
        default=0.0,
    )
    window_s = scenario.doppler_window_symbols * scenario.numerology.symbol_duration_s
    if fastest > 0:
        bound = max_integration_time(fastest, scenario.numerology.delay_bin_s)
        if window_s > bound:
            log(
                f"warning: Doppler window {window_s * 1e3:.1f} ms exceeds the "
                f"{bound * 1e3:.1f} ms range-migration bound at {fastest:.1f} m/s"
            )

    pair_results = [_run_pair(scenario, scene, grid, pair_spec, out)
                     for pair_spec in scenario.pairs]

    positions = []
    positions_file = None
    if scenario.localization and len(scenario.pairs) >= 2:
        positions_file = out / "positions.csv"
        positions = _localize(scenario, scene, pair_results, log)
        write_positions_csv(positions_file, positions)

    manifest_file = out / "manifest.json"
    artifacts = [pr.map_file.name for pr in pair_results]
    artifacts += [pr.detections_file.name for pr in pair_results]
    if positions_file is not None:
        artifacts.append(positions_file.name)
    manifest = {
        "scenario": scenario.to_dict(),
        "seed": scenario.seed,
        "versions": {
            "ofdmpcl": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in artifacts
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return RunResult(
        output_dir=out,
        pair_results=pair_results,
        positions=positions,
        positions_file=positions_file,
        manifest_file=manifest_file,
    )


def _localize(scenario: Scenario, scene: Scene, pair_results, log):
    """Strongest detection per pair -> excess delay -> fused position rows."""
    targets = [n for n in scenario.nodes if n.kind == "target"]
    target_hint = targets[0].id if len(targets) == 1 else "unassociated"

    measurements = []
    for pr in pair_results:
        if not pr.detections:
            log(f"warning: pair {pr.pair.pair_id} has no detections; skipped in fusion")
            continue
        best = pr.detections[0]
        pair = scene.pair(pr.pair.tx, pr.pair.rx)
        excess_s = best.refined_delay_s - pair.baseline_m / SPEED_OF_LIGHT
        if excess_s < 0:
            log(
                f"warning: pair {pr.pair.pair_id} strongest detection precedes "
                "the line of sight; skipped in fusion"
            )
            continue
        # Re-reference the detection delay to the LoS peak before fusion.
        det = dataclasses.replace(best, refined_delay_s=excess_s)
        measurements.append(
            measurement_from_detection(det, pair, scenario.numerology)
        )

    if len(measurements) < 2:
        if measurements:
            log("warning: fewer than two usable pairs; no position fix")
        return []

    try:
        estimate = fuse_position(measurements)
        candidates = [estimate]
    except AmbiguousFix as exc:
        candidates = exc.estimates
    except NoConvergence as exc:
        log(f"warning: position solver did not converge: {exc}")
        return []

    return [
        (
            target_hint,
            float(est.position[0]),
            float(est.position[1]),
            est.residual_rms_m,
            est.pairs_used,
        )
        for est in candidates
    ]
