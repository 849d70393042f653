"""Scenario files and the end-to-end processing pipeline.

A scenario is a JSON document with explicit SI units in its field names. It
describes the OFDM numerology, the scene (nodes and Tx/Rx pairs), the
allocation, and the processing knobs; one table of rows per JSON object gives
each key's kind, bound and default, and ``scenario_from_dict`` also checks
every path each pair sees. ``run_scenario`` executes the whole chain per
pair - channel simulation, inverse filtering, delay and Doppler transforms,
then ``detect_map``'s notch and CFAR - and writes one scattering-map file and
one detection CSV per pair, a positions CSV when localization applies, and a
manifest echoing the effective configuration for reproducibility.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import re
import sys
from dataclasses import MISSING, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import dsp
from . import grid as _grid
from .channel import apply_channel, check_path
from .detect import CfarConfig, Detection, cfar_detect, suppress_clutter
from .dsp import (
    WINDOWS,
    delay_transform,
    doppler_transform,
    estimate_channel,
    max_integration_time,
    scattering_map,
)
from .errors import AmbiguousFix, NegativeExcess, OfdmPclError, OutOfBounds, ScenarioError
from .geometry import NODE_KINDS, RADIO_KINDS, SPEED_OF_LIGHT, Node, Scene, enumerate_paths
from .geometry import bistatic_path, distance, los_magnitude, los_path, seed_words
from .grid import (
    PRB_CARRIERS,
    PRB_SYMBOLS,
    Numerology,
    ResourceGrid,
    build_grid,
    full_allocation,
    place_tile,
    random_allocation,
)
from .locate import fuse_position, measurement_from_detection
from .mapfile import (
    write_detections_csv,
    write_map,
    write_positions_csv,
)


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
        echo = dataclasses.asdict(self)
        for node in echo["nodes"]:
            node["position_m"] = node.pop("position").tolist()
            node["velocity_mps"] = node.pop("velocity").tolist()
        return echo


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float; a bool is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# kind -> (test, what is expected, conversion to the value kept)
_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "number": (_is_number, "a finite number", float),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "bool": (lambda v: isinstance(v, bool), "a boolean", bool),
    "vec2": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
             "a pair of finite numbers", lambda v: [float(x) for x in v]),
    "array": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty array",
              lambda v: [list(x) if isinstance(x, list) else x for x in v]),
    "object": (lambda v: isinstance(v, dict), "an object", dict),
}


def _bound(spec) -> tuple:
    """(test, message) of a bound: the admitted strings, a pattern the whole
    string must match, or an interval such as "(0, 1]", which holds each
    component of a "vec2"."""
    if isinstance(spec, tuple):
        return spec.__contains__, f"must be one of {', '.join(spec)}"
    if isinstance(spec, re.Pattern):
        return spec.fullmatch, f"must match {spec.pattern}"
    lo, hi = (float(end) for end in spec[1:-1].split(","))
    lo_open, hi_open = spec[0] == "(", spec[-1] == ")"
    return (lambda v: lo <= v <= hi and not (lo_open and v == lo or hi_open and v == hi),
            f"must lie in {spec}")


def _rows(cls=None, **specs) -> dict:
    """Rows, key -> (kind, bound, default), from ``(kind, bound[, default])``
    specs. A kind is a name in ``_KINDS``, nested rows, or a list of them for
    an array of objects. Defaults come from the same-named fields of ``cls``,
    else the key is required; a None default admits null."""
    defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                for f in (dataclasses.fields(cls) if cls else ())}
    return {key: (kind, bound and _bound(bound), rest[0] if rest else defaults.get(key, MISSING))
            for key, (kind, bound, *rest) in specs.items()}


_NUMEROLOGY = _rows(
    Numerology,
    subcarrier_spacing_hz=("number", "(0, inf)"),
    num_carriers=("int", f"[{PRB_CARRIERS}, inf)", MISSING),
    # Every allocation is made of whole 7-symbol slots.
    symbols_per_frame=("int", f"[{PRB_SYMBOLS}, inf)", MISSING),
    cp_fraction=("number", "[0, 0.5]"),
    carrier_frequency_hz=("number", "(0, inf)"),
)
_NODE = _rows(
    Node,
    # Ids name the artifact files, so they hold no path separator or NUL.
    id=("str", re.compile(r"[A-Za-z0-9._-]{1,64}")),
    kind=("str", NODE_KINDS),
    # Keeps ranges and range rates far from float overflow; the cyclic prefix
    # rejects far smaller scenes anyway.
    position_m=("vec2", "[-1e9, 1e9]"),
    velocity_mps=("vec2", "[-1e9, 1e9]", [0.0, 0.0]),
    reflectivity=("number", "[0, 10]"),  # see reference_power_range_m
)
_PAIR = _rows(tx=("str", None), rx=("str", None))
_CFAR = _rows(CfarConfig, train_cells=("int", "[1, inf)"), guard_cells=("int", "[0, inf)"),
              pfa=("number", "(0, 0.5)"))
_USER = ("str", None, "u0")
_SEED = ("int", "[0, inf)", 0)  # np.random.default_rng takes non-negative seeds only
_ALLOCATIONS = {
    "full": _rows(type=("str", None), user=_USER),
    "random": _rows(type=("str", None), user=_USER, density=("number", "(0, 1]"), seed=_SEED),
    "tiles": _rows(type=("str", None), tiles=("array", None)),
}
_SCENARIO = _rows(
    Scenario,
    name=("str", None),
    seed=_SEED,
    numerology=(_NUMEROLOGY, None),
    nodes=([_NODE], None),
    pairs=([_PAIR], None),
    allocation=("object", None, {"type": "full"}),
    # Noise is 10**(-snr_db / 10) of the signal, which overflows far below -100 dB.
    snr_db=("number", "[-100, inf)", None),
    doppler_window_symbols=("int", "[2, inf)", None),  # None: the whole frame
    delay_window=("str", tuple(WINDOWS)),
    doppler_window=("str", tuple(WINDOWS)),
    notch_half_width_bins=("int", "[0, inf)"),
    cfar=(_CFAR, None, {}),
    # Path amplitudes scale with its square, reflectivity and 10**(los_excess_db
    # / 20). These bounds keep each factor finite, and the maps of scenes with
    # metre-scale ranges inside float32; _check_paths covers closer ranges.
    reference_power_range_m=("number", "(0, 1e4]"),
    los_excess_db=("number", "[-100, 100]"),
    process_user=("str", None),
    localization=("bool", None),
    output_dir=("str", re.compile(r"[^\x00]*")),  # no path holds a NUL
)


def _problem(value, kind, bound, default) -> str | None:
    """What is wrong with one value of a row, if anything."""
    if value is None and default is None:
        return None
    test, expected, _ = _KINDS["array" if isinstance(kind, list) else kind]
    if not test(value):
        return f"expected {expected}" + (" or null" if default is None else "")
    if bound and not all(map(bound[0], value if kind == "vec2" else [value])):
        return bound[1]
    return None


def _read(obj, path: str, rows: dict, errors: list) -> dict | None:
    """Fresh values of one JSON object by its rows, defaults filled in; each
    problem goes to ``errors`` with its JSON path and leaves None."""
    if not isinstance(obj, dict):
        errors.append(f"at {path}: expected an object")
        return None
    errors.extend(f"at {path}.{key}: unknown field" for key in obj if key not in rows)
    values = {}
    for key, (kind, bound, default) in rows.items():
        where, value = f"{path}.{key}", obj.get(key, default)
        if isinstance(kind, dict) and value is not MISSING:
            values[key] = _read(value, where, kind, errors)
            continue
        problem = "required" if value is MISSING else _problem(value, kind, bound, default)
        if problem:
            errors.append(f"at {where}: {problem}")
            value = None
        elif isinstance(kind, list):
            value = [_read(v, f"{where}[{i}]", kind[0], errors) for i, v in enumerate(value)]
        elif value is not None:
            value = _KINDS[kind][2](value)
        values[key] = value
    return values


def _tile_users(tiles: list, numerology: Numerology, errors: list) -> set:
    """Users of the allocation's tiles; checks shapes, bounds and overlap."""
    cells = np.full((numerology.prb_rows, numerology.prb_cols), -1, dtype=np.int8)
    users = set()
    for i, tile in enumerate(tiles):
        where = f"at $.allocation.tiles[{i}]"
        if not (isinstance(tile, list) and len(tile) == 4 and isinstance(tile[0], str)
                and all(_KINDS["int"][0](v) for v in tile[1:])):
            errors.append(f"{where}: expected [user, prb_row, col_start, col_end]")
            continue
        users.add(tile[0])
        try:
            if place_tile(cells, tile[1:], 0, tile[0]):
                errors.append(f"{where}: overlaps an earlier tile")
        except OutOfBounds as exc:
            errors.append(f"{where}: {exc}")
    return users


def _check_paths(scn: Scenario, errors: list) -> None:
    """Every path of every pair must fit the channel model and keep the map
    inside float32; the paths are built without a phase, which neither needs."""
    num, fc = scn.numerology, scn.numerology.carrier_frequency_hz
    scene = Scene(nodes=scn.nodes, reference_power_range_m=scn.reference_power_range_m,
                  los_excess_db=scn.los_excess_db)
    noise = 1.0 if scn.snr_db is None else 1.0 + 10.0 ** (-scn.snr_db / 10.0)
    # Every node of the document was kept, so k is its index there.
    scatterers = [(k, n) for k, n in enumerate(scn.nodes) if n.kind not in RADIO_KINDS]
    for i, spec in enumerate(scn.pairs):
        tx, rx = scene.node(spec.tx), scene.node(spec.rx)
        paths = []
        for k, node in scatterers:
            try:
                paths.append(bistatic_path(tx, rx, node, fc, scn.reference_power_range_m))
                check_path(num, paths[-1].delay_s, paths[-1].doppler_hz)
            except OfdmPclError as exc:
                errors.append(f"at $.nodes[{k}]: pair {spec.pair_id}: {exc}")
        try:
            los = los_path(tx, rx, fc, los_magnitude(scene, scene.pair(spec.tx, spec.rx), paths))
            check_path(num, los.delay_s, los.doppler_hz)
        except OfdmPclError as exc:
            errors.append(f"at $.pairs[{i}]: {exc}")
            continue
        amplitude = abs(los.gain) + sum(abs(p.gain) for p in paths)
        peak = amplitude * amplitude * num.num_carriers * scn.doppler_window_symbols * noise
        # float32 holds 3.4e38; noise peaks stay within a few times the mean.
        if not peak <= 1e36:
            errors.append(f"at $.pairs[{i}]: path gains give a predicted map peak of "
                          f"{peak:.3g}, beyond 1e36")


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Validate a parsed scenario document; raises ScenarioError on problems."""
    if not isinstance(data, dict):
        raise ScenarioError(["at $: expected a JSON object"])
    errors = []
    # The caller's name (the file stem) stands in for a missing "name".
    top = _read({"name": name, **data}, "$", _SCENARIO, errors)
    num = top["numerology"]
    numerology = Numerology(**num) if num and None not in num.values() else None

    nodes, kinds = [], {}
    for i, raw in enumerate(top["nodes"] or []):
        if not raw or None in (raw["id"], raw["kind"]):
            continue
        if raw["id"] in kinds:
            errors.append(f"at $.nodes[{i}].id: duplicate node id {raw['id']!r}")
        elif raw["kind"] == "clutter" and raw["velocity_mps"] not in (None, [0.0, 0.0]):
            errors.append(f"at $.nodes[{i}].velocity_mps: clutter nodes must be static")
        elif None not in raw.values():
            nodes.append(Node(id=raw["id"], position=raw["position_m"], kind=raw["kind"],
                              velocity=raw["velocity_mps"], reflectivity=raw["reflectivity"]))
        kinds.setdefault(raw["id"], raw["kind"])

    pairs, writers = [], {}  # artifact name stem -> index of the pair writing it
    for i, raw in enumerate(top["pairs"] or []):
        if not raw or None in raw.values():
            continue
        tx, rx = raw["tx"], raw["rx"]
        stem = f"{tx}_{rx}"  # as _run_pair names the files
        bad = [f"at $.pairs[{i}].{end}: " + (f"node {node_id!r} is not a radio node"
                                             if node_id in kinds else f"unknown node {node_id!r}")
               for end, node_id in (("tx", tx), ("rx", rx)) if kinds.get(node_id) not in RADIO_KINDS]
        if bad:
            errors.extend(bad)
        elif stem in writers:
            errors.append(f"at $.pairs[{i}]: would overwrite map_{stem}.bin and "
                          f"detections_{stem}.csv of $.pairs[{writers[stem]}]")
        else:
            writers[stem] = i
            pairs.append(PairSpec(tx=tx, rx=rx))

    allocation, users = top["allocation"], set()
    if allocation is not None:
        rows = _ALLOCATIONS.get(str(allocation.get("type")))
        if rows is None:
            errors.append(f"at $.allocation.type: must be one of {', '.join(_ALLOCATIONS)}")
        allocation = rows and _read(allocation, "$.allocation", rows, errors)
    if allocation and allocation.get("tiles") and numerology:
        users = _tile_users(allocation["tiles"], numerology, errors)
    elif allocation and allocation.get("user") is not None:
        users.add(allocation["user"])
    density, seed = (allocation or {}).get("density"), (allocation or {}).get("seed")
    if numerology and None not in (density, seed):
        # The tiles run will draw. Called through the grid module, so that a
        # tracer rebinding this module's random_allocation sees builds only.
        if not _grid.random_allocation(numerology, "", density, seed)[""]:
            errors.append(f"at $.allocation.density: density {density:g} with seed {seed} "
                          "draws no PRB tile")
    if top["process_user"] is not None and users and top["process_user"] not in users:
        errors.append(f"at $.process_user: user {top['process_user']!r} owns no allocation")

    d_window, cfar = top["doppler_window_symbols"], top["cfar"]
    cfar = CfarConfig(**cfar) if cfar and None not in cfar.values() else None
    if numerology:
        d_window = d_window or numerology.symbols_per_frame
        if d_window > numerology.symbols_per_frame:
            errors.append(f"at $.doppler_window_symbols: exceeds symbols_per_frame "
                          f"({numerology.symbols_per_frame})")
        notch = top["notch_half_width_bins"]
        if notch is not None and 2 * notch + 1 > d_window // 2:
            errors.append(f"at $.notch_half_width_bins: notch of {2 * notch + 1} columns "
                          f"exceeds half of the {d_window} Doppler bins")
        if cfar and min(numerology.num_carriers, d_window) <= cfar.window:
            errors.append(f"at $.cfar.train_cells: {cfar.window}x{cfar.window} CFAR window "
                          f"does not fit the {numerology.num_carriers}x{d_window} map")
    if not errors:
        scenario = Scenario(**{**top, "numerology": numerology, "nodes": nodes, "pairs": pairs,
                               "allocation": allocation, "doppler_window_symbols": d_window,
                               "cfar": cfar})
        _check_paths(scenario, errors)
    if errors:
        raise ScenarioError(errors)
    return scenario


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. "fig4_analog")."""
    return Path(str(resources.files("ofdmpcl").joinpath("scenarios", f"{name}.json")))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Syntax errors are reported with their line and column; schema problems
    with their JSON path; any other file that is not JSON text with its
    name. Bare bundled scenario names are resolved too.
    """
    path = Path(path)
    if not path.exists() and path.suffix == "" and "/" not in str(path):
        bundled = bundled_scenario_path(path.name)
        if bundled.exists():
            path = bundled
    try:
        # From bytes, json detects UTF-8, -16 or -32 itself and skips a BOM.
        data = json.loads(path.read_bytes())
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc.strerror or exc}"]) from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes, nesting, huge integers
        raise ScenarioError([f"{path}: not JSON text: {exc}"]) from exc
    return scenario_from_dict(data, name=path.stem)


def _allocations_from_spec(scn: Scenario) -> dict:
    spec = scn.allocation
    if spec["type"] == "full":
        return full_allocation(scn.numerology, spec["user"])
    if spec["type"] == "random":
        return random_allocation(scn.numerology, spec["user"], spec["density"], spec["seed"])
    allocations: dict[str, list] = {}
    for user, row, col_start, col_end in spec["tiles"]:
        allocations.setdefault(user, []).append((row, col_start, col_end))
    return allocations


@dataclass
class PairResult:
    pair: PairSpec
    detections: list
    map_file: Path
    detections_file: Path


@dataclass
class RunResult:
    output_dir: Path
    pair_results: list[PairResult]
    target_hint: str  # the single target's id, else "unassociated"
    positions: list  # locate.PositionEstimate fixes, best first
    positions_file: Path | None
    manifest_file: Path


def detect_map(smap: dsp.ScatteringMap, scenario: Scenario,
               out: np.ndarray | None = None) -> list[Detection]:
    """A pair's detections from its map by the run's rule: the notch, then
    CFAR on the rows below the cyclic prefix; ``out`` as suppress_clutter's.
    Both are called through this module's names, the ones a tracer rebinds."""
    notched = suppress_clutter(smap, scenario.notch_half_width_bins, out=out)
    return cfar_detect(notched, scenario.cfar, max_delay_s=scenario.numerology.cp_duration_s)


def _run_pair(scenario: Scenario, scene: Scene, grid: ResourceGrid, pair_spec: PairSpec,
              out: Path, work: np.ndarray) -> PairResult:
    """One Tx/Rx pair through the chain, writing its map and detection CSV.

    ``grid`` is both the transmit grid and the estimate's reference, so the
    noise goes on exactly the elements the estimate divides by. ``work`` is
    the run's complex128 M x D working grid, which every pair overwrites
    whole: apply_channel writes the frame into it, the estimate, the
    impulse response and the spreading function each overwrite it in place,
    the float32 map fills its first M * D floats, and ``detect_map`` notches
    that map in place. Every stage's output is a view of ``work``; the estimate
    also holds an M x D bool mask, released before the Doppler transform."""
    pair = scene.pair(pair_spec.tx, pair_spec.rx)
    paths = enumerate_paths(scene, pair, scenario.numerology.carrier_frequency_hz)
    frame = apply_channel(grid, paths, scenario.snr_db,
                          seed_words(scenario.seed, "noise", pair_spec.tx, pair_spec.rx),
                          out=work)
    est = estimate_channel(frame, grid, out=work)
    cir = delay_transform(est, window=scenario.delay_window, out=est.h)
    del est  # frees the estimate's M x D bool mask before the Doppler FFT
    num_symbols = scenario.doppler_window_symbols
    sf = doppler_transform(cir, window=scenario.doppler_window, num_symbols=num_symbols,
                           out=cir.h[:, :num_symbols])
    # Block by block, the map's floats land on complex elements already read.
    m, d = sf.s.shape
    smap = scattering_map(sf, out=work.view(np.float32).reshape(-1)[: m * d].reshape(m, d))

    stem = f"{pair_spec.tx}_{pair_spec.rx}"
    map_file = out / f"map_{stem}.bin"
    write_map(map_file, smap)
    detections = detect_map(smap, scenario, out=smap.power)
    det_file = out / f"detections_{stem}.csv"
    write_detections_csv(det_file, pair_spec.pair_id, detections)
    return PairResult(pair=pair_spec, detections=detections, map_file=map_file,
                      detections_file=det_file)


def _sha256(path) -> str:
    """Hex SHA-256 of a file, read in 64 KiB chunks rather than whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_scenario(scenario: Scenario, out_dir=None, seed=None, log=None) -> RunResult:
    """Execute a scenario end to end and write its artifacts.

    ``seed`` overrides the configured seed, ``out_dir`` the configured output
    directory.
    """
    if seed is not None:
        problem = _problem(seed, *_SCENARIO["seed"])
        if problem:
            raise ScenarioError([f"at $.seed: seed override {seed!r}: {problem}"])
        scenario = dataclasses.replace(scenario, seed=seed)
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
    if scenario.process_user is not None:
        # Uplink rule: every pair measures the processed user's elements
        # only. Called through the dsp module, the name a tracer rebinds.
        grid = dsp.user_subgrid(grid, scenario.process_user)
    # The one working grid of every pair, taken last so that it never meets the
    # temporaries of build_grid or user_subgrid: taken before build_grid, it
    # put a process_user run's traced peak at 1.31 grids instead of 1.22.
    work = np.empty(grid.codes.shape, dtype=np.complex128)

    fastest = max(
        (float(distance(n.velocity)) for n in scenario.nodes if n.kind == "target"),
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

    pair_results = []
    for pair_spec in scenario.pairs:
        pair_results.append(_run_pair(scenario, scene, grid, pair_spec, out, work))

    targets = [n.id for n in scenario.nodes if n.kind == "target"]
    target_hint = targets[0] if len(targets) == 1 else "unassociated"
    positions = []
    positions_file = None
    if scenario.localization and len(scenario.pairs) >= 2:
        positions_file = out / "positions.csv"
        positions = _localize(scenario, scene, pair_results, log)
        write_positions_csv(positions_file, target_hint, positions)

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
            name: _sha256(out / name)
            for name in artifacts
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return RunResult(
        output_dir=out,
        pair_results=pair_results,
        target_hint=target_hint,
        positions=positions,
        positions_file=positions_file,
        manifest_file=manifest_file,
    )


def _localize(scenario: Scenario, scene: Scene, pair_results, log) -> list:
    """Strongest detection per pair -> excess delay -> fused fixes, best first."""
    measurements = []
    for pr in pair_results:
        if not pr.detections:
            log(f"warning: pair {pr.pair.pair_id} has no detections; skipped in fusion")
            continue
        best = pr.detections[0]
        pair = scene.pair(pr.pair.tx, pr.pair.rx)
        # Re-reference the detection delay to the LoS peak before fusion.
        excess_s = best.refined_delay_s - pair.baseline_m / SPEED_OF_LIGHT
        det = dataclasses.replace(best, refined_delay_s=excess_s)
        try:
            measurements.append(
                measurement_from_detection(det, pair, scenario.numerology)
            )
        except NegativeExcess:
            log(
                f"warning: pair {pr.pair.pair_id} strongest detection precedes "
                "the line of sight; skipped in fusion"
            )

    if len(measurements) < 2:
        if measurements:
            log("warning: fewer than two usable pairs; no position fix")
        return []

    try:
        return [fuse_position(measurements)]
    except AmbiguousFix as exc:
        return exc.estimates
