import csv
import json
import math
import struct

import numpy as np
import pytest

from ofdmpcl import ScenarioError, UnreadableMap, load_scenario, read_map, run_scenario
from ofdmpcl.cli import main as cli_main
from ofdmpcl.dsp import ScatteringMap
from ofdmpcl.locate import PositionEstimate
from ofdmpcl.mapfile import (
    DETECTION_COLUMNS,
    MAP_MAGIC,
    POSITION_COLUMNS,
    render_heatmap,
    write_map,
    write_positions_csv,
)
from ofdmpcl.scenario import bundled_scenario_path, scenario_from_dict


def mini_scenario(**overrides):
    """Small two-pair scenario that runs in well under a second."""
    doc = {
        "name": "mini",
        "seed": 5150,
        "numerology": {
            "subcarrier_spacing_hz": 15000.0,
            "num_carriers": 60,
            "symbols_per_frame": 140,
            "cp_fraction": 1 / 14,
            "carrier_frequency_hz": 5.9e9,
        },
        "nodes": [
            {"id": "tx", "kind": "illuminator", "position_m": [0.0, 0.0]},
            {"id": "rx1", "kind": "sensor", "position_m": [60.0, 0.0]},
            {"id": "rx2", "kind": "sensor", "position_m": [0.0, 50.0]},
            {
                "id": "bike",
                "kind": "target",
                "position_m": [40.0, 30.0],
                "velocity_mps": [20.0, 15.0],
                "reflectivity": 0.1,
            },
            {"id": "bin", "kind": "clutter", "position_m": [25.0, 18.0], "reflectivity": 0.4},
        ],
        "pairs": [{"tx": "tx", "rx": "rx1"}, {"tx": "tx", "rx": "rx2"}],
        "allocation": {"type": "full", "user": "u0"},
        "snr_db": 20.0,
        "doppler_window_symbols": 140,
        "notch_half_width_bins": 1,
        "cfar": {"train_cells": 4, "guard_cells": 1, "pfa": 1e-4},
        "localization": True,
    }
    doc.update(overrides)
    return doc


def mini_nodes(index, **changes):
    """The nodes of mini_scenario() with one node's fields changed."""
    nodes = mini_scenario()["nodes"]
    nodes[index].update(changes)
    return nodes


def mini_numerology(**changes):
    return {**mini_scenario()["numerology"], **changes}


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------- map files


def test_map_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    smap = ScatteringMap(
        power=rng.exponential(size=(48, 24)),
        delay_bin_s=12.5e-9,
        doppler_bin_hz=100.0,
    )
    path = tmp_path / "m.bin"
    write_map(path, smap)
    assert path.stat().st_size == 64 + 4 * 48 * 24
    loaded = read_map(path)
    assert loaded.power.shape == (48, 24)
    assert loaded.delay_bin_s == smap.delay_bin_s
    assert loaded.doppler_bin_hz == smap.doppler_bin_hz
    np.testing.assert_allclose(loaded.power, smap.power, rtol=1e-6)
    assert path.read_bytes()[:8] == b"CPCLMAP1"


def test_map_file_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTAMAP!" + b"\x00" * 100)
    with pytest.raises(UnreadableMap):
        read_map(path)
    smap = ScatteringMap(power=np.ones((8, 8)), delay_bin_s=1e-9, doppler_bin_hz=1.0)
    write_map(path, smap)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(UnreadableMap):
        read_map(path)
    with pytest.raises(UnreadableMap):
        read_map(tmp_path / "missing.bin")


@pytest.mark.parametrize("field, bad", [
    *(("m", bad) for bad in (math.nan, math.inf, -math.inf, 1.5)),
    *((field, bad) for field in ("delay_bin", "doppler_bin")
      for bad in (0.0, -1e-9, math.nan, math.inf))])
def test_map_file_with_a_bad_header_field_is_unreadable(tmp_path, capsys, field, bad):
    """An 8 x 8 map whose payload fits, with one header field (M, or a bin
    width, which detect_map divides by) that no map can have."""
    fields = {"m": 8.0, "d": 8.0, "delay_bin": 1e-9, "doppler_bin": 1.0, field: bad}
    path = tmp_path / "m.bin"
    path.write_bytes(MAP_MAGIC + struct.pack("<4d", *fields.values()) + b"\x00" * (24 + 4 * 64))
    with pytest.raises(UnreadableMap, match="invalid"):
        read_map(path)
    image = tmp_path / "x.pgm"
    assert cli_main(["heatmap", str(path), str(image)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not image.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_map_file_with_non_finite_or_negative_power_is_unreadable(tmp_path, capsys, value):
    power = np.ones((8, 8))
    power[3, 5] = value
    path = tmp_path / "m.bin"
    write_map(path, ScatteringMap(power=power, delay_bin_s=1e-9, doppler_bin_hz=1.0))
    with pytest.raises(UnreadableMap, match="non-finite or negative power"):
        read_map(path)
    image = tmp_path / "x.pgm"
    assert cli_main(["heatmap", str(path), str(image)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not image.exists()


# ----------------------------------------------------------------- heatmaps


def test_heatmap_constant_map_is_uniform():
    image = render_heatmap(np.full((16, 8), 3.7), db_floor=60.0)
    assert image.shape == (8, 16)  # doppler rows, delay columns
    assert np.all(image == 255)


def test_heatmap_zero_floor_is_binary_peak_mask():
    power = np.ones((16, 8))
    power[5, 3] = 10.0
    image = render_heatmap(power, db_floor=0.0)
    assert set(np.unique(image)) == {0, 255}
    assert image.sum() == 255


def test_heatmap_orientation_positive_doppler_on_top():
    power = np.zeros((8, 6))
    power[2, 5] = 1.0  # delay bin 2, most positive Doppler bin
    image = render_heatmap(power, db_floor=30.0)
    assert image[0, 2] == 255
    assert image.sum() == 255


@pytest.mark.parametrize("floor", [-5.0, math.nan, math.inf])
def test_heatmap_floor_must_be_finite_and_non_negative(floor):
    with pytest.raises(ValueError):
        render_heatmap(np.ones((4, 4)), db_floor=floor)


def test_heatmap_cli_writes_pgm(tmp_path):
    doc = mini_scenario()
    run_scenario(load_scenario(write_scenario(tmp_path, doc)), out_dir=tmp_path / "o")
    map_file = tmp_path / "o" / "map_tx_rx1.bin"
    out = tmp_path / "hm.pgm"
    assert cli_main(["heatmap", str(map_file), str(out), "--floor-db", "50"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n60 140\n255\n")
    assert len(data) == len(b"P5\n60 140\n255\n") + 60 * 140


# ---------------------------------------------------------------- scenarios


def test_bundled_scenarios_validate():
    for name in ("fig4_analog", "three_user_uplink"):
        scenario = load_scenario(bundled_scenario_path(name))
        assert scenario.name == name
    # bare names resolve to the bundled files
    assert load_scenario("fig4_analog").numerology.num_carriers == 5328


def test_schema_errors_carry_json_paths(tmp_path):
    doc = mini_scenario()
    doc["pairs"][0]["rx"] = "nope"
    doc["doppler_window_symbols"] = 999
    del doc["numerology"]["num_carriers"]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    text = "\n".join(excinfo.value.messages)
    assert "$.pairs[0].rx" in text
    assert "$.numerology.num_carriers" in text


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert "line 3" in excinfo.value.messages[0]


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"name": 1}', b"[" * 200_000, b'{"seed": 1' + b"0" * 5000],
    ids=["undecodable", "nested-too-deep", "integer-too-long"],
)
def test_cli_file_that_is_not_json_text_exits_2_without_traceback(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_scenario_file_with_a_utf8_bom_loads(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(mini_scenario()).encode())
    assert load_scenario(path).name == "mini"


def test_validation_rejects_bad_values(tmp_path):
    cases = [
        ({"snr_db": "loud"}, "$.snr_db"),
        ({"notch_half_width_bins": -1}, "$.notch_half_width_bins"),
        ({"cfar": {"pfa": 0.9}}, "$.cfar.pfa"),
        ({"allocation": {"type": "stripes"}}, "$.allocation.type"),
        ({"unknown_knob": 1}, "$.unknown_knob"),
    ]
    for overrides, expected in cases:
        doc = mini_scenario(**overrides)
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, doc))
        assert expected in "\n".join(excinfo.value.messages)


def test_clutter_velocity_rejected_by_schema(tmp_path):
    doc = mini_scenario()
    doc["nodes"][4]["velocity_mps"] = [1.0, 0.0]
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(write_scenario(tmp_path, doc))
    assert "$.nodes[4].velocity_mps" in "\n".join(excinfo.value.messages)


# -------------------------------------------------------------------- runs


def test_run_writes_all_artifacts(tmp_path):
    path = write_scenario(tmp_path, mini_scenario())
    result = run_scenario(load_scenario(path), out_dir=tmp_path / "out")
    for pair in ("tx_rx1", "tx_rx2"):
        assert (tmp_path / "out" / f"map_{pair}.bin").exists()
        header = (tmp_path / "out" / f"detections_{pair}.csv").read_text().splitlines()[0]
        assert header == ",".join(DETECTION_COLUMNS)
    positions = (tmp_path / "out" / "positions.csv").read_text().splitlines()
    assert positions[0] == ",".join(POSITION_COLUMNS)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 5150
    assert set(manifest["artifacts"]) >= {"map_tx_rx1.bin", "detections_tx_rx1.csv"}
    # the target is found by both sensors
    for pr in result.pair_results:
        assert pr.detections and pr.detections[0].snr_db > 10.0


def test_run_detects_target_doppler(tmp_path):
    from ofdmpcl.geometry import Scene, enumerate_paths

    path = write_scenario(tmp_path, mini_scenario())
    scenario = load_scenario(path)
    result = run_scenario(scenario, out_dir=tmp_path / "out")
    scene = Scene(nodes=scenario.nodes, seed=scenario.seed)
    dopp_bin = 1.0 / (140 * scenario.numerology.symbol_duration_s)
    for pr in result.pair_results:
        pair = scene.pair(pr.pair.tx, pr.pair.rx)
        target = next(
            p for p in enumerate_paths(scene, pair, 5.9e9) if p.kind == "target"
        )
        best = pr.detections[0]
        assert best.refined_doppler_hz == pytest.approx(target.doppler_hz, abs=dopp_bin)


def test_zero_target_scenario_gives_empty_detections(tmp_path, capsys):
    """Each empty pair is skipped in fusion with one warning; with no pair
    left there is no fix and no "fewer than two usable pairs" line."""
    doc = mini_scenario(cfar={"train_cells": 4, "guard_cells": 1, "pfa": 1e-8})
    doc["nodes"] = [n for n in doc["nodes"] if n["kind"] != "target"]
    path = write_scenario(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    for pair in ("tx_rx1", "tx_rx2"):
        lines = (tmp_path / "out" / f"detections_{pair}.csv").read_text().splitlines()
        assert lines == [",".join(DETECTION_COLUMNS)]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: pair {pair} has no detections; skipped in fusion"
        for pair in ("tx-rx1", "tx-rx2")]
    lines = (tmp_path / "out" / "positions.csv").read_text().splitlines()
    assert lines == [",".join(POSITION_COLUMNS)]


def position_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def expected_rows(result):
    return [[result.target_hint, *(repr(float(v)) for v in (*est.position, est.residual_rms_m)),
             str(est.pairs_used)] for est in result.positions]


def test_positions_rows_and_cli_lines_come_from_the_estimates(tmp_path, capsys):
    # Finer delay bins (20.8 m) and a third sensor than mini_scenario(), so
    # that the target gives one unambiguous fix. The 560-symbol frame makes
    # 286 Hz Doppler bins, which put the bike 1.8 to 3.4 bins from zero
    # Doppler in every pair, clear of the +-1 bin notch.
    doc = mini_scenario(
        numerology=mini_numerology(subcarrier_spacing_hz=240000.0, cp_fraction=0.5,
                                   symbols_per_frame=560),
        nodes=[*mini_scenario()["nodes"],
               {"id": "rx3", "kind": "sensor", "position_m": [-50.0, 0.0]}],
        doppler_window_symbols=560)
    doc["pairs"].append({"tx": "tx", "rx": "rx3"})
    path = write_scenario(tmp_path, doc)
    result = run_scenario(load_scenario(path), out_dir=tmp_path / "a", log=lambda m: None)
    assert result.target_hint == "bike" and len(result.positions) == 1
    fix = result.positions[0]
    assert fix.pairs_used == 3
    assert np.hypot(*(fix.position - [40.0, 30.0])) < 10.0  # under half a delay bin
    rows = position_rows(result.positions_file)
    assert rows == expected_rows(result)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("position ")]
    assert lines == [f"position bike: ({float(x):.2f}, {float(y):.2f}) m, "
                     f"rms {float(rms):.3f} m from {n} pairs" for _, x, y, rms, n in rows]


def test_ambiguous_fix_writes_both_candidates_best_first(tmp_path):
    result = run_scenario(load_scenario("fig4_analog"), out_dir=tmp_path, log=lambda m: None)
    assert len(result.positions) == 2
    assert result.positions[0].residual_rms_m <= result.positions[1].residual_rms_m
    assert position_rows(result.positions_file) == expected_rows(result)


def test_write_positions_csv_writes_one_row_per_estimate(tmp_path):
    a = PositionEstimate(np.array([1.5, -2.0]), 0.25, 3, np.eye(2))
    b = PositionEstimate(np.array([0.1, 40.0]), np.float32(0.5), 2, np.eye(2))
    path = tmp_path / "positions.csv"
    write_positions_csv(path, "unassociated", [a, b])
    assert path.read_bytes() == (b"target_hint,x_m,y_m,residual_rms_m,n_pairs\r\n"
                                 b"unassociated,1.5,-2.0,0.25,3\r\n"
                                 b"unassociated,0.1,40.0,0.5,2\r\n")


def test_seed_override_changes_outputs(tmp_path):
    path = write_scenario(tmp_path, mini_scenario())
    run_scenario(load_scenario(path), out_dir=tmp_path / "a")
    run_scenario(load_scenario(path), out_dir=tmp_path / "b", seed=99)
    assert (tmp_path / "a" / "map_tx_rx1.bin").read_bytes() != (
        tmp_path / "b" / "map_tx_rx1.bin"
    ).read_bytes()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_manifest_echo_reruns_identically(tmp_path):
    path = write_scenario(tmp_path, mini_scenario())
    run_scenario(load_scenario(path), out_dir=tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echoed = write_scenario(tmp_path, manifest["scenario"], name="echo.json")
    run_scenario(load_scenario(echoed), out_dir=tmp_path / "b")
    for name, digest in manifest["artifacts"].items():
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


# --------------------------------------------------------------------- cli


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, mini_scenario())
    assert cli_main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err
    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2


def test_cli_run_and_reports(tmp_path, capsys):
    path = write_scenario(tmp_path, mini_scenario())
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "pair tx-rx1" in out
    assert "artifacts in" in out


def test_cli_heatmap_missing_map_is_runtime_error(tmp_path):
    assert cli_main(["heatmap", str(tmp_path / "nope.bin"), str(tmp_path / "x.pgm")]) == 1


@pytest.mark.parametrize("floor", ["-5", "nan", "inf"])
def test_cli_heatmap_floor_that_is_not_finite_and_non_negative_is_a_usage_error(
        tmp_path, capsys, floor):
    map_file = tmp_path / "m.bin"
    write_map(map_file, ScatteringMap(power=np.ones((8, 8)), delay_bin_s=1e-9, doppler_bin_hz=1.0))
    image = tmp_path / "x.pgm"
    with pytest.raises(SystemExit) as exc:
        cli_main(["heatmap", str(map_file), str(image), "--floor-db", floor])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--floor-db" in err and "Traceback" not in err
    assert not image.exists()


def test_csv_floats_are_plain_numbers(tmp_path):
    result = run_scenario(load_scenario(write_scenario(tmp_path, mini_scenario())),
                          out_dir=tmp_path / "out", log=lambda m: None)
    tables = sorted((tmp_path / "out").glob("detections_*.csv"))
    assert len(tables) == 2
    rows = 0
    for table in tables:
        with open(table, newline="") as f:
            for row in csv.DictReader(f):
                rows += 1
                for column in DETECTION_COLUMNS[1:]:
                    float(row[column])
    assert rows == sum(len(pr.detections) for pr in result.pair_results) > 0
    with open(result.positions_file, newline="") as f:
        for row in csv.DictReader(f):
            for column in ("x_m", "y_m", "residual_rms_m"):
                float(row[column])


def test_seed_override_leaves_callers_scenario_alone(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, mini_scenario()))
    result = run_scenario(scenario, out_dir=tmp_path / "out", seed=77, log=lambda m: None)
    assert scenario.seed == 5150
    assert json.loads(result.manifest_file.read_text())["seed"] == 77


@pytest.mark.parametrize("seed", [2.7, True, "3", -1])
def test_seed_override_follows_the_schema_seed_rule(tmp_path, seed):
    """An override is an int, not a bool, and >= 0, as the document's seed is."""
    scenario = load_scenario(write_scenario(tmp_path, mini_scenario()))
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(scenario, out_dir=tmp_path / "out", seed=seed, log=lambda m: None)
    assert excinfo.value.messages[0].startswith("at $.seed: ")
    assert not (tmp_path / "out").exists()


def test_cli_beyond_narrowband_exits_2_without_traceback(tmp_path, capsys):
    doc = mini_scenario()
    doc["nodes"][3]["velocity_mps"] = [4e5, 0.0]
    path = write_scenario(tmp_path, doc)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert any(
            line.startswith("error: at $.nodes[3]") and "narrowband" in line
            for line in err.splitlines()
        )
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, expected",
    [
        # 2 * (100 + 1) + 1 = 203 cells exceed the 60-carrier delay axis
        ({"cfar": {"train_cells": 100, "guard_cells": 1, "pfa": 1e-4}}, "$.cfar.train_cells"),
        # a 21-cell window over a 21-symbol Doppler axis leaves no room
        ({"cfar": {"train_cells": 8, "guard_cells": 2, "pfa": 1e-4},
          "doppler_window_symbols": 21, "notch_half_width_bins": 0}, "$.cfar.train_cells"),
        # 121 zeroed columns of 140
        ({"notch_half_width_bins": 60}, "$.notch_half_width_bins"),
        # 71 > 140 // 2
        ({"notch_half_width_bins": 35}, "$.notch_half_width_bins"),
        ({"cfar": {"train_cells": 0}}, "$.cfar.train_cells"),
        ({"cfar": {"guard_cells": -1}}, "$.cfar.guard_cells"),
        # random_allocation accepts densities in (0, 1] only
        ({"allocation": {"type": "random", "user": "u0", "density": 1.5, "seed": 3}},
         "$.allocation.density"),
        ({"process_user": "u7"}, "$.process_user"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u1", 1, 0, 20]]},
          "process_user": "u2"}, "$.process_user"),
        # np.random.default_rng takes non-negative seeds only
        ({"seed": -1}, "$.seed"),
        ({"allocation": {"type": "random", "user": "u0", "density": 0.5, "seed": -3}},
         "$.allocation.seed"),
        # 60 carriers hold PRB rows 0..4 and 140 symbols slots 0..19
        ({"allocation": {"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u0", 60, 0, 20]]}},
         "$.allocation.tiles[1]"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", -1, 0, 20]]}},
         "$.allocation.tiles[0]"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", 0, 0, 21]]}},
         "$.allocation.tiles[0]"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", 0, 5, 5]]}},
         "$.allocation.tiles[0]"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u1", 1, 0, 20],
                                                    ["u1", 0, 19, 20]]}},
         "$.allocation.tiles[2]"),
        ({"allocation": {"type": "tiles", "tiles": [["u0", 2, 4, 9], ["u0", 2, 8, 12]]}},
         "$.allocation.tiles[1]"),
        # fewer symbols than one 7-symbol slot leave no tile to allocate
        ({"numerology": {"num_carriers": 60, "symbols_per_frame": 6},
          "doppler_window_symbols": 6, "notch_half_width_bins": 0,
          "cfar": {"train_cells": 1, "guard_cells": 0, "pfa": 1e-2}},
         "$.numerology.symbols_per_frame"),
        # misspelled or extra keys are rejected at every level
        ({"cfar": {"train_cell": 30}}, "$.cfar.train_cell"),
        ({"numerology": mini_numerology(bandwidth_hz=9e5)}, "$.numerology.bandwidth_hz"),
        ({"nodes": mini_nodes(0, height_m=2.0)}, "$.nodes[0].height_m"),
        ({"pairs": [{"tx": "tx", "rx": "rx1", "gain": 1}, {"tx": "tx", "rx": "rx2"}]},
         "$.pairs[0].gain"),
        ({"allocation": {"type": "full", "user": "u0", "density": 0.5}}, "$.allocation.density"),
        ({"allocation": {"type": "random", "user": "u0", "density": 0.5, "sed": 3}},
         "$.allocation.sed"),
        # numbers must be finite
        ({"numerology": mini_numerology(subcarrier_spacing_hz=float("nan"))},
         "$.numerology.subcarrier_spacing_hz"),
        ({"nodes": mini_nodes(1, position_m=[float("nan"), 0.0])}, "$.nodes[1].position_m"),
        ({"snr_db": float("inf")}, "$.snr_db"),
        ({"reference_power_range_m": float("inf")}, "$.reference_power_range_m"),
        # out-of-range finite numbers that overflow the run or its float32 map
        ({"snr_db": -4000}, "$.snr_db"),
        ({"snr_db": -400}, "$.snr_db"),
        ({"reference_power_range_m": 1e200}, "$.reference_power_range_m"),
        # a target 1e-100 m from the illuminator outshines what float32 holds
        ({"nodes": mini_nodes(3, position_m=[0.0, 1e-100])}, "$.pairs[0]"),
        # geometry that breaks the channel model
        ({"nodes": mini_nodes(3, position_m=[4000.0, 3000.0])}, "$.nodes[3]"),
        ({"nodes": mini_nodes(3, velocity_mps=[4e5, 0.0])}, "$.nodes[3]"),
        ({"nodes": mini_nodes(4, position_m=[60.0, 0.0])}, "$.nodes[4]"),
        ({"nodes": mini_nodes(1, position_m=[0.0, 0.0])}, "$.pairs[0]"),
        ({"name": ["x"]}, "$.name"),
        # a valid density whose draw holds no tile leaves nothing to estimate from
        ({"allocation": {"type": "random", "density": 1e-6, "seed": 1}}, "$.allocation.density"),
        # ids and the output directory name files
        ({"nodes": mini_nodes(3, id="bi/ke")}, "$.nodes[3].id"),
        ({"nodes": mini_nodes(3, id="bi\u0000ke")}, "$.nodes[3].id"),
        ({"output_dir": "o\u0000ut"}, "$.output_dir"),
        # a pair whose tx is its rx has zero baseline
        ({"pairs": [{"tx": "rx1", "rx": "rx1"}, {"tx": "tx", "rx": "rx2"}]}, "$.pairs[0]"),
    ],
)
def test_cli_validate_rejects_what_run_would_reject(tmp_path, capsys, overrides, expected):
    path = write_scenario(tmp_path, mini_scenario(**overrides))
    assert cli_main(["validate", str(path)]) == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"nodes": mini_nodes(3, id="bi/ke")}, {"nodes": mini_nodes(3, id="bi\u0000ke")},
     {"output_dir": "o\u0000ut"}],
)
def test_cli_run_rejects_names_that_cannot_be_files(tmp_path, capsys, monkeypatch, overrides):
    path = write_scenario(tmp_path, mini_scenario(**overrides))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_pairs_whose_artifact_names_collide_are_rejected(tmp_path, capsys):
    # tx -> rx_1 and tx_rx -> 1 would both write map_tx_rx_1.bin
    nodes = mini_nodes(1, id="rx_1")
    nodes[2]["id"] = "1"
    nodes.append({"id": "tx_rx", "kind": "illuminator", "position_m": [0.0, -40.0]})
    doc = mini_scenario(nodes=nodes, pairs=[{"tx": "tx", "rx": "rx_1"}, {"tx": "tx_rx", "rx": "1"}])
    path = write_scenario(tmp_path, doc)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at $.pairs[1]: would overwrite map_tx_rx_1.bin")
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    doc["pairs"][1] = {"tx": "tx_rx", "rx": "rx_1"}
    assert cli_main(["validate", str(write_scenario(tmp_path, doc))]) == 0


def test_validate_accepts_largest_window_and_notch_that_run(tmp_path):
    doc = mini_scenario(
        cfar={"train_cells": 27, "guard_cells": 2, "pfa": 1e-4},  # 59-cell window, 60 carriers
        notch_half_width_bins=34,  # 69 of 140 columns
    )
    path = write_scenario(tmp_path, doc)
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_validate_accepts_full_density_and_an_allocated_process_user(tmp_path):
    doc = mini_scenario(
        allocation={"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u1", 1, 0, 20],
                                               ["u1", 2, 0, 20]]},
        process_user="u1",
        localization=False,
    )
    path = write_scenario(tmp_path, doc, name="tiles.json")
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "tiles")]) == 0
    doc = mini_scenario(allocation={"type": "random", "user": "u0", "density": 1.0, "seed": 3},
                        process_user="u0")
    path = write_scenario(tmp_path, doc, name="random.json")
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "random")]) == 0


def test_validate_accepts_edge_tiles_that_touch_without_overlap(tmp_path):
    doc = mini_scenario(
        allocation={"type": "tiles", "tiles": [["u0", 0, 0, 10], ["u0", 0, 10, 20],
                                               ["u1", 4, 19, 20], ["u1", 4, 0, 19]]},
        localization=False,
    )
    path = write_scenario(tmp_path, doc)
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_scenario_allocation_does_not_alias_the_document():
    doc = mini_scenario(allocation={"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u1", 1, 0, 20]]})
    scenario = scenario_from_dict(doc)
    doc["allocation"]["tiles"][0][1] = 3
    doc["allocation"]["tiles"].append(["u2", 2, 0, 20])
    doc["allocation"]["type"] = "full"
    assert scenario.allocation == {"type": "tiles", "tiles": [["u0", 0, 0, 20], ["u1", 1, 0, 20]]}


def test_echo_holds_the_effective_allocation():
    scenario = scenario_from_dict(mini_scenario(allocation={"type": "random", "density": 0.5}))
    assert scenario.to_dict()["allocation"] == {"type": "random", "user": "u0",
                                                "density": 0.5, "seed": 0}
    doc = mini_scenario()
    del doc["allocation"]
    assert scenario_from_dict(doc).to_dict()["allocation"] == {"type": "full", "user": "u0"}


@pytest.mark.parametrize(
    "overrides, reflectivity",
    [
        # the loudest scene the bounds admit: most noise, LoS and path gain
        ({"snr_db": -100.0, "los_excess_db": 100.0, "reference_power_range_m": 1e4}, 10.0),
        # the faintest: no noise to speak of, and paths that underflow to zero
        ({"snr_db": 1e300, "los_excess_db": -100.0, "reference_power_range_m": 5e-324}, 0.0),
    ],
)
def test_most_extreme_accepted_values_write_finite_maps(tmp_path, overrides, reflectivity):
    doc = mini_scenario(**overrides)
    for node in doc["nodes"][3:]:
        node["reflectivity"] = reflectivity
    path = write_scenario(tmp_path, doc)
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    for name in ("map_tx_rx1.bin", "map_tx_rx2.bin"):
        assert np.all(np.isfinite(read_map(tmp_path / "out" / name).power))


def test_cli_run_negative_seed_override_is_a_configuration_error(tmp_path, capsys):
    path = write_scenario(tmp_path, mini_scenario())
    assert cli_main(["run", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "$.seed" in err and "Traceback" not in err
