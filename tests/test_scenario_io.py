import csv
import json

import numpy as np
import pytest

from ofdmpcl import ScenarioError, UnreadableMap, load_scenario, read_map, run_scenario
from ofdmpcl.cli import main as cli_main
from ofdmpcl.dsp import ScatteringMap
from ofdmpcl.mapfile import (
    DETECTION_COLUMNS,
    POSITION_COLUMNS,
    render_heatmap,
    write_map,
)
from ofdmpcl.scenario import bundled_scenario_path


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
    for dets in result.detections.values():
        assert dets and dets[0].snr_db > 10.0


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


def test_zero_target_scenario_gives_empty_detections(tmp_path):
    doc = mini_scenario(cfar={"train_cells": 4, "guard_cells": 1, "pfa": 1e-8})
    doc["nodes"] = [n for n in doc["nodes"] if n["kind"] != "target"]
    path = write_scenario(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    for pair in ("tx_rx1", "tx_rx2"):
        lines = (tmp_path / "out" / f"detections_{pair}.csv").read_text().splitlines()
        assert lines == [",".join(DETECTION_COLUMNS)]


def test_runs_are_byte_reproducible(tmp_path):
    path = write_scenario(tmp_path, mini_scenario())
    run_scenario(load_scenario(path), out_dir=tmp_path / "a")
    run_scenario(load_scenario(path), out_dir=tmp_path / "b")
    for name in ("map_tx_rx1.bin", "map_tx_rx2.bin", "detections_tx_rx1.csv",
                 "detections_tx_rx2.csv", "positions.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def test_cli_run_beyond_narrowband_exits_1_without_traceback(tmp_path, capsys):
    doc = mini_scenario()
    doc["nodes"][3]["velocity_mps"] = [4e5, 0.0]
    path = write_scenario(tmp_path, doc)
    assert cli_main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert any(
        line.startswith("error: ") and "narrowband" in line for line in err.splitlines()
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
    ],
)
def test_cli_validate_rejects_what_run_would_reject(tmp_path, capsys, overrides, expected):
    path = write_scenario(tmp_path, mini_scenario(**overrides))
    assert cli_main(["validate", str(path)]) == 2
    assert expected in capsys.readouterr().err


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
