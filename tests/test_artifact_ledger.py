"""Every artifact of the bundled scenarios and a few more scenes against a committed ledger.

``artifact_ledger.json`` holds the SHA-256 of every file a run of each
bundled scenario, of each variant in ``VARIANTS`` and of each document in
``ledger_scenes/`` writes, but the manifest (which records a time), and of
each pair's received frame, plus the numpy version the digests were made
with. Artifact bytes are set by the seed and the numpy version, so the
test runs only under that version. A change that moves artifact bytes on
purpose rewrites the ledger with

    PYTHONPATH=src python tests/test_artifact_ledger.py

and says which entries moved.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ofdmpcl import load_scenario, run_scenario
from ofdmpcl import scenario as scenario_module
from ofdmpcl.scenario import bundled_scenario_path, scenario_from_dict

LEDGER_PATH = Path(__file__).with_name("artifact_ledger.json")
LEDGER = json.loads(LEDGER_PATH.read_text())
BUNDLED = sorted(path.stem for path in bundled_scenario_path("").parent.glob("*.json"))

# The fig4_analog document at 600 carriers, changed in the fields that take
# the chain down the paths the bundled scenarios leave out: noise on a
# partial allocation, no noise, and a spectrum in a strided view.
VARIANTS = {
    "fig4_600_random_hann": {
        "allocation": {"type": "random", "user": "u0", "density": 0.5, "seed": 3},
        "delay_window": "hann", "doppler_window": "hann",
    },
    "fig4_600_noise_free": {"snr_db": None},
    "fig4_600_doppler_window_100": {"doppler_window_symbols": 100},
}
# The first scene of each scene workload of perfbench/workloads.py at
# benchmark seed 1, named after it: fig4_docs(1, 3)[0], sparse_docs(1, 1)[0]
# and uplink_docs(1, 1)[0]. A full-size fig4_analog at another seed, a
# 0.5-density random allocation and a process_user run on banded users.
SCENES = {path.stem: path for path in Path(__file__).with_name("ledger_scenes").glob("*.json")}


def scenario(name: str):
    """The bundled scenario ``name``, or the variant or scene of that name."""
    if name in SCENES:
        return scenario_from_dict(json.loads(SCENES[name].read_text()), name)
    if name not in VARIANTS:
        return load_scenario(name)
    doc = json.loads(bundled_scenario_path("fig4_analog").read_text())
    doc["numerology"]["num_carriers"] = 600
    return scenario_from_dict({**doc, **VARIANTS[name]})


def artifact_digests(name: str, out: Path) -> dict:
    """SHA-256 of every file but the manifest that a run of ``name`` writes to
    ``out``, and of each pair's frame as ``apply_channel`` returns it, its
    complex128 bytes under ``frame_<tx>_<rx>.complex128``. The frames pin
    the float64 channel and noise, which the float32 map can round away."""
    scn = scenario(name)
    pairs = iter(scn.pairs)
    frames = {}
    apply_channel = scenario_module.apply_channel

    def digesting_apply_channel(*args, **kwargs):
        frame = apply_channel(*args, **kwargs)
        pair = next(pairs)
        frames[f"frame_{pair.tx}_{pair.rx}.complex128"] = hashlib.sha256(
            np.ascontiguousarray(frame.symbols)).hexdigest()
        return frame

    scenario_module.apply_channel = digesting_apply_channel
    try:
        run_scenario(scn, out_dir=out, log=lambda msg: None)
    finally:
        scenario_module.apply_channel = apply_channel
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.iterdir()) if path.name != "manifest.json"}
    return {**files, **frames}


@pytest.mark.skipif(np.__version__ != LEDGER["numpy"],
                    reason=f"the ledger holds numpy {LEDGER['numpy']}'s bytes")
@pytest.mark.parametrize("name", sorted(LEDGER["artifacts"]))
def test_bundled_scenario_artifacts_match_the_ledger(name, tmp_path):
    assert artifact_digests(name, tmp_path) == LEDGER["artifacts"][name]


def test_the_ledger_covers_every_bundled_scenario():
    assert sorted(LEDGER["artifacts"]) == sorted(BUNDLED + list(VARIANTS) + list(SCENES))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {name: artifact_digests(name, Path(tmp) / name)
                     for name in BUNDLED + list(VARIANTS) + list(SCENES)}
    LEDGER_PATH.write_text(json.dumps({"numpy": np.__version__, "artifacts": artifacts},
                                      indent=2, sort_keys=True) + "\n")
