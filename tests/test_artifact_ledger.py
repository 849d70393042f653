"""Every artifact of the bundled scenarios against a committed ledger.

``artifact_ledger.json`` holds the SHA-256 of every file a run of each
bundled scenario writes, but the manifest (which records a time), and the
numpy version the digests were made with. Artifact bytes are set by the
seed and the numpy version, so the test runs only under that version. A
change that moves artifact bytes on purpose rewrites the ledger with

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
from ofdmpcl.scenario import bundled_scenario_path

LEDGER_PATH = Path(__file__).with_name("artifact_ledger.json")
LEDGER = json.loads(LEDGER_PATH.read_text())
BUNDLED = sorted(path.stem for path in bundled_scenario_path("").parent.glob("*.json"))


def artifact_digests(name: str, out: Path) -> dict:
    """SHA-256 of every file but the manifest that a run of ``name`` writes to ``out``."""
    run_scenario(load_scenario(name), out_dir=out, log=lambda msg: None)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != "manifest.json"}


@pytest.mark.skipif(np.__version__ != LEDGER["numpy"],
                    reason=f"the ledger holds numpy {LEDGER['numpy']}'s bytes")
@pytest.mark.parametrize("name", sorted(LEDGER["artifacts"]))
def test_bundled_scenario_artifacts_match_the_ledger(name, tmp_path):
    assert artifact_digests(name, tmp_path) == LEDGER["artifacts"][name]


def test_the_ledger_covers_every_bundled_scenario():
    assert sorted(LEDGER["artifacts"]) == BUNDLED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {name: artifact_digests(name, Path(tmp) / name) for name in BUNDLED}
    LEDGER_PATH.write_text(json.dumps({"numpy": np.__version__, "artifacts": artifacts},
                                      indent=2, sort_keys=True) + "\n")
