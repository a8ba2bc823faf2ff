"""sha256 pins of outputs that come out the same on every machine.

The label grid, the true depths, the binary projection of the true
depths and the calibration split are built from integer operations and
correctly rounded float arithmetic only, so their bytes do not depend on
the platform's libm.  Outputs that pass through log, exp or cos (softmax,
depth estimates, the probabilistic grid) are pinned instead by the
in-test oracles of ``test_rng.py``, ``test_synth.py`` and
``test_projection.py``.
"""

import hashlib

from sscuq.cli import main
from sscuq.pipeline import split_mask

LABELS_SHA256 = "5b70e373074853a1a2e3f534a35dffa7d3c2c532b582be118b5967e1d0603beb"
DEPTH_GT_SHA256 = "d7d9249d2ed361e696173936031b00c9f1cdb1725ba8bd808777bf34539bd6d3"
BINARY_GT_SHA256 = "85800ca27b42f68a50d099bb8468fd5047ec2a4e09e86271cf8af119515e19f5"
SPLIT_SHA256 = "23fa2b1bb5ed749b138d7c02f85db21630b93e7621a9afa022ca567b2351c2a2"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_simulate_labels_and_true_depth_bytes(tmp_path, capsys):
    assert main(["simulate", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "labels.sscg").read_bytes()) == LABELS_SHA256
    assert _sha256((tmp_path / "depth_gt.sscg").read_bytes()) == DEPTH_GT_SHA256


def test_default_binary_projection_of_true_depth_bytes(tmp_path, capsys):
    # seed 1: points on upper faces, which first-hit truth moves
    assert main(["simulate", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    argv = ["project", "--binary", "--depth", str(tmp_path / "depth_gt.sscg")]
    assert main([*argv, "--out", str(tmp_path / "binary.sscg")]) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "binary.sscg").read_bytes()) == BINARY_GT_SHA256


def test_split_mask_bytes():
    assert _sha256(split_mask(65536, 0.3, 0).tobytes()) == SPLIT_SHA256
