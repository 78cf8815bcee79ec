"""Byte-level goldens of what ``preprocess`` writes and of the probe features.

The two 224x224 inputs under ``data/golden/`` were written once with
``bench/corpus.py``, whose rasters use only IEEE-exact arithmetic:
``hairy.ppm`` is ``encode_ppm(render_image(1, 0, 12))``, an image with 12
crossing strokes, and ``clean.ppm`` is ``encode_ppm(render_image(1, 1, 0))``,
one with none. ``digests.json`` holds the sha256 of the ``.pre.ppm`` and
``.mask.pgm`` bytes the CLI worker writes for each input under each config,
and of ``extract_features(...).tobytes()`` for the raw and the refined image.

When outputs are meant to change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from lesionprep.cli import _load_image, _preprocess_one
from lesionprep.preprocess import PreprocessConfig
from lesionprep.probe import extract_features
from lesionprep.raster import decode_netpbm

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ("hairy", "clean")
CONFIGS = {
    "default": {},
    "sharpen_amount=0": {"sharpen_amount": 0},
    "interp_margin=0": {"interp_margin": 0},
    "median_window=3": {"median_window": 3},
    "se_length=7": {"se_length": 7},
    "hair_removal_enabled=False": {"hair_removal_enabled": False},
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, fields: dict, out_dir: Path) -> dict:
    """Preprocesses one golden input in ``out_dir`` as the CLI does; returns
    the digests of its two output files, of the refined image's features and
    the masked pixel count."""
    src = GOLDEN / f"{name}.ppm"
    pre, mask = out_dir / f"{name}.pre.ppm", out_dir / f"{name}.mask.pgm"
    _, masked = _preprocess_one((name, str(src), str(pre), str(mask), PreprocessConfig(**fields)))
    return {
        "pre_ppm": sha(pre.read_bytes()),
        "mask_pgm": sha(mask.read_bytes()),
        "refined_features": sha(extract_features(decode_netpbm(pre.read_bytes())).tobytes()),
        "masked_pixels": masked,
    }


def raw_features(name: str) -> str:
    return sha(extract_features(_load_image(GOLDEN / f"{name}.ppm")).tobytes())


@pytest.fixture(scope="module")
def pinned():
    return json.loads((GOLDEN / "digests.json").read_text())


@pytest.mark.parametrize("name", INPUTS)
def test_raw_features(pinned, name):
    assert raw_features(name) == pinned[name]["raw_features"]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", INPUTS)
def test_preprocess_outputs(pinned, tmp_path, name, config):
    assert digests(name, CONFIGS[config], tmp_path) == pinned[name][config]


def test_hairy_default_mask_exercises_labelling(pinned):
    # components must survive the clean step, or the golden would not see
    # the labelling and the dilation at all
    assert pinned["hairy"]["default"]["masked_pixels"] > 0
    assert pinned["hairy"]["hair_removal_enabled=False"]["masked_pixels"] == 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: {"raw_features": raw_features(name)}
            | {config: digests(name, fields, Path(tmp)) for config, fields in CONFIGS.items()}
            for name in INPUTS
        }
    (GOLDEN / "digests.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
