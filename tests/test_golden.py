"""Byte-level goldens of what ``preprocess`` writes, of the probe features and
of a probe trained on them.

The two 224x224 inputs under ``data/golden/`` were written once with
``bench/corpus.py``, whose rasters use only IEEE-exact arithmetic:
``hairy.ppm`` is ``encode_ppm(render_image(1, 0, 12))``, an image with 12
crossing strokes, and ``clean.ppm`` is ``encode_ppm(render_image(1, 1, 0))``,
one with none. ``digests.json`` holds the sha256 of the ``.pre.ppm`` and
``.mask.pgm`` bytes the CLI worker writes for each input under each config,
and of ``extract_features(...).tobytes()`` for the raw and the refined image.
Under ``probe`` it holds the sha256 of ``format_model`` and ``format_curve``
of a probe trained on those features with ``TRAIN_CONFIG``, and under
``gaussian_taps`` that of the sharpen's Gaussian taps for each sigma in
``TAP_SIGMAS``. Under ``quality`` it holds, for each config, the sha256 of
``format_quality_report`` over the (raw, refined) pair of each input.

The same table must come out when numpy's AVX-512 kernels are switched off,
under two other OpenBLAS kernel sets, and with glibc's AVX2 and FMA variants
of libm's ``exp`` and ``log`` switched off; each setting runs in a fresh
interpreter. Whether glibc's ``exp`` and ``log`` differ between its versions
is out of scope.

When outputs are meant to change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lesionprep
from lesionprep.cli import _load_image, _preprocess_one
from lesionprep.dataset import ManifestEntry
from lesionprep.preprocess import PreprocessConfig, _gaussian_kernel
from lesionprep.probe import TrainConfig, extract_features, format_curve, format_model, train_probe
from lesionprep.quality import format_quality_report, quality_row
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
# trained on the refined features, hairy as malignant, and scored on the raw
# ones; 12 rows in batches of 5, so windows of the seeded permutation wrap
TRAIN_CONFIG = TrainConfig(seed=1, batch_size=5, iterations=300, eval_interval=25)
# 0.30, 0.31, ..., 3.00; each tap is a math.exp divided by the taps' math.fsum,
# so no numpy kernel enters them
TAP_SIGMAS = [i / 100 for i in range(30, 301)]
# (variable, value): numpy's AVX-512 kernels off, two OpenBLAS kernel sets, and
# glibc's AVX2 and FMA variants off, libm's exp and log among them
SETTINGS = [("NPY_DISABLE_CPU_FEATURES", "X86_V4"), ("OPENBLAS_CORETYPE", "Haswell"),
            ("OPENBLAS_CORETYPE", "Prescott"), ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA")]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def refine(name: str, fields: dict, out_dir: Path):
    """Preprocesses one golden input in ``out_dir`` as the CLI does; returns
    the digests of its two output files, the masked pixel count and the
    refined image."""
    src = GOLDEN / f"{name}.ppm"
    pre, mask = out_dir / f"{name}.pre.ppm", out_dir / f"{name}.mask.pgm"
    row = (ManifestEntry(name, "benign", "train"), src, pre, mask)
    _, masked = _preprocess_one(PreprocessConfig(**fields), row)
    digests = {"pre_ppm": sha(pre.read_bytes()), "mask_pgm": sha(mask.read_bytes()), "masked_pixels": masked}
    return digests, decode_netpbm(pre.read_bytes())


def table() -> dict:
    """Every digest that ``digests.json`` pins, computed afresh."""
    out, rows, labels, raws = {}, [], [], []
    pairs = {config: [] for config in CONFIGS}
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            raw = _load_image(GOLDEN / f"{name}.ppm")
            raws.append(extract_features(raw))
            out[name] = {"raw_features": sha(raws[-1].tobytes())}
            for config, fields in CONFIGS.items():
                digests, refined = refine(name, fields, Path(tmp))
                features = extract_features(refined)
                out[name][config] = digests | {"refined_features": sha(features.tobytes())}
                rows.append(features)
                labels.append(int(name == "hairy"))
                pairs[config].append((name, raw, refined))
    model, curve = train_probe(np.array(rows), np.array(labels), np.array(raws), np.array([1, 0]), TRAIN_CONFIG)
    out["probe"] = {"model": sha(format_model(model).encode()), "curve": sha(format_curve(curve).encode())}
    out["quality"] = {config: sha(format_quality_report([quality_row(*pair) for pair in p]).encode())
                      for config, p in pairs.items()}
    out["gaussian_taps"] = sha(b"".join(_gaussian_kernel(sigma).tobytes() for sigma in TAP_SIGMAS))
    return out


def openblas_function(name: str, restype):
    """numpy's OpenBLAS function ``openblas_<name>``, under the prefix and
    suffix of its build, or None where it cannot be read: the library is found
    among this process's mappings."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]}):
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}"):
            function = getattr(ctypes.CDLL(lib), symbol, None)
            if function is not None:
                function.argtypes, function.restype = [], restype
                return function
    return None


def openblas_core():
    """The kernel set that numpy's OpenBLAS runs, or None where it cannot be read."""
    corename = openblas_function("get_corename", ctypes.c_char_p)
    return None if corename is None else corename().decode()


def numpy_has(feature: str) -> bool:
    """Whether numpy dispatches to ``feature``'s kernels in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get(feature))


def libm_exp() -> str:
    """The sha256 of libm's ``exp``, through ``math.exp``, at 2^16 points
    spread over [-40, 40]; glibc's FMA and SSE2 variants differ on some."""
    return sha(np.array([math.exp(-40 + 80 * i / 2**16) for i in range(2**16)]).tobytes())


@pytest.fixture(scope="module")
def pinned():
    return json.loads((GOLDEN / "digests.json").read_text())


@pytest.fixture(scope="module")
def computed():
    return table()


def test_raw_features(pinned, computed):
    assert {name: computed[name]["raw_features"] for name in INPUTS} == \
        {name: pinned[name]["raw_features"] for name in INPUTS}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", INPUTS)
def test_preprocess_outputs(pinned, computed, name, config):
    assert computed[name][config] == pinned[name][config]


def test_trained_probe(pinned, computed):
    assert computed["probe"] == pinned["probe"]


def test_gaussian_taps(pinned, computed):
    assert computed["gaussian_taps"] == pinned["gaussian_taps"]


@pytest.mark.parametrize("config", CONFIGS)
def test_quality_table(pinned, computed, config):
    assert computed["quality"][config] == pinned["quality"][config]


def test_hairy_default_mask_exercises_labelling(pinned):
    # components must survive the clean step, or the golden would not see
    # the labelling and the dilation at all
    assert pinned["hairy"]["default"]["masked_pixels"] > 0
    assert pinned["hairy"]["hair_removal_enabled=False"]["masked_pixels"] == 0


@pytest.fixture(scope="module")
def elsewhere(tmp_path_factory):
    """The table and the CPU dispatch that a fresh interpreter reports under
    each of SETTINGS, the interpreters run side by side."""
    tmp = tmp_path_factory.mktemp("settings")
    path = os.pathsep.join(filter(None, [str(Path(lesionprep.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    runs = {}
    for var, value in SETTINGS:
        out = tmp / f"{var}={value}.json"
        env = dict(os.environ, PYTHONPATH=path, **{var: value})
        runs[var, value] = out, subprocess.Popen([sys.executable, __file__, "--to", str(out)], env=env)
    assert [proc.wait(timeout=300) for _, proc in runs.values()] == [0] * len(runs)
    return {key: json.loads(out.read_text()) for key, (out, _) in runs.items()}


@pytest.mark.parametrize("var, value", SETTINGS, ids=[f"{var}={value}" for var, value in SETTINGS])
def test_digests_hold_under_other_cpu_kernels(pinned, elsewhere, var, value):
    run = elsewhere[var, value]
    if var == "NPY_DISABLE_CPU_FEATURES":
        if not numpy_has(value):
            pytest.skip(f"this CPU has no {value} kernels for numpy to switch off")
        assert run["numpy_" + value] is False
    elif var == "GLIBC_TUNABLES":
        if run["libm_exp"] == libm_exp():
            pytest.skip(f"{var}={value} leaves libm's exp as it was (a libc other than glibc, "
                        "or a CPU on which glibc already runs its SSE2 variants)")
    elif run["openblas"] is None or run["openblas"] == openblas_core():
        pytest.skip(f"{var}={value} leaves numpy's OpenBLAS on its {run['openblas']} kernels "
                    "(a build without DYNAMIC_ARCH, or this CPU's own kernel set)")
    assert run["table"] == pinned


if __name__ == "__main__":
    if sys.argv[1:2] == ["--to"]:  # what test_digests_hold_under_other_cpu_kernels reads
        report = {"table": table(), "openblas": openblas_core(), "numpy_X86_V4": numpy_has("X86_V4"),
                  "libm_exp": libm_exp()}
        Path(sys.argv[2]).write_text(json.dumps(report))
    else:
        (GOLDEN / "digests.json").write_text(json.dumps(table(), indent=2, sort_keys=True) + "\n")
