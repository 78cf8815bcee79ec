"""Each subcommand imports only what it runs: split, eval and report run on the
standard library alone, and preprocess, quality and train-probe need numpy but
not scipy, which no module of the package imports. Only eval and report load
`lesionprep.evaluation`; they and quality load `fractions`, for their exact
metrics. No subcommand loads `numpy.random`, which `import numpy` leaves out:
train-probe draws its batches from the package's one generator,
`dataset.Xoshiro256StarStar`. The CLI writes its stderr lines itself, so only
`preprocess --jobs 2` loads `logging`, through `concurrent.futures`.

Every subcommand runs in a fresh interpreter on real inputs and must exit 0,
so an import that fails cannot pass by ending the command early. Each run
also keeps the stderr contract: every line starts with ``INFO ``, ``WARNING ``
or ``ERROR ``, and none holds a numpy repr such as ``np.float64(1.0)``. A
``train-probe`` whose step would overflow runs too, and must exit 2 on its one
``ERROR`` line; so do ``preprocess`` runs with oversized flag values under a
2 GiB address-space cap, which must end in output or in exit 2.

No module of the package reads a private attribute (``x._name``, dunders
excepted) of anything but ``self`` or ``cls``: what one module needs of
another is public. In the CLI, only ``_entry_files`` reads a manifest or
resolves a path, so each entry's input and output paths are made, and two
names are found to be one file, in one place. In the tests,
scipy serves only as a reference: ``scipy`` and ``ndimage`` are used only
inside functions named ``*_oracle``.

Every float reduction and transcendental function that the package calls
through numpy (``.sum``, ``.mean``, ``@``, ``np.add.reduce``, ``np.exp``,
``np.log`` and the like) is on an allow-list with the reason its result
cannot depend on numpy's version or SIMD kernels: integer operands, or an
order fixed by definition. Elementwise arithmetic and ``np.sqrt`` are
correctly rounded by IEEE 754 and need no entry.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lesionprep
from lesionprep.cli import main
from lesionprep.raster import Image, encode_netpbm
from test_cli import write_image, write_log
from test_preprocess import hairy_scene

SRC = Path(lesionprep.__file__).parents[1]

# argv[1] is the result file, the rest goes to the CLI
GUARD = """
import json, sys
from lesionprep.cli import main
code = main(sys.argv[2:])
loaded = [name for name in ("numpy", "numpy.random", "scipy", "lesionprep.evaluation", "fractions", "logging")
          if name in sys.modules]
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "loaded": loaded}, f)
"""


def run_fresh(tmp_path, *argv, address_space=None):
    """Runs ``lesionprep.cli.main(argv)`` in a new interpreter and checks that
    its stderr keeps the contract; returns its exit code, which of numpy,
    numpy.random, scipy, lesionprep.evaluation, fractions and logging it left
    in ``sys.modules``, and its stderr. Given ``address_space``, the child
    first caps its own address space at that many bytes."""
    result = tmp_path / "guard.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cap = "" if address_space is None else (
        f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n")
    err = subprocess.run(
        [sys.executable, "-c", cap + GUARD, str(result), *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, check=True, timeout=120,
        capture_output=True, text=True,
    ).stderr
    assert stderr_faults(err) == []
    payload = json.loads(result.read_text())
    return payload["code"], payload["loaded"], err


def stderr_faults(err: str) -> list[str]:
    """The lines of ``err`` that start with no ``INFO``, ``WARNING`` or
    ``ERROR`` level, or that hold a numpy repr."""
    return [line for line in err.splitlines()
            if not line.startswith(("INFO ", "WARNING ", "ERROR ")) or "np." in line]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small dataset with its manifest, preprocessed images, a prediction
    log and its eval report, all made in this process."""
    d = tmp_path_factory.mktemp("imports")
    data = d / "data"
    for i in range(4):
        write_image(data / "train" / "benign" / f"b{i}.ppm", seed=i, bright=True)
        write_image(data / "train" / "malignant" / f"m{i}.ppm", seed=100 + i, bright=False)
    write_image(data / "test" / "benign" / "t0.ppm", seed=200, bright=True)
    write_log(d / "log.csv", tp=5, fp=2, fn=1, tn=7)
    for argv in (
        ["split", "--root", data, "--seed", 3, "--out", d / "manifest.csv"],
        ["preprocess", "--manifest", d / "manifest.csv", "--images-root", data, "--out-root", d / "pre"],
        ["eval", "--log", d / "log.csv", "--out", d / "report.json"],
    ):
        assert main([str(a) for a in argv]) == 0
    return d


def commands(d, tmp_path):
    return {
        "split": ["split", "--root", d / "data", "--seed", 3, "--out", tmp_path / "m.csv"],
        "eval": ["eval", "--log", d / "log.csv", "--out", tmp_path / "r.json", "--paper-rounding"],
        "report": ["report", d / "report.json"],
        "quality": ["quality", "--manifest", d / "manifest.csv", "--images-root", d / "data",
                    "--pre-root", d / "pre", "--out", tmp_path / "q.csv"],
        "preprocess": ["preprocess", "--manifest", d / "manifest.csv", "--images-root", d / "data",
                       "--out-root", tmp_path / "pre"],
        "train-probe": ["train-probe", "--manifest", d / "manifest.csv", "--images-root", d / "data",
                        "--seed", 1, "--iterations", 20, "--model-out", tmp_path / "model.txt",
                        "--curve-out", tmp_path / "curve.csv"],
    }


def test_stderr_guard_sees_every_fault():
    err = ("INFO ok\nWARNING ok\nERROR ok\nINFO final point: CurvePoint(train_accuracy=np.float64(1.0))\n"
           "/src/probe.py:224: RuntimeWarning: overflow encountered in multiply\n  theta -= step\nINFOx\n")
    assert stderr_faults(err) == err.splitlines()[3:]


@pytest.mark.parametrize("command", ["split", "eval", "report"])
def test_stdlib_only_subcommands_import_no_numpy(inputs, tmp_path, command):
    evaluation = ["lesionprep.evaluation", "fractions"] if command != "split" else []
    assert run_fresh(tmp_path, *commands(inputs, tmp_path)[command])[:2] == (0, evaluation)


@pytest.mark.parametrize("command", ["quality", "train-probe"])
def test_numpy_subcommands_import_no_scipy(inputs, tmp_path, command):
    exact = ["fractions"] if command == "quality" else []  # quality's exact MSE and L2RAT
    assert run_fresh(tmp_path, *commands(inputs, tmp_path)[command])[:2] == (0, ["numpy"] + exact)


def test_overflowing_learning_rate_ends_in_one_error_line(inputs, tmp_path):
    # the step 2 * 1e308 would be inf; it is refused before any image is read
    argv = commands(inputs, tmp_path)["train-probe"] + ["--learning-rate", "1e308"]
    code, _, err = run_fresh(tmp_path, *argv)
    assert (code, err.splitlines()) == (2, ["ERROR 2 * learning_rate must be finite, got 1e+308"])


@pytest.fixture(scope="module")
def hairy_crop(tmp_path_factory):
    """A manifest of one 32x32 crop of a hairy scene, 811 pixels of it masked
    at the default config."""
    d = tmp_path_factory.mktemp("crop")
    (d / "h.ppm").write_bytes(encode_netpbm(Image(hairy_scene(0)[0].pixels[96:128, 96:128].copy())))
    (d / "m.csv").write_text("path,label,split\nh.ppm,benign,train\n")
    return d


@pytest.mark.parametrize("flag, value, code", [
    # windows, SE lines and walks that cover the image act as the covering value
    ("--se-length", "20001", 0),
    ("--se-length", "100000000000000000001", 0),
    ("--median-window", "2001", 0),
    ("--median-window", "100000000000000000001", 0),
    ("--interp-margin", "100000000000000000000", 0),
    ("--sharpen-amount", "1e308", 0),
    # 2 * sigma**2 underflows to 0; a blur radius of 3000 px, beyond 224 px
    ("--sharpen-sigma", "1e-300", 2),
    ("--sharpen-sigma", "1000", 2),
])
def test_oversized_preprocess_flag_ends_in_output_or_exit_2(hairy_crop, tmp_path, flag, value, code):
    argv = ["preprocess", "--manifest", hairy_crop / "m.csv", "--images-root", hairy_crop,
            "--out-root", tmp_path / "pre", flag, value]
    assert run_fresh(tmp_path, *argv, address_space=2 << 30)[0] == code


@pytest.mark.parametrize("jobs", [1, 2])
def test_preprocess_imports_no_scipy(inputs, tmp_path, jobs):
    argv = commands(inputs, tmp_path)["preprocess"] + ["--jobs", jobs]
    # the process pool's concurrent.futures imports logging itself
    assert run_fresh(tmp_path, *argv)[:2] == (0, ["numpy"] + ["logging"] * (jobs > 1))


def private_reads(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each ``x._name`` in ``source``, dunders excepted,
    whose ``x`` is not ``self`` or ``cls``."""
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )


def test_no_module_reads_a_private_attribute_of_another_object():
    found = {path.name: private_reads(path.read_text()) for path in sorted((SRC / "lesionprep").glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_read_guard_sees_every_foreign_object():
    source = ("def f(self, cls, other):\n"
              "    return self._a, cls._b, other._c, other.__dict__, other.__d, mod.x._e, g()._f\n")
    assert private_reads(source) == [(2, "__d"), (2, "_c"), (2, "_e"), (2, "_f")]


def functions_referencing(source: str, name: str) -> list[str]:
    """For each reference to the attribute or name ``name`` in ``source``, the
    name of the innermost function around it, or "<module>"."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == name
              or isinstance(node, ast.Name) and node.id == name):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("name, references", [("read_manifest", 1), ("realpath", 2)])
def test_only_entry_files_reads_a_manifest(name, references):
    source = (SRC / "lesionprep" / "cli.py").read_text()
    assert functions_referencing(source, name) == ["_entry_files"] * references


def test_manifest_guard_sees_every_reference():
    source = ("from x import read_manifest\nr = dataset.read_manifest\n"
              "def f():\n    def g():\n        return read_manifest(m)\n    return mod.dataset.read_manifest\n")
    assert functions_referencing(source, "read_manifest") == ["<module>", "g", "f"]


def test_scipy_is_used_only_in_oracles():
    found = {path.name: [f for name in ("scipy", "ndimage") for f in functions_referencing(path.read_text(), name)
                         if not f.endswith("_oracle")] for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {}


def test_scipy_guard_sees_every_reference():
    # an import only binds the name; each use of it is a reference
    source = ("from scipy import ndimage\nimport scipy\nk = scipy.ndimage\n"
              "def blur_oracle(a):\n    def pad(b):\n        return ndimage.sobel(b)\n    return ndimage.sobel(a)\n"
              "def footprint(a):\n    return scipy.ndimage.binary_dilation(a)\n")
    assert [functions_referencing(source, name) for name in ("scipy", "ndimage")] == [
        ["<module>", "footprint"], ["<module>", "pad", "blur_oracle", "footprint"]]


# methods that reduce an array, on any object but the math module
REDUCING_METHODS = {"sum", "mean", "prod", "std", "var", "dot", "cumsum", "cumprod", "trace"}
# np.<name>: the reductions, and the functions that IEEE 754 leaves to the library
NUMPY_FLOAT_CALLS = REDUCING_METHODS | {
    "average", "median", "percentile", "quantile", "nansum", "nanmean", "bincount", "matmul", "vdot",
    "inner", "einsum", "tensordot", "convolve", "correlate", "interp", "trapezoid", "polyval",
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "power", "float_power", "hypot",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
}
# np.<ufunc>.<method>, and every function of np.linalg and np.fft
UFUNC_METHODS = {"reduce", "accumulate", "reduceat", "outer"}
INTEGERS = "integer operands"
ORDERED = "ordered by definition: np.cumsum adds in index order"
# (module, expression): why its result is fixed
NUMPY_FLOAT_OPS_ALLOWED = {
    ("preprocess.py", "self.bits.sum()"): INTEGERS,
    ("preprocess.py", "np.bincount(root, minlength=len(root))"): INTEGERS,
    ("preprocess.py", "np.cumsum(starts)"): INTEGERS,
    ("probe.py", "np.bincount(block[c, inner].ravel(), minlength=256)"): INTEGERS,
    ("probe.py", "np.cumsum(run, out=run)"): ORDERED,
    ("probe.py", "counts @ _LEVELS"): INTEGERS,
    ("probe.py", "counts @ (_LEVELS * _LEVELS)"): INTEGERS,
    ("probe.py", "counts.reshape(3, 16, 16).sum(axis=2)"): INTEGERS,
    ("probe.py", "np.cumsum(columns * theta[:, None], axis=0)"): ORDERED,
    ("probe.py", "np.cumsum(columns * delta, axis=1)"): ORDERED,
    ("quality.py", "np.square(v, dtype=np.uint16).sum(dtype=np.uint64)"): INTEGERS,
}


def numpy_float_ops(source: str) -> list[str]:
    """Each float reduction or transcendental call that ``source`` may make
    through numpy, unparsed, in source order: an ``@``, a call of
    ``np.<name>`` in NUMPY_FLOAT_CALLS, of ``np.<ufunc>.<method>`` in
    UFUNC_METHODS or of np.linalg or np.fft, and a method call in
    REDUCING_METHODS on anything but ``np`` or ``math``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy", "math"):
                hit = owner.id != "math" and name in NUMPY_FLOAT_CALLS
            elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                    and owner.value.id in ("np", "numpy"):
                hit = name in UFUNC_METHODS or owner.attr in ("linalg", "fft")
            else:
                hit = name in REDUCING_METHODS
            if hit:
                found.append(node)
    return [ast.unparse(node) for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_every_numpy_float_op_is_allowed_for_a_reason():
    found = [(path.name, op) for path in sorted((SRC / "lesionprep").glob("*.py"))
             for op in numpy_float_ops(path.read_text())]
    assert found == list(NUMPY_FLOAT_OPS_ALLOWED)
    assert all(NUMPY_FLOAT_OPS_ALLOWED.values())


def test_numpy_float_op_guard_sees_every_form():
    source = ("import math\nimport numpy as np\n"
              "def f(a, b, k):\n"
              "    x = a @ b + k.sum() / a.mean(axis=0) + k.reshape(2, 2).cumsum()[-1]\n"
              "    y = np.add.reduce(a) + np.exp(a) + np.log(b) + np.linalg.norm(a) + np.dot(a, b)\n"
              "    return x + y + np.sqrt(a) + np.add(a, b) + math.prod(k.shape) + math.fsum(k) + a.max()\n")
    assert numpy_float_ops(source) == [
        "a @ b", "k.sum()", "a.mean(axis=0)", "k.reshape(2, 2).cumsum()",
        "np.add.reduce(a)", "np.exp(a)", "np.log(b)", "np.linalg.norm(a)", "np.dot(a, b)"]
