"""Golden outputs: the exact bytes the command line writes, and the exact
doubles the distribution layer returns, for small seeded inputs.

The cases are shrunken copies of the benchmark workloads: ``code gen`` for
NF4 (both variants), AF4 at three block sizes and a balanced code;
``quantize --report`` and ``dequantize`` on the two tensor geometries; the
three ``validate`` reports and ``mc sample --out``; every ``dist`` query at
B in {1, 32, 4096}; and one ``l1_statistics`` run long enough to span
several Monte Carlo chunks.  Files and streams are pinned by sha256,
library values by ``float.hex``.

The values were computed with GOLDEN_VERSIONS.  They rest on numpy's
Philox stream, pairwise sums and ``standard_normal``, and on scipy's
``ndtri`` and ``erf``, so another numpy or scipy may move them.  The root
finder is the package's own, a port of scipy's ``brentq`` that gives its
roots bit for bit.
A golden value changes only in a change that names the output that moved,
by how much, and the versions that ran it; a performance change never
re-pins one.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
import scipy

from quantlab import codebook, distributions, montecarlo
from quantlab.blockquant import tensor_write
from quantlab.cli import main

GOLDEN_VERSIONS = "numpy 2.4.6 and scipy 1.17.1"


def _check(what, actual, golden):
    assert actual == golden, (
        f"{what}: got {actual!r}, golden {golden!r}.  The goldens were "
        f"computed with {GOLDEN_VERSIONS}; this run has numpy "
        f"{np.__version__} and scipy {scipy.__version__}."
    )


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _cli(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert err.getvalue() == "" or code != 0, err.getvalue()
    return code, out.getvalue()


def _run(argv, files=()):
    """(exit code, stdout sha256, sha256 of each output file) of one CLI run."""
    code, out = _cli(argv)
    return (code, _sha(out.encode())) + tuple(_sha(f.read_bytes()) for f in files)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

SEED = 5
# B=64 down axis 0 tiles 128 rows exactly; B=4096 along axis 1 leaves a
# 4-element tail block in every row, as in the benchmark tensor.
TENSOR_SHAPE = (128, 4100)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {"tensor": d / "w.fqt", "nf4": d / "nf4.json", "af4": d / "af4-4096.json"}
    rng = np.random.default_rng(SEED)
    tensor_write(rng.standard_normal(TENSOR_SHAPE, dtype=np.float32), paths["tensor"])
    codebook.code_write(codebook.nf4_code(), paths["nf4"])
    codebook.code_write(codebook.af4_code(4096), paths["af4"])
    return paths


def test_inputs(inputs):
    _check("input files", tuple(_sha(inputs[k].read_bytes())
                                for k in ("tensor", "nf4", "af4")), GOLDEN_INPUTS)


# ---------------------------------------------------------------------------
# code gen: stdout and the code16 file
# ---------------------------------------------------------------------------

CODE_GEN = {
    "nf4-quantile-of-average": ["--kind", "nf4", "--variant", "quantile-of-average"],
    "nf4-average-of-quantile": ["--kind", "nf4", "--variant", "average-of-quantile"],
    "af4-32": ["--kind", "af4", "--block-size", 32],
    "af4-64": ["--kind", "af4", "--block-size", 64],
    "af4-4096": ["--kind", "af4", "--block-size", 4096],
    "balanced-endpoints-4096": ["--kind", "balanced-endpoints", "--block-size", 4096],
}


@pytest.mark.parametrize("name", CODE_GEN)
def test_code_gen(name, tmp_path):
    path = tmp_path / "code.json"
    result = _run(["code", "gen", *CODE_GEN[name], "--out", path, "--csv"], [path])
    _check(f"code gen {name}", result, GOLDEN_CODE_GEN[name])


# ---------------------------------------------------------------------------
# quantize --report and dequantize: stdout, FQZ1 and FQT1 bytes
# ---------------------------------------------------------------------------

GEOMETRIES = {"nf4-b64-axis0": ("nf4", 64, 0), "af4-b4096-axis1": ("af4", 4096, 1)}


@pytest.mark.parametrize("name", GEOMETRIES)
def test_quantize_dequantize(name, inputs, tmp_path):
    code, B, axis = GEOMETRIES[name]
    fqz, fqt = tmp_path / "w.fqz", tmp_path / "w.fqt"
    quantized = _run(["quantize", inputs["tensor"], fqz, "--code", inputs[code],
                      "--block-size", B, "--axis", axis, "--report", "--csv"], [fqz])
    restored = _run(["dequantize", fqz, fqt], [fqt])
    _check(f"quantize/dequantize {name}", quantized + restored, GOLDEN_TENSOR[name])


# ---------------------------------------------------------------------------
# validate CSVs and mc sample
# ---------------------------------------------------------------------------

VALIDATE = {
    "cdf": ["cdf", "--block-size", 32, "--n", 4096],
    "usage": ["usage", "--code", "nf4", "--block-size", 64, "--n", 1024],
    "l1": ["l1", "--code", "af4", "--block-size", 4096, "--n", 64],
}


@pytest.mark.parametrize("name", VALIDATE)
def test_validate(name, inputs):
    argv = [inputs.get(a, a) if isinstance(a, str) else a for a in VALIDATE[name]]
    result = _run(["validate", *argv, "--seed", SEED, "--csv"])
    _check(f"validate {name}", result, GOLDEN_VALIDATE[name])


def test_mc_sample(tmp_path):
    path = tmp_path / "sample.fqt"
    result = _run(["mc", "sample", "--block-size", 32, "--n", 256, "--seed", SEED,
                   "--out", path, "--csv"], [path])
    _check("mc sample", result, GOLDEN_MC_SAMPLE)


def test_l1_statistics_over_several_chunks():
    # Its chunk sums round chunk by chunk, so the last bits of a run longer
    # than one chunk rest on montecarlo.CHUNK_ELEMENTS; the validate l1
    # golden above fits in one chunk.
    cfg = montecarlo.McConfig(seed=SEED, block_size=4096, num_blocks=1600)
    assert len(list(montecarlo._ranges(cfg, montecarlo.CHUNK_ELEMENTS))) == 4
    mean, stderr = montecarlo.l1_statistics(cfg, codebook.af4_code(4096))
    _check("l1_statistics over 4 chunks", (mean.hex(), stderr.hex()),
           GOLDEN_L1_CHUNKED)


# ---------------------------------------------------------------------------
# dist: the printed value, and the double behind it
# ---------------------------------------------------------------------------

DIST = [
    ("cdf", "--x", -1.0), ("cdf", "--x", -0.3), ("cdf", "--x", 0.0),
    ("cdf", "--x", 0.7), ("quantile", "--p", 0.1), ("quantile", "--p", 0.5),
    ("quantile", "--p", 0.9), ("approx-cdf", "--x", -0.3),
    ("approx-cdf", "--x", 0.7), ("absmax-median", None, None),
]
LIBRARY = {"cdf": distributions.fx_cdf, "quantile": distributions.fx_quantile,
           "approx-cdf": distributions.fx_cdf_approx}


@pytest.mark.parametrize("B", [1, 32, 4096])
def test_dist(B):
    got = {}
    for query, flag, value in DIST:
        code, out = _cli(["dist", query, "--block-size", B]
                         + ([flag, value] if flag else []))
        if query == "absmax-median":
            exact = distributions.absmax_median(B)
        elif code == 0:
            exact = LIBRARY[query](value, B)
        else:
            exact = None
        key = f"{query} {flag}={value}" if flag else query
        got[key] = (code, out, None if exact is None else float(exact).hex())
    _check(f"dist at B={B}", got, GOLDEN_DIST[B])


# ---------------------------------------------------------------------------
# Golden values, computed with GOLDEN_VERSIONS
# ---------------------------------------------------------------------------

GOLDEN_INPUTS = (
    "cdc8fda4d25e89e6df0c24840f8ead450f3f8c4b267aec8061d67da8d0c02b1d",
    "b22dc7845afb200d7918d1a3ea2e920ed0513c7214e897d7b1757d5ac9d2cab9",
    "eb2598130b46c7723e745010f02f76da7559ae937013ba76131c289b15aaabfb",
)

GOLDEN_CODE_GEN = {
    "nf4-quantile-of-average": (
        0,
        "a65f6196913f23fa5d192cade0a27f5698f73b39ae697ee8652ce3ae3a7d5b2a",
        "b22dc7845afb200d7918d1a3ea2e920ed0513c7214e897d7b1757d5ac9d2cab9",
    ),
    "nf4-average-of-quantile": (
        0,
        "5ff3fbbeba100497492cd2e1a8278b5bc00b7a40ccfa8147922c47d23d4fe6f5",
        "1f5718dd7c7a953f76ceb23b186f2d848dc25f8f1cfefeae2b6113e83721e8ff",
    ),
    "af4-32": (
        0,
        "57c3df2c9cfd1bda297079a5d19b3af706437d87a49dd3ecb90096196ca225d0",
        "f15c305d3a9d5d30d1bff5d5b9d580d0ce0217602e418de3624b5000f4e84b1f",
    ),
    "af4-64": (
        0,
        "48439d4631a875055b872af237fa7e19aaf209516253196a130eae9b6c54bafb",
        "e4612664f9f1a26890162000e2a0f297f626493fe37ff5c0a6f5f938955a45a9",
    ),
    "af4-4096": (
        0,
        "9b5c7bf2b8bce09a061a540a9aa70393dae92af270274b77da8395a1a848c4e3",
        "eb2598130b46c7723e745010f02f76da7559ae937013ba76131c289b15aaabfb",
    ),
    "balanced-endpoints-4096": (
        0,
        "17d709e459d148c959490c610d6499cf05447bbd8e3348415497490ec8eccd75",
        "ceafe1d10c45e2dfcc520268a48c83b81a42a18fe55e3b27be755aed28c13122",
    ),
}

GOLDEN_TENSOR = {
    "nf4-b64-axis0": (
        0,
        "bc7703e962b2a3672821f9722ed36318ee4a5f9430789b105ec446afb6e99456",
        "5b9fc9970dca315084c83421c9970f43a95fbc769a19a00c6e999894e353c2cc",
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6acf52dcd3c3ecd718f20fe1caa3c19e8e42aba4c0c7a56b2c5104b7728d66f6",
    ),
    "af4-b4096-axis1": (
        0,
        "3b588d0dbb6900dbef7e8dbe86266320e301cb54da260a776c8380076a5cb626",
        "79261230fffdddebe8d15ff2d677588a993f038ecd74e90f5909cf6b0e9c199f",
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "12b926e1cb3d4a4d307f0008a62a40f5c82b4ef7bdfc1243d23de05f4f965cb0",
    ),
}

GOLDEN_VALIDATE = {
    "cdf": (
        0,
        "a643594b20ec995cebeab74072ae29b3ae0bcab08d8675d6a88abd01c7708a3a",
    ),
    "usage": (
        0,
        "c26ca86e9282113d62979c52cd5acf6afc6ae75f5aebf938c5bae8575cc6cf73",
    ),
    "l1": (
        0,
        "3015dcbb63b9374a222014d160eaab1eea088c5afae4f4d666b9f8368b91f9ab",
    ),
}

GOLDEN_L1_CHUNKED = ("0x1.6b17f24fd814ap-6", "0x1.334afc5007633p-15")

GOLDEN_MC_SAMPLE = (
    0,
    "43c1f9e2b59ce6ff4d6265fcd7630d886eff613a8fe5f53d38861b0802764712",
    "44f885143e0ed1ae9dcd732cc31e99eeafb99102f93504467ab407fde2e0d67f",
)

GOLDEN_DIST = {
    1: {
        "cdf --x=-1.0": (0, "0.5\n", "0x1.0000000000000p-1"),
        "cdf --x=-0.3": (0, "0.5\n", "0x1.0000000000000p-1"),
        "cdf --x=0.0": (0, "0.5\n", "0x1.0000000000000p-1"),
        "cdf --x=0.7": (0, "0.5\n", "0x1.0000000000000p-1"),
        "quantile --p=0.1": (1, "", None),
        "quantile --p=0.5": (1, "", None),
        "quantile --p=0.9": (1, "", None),
        "approx-cdf --x=-0.3": (0, "0.5\n", "0x1.0000000000000p-1"),
        "approx-cdf --x=0.7": (0, "0.5\n", "0x1.0000000000000p-1"),
        "absmax-median": (0, "0.6744897502\n", "0x1.5956b87528a4ap-1"),
    },
    32: {
        "cdf --x=-1.0": (0, "0.015625\n", "0x1.0000000000000p-6"),
        "cdf --x=-0.3": (0, "0.2437913409\n", "0x1.f348dfe1079f5p-3"),
        "cdf --x=0.0": (0, "0.5\n", "0x1.fffffffffcfbap-2"),
        "cdf --x=0.7": (0, "0.9410352443\n", "0x1.e1cf5f1d003a6p-1"),
        "quantile --p=0.1": (0, "-0.5657490258\n", "-0x1.21a9db37601c8p-1"),
        "quantile --p=0.5": (0, "7.364070948e-13\n", "0x1.9e8f726cd0680p-41"),
        "quantile --p=0.9": (0, "0.5657490258\n", "0x1.21a9db376a400p-1"),
        "approx-cdf --x=-0.3": (0, "0.2476221456\n", "0x1.fb2151ca2e6edp-3"),
        "approx-cdf --x=0.7": (0, "0.941848572\n", "0x1.e239f9dd3987dp-1"),
        "absmax-median": (0, "2.300358147\n", "0x1.267222c130942p+1"),
    },
    4096: {
        "cdf --x=-1.0": (0, "0.0001220703125\n", "0x1.0000000000000p-13"),
        "cdf --x=-0.3": (0, "0.1280020682\n", "0x1.0625f2c6ab0dbp-3"),
        "cdf --x=0.0": (0, "0.5\n", "0x1.fffffffffb9a4p-2"),
        "cdf --x=0.7": (0, "0.9954564129\n", "0x1.fdac7683a1bb4p-1"),
        "quantile --p=0.1": (0, "-0.3388474522\n", "-0x1.5afad39634140p-2"),
        "quantile --p=0.5": (0, "1.00670973e-11\n", "0x1.623459f000000p-37"),
        "quantile --p=0.9": (0, "0.3388474522\n", "0x1.5afad39641771p-2"),
        "approx-cdf --x=-0.3": (0, "0.1296221006\n", "0x1.09774fd8656d9p-3"),
        "approx-cdf --x=0.7": (0, "0.9957277039\n", "0x1.fdd00587d146dp-1"),
        "absmax-median": (0, "3.761036006\n", "0x1.e169a0ba6748bp+1"),
    },
}
