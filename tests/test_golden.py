"""Golden outputs: the exact bytes the command line writes, and the exact
doubles the distribution layer returns, for small seeded inputs.

The cases are shrunken copies of the benchmark workloads: ``code gen`` for
NF4 (both variants), AF4 at three block sizes and a balanced code;
``quantize --report`` and ``dequantize`` on the two tensor geometries; the
three ``validate`` reports and ``mc sample --out``; every ``dist`` query at
B in {1, 32, 4096}; one ``l1_statistics`` run long enough to span several
Monte Carlo chunks; and the scoring integrals, ``expected_l1`` and
``code_bin_masses``, of NF4 at B = 2^k for k = 1..24 and of AF4 at B in
{32, 64, 4096}; and AF4's values and shooting seeds at B = 2^k for
k = 1..24 and at B in {3, 5, 100, 1000}.  Files and streams are pinned by
sha256, library values by ``float.hex``.

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
# Scoring integrals: the expected L1 error and the bin masses of a code
# ---------------------------------------------------------------------------

SCORES = [("nf4", 1 << k) for k in range(1, 25)] + [("af4", B) for B in (32, 64, 4096)]


@pytest.mark.parametrize("kind, B", SCORES, ids=[f"{k}-{B}" for k, B in SCORES])
def test_scores(kind, B):
    code = codebook.nf4_code() if kind == "nf4" else codebook.af4_code(B)
    got = (codebook.expected_l1(code, B).hex(),
           tuple(float(m).hex() for m in codebook.code_bin_masses(code, B)))
    _check(f"{kind} scores at B={B}", got, GOLDEN_SCORES[kind, B])


# ---------------------------------------------------------------------------
# AF4: every value and both shooting seeds, bit for bit
# ---------------------------------------------------------------------------

AF4_BLOCK_SIZES = [1 << k for k in range(1, 25)] + [3, 5, 100, 1000]


@pytest.mark.parametrize("B", AF4_BLOCK_SIZES)
def test_af4_code(B):
    code = codebook.af4_code(B)
    got = (tuple(float(v).hex() for v in code.values),
           float(code.params["seed_negative"]).hex(),
           float(code.params["seed_positive"]).hex())
    _check(f"af4 code at B={B}", got, GOLDEN_AF4[B])


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

GOLDEN_SCORES = {
    ("nf4", 2): (
        "0x1.35508c1d06f40p-6",
        (
            "0x1.1abb2f7caad59p-2", "0x1.94aa05212e588p-5", "0x1.3142f900306c0p-5",
            "0x1.0e5d74a94ffd0p-5", "0x1.f9ee94c108620p-6", "0x1.e70f6fa7b2050p-6",
            "0x1.dd782ba3afa30p-6", "0x1.bca9512813080p-6", "0x1.a0c0b6ede4780p-6",
            "0x1.a6f1aa93e6820p-6", "0x1.b29b6e0361a20p-6", "0x1.c67a9a9a24340p-6",
            "0x1.e8c21fd0b1820p-6", "0x1.1536d5014b180p-5", "0x1.6ca0624f77c10p-5",
            "0x1.1835fa8d9f00ep-2",
        ),
    ),
    ("nf4", 4): (
        "0x1.b92e85bb48a34p-6",
        (
            "0x1.40af810b6e341p-3", "0x1.11088502a4adep-4", "0x1.c2a8d48bc24e0p-5",
            "0x1.a3cdfa60e35a0p-5", "0x1.95aca3cdc53b0p-5", "0x1.8ea0043fee008p-5",
            "0x1.8b481b8d8b258p-5", "0x1.717f6b51919b0p-5", "0x1.59585b8dc32a0p-5",
            "0x1.5b73a8a43cd00p-5", "0x1.5fa5a1d945d30p-5", "0x1.674fff02e1910p-5",
            "0x1.758dd8cd77a20p-5", "0x1.92d7c871516e0p-5", "0x1.e61db78b87420p-5",
            "0x1.3a583d86c4200p-3",
        ),
    ),
    ("nf4", 8): (
        "0x1.e633c8bcda041p-6",
        (
            "0x1.72e3751b561f6p-4", "0x1.1603299238410p-4", "0x1.fec0a2c18b96cp-5",
            "0x1.f8ab5af4cdcd8p-5", "0x1.fa23793361aa0p-5", "0x1.fd168d2193990p-5",
            "0x1.ff6a39e21d510p-5", "0x1.e013279c40cb0p-5", "0x1.bf49b264cb470p-5",
            "0x1.bda00cff3a1c0p-5", "0x1.bb4733cfa72b0p-5", "0x1.b9176801d4910p-5",
            "0x1.b8f3ec7a5df30p-5", "0x1.c014abdbbe160p-5", "0x1.e79b62c5d46c0p-5",
            "0x1.67118364e2740p-4",
        ),
    ),
    ("nf4", 16): (
        "0x1.eb7429629022ep-6",
        (
            "0x1.b27009ad6ae45p-5", "0x1.f9eb9c14e7179p-5", "0x1.05abe96d07b81p-4",
            "0x1.13d9bc2503ac8p-4", "0x1.2013b94fdd3a0p-4", "0x1.292c2d6500a38p-4",
            "0x1.2ebde8949c374p-4", "0x1.1d7b7becdaf64p-4", "0x1.09165718d17e0p-4",
            "0x1.0552babdbe150p-4", "0x1.fe43b20d20530p-5", "0x1.ed548aa948dc0p-5",
            "0x1.d87cd66733c30p-5", "0x1.c1a4dd3cfdf60p-5", "0x1.b40fd3b849e10p-5",
            "0x1.9f0a90ece9360p-5",
        ),
    ),
    ("nf4", 32): (
        "0x1.e092bfb0b6ce9p-6",
        (
            "0x1.008019e74279ep-5", "0x1.b1b502209c4d4p-5", "0x1.fce5db28ef9eep-5",
            "0x1.1f4b5bb213bb8p-4", "0x1.392022b626ed0p-4", "0x1.4bb91b29b73a4p-4",
            "0x1.56f378de19d10p-4", "0x1.44f1b39190c84p-4", "0x1.2ca904cc0c0b0p-4",
            "0x1.251d4f51e3848p-4", "0x1.18981d17478b0p-4", "0x1.072955e94c218p-4",
            "0x1.e1bb02c943c10p-5", "0x1.ab910e995da20p-5", "0x1.6ec6c16f98a90p-5",
            "0x1.e35e3779703c0p-6",
        ),
    ),
    ("nf4", 64): (
        "0x1.d0c691395f3b2p-6",
        (
            "0x1.307b080ad7c58p-6", "0x1.66a3a15362c8dp-5", "0x1.df556202bea3fp-5",
            "0x1.2296dc85e4b82p-4", "0x1.4b117919d081ap-4", "0x1.6888fed1eef6cp-4",
            "0x1.7a7605321c4ecp-4", "0x1.685cb4cb6aaa0p-4", "0x1.4c3541db70ca0p-4",
            "0x1.402a1172ffd90p-4", "0x1.2c4d8aba98fc0p-4", "0x1.10e7cfc5aefe8p-4",
            "0x1.dc92fd09c5df0p-5", "0x1.8968505e02060p-5", "0x1.292f465b55590p-5",
            "0x1.1adad8cb1bca0p-6",
        ),
    ),
    ("nf4", 128): (
        "0x1.c0f537e18e378p-6",
        (
            "0x1.6abadb67187bcp-7", "0x1.21ab5634633dap-5", "0x1.b9f3f0e07c90dp-5",
            "0x1.2039dfb7c264fp-4", "0x1.57a580aca890ep-4", "0x1.80f6d33f37a18p-4",
            "0x1.9a777f55396f4p-4", "0x1.88d15e720b4ecp-4", "0x1.68c405818ec38p-4",
            "0x1.579b450741ac0p-4", "0x1.3b9e84a708310p-4", "0x1.15b160d2c4018p-4",
            "0x1.ce08bae7ca2e0p-5", "0x1.620f70fa797d0p-5", "0x1.d5e82702848a0p-6",
            "0x1.4c24ff4b30d00p-7",
        ),
    ),
    ("nf4", 256): (
        "0x1.b2f4c92b6122cp-6",
        (
            "0x1.b13aa9509a52fp-8", "0x1.cc752ccd663f8p-6", "0x1.91563fa77b896p-5",
            "0x1.19e7a9e2cb43ep-4", "0x1.6007da0f27654p-4", "0x1.95e0b196d00dap-4",
            "0x1.b7b50c8a98174p-4", "0x1.a6f9298adc784p-4", "0x1.82f8acf504520p-4",
            "0x1.6c28928910bf8p-4", "0x1.477110ae02830p-4", "0x1.16bfff57bafd0p-4",
            "0x1.b97d3154e6d00p-5", "0x1.39a8548e02450p-5", "0x1.6d44aaeee30e0p-6",
            "0x1.86f4194a7e080p-8",
        ),
    ),
    ("nf4", 512): (
        "0x1.a736ae87f0994p-6",
        (
            "0x1.03363969dd389p-8", "0x1.69d87fda14722p-6", "0x1.685b49b01f624p-5",
            "0x1.10d72fabd1707p-4", "0x1.6510a3704e672p-4", "0x1.a7e0904bc26d4p-4",
            "0x1.d2ad2cedf3f38p-4", "0x1.c3442eb3cadf0p-4", "0x1.9b402641d73d0p-4",
            "0x1.7e4fd9f68b7a0p-4", "0x1.506911e2d75b8p-4", "0x1.14f7695421578p-4",
            "0x1.a14a8a03d0410p-5", "0x1.129ea9a1ef6d0p-5", "0x1.1888262e454a0p-6",
            "0x1.ccff386bf6800p-9",
        ),
    ),
    ("nf4", 1024): (
        "0x1.9d9955805d198p-6",
        (
            "0x1.36a6896cfd619p-9", "0x1.1a0bf05a93b74p-6", "0x1.40c52a926e538p-5",
            "0x1.05ec93b7efedcp-4", "0x1.67638ff24fa84p-4", "0x1.b767d956aa3cap-4",
            "0x1.ebb9f1942905cp-4", "0x1.de01587ec6b98p-4", "0x1.b1e7c399d4770p-4",
            "0x1.8e6ce31bbbd98p-4", "0x1.5701e7dc72348p-4", "0x1.11036d54a7640p-4",
            "0x1.871a74a8ed540p-5", "0x1.dc91759fac120p-6", "0x1.ab27e7d1f21c0p-7",
            "0x1.102c547312100p-9",
        ),
    ),
    ("nf4", 2048): (
        "0x1.95ca4809425ddp-6",
        (
            "0x1.74bf2b07ce21dp-10", "0x1.b519392b55082p-7", "0x1.1b99bf41d71fep-5",
            "0x1.f3a34ac1fff46p-5", "0x1.6780d7ef978c3p-4", "0x1.c4cdf56494a12p-4",
            "0x1.018f5699d8d86p-3", "0x1.f76b007d90cb4p-4", "0x1.c729259325a70p-4",
            "0x1.9cc5ce95cd280p-4", "0x1.5b9c26444d258p-4", "0x1.0b68f75215a58p-4",
            "0x1.6c1ae5fc4ace0p-5", "0x1.9a99b480a5f40p-6", "0x1.431f89456f4c0p-7",
            "0x1.41be483262e00p-10",
        ),
    ),
    ("nf4", 4096): (
        "0x1.8f70e024af57fp-6",
        (
            "0x1.bfb3e09e14d83p-11", "0x1.513bc13dce388p-7", "0x1.f2c49e9621e70p-6",
            "0x1.da0b3b74f9e96p-5", "0x1.65cf45838dca7p-4", "0x1.d0588f484563ap-4",
            "0x1.0c87cef4ed102p-3", "0x1.07d6fc25704d8p-3", "0x1.db30e4e298018p-4",
            "0x1.a9921d2d75428p-4", "0x1.5e858b234a5b8p-4", "0x1.04908eb596f58p-4",
            "0x1.5120d1a4120f0p-5", "0x1.5fc63fb854480p-6", "0x1.e68779237e400p-8",
            "0x1.7cb1bd9912800p-11",
        ),
    ),
    ("nf4", 8192): (
        "0x1.8a3e8ec13ff30p-6",
        (
            "0x1.0d17bd43ea162p-11", "0x1.035d219199c85p-7", "0x1.b4acd9b73bd28p-6",
            "0x1.bfcfc434a3945p-5", "0x1.62a29e9fe4abap-4", "0x1.da4099ad280fap-4",
            "0x1.16db3f3e41d58p-3", "0x1.1376dac8818e6p-3", "0x1.ee22899e38460p-4",
            "0x1.b4feed902dfd8p-4", "0x1.5ffdf5905fd50p-4", "0x1.f99a8d43b2a90p-5",
            "0x1.36c0348712150p-5", "0x1.2c00fe9e07800p-6", "0x1.6cfcd924e4a80p-8",
            "0x1.c2cc92980f000p-12",
        ),
    ),
    ("nf4", 16384): (
        "0x1.85f33546658a9p-6",
        (
            "0x1.43b6409d2ce69p-12", "0x1.8e08658436d9ep-8", "0x1.7cf23d6045ae3p-6",
            "0x1.a57f64e11f8f8p-5", "0x1.5e3ffd80f0f1fp-4", "0x1.e2b58bb2d78c4p-4",
            "0x1.209ab3afbd658p-3", "0x1.1ea3779655360p-3", "0x1.000d8513f0f9cp-3",
            "0x1.bf31b272c9368p-4", "0x1.603aaef013cb0p-4", "0x1.e8c32dcbfd880p-5",
            "0x1.1d5d45aafd500p-5", "0x1.fdcc1ae745480p-7", "0x1.1116338c9dd00p-8",
            "0x1.0b1602a196000p-12",
        ),
    ),
    ("nf4", 32768): (
        "0x1.825c96be2b374p-6",
        (
            "0x1.85a999ec61f1fp-13", "0x1.30ea1bac27aa4p-8", "0x1.4b59831d597c1p-6",
            "0x1.8b839e7e4024cp-5", "0x1.58e0e660d1ae4p-4", "0x1.e9df9206888d8p-4",
            "0x1.29d45b3cc5f4ap-3", "0x1.2968aa940360cp-3", "0x1.089938a5b0bd4p-3",
            "0x1.c84a04c914fa0p-4", "0x1.5f68b3cd10d30p-4", "0x1.d705c5d5bdf00p-5",
            "0x1.053903496d4a0p-5", "0x1.afd0fa11c4a00p-7", "0x1.97da4ca546a00p-9",
            "0x1.3caaa0c89e000p-13",
        ),
    ),
    ("nf4", 65536): (
        "0x1.7f5420fbd7e6ap-6",
        (
            "0x1.d54ef74932a9ep-14", "0x1.d29ce88ffde11p-9", "0x1.1f8113631a50dp-6",
            "0x1.72296e4742207p-5", "0x1.52b58cb731330p-4", "0x1.efe11aa4bc11ap-4",
            "0x1.32942fcea60c0p-3", "0x1.33d05f26669dap-3", "0x1.10be8077e5158p-3",
            "0x1.d062ea0839dd8p-4", "0x1.5dae5a9a125d0p-4", "0x1.c4b83d80621a0p-5",
            "0x1.dcf4f9021bcc0p-6", "0x1.6cd3babd0bd40p-7", "0x1.3020155547200p-9",
            "0x1.77a49895bc000p-14",
        ),
    ),
    ("nf4", 131072): (
        "0x1.7cbc759beead3p-6",
        (
            "0x1.1ac152e6dafc2p-14", "0x1.64bdccfa823f8p-9", "0x1.f1e66ccefcec0p-7",
            "0x1.59a7c3f2866b4p-5", "0x1.4be68b48914f2p-4", "0x1.f4d7f56916bf0p-4",
            "0x1.3ae46e68f5f26p-3", "0x1.3de2ff1b4d1aap-3", "0x1.188600ad805ccp-3",
            "0x1.d793c04c29518p-4", "0x1.5b2c8eeb24d08p-4", "0x1.b21face211330p-5",
            "0x1.b26b80a962540p-6", "0x1.3391e4e278340p-7", "0x1.c5161a6d1b200p-10",
            "0x1.bdce136df8000p-15",
        ),
    ),
    ("nf4", 262144): (
        "0x1.7a7f3b828a6c0p-6",
        (
            "0x1.54dd67136b651p-15", "0x1.109863a7c3fafp-9", "0x1.ae644d537d7ffp-7",
            "0x1.42247c03aa518p-5", "0x1.449638da5e292p-4", "0x1.f8de2c3cb350ap-4",
            "0x1.42cdef7578e5ap-3", "0x1.47a7c0e5930c8p-3", "0x1.1ff72ca635494p-3",
            "0x1.ddf0ee0dd9590p-4", "0x1.57ffc272363a0p-4", "0x1.9f7386d80a2f0p-5",
            "0x1.8ae2242a450e0p-6", "0x1.02d50d58978c0p-7", "0x1.5141cf5418800p-10",
            "0x1.08a487eb40000p-15",
        ),
    ),
    ("nf4", 524288): (
        "0x1.788b5d90b05d4p-6",
        (
            "0x1.9b13ec587eb54p-16", "0x1.a0756b78451abp-10", "0x1.737fcb21083c6p-7",
            "0x1.2bb83d7e04fa9p-5", "0x1.3ce1b4cef6566p-4", "0x1.fc0aa8b379abcp-4",
            "0x1.4a586938d5de6p-3", "0x1.5124e234ec5c8p-3", "0x1.27188028b7830p-3",
            "0x1.e38c67e620670p-4", "0x1.5440a90a17078p-4", "0x1.8ce01ade2cd10p-5",
            "0x1.6651a93f30f80p-6", "0x1.b2f96bf3a6900p-8", "0x1.f5d3e84c03400p-11",
            "0x1.3a501e5dc8000p-16",
        ),
    ),
    ("nf4", 1048576): (
        "0x1.76d3b284080b5p-6",
        (
            "0x1.efedd5343c2e1p-17", "0x1.3e11ef74b01fep-10", "0x1.404643affc380p-7",
            "0x1.16717f4037194p-5", "0x1.34e1be20669bcp-4", "0x1.fe71b551facdap-4",
            "0x1.518aa2d8adec5p-3", "0x1.5a5fd4bf0b294p-3", "0x1.2defab39271e0p-3",
            "0x1.e8761857abd70p-4", "0x1.5004cdfa39220p-4", "0x1.7a8896ed5b0c0p-5",
            "0x1.44a4fcf524ec0p-6", "0x1.6d063e8848900p-8", "0x1.753ba74862800p-11",
            "0x1.756d8ab630000p-17",
        ),
    ),
    ("nf4", 2097152): (
        "0x1.754dfc5cb9b8ap-6",
        (
            "0x1.2b3e4b3db3ae8p-17", "0x1.e5d3ea46058ffp-11", "0x1.13d43675bc083p-7",
            "0x1.0256e706bafe4p-5", "0x1.2cab61a16d652p-4", "0x1.0012b20a5efc8p-3",
            "0x1.586a9c32e9340p-3", "0x1.635d61134f728p-3", "0x1.3481b44a1f9b4p-3",
            "0x1.ecbc31a8e1988p-4", "0x1.4b5f0c3023890p-4", "0x1.6888a6bf66a90p-5",
            "0x1.25bda634f38e0p-6", "0x1.31fdc21dad380p-8", "0x1.158a7e4deec00p-11",
            "0x1.bbcaef46c0000p-18",
        ),
    ),
    ("nf4", 4194304): (
        "0x1.73f22bb20d55ep-6",
        (
            "0x1.693b78b447e95p-18", "0x1.730c064a17322p-11", "0x1.dab0a27e8b062p-8",
            "0x1.ded24ea5c7f42p-6", "0x1.245088c6543d6p-4", "0x1.009af071a7654p-3",
            "0x1.5efdad6dbb126p-3", "0x1.6c21c216edb1cp-3", "0x1.3ad3134bb7a88p-3",
            "0x1.f06b6f5a68970p-4", "0x1.465ff04fec4b0p-4", "0x1.56f5c6001c6a0p-5",
            "0x1.09771c4f5e400p-6", "0x1.00450ce40eb80p-8", "0x1.9cbc3f0b4c000p-12",
            "0x1.07c790e4e0000p-18",
        ),
    ),
    ("nf4", 8388608): (
        "0x1.72b9d5c72c8fap-6",
        (
            "0x1.b42de9e8d0b93p-19", "0x1.1b69dc5b4e960p-11", "0x1.9829530597568p-8",
            "0x1.bb48f0b32eeebp-6", "0x1.1be06fbe8f734p-4", "0x1.00d8da56b4121p-3",
            "0x1.6548a049e9ebap-3", "0x1.74b0bafd55468p-3", "0x1.40e7c75b2bd00p-3",
            "0x1.f38f4b2885870p-4", "0x1.41160995020b8p-4", "0x1.45e055820d700p-5",
            "0x1.df5289e0db1c0p-7", "0x1.acebffc0d8200p-9", "0x1.32e4da1598000p-12",
            "0x1.39a55e5ec0000p-19",
        ),
    ),
    ("nf4", 16777216): (
        "0x1.719fcfba96075p-6",
        (
            "0x1.07672616d0f14p-19", "0x1.b1051228ef8e9p-12", "0x1.5ebd89dfc2c0cp-8",
            "0x1.9a0382fb1a310p-6", "0x1.136807f03a278p-4", "0x1.00d2fe525452cp-3",
            "0x1.6b4fc4ad7811cp-3", "0x1.7d0da90b04e3cp-3", "0x1.46c368562d238p-3",
            "0x1.f632286f38340p-4", "0x1.3b8e2d2debf00p-4", "0x1.35547fafbbdb0p-5",
            "0x1.b054990677100p-7", "0x1.66b5dc6c45000p-9", "0x1.c86b223fd0000p-13",
            "0x1.75063e2800000p-20",
        ),
    ),
    ("af4", 32): (
        "0x1.dc0de18278836p-6",
        (
            "0x1.d219edf1ee4d6p-6", "0x1.62bb43a0cbd63p-5", "0x1.db43ce84d6072p-5",
            "0x1.1e8af11d6adbcp-4", "0x1.446bc464df050p-4", "0x1.5f6af7bb41338p-4",
            "0x1.6f997161c17c0p-4", "0x1.5d8c81b680cbcp-4", "0x1.427fa7d449218p-4",
            "0x1.37abe9f34da00p-4", "0x1.259ce34257408p-4", "0x1.0c4afb21f4b40p-4",
            "0x1.d74c25094c980p-5", "0x1.871c01cdb7350p-5", "0x1.27886ef2ee340p-5",
            "0x1.b79a802829ae0p-6",
        ),
    ),
    ("af4", 64): (
        "0x1.d067b086c7eeap-6",
        (
            "0x1.2506cf8113c75p-6", "0x1.50a6a6ef0c8eep-5", "0x1.db3b2a3399506p-5",
            "0x1.24c053ba61145p-4", "0x1.4ee2a5d524b4cp-4", "0x1.6ca53836011d4p-4",
            "0x1.7e61dc9285944p-4", "0x1.6bd6c08a12470p-4", "0x1.4f75de9eee7a8p-4",
            "0x1.439bae9ea2578p-4", "0x1.2fc11d3bedf90p-4", "0x1.13baaf8220188p-4",
            "0x1.de7e71c7bbbf0p-5", "0x1.83a964432a830p-5", "0x1.154aa84a4c7d0p-5",
            "0x1.1017ee1844680p-6",
        ),
    ),
    ("af4", 4096): (
        "0x1.6b1448e40a00cp-6",
        (
            "0x1.03f5622cd157dp-9", "0x1.19c6e0c67a1a9p-5", "0x1.d20741d056853p-5",
            "0x1.2e9bc5e08e41cp-4", "0x1.621bd21ecfb06p-4", "0x1.85bcb47e1b404p-4",
            "0x1.9ab459ea2b300p-4", "0x1.8723ba91037f8p-4", "0x1.6808d330f10b0p-4",
            "0x1.5a17be71cd1c0p-4", "0x1.42840690bbf30p-4", "0x1.20b965415a6c0p-4",
            "0x1.e776cebcfbf00p-5", "0x1.73a7b64ee9cd0p-5", "0x1.bebb71e719280p-6",
            "0x1.c4318d7ee5400p-10",
        ),
    ),
}

GOLDEN_AF4 = {
    2: (
        (
            "-0x1.0000000000000p+0", "-0x1.a89c6fa95a95ap-1", "-0x1.57fbf168159fap-1",
            "-0x1.0cd5d1494e43ep-1", "-0x1.8bef612777ef0p-2", "-0x1.048149853f4eep-2",
            "-0x1.027276a22dc68p-3", "0x0.0p+0", "0x1.c40afdd89d89fp-4",
            "0x1.c6cbbb5fd220cp-3", "0x1.588e04232eeeap-2", "0x1.d1e87f0e63302p-2",
            "0x1.2877d83c6218dp-1", "0x1.6b97d600bfa8bp-1", "0x1.b32584ec890ddp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.a89c6fa95a95ap-1", "0x1.c40afdd89d89fp-4",
    ),
    4: (
        (
            "-0x1.0000000000000p+0", "-0x1.a036260fc0fc2p-1", "-0x1.4c7260dd91062p-1",
            "-0x1.014605764d5e0p-1", "-0x1.7864981579eacp-2", "-0x1.ed31de9181318p-3",
            "-0x1.e826015b995bcp-4", "0x0.0p+0", "0x1.aad1de07e07e2p-4",
            "0x1.ae2f6cc2cb033p-3", "0x1.46f0f967f8f56p-2", "0x1.bc3ba9c1377b2p-2",
            "0x1.1ca52b8bdc2bap-1", "0x1.607b5e95970b6p-1", "0x1.ab740f006533ap-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.a036260fc0fc2p-1", "0x1.aad1de07e07e2p-4",
    ),
    8: (
        (
            "-0x1.0000000000000p+0", "-0x1.9569e56666666p-1", "-0x1.3eba7308f6e5cp-1",
            "-0x1.e87ab62ee1860p-2", "-0x1.6322dfc242b9ap-2", "-0x1.cf9e97d79c270p-3",
            "-0x1.c9f7590af3140p-4", "0x0.0p+0", "0x1.9058b17237238p-4",
            "0x1.941b6c58d8d18p-3", "0x1.33f57eb7b47cep-2", "0x1.a44287574f94cp-2",
            "0x1.0f12041db48f8p-1", "0x1.53092bf3f6706p-1", "0x1.a16fa3d9ae690p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.9569e56666666p-1", "0x1.9058b17237238p-4",
    ),
    16: (
        (
            "-0x1.0000000000000p+0", "-0x1.88a4806a56a56p-1", "-0x1.2fd24cde421fep-1",
            "-0x1.cd8fb2734d5acp-2", "-0x1.4ddce971ac8acp-2", "-0x1.b2925e7f72090p-3",
            "-0x1.ac9e29eb0c614p-4", "0x0.0p+0", "0x1.769c227e07e08p-4",
            "0x1.7a8fee6d76ddap-3", "0x1.211b419156972p-2", "0x1.8beb48e924f66p-2",
            "0x1.00cfbe78a4ac7p-1", "0x1.44283457b17ffp-1", "0x1.956776bc77f6bp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.88a4806a56a56p-1", "0x1.769c227e07e08p-4",
    ),
    32: (
        (
            "-0x1.0000000000000p+0", "-0x1.7a7dc70bd0bd0p-1", "-0x1.20a1e52f2fe66p-1",
            "-0x1.b354b7228e342p-2", "-0x1.39a75f693e548p-2", "-0x1.976030aacfc88p-3",
            "-0x1.9158dc25286dcp-4", "0x0.0p+0", "0x1.5eb263d4ad4aep-4",
            "0x1.62b11d825571dp-3", "0x1.0f4d60b572002p-2", "0x1.74866cf84c9cap-2",
            "0x1.e56cde0b76684p-2", "0x1.34bc5fb115642p-1", "0x1.87d84f9e026dep-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.7a7dc70bd0bd0p-1", "0x1.5eb263d4ad4aep-4",
    ),
    64: (
        (
            "-0x1.0000000000000p+0", "-0x1.6b9859a17a178p-1", "-0x1.11d45f51aa33ep-1",
            "-0x1.9ab0f2c02935ep-2", "-0x1.270aacfa2a21ep-2", "-0x1.7e99d99137f4cp-3",
            "-0x1.78a45a87b9d90p-4", "0x0.0p+0", "0x1.49088913b13b2p-4",
            "0x1.4cf9fb9ba650ep-3", "0x1.fdf4476d30b52p-3", "0x1.5ec90fac3ac3dp-2",
            "0x1.ca9fb893149e1p-2", "0x1.257b6d68d830ep-1", "0x1.795417f827d74p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.6b9859a17a178p-1", "0x1.49088913b13b2p-4",
    ),
    128: (
        (
            "-0x1.0000000000000p+0", "-0x1.5c89b391b91bap-1", "-0x1.03d57192dfb7cp-1",
            "-0x1.841049bb99f22p-2", "-0x1.1634054af96e0p-2", "-0x1.685df6fbd8a3ap-3",
            "-0x1.628f695bc396cp-4", "0x0.0p+0", "0x1.35ab9b999999ap-4",
            "0x1.398212d4853c0p-3", "0x1.e083291f46c7cp-3", "0x1.4afc2913daed0p-2",
            "0x1.b1c96679b835ap-2", "0x1.16e240c849a3fp-1", "0x1.6a6c7baa45723p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.5c89b391b91bap-1", "0x1.35ab9b999999ap-4",
    ),
    256: (
        (
            "-0x1.0000000000000p+0", "-0x1.4dc9b0d4ad4acp-1", "-0x1.edb9c30a1d458p-2",
            "-0x1.6f8f0285fcf6cp-2", "-0x1.071d0649582e8p-2", "-0x1.548f34f4a5d5ep-3",
            "-0x1.4ef220044a31ap-4", "0x0.0p+0", "0x1.2478fb95a95a8p-4",
            "0x1.282dbeef76250p-3", "0x1.c631c8a644f92p-3", "0x1.39279606feeebp-2",
            "0x1.9b2085a7d4e5dp-2", "0x1.0939d4bac6bdcp-1", "0x1.5b9ffc07f461cp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.4dc9b0d4ad4acp-1", "0x1.2478fb95a95a8p-4",
    ),
    512: (
        (
            "-0x1.0000000000000p+0", "-0x1.3fabf25e85e86p-1", "-0x1.d5fb213213498p-2",
            "-0x1.5d1b7f9573926p-2", "-0x1.f34afc7e63ec0p-3", "-0x1.42f548828283ep-3",
            "-0x1.3d8daa49e9d14p-4", "0x0.0p+0", "0x1.1539ef8000000p-4",
            "0x1.18ca91d42c65ep-3", "0x1.aec1119702c6ap-3", "0x1.293016c87159bp-2",
            "0x1.86a3498818b6fp-2", "0x1.f945ad03404ddp-2", "0x1.4d4e4e6fa49d2p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.3fabf25e85e86p-1", "0x1.1539ef8000000p-4",
    ),
    1024: (
        (
            "-0x1.0000000000000p+0", "-0x1.32621d4ad4ad4p-1", "-0x1.c0665f7b1cb78p-2",
            "-0x1.4c8d13d16e04cp-2", "-0x1.db45950db14a8p-3", "-0x1.334f4c847e000p-3",
            "-0x1.2e1d589b493bep-4", "0x0.0p+0", "0x1.07b26f92b52b6p-4",
            "0x1.0b1efdd47d13ap-3", "0x1.99e223a127216p-3", "0x1.1aea41d483169p-2",
            "0x1.7430c4a56c51fp-2", "0x1.e244f11dcf14bp-2", "0x1.3fb60145e8e44p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.32621d4ad4ad4p-1", "0x1.07b26f92b52b6p-4",
    ),
    2048: (
        (
            "-0x1.0000000000000p+0", "-0x1.2602fa95a95aap-1", "-0x1.acd95071e249ep-2",
            "-0x1.3db21e4e98736p-2", "-0x1.c5d0c13ea40e4p-3", "-0x1.255d4ce0d42f6p-3",
            "-0x1.205f286e1e616p-4", "0x0.0p+0", "0x1.f7513a0bd0bd2p-5",
            "0x1.fde4f148526e9p-4", "0x1.8744544192968p-3", "0x1.0e25aa2568defp-2",
            "0x1.6399b22b3ee49p-2", "0x1.cd5ac961ff317p-2", "0x1.32f8e8ded1c74p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.2602fa95a95aap-1", "0x1.f7513a0bd0bd2p-5",
    ),
    4096: (
        (
            "-0x1.0000000000000p+0", "-0x1.1a92a11b91b92p-1", "-0x1.9b262870f0edep-2",
            "-0x1.305803fddc9aep-2", "-0x1.b2983d3e2f330p-3", "-0x1.18e4b49d9b2e8p-3",
            "-0x1.1417815d4cf82p-4", "0x0.0p+0", "0x1.e1d0312b52b53p-5",
            "0x1.e8228dd715a7ap-4", "0x1.769c2704adc71p-3", "0x1.02b2e838f7c94p-2",
            "0x1.54aa9e7cf17d8p-2", "0x1.ba5f68f921e8ep-2", "0x1.272360d564721p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.1a92a11b91b92p-1", "0x1.e1d0312b52b53p-5",
    ),
    8192: (
        (
            "-0x1.0000000000000p+0", "-0x1.10097b91b91b8p-1", "-0x1.8b1bed01c7ca0p-2",
            "-0x1.244f3b992529ap-2", "-0x1.a1504c6f216d4p-3", "-0x1.0db1e8a160980p-3",
            "-0x1.0912607474ccep-4", "0x0.0p+0", "0x1.ce8631cccccd0p-5",
            "0x1.d49bba6f7bda2p-4", "0x1.67a63452e9d41p-3", "0x1.f0ccf904e1a1fp-3",
            "0x1.473179344e966p-2", "0x1.a92437330170ep-2", "0x1.1c3376a039004p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.10097b91b91b8p-1", "0x1.ce8631cccccd0p-5",
    ),
    16384: (
        (
            "-0x1.0000000000000p+0", "-0x1.06597991b91b8p-1", "-0x1.7c8b15fb7838ap-2",
            "-0x1.196d061bddcd2p-2", "-0x1.91b6c0bb131a8p-3", "-0x1.03986bc605260p-3",
            "-0x1.fe46700fd42d0p-5", "0x0.0p+0", "0x1.bd24b56fc0fc2p-5",
            "0x1.c301fb47126a7p-4", "0x1.5a27da930fdeep-3", "0x1.de33c370ae3c4p-3",
            "0x1.3b00432682880p-2", "0x1.9979e173e7350p-2", "0x1.121ea762304a4p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.06597991b91b8p-1", "0x1.bd24b56fc0fc2p-5",
    ),
    32768: (
        (
            "-0x1.0000000000000p+0", "-0x1.fae3144ec4ec4p-2", "-0x1.6f47cc1f3b738p-2",
            "-0x1.0f8be06a676e0p-2", "-0x1.8392a9ef1001ap-3", "-0x1.f4e4a80f92094p-4",
            "-0x1.ec4876ac67af4p-5", "0x0.0p+0", "0x1.ad69173c8dc90p-5",
            "0x1.b3127b0c1f88ep-4", "0x1.4deed66fe4479p-3", "0x1.cd57506f94655p-3",
            "0x1.2fee0e7586672p-2", "0x1.8b33937c9c8fap-2", "0x1.08d5f27d58ad4p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.fae3144ec4ec4p-2", "0x1.ad69173c8dc90p-5",
    ),
    65536: (
        (
            "-0x1.0000000000000p+0", "-0x1.ea7f8be07e07fp-2", "-0x1.632ac5aef3fa7p-2",
            "-0x1.068b51c016dedp-2", "-0x1.76b37157d1820p-3", "-0x1.e43f00c60fca8p-4",
            "-0x1.dbeafc7e5a5ecp-5", "0x0.0p+0", "0x1.9f1b0c799999ap-5",
            "0x1.a494a261654fbp-4", "0x1.42d06357e44dap-3", "0x1.bdfe3659d5940p-3",
            "0x1.25d717d804fc4p-2", "0x1.7e286ffb86bfap-2", "0x1.0048816063fb8p-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.ea7f8be07e07fp-2", "0x1.9f1b0c799999ap-5",
    ),
    131072: (
        (
            "-0x1.0000000000000p+0", "-0x1.db655fd0bd0b9p-2", "-0x1.581161a4d2e7fp-2",
            "-0x1.fc9ee1ec9a5aap-3", "-0x1.6aefc3c9935aap-3", "-0x1.d50982cd918c8p-4",
            "-0x1.ccf81c5175c80p-5", "0x0.0p+0", "0x1.920b17a6e46e6p-5",
            "0x1.97589c9a9c4c3p-4", "0x1.38a839fa8e91ap-3", "0x1.aff76e7f47414p-3",
            "0x1.1c9c70064b5f9p-2", "0x1.7234093414c93p-2", "0x1.f0ca8a51c037bp-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.db655fd0bd0b9p-2", "0x1.920b17a6e46e6p-5",
    ),
    262144: (
        (
            "-0x1.0000000000000p+0", "-0x1.cd73bff81f820p-2", "-0x1.4ddd645b7962ap-2",
            "-0x1.ed80a89a82698p-3", "-0x1.602482548e298p-3", "-0x1.c71628b82bb60p-4",
            "-0x1.bf42508338e88p-5", "0x0.0p+0", "0x1.86111d889d89fp-5",
            "0x1.8b35f6526e12ap-4", "0x1.2f57964df9102p-3", "0x1.a3192f9f6766ep-3",
            "0x1.1423778c81ddbp-2", "0x1.67365124197bdp-2", "0x1.e237c10f6d48bp-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.cd73bff81f820p-2", "0x1.86111d889d89fp-5",
    ),
    524288: (
        (
            "-0x1.0000000000000p+0", "-0x1.c08ca05e85e86p-2", "-0x1.447489ad96606p-2",
            "-0x1.df93024185708p-3", "-0x1.5633c8baf1c5ap-3", "-0x1.ba3de5af7ef58p-4",
            "-0x1.b2a305a5bdb14p-5", "0x0.0p+0", "0x1.7b0b29d50bd0cp-5",
            "0x1.800a671427a86p-4", "0x1.26c456f13a8bep-3", "0x1.973fd8e1a90a2p-3",
            "0x1.0c55501112bacp-2", "0x1.5d1347ba70576p-2", "0x1.d4ba3e15c7450p-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.c08ca05e85e86p-2", "0x1.7b0b29d50bd0cp-5",
    ),
    1048576: (
        (
            "-0x1.0000000000000p+0", "-0x1.b494e703f03f2p-2", "-0x1.3bc00c68dce6ap-2",
            "-0x1.d2b2d26d6a000p-3", "-0x1.4d041738c4e92p-3", "-0x1.ae5f7ef9642d4p-4",
            "-0x1.a6f9734917b08p-5", "0x0.0p+0", "0x1.70dc64f627628p-5",
            "0x1.75b8c97470662p-4", "0x1.1ed83b587fd12p-3", "0x1.8c4cfb9334900p-3",
            "0x1.051e541157e5cp-2", "0x1.53b28eb59b23ap-2", "0x1.c8364d09b4a08p-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.b494e703f03f2p-2", "0x1.70dc64f627628p-5",
    ),
    2097152: (
        (
            "-0x1.0000000000000p+0", "-0x1.a9745bf03f03ep-2", "-0x1.33ac303fdbfb6p-2",
            "-0x1.c6c1ef1af75f0p-3", "-0x1.447f9b78560f4p-3", "-0x1.a35e92c083450p-4",
            "-0x1.9c299fe771914p-5", "0x0.0p+0", "0x1.676c36b313b12p-5",
            "0x1.6c283e967078fp-4", "0x1.1780403abfc3ap-3", "0x1.822687315a088p-3",
            "0x1.fcdb389db3f60p-3", "0x1.4afef858cbbeap-2", "0x1.bc92ff719e04ap-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.a9745bf03f03ep-2", "0x1.676c36b313b12p-5",
    ),
    4194304: (
        (
            "-0x1.0000000000000p+0", "-0x1.9f15799999998p-2", "-0x1.2c27d5b37d648p-2",
            "-0x1.bba65b489ea44p-3", "-0x1.3c9397299f6cap-3", "-0x1.9922c94e6af2cp-4",
            "-0x1.921b907fb2becp-5", "0x0.0p+0", "0x1.5ea58fc372372p-5",
            "0x1.634377cd2525bp-4", "0x1.10ac174a0cac6p-3", "0x1.78b61658b94c6p-3",
            "0x1.f0692a4c5b2cap-3", "0x1.42e61b9ed2285p-2", "0x1.b1ba1140634b9p-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.9f15799999998p-2", "0x1.5ea58fc372372p-5",
    ),
    8388608: (
        (
            "-0x1.0000000000000p+0", "-0x1.95652f9999998p-2", "-0x1.25241afb11476p-2",
            "-0x1.b149a16d74240p-3", "-0x1.352fe21d07de8p-3", "-0x1.8f972e0e9bfd6p-4",
            "-0x1.88baa4ead1928p-5", "0x0.0p+0", "0x1.567653f0dc8dcp-5",
            "0x1.5af8205f93766p-4", "0x1.0a4db65234faap-3", "0x1.6fe858e8bbc9ep-3",
            "0x1.e4cd46b1fa9e8p-3", "0x1.3b57f277e3e4ap-2", "0x1.a797b6cd1da2ap-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.95652f9999998p-2", "0x1.567653f0dc8dcp-5",
    ),
    16777216: (
        (
            "-0x1.0000000000000p+0", "-0x1.8c52a0dc8dc8ep-2", "-0x1.1e9408f0c5c3ep-2",
            "-0x1.a798472b38b18p-3", "-0x1.2e46804442a4ap-3", "-0x1.86a9a221d80f8p-4",
            "-0x1.7ff508f2f8d74p-5", "0x0.0p+0", "0x1.4ecedf288dc90p-5",
            "0x1.5336620bc6e9fp-4", "0x1.0458fa0c91268p-3", "0x1.67ac9758c58c4p-3",
            "0x1.d9f1adfbcb9b2p-3", "0x1.344683b7e6321p-2", "0x1.9e1a6190ba671p-2",
            "0x1.0000000000000p+0",
        ),
        "-0x1.8c52a0dc8dc8ep-2", "0x1.4ecedf288dc90p-5",
    ),
    3: (
        (
            "-0x1.0000000000000p+0", "-0x1.a400e46a56a56p-1", "-0x1.518d5f6d10cc8p-1",
            "-0x1.06508b4925892p-1", "-0x1.80d32013807b6p-2", "-0x1.f91cf8d29e388p-3",
            "-0x1.f46acd68b5e48p-4", "0x0.0p+0", "0x1.b5956742f42f4p-4",
            "0x1.b8b81652e4f00p-3", "0x1.4e850273b7f5ep-2", "0x1.c5a1a4e99ff52p-2",
            "0x1.21d3b3c734a13p-1", "0x1.656bf3290bf5bp-1", "0x1.aeefe91d1acabp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.a400e46a56a56p-1", "0x1.b5956742f42f4p-4",
    ),
    5: (
        (
            "-0x1.0000000000000p+0", "-0x1.9cfb554ad4ad6p-1", "-0x1.4838db733032ap-1",
            "-0x1.fa5e626f1b2d8p-2", "-0x1.71a4fbac7b2b2p-2", "-0x1.e3bca16e2b674p-3",
            "-0x1.de75555c32220p-4", "0x0.0p+0", "0x1.a251cd9999999p-4",
            "0x1.a5d6371dd557ap-3", "0x1.40e59fed68611p-2", "0x1.b4a9ece4e9acfp-2",
            "0x1.1869ba36db2c4p-1", "0x1.5c5e14b1fef52p-1", "0x1.a878ddcae621ap-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.9cfb554ad4ad6p-1", "0x1.a251cd9999999p-4",
    ),
    100: (
        (
            "-0x1.0000000000000p+0", "-0x1.61e2f4a95a95ap-1", "-0x1.08b55a7540cd2p-1",
            "-0x1.8be1357033852p-2", "-0x1.1bfed2e5fdb7ep-2", "-0x1.6fff88f6b8c6ap-3",
            "-0x1.6a21750e7d5bcp-4", "0x0.0p+0", "0x1.3c4f01b13b13cp-4",
            "0x1.403025bfc1e6ep-3", "0x1.eaa16b1601f22p-3", "0x1.51cf02a07b341p-2",
            "0x1.ba6349937d857p-2", "0x1.1bfc6a23126e2p-1", "0x1.6fbe41846a89cp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.61e2f4a95a95ap-1", "0x1.3c4f01b13b13cp-4",
    ),
    1000: (
        (
            "-0x1.0000000000000p+0", "-0x1.32d2b385e85e8p-1", "-0x1.c11a948b47674p-2",
            "-0x1.4d169c7f4881ap-2", "-0x1.dc0ca3d707f98p-3", "-0x1.33d0cf8ed17fap-3",
            "-0x1.2e9d0b5e1b272p-4", "0x0.0p+0", "0x1.082251bb13b12p-4",
            "0x1.0b90178194f0dp-3", "0x1.9a8ef74019c53p-3", "0x1.1b60a200c7714p-2",
            "0x1.74ca351d43b92p-2", "0x1.e305679b3c576p-2", "0x1.402996875763dp-1",
            "0x1.0000000000000p+0",
        ),
        "-0x1.32d2b385e85e8p-1", "0x1.082251bb13b12p-4",
    ),
}
