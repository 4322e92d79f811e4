"""One rule for numeric arguments, over every public function that takes one.

An argument that is one number goes through ``errors._check_real``: a Python
or numpy bool, integer or float, a 0-d real array, or a number object such
as Fraction.  An array argument goes through ``errors._real``: bool, integer
or float dtype.  Anything else -- a string, bytes, a complex number, None,
ragged nesting, an object array, a 0-d string array -- raises DomainError,
without a warning on the way.

Every valid value gives the output it gave before the rule moved into
``errors``: EXPECTED pins, per case, the SHA-256 prefix of the float.hex of
every number in the output (with the output's type and dtype).
"""

import hashlib
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from quantlab import blockquant as bq
from quantlab import codebook as qc
from quantlab import distributions as qd
from quantlab import montecarlo as mc
from quantlab.errors import DomainError

DIST = qd.scaled_max_distribution(64)
CODE = qc.nf4_code()
BINS = qc.BinEdges(
    [-1.0, -0.6101650573589402, -0.4517617895528572, -0.34601926144451134,
     -0.26193747547550245, -0.18927371924246694, -0.12316354416809513,
     -0.06074250914871682, -3.25633112673108e-12, 0.060742509150305414,
     0.12316354416732983, 0.1892737192442906, 0.2619374754775082,
     0.3460192614632127, 0.4517617895701446, 0.6101650573644939, 1.0])  # B = 64
CFG = mc.McConfig(5, 16, 64)
X4 = [-0.9, -0.1, 0.2, 0.95]
REF4 = np.array([0.5, -0.25, 1.0, 0.0])


def scalars(f, k=None, b=None, fraction=True):
    """One number in each valid form: f as a Python float, an np.float32
    and a 0-d array; the integer k as an np.int64 and the bool b, where
    given; f as a Fraction and a Decimal where the argument is one number."""
    vals = {"float": f, "float32": np.float32(f), "0d": np.array(f)}
    if k is not None:
        vals["int64"] = np.int64(k)
    if b is not None:
        vals["bool"] = b
    if fraction:
        vals["Fraction"], vals["Decimal"] = Fraction(f), Decimal(f)
    return vals


def arrays(fs, ks=None, bs=None, zero_d=False):
    """An array argument in each valid form: fs as a list of Python floats
    and a float32 array, ks as an int64 array and bs as a bool array, where
    given, and fs[0] as a 0-d array where the argument may be one."""
    vals = {"list": list(fs), "float32": np.array(fs, np.float32)}
    if ks is not None:
        vals["int64"] = np.array(ks, np.int64)
    if bs is not None:
        vals["bool"] = np.array(bs)
    if zero_d:
        vals["0d"] = np.array(fs[0])
    return vals


# id -> (call with the argument under test, its valid values)
CASES = {
    "normal_quantile": (qd.normal_quantile,
                        scalars(0.25, fraction=False) | {"list": [0.25, 0.75]}),
    "normal_pdf": (qd.normal_pdf,
                   scalars(0.5, 1, True, fraction=False) | {"list": [0.5, -2.0]}),
    "halfnormal_quantile": (qd.halfnormal_quantile,
                            scalars(0.5, 0, False, fraction=False) | {"list": [0.0, 0.5]}),
    "trunc_normal_cdf-x": (lambda v: qd.trunc_normal_cdf(v, 1.5),
                           scalars(0.25, 1, True, fraction=False) | {"list": [0.25, -2.0]}),
    "trunc_normal_cdf-m": (lambda v: qd.trunc_normal_cdf(0.25, v), scalars(1.5, 2, True)),
    "absmax_pdf": (lambda v: qd.absmax_pdf(v, 64),
                   scalars(2.5, 3, True, fraction=False) | {"list": [2.5, 0.0]}),
    "fx_cdf": (lambda v: qd.fx_cdf(v, 64), scalars(0.25, 0, True)),
    "fx_quantile": (lambda v: qd.fx_quantile(v, 64), scalars(0.25)),
    "fx_cdf_approx": (lambda v: qd.fx_cdf_approx(v, 64), scalars(0.25, 0, True)),
    "ScaledMaxDistribution.gb_cdf": (DIST.gb_cdf, scalars(0.25, 0, True)),
    "ScaledMaxDistribution.fx_cdf": (DIST.fx_cdf, scalars(-0.75, -1, False)),
    "ScaledMaxDistribution.fx_quantile": (DIST.fx_quantile, scalars(0.75)),
    "ScaledMaxDistribution.fx_cdf_approx": (DIST.fx_cdf_approx, scalars(-0.75, 1, False)),
    "ScaledMaxDistribution.expected_min_abs_distance": (
        DIST.expected_min_abs_distance, arrays([-0.5, 0.0, 0.5], [-1, 0, 1], [False, True])),
    "stationarity_step-a_prev": (lambda v: qc.stationarity_step(v, 0.0, 64),
                                 scalars(-0.5, -1)),
    "stationarity_step-a_cur": (lambda v: qc.stationarity_step(-1.0, v, 64),
                                scalars(-0.5, 0, False)),
    "balanced_code": (lambda v: qc.balanced_code(v, BINS), scalars(-0.7)),
    "Code16": (qc.Code16, arrays(CODE.values.tolist())
               | {"Fraction": [Fraction(v) for v in CODE.values.tolist()]}),
    "BinEdges": (qc.BinEdges, arrays(BINS.edges.tolist(), [-1] + [0] * 15 + [1])
                 | {"Fraction": [Fraction(v) for v in BINS.edges.tolist()]}),
    "nearest_index-normalized": (lambda v: bq.nearest_index(v, CODE),
                                 arrays(X4, [-1, 0, 1, 1], [False, True, True, False],
                                        zero_d=True)),
    "quantize": (lambda v: bq.quantize(v, CODE, 2),
                 arrays([0.5, -1.0, 2.0, 0.25], [3, -1, 0, 2], [True, False, True, True])),
    "reconstruction_errors-original": (lambda v: bq.reconstruction_errors(v, REF4),
                                       arrays([0.5, -1.0, 2.0, 0.25], [3, -1, 0, 2],
                                              [True, False, True, True])),
    "reconstruction_errors-reconstructed": (lambda v: bq.reconstruction_errors(REF4, v),
                                            arrays([0.5, -1.0, 2.0, 0.25], [3, -1, 0, 2],
                                                   [True, False, True, True])),
    "empirical_cdf_stream": (lambda v: mc.empirical_cdf_stream(CFG, v),
                             arrays([-0.5, 0.0, 0.5], [-1, 0, 1], [False, True],
                                    zero_d=True)),
}

BAD = {
    "str": "0.5",
    "bytes": b"0.5",
    "complex": 1j,
    "None": None,
    "ragged": [[1.0, 2.0], [3.0]],
    "object-array": np.array([0.5, None], dtype=object),
    "0d-str-array": np.array("0.5"),
}


def _text(out):
    """The float.hex of every number in out, with the type and dtype."""
    if isinstance(out, tuple):
        return " | ".join(_text(o) for o in out)
    if isinstance(out, dict):
        return " | ".join(f"{k}={_text(v)}" for k, v in out.items())
    if isinstance(out, qc.Code16):
        return "Code16 " + _text(out.values)
    if isinstance(out, qc.BinEdges):
        return "BinEdges " + _text(out.edges)
    if isinstance(out, bq.QuantizedTensor):
        return "QuantizedTensor " + out.records.tobytes().hex()
    arr = np.asarray(out)
    return f"{type(out).__name__} {arr.dtype} " + " ".join(
        float(v).hex() for v in arr.ravel())


def _digest(out):
    return hashlib.sha256(_text(out).encode()).hexdigest()[:16]


VALID = [(f"{name}-{kind}", call, value)
         for name, (call, values) in CASES.items() for kind, value in values.items()]

# Computed before numeric arguments were checked in ``errors``; the two
# cases marked changed on purpose.
EXPECTED = {
    "normal_quantile-float": "c279713a8188f59b",
    "normal_quantile-float32": "7b870961aa3de73b",
    "normal_quantile-0d": "c279713a8188f59b",
    "normal_quantile-list": "0cf2e7d79030af73",
    "normal_pdf-float": "57b4e398d1148bed",
    "normal_pdf-float32": "57b4e398d1148bed",
    "normal_pdf-0d": "57b4e398d1148bed",
    "normal_pdf-int64": "afa45625a9f37520",
    "normal_pdf-bool": "afa45625a9f37520",
    "normal_pdf-list": "ff8c0b3ee8b9eb52",
    "halfnormal_quantile-float": "7398270666b670b4",
    "halfnormal_quantile-float32": "7398270666b670b4",
    "halfnormal_quantile-0d": "7398270666b670b4",
    "halfnormal_quantile-int64": "e1b3edb89a3cfcf3",
    "halfnormal_quantile-bool": "e1b3edb89a3cfcf3",
    "halfnormal_quantile-list": "06b1f80a05c2914f",
    "trunc_normal_cdf-x-float": "39dcb41c94fc3145",
    "trunc_normal_cdf-x-float32": "39dcb41c94fc3145",
    "trunc_normal_cdf-x-0d": "39dcb41c94fc3145",
    "trunc_normal_cdf-x-int64": "329bcd130dfd58dd",
    "trunc_normal_cdf-x-bool": "329bcd130dfd58dd",
    "trunc_normal_cdf-x-list": "b4a78892a8dd1ea1",
    "trunc_normal_cdf-m-float": "39dcb41c94fc3145",
    # Was "0fc7ab99132741a6": erf of a float32 m rounded in float32, so the
    # CDF at x = m read 1.0000000031; m is now a float, as 1.5 is.
    "trunc_normal_cdf-m-float32": "39dcb41c94fc3145",
    "trunc_normal_cdf-m-0d": "39dcb41c94fc3145",
    "trunc_normal_cdf-m-int64": "431b43769203c70b",
    "trunc_normal_cdf-m-bool": "e88f8aa6764263b5",
    "trunc_normal_cdf-m-Fraction": "39dcb41c94fc3145",
    "trunc_normal_cdf-m-Decimal": "39dcb41c94fc3145",  # was TypeError
    "absmax_pdf-float": "8da6f8e9649f90cc",
    "absmax_pdf-float32": "8da6f8e9649f90cc",
    "absmax_pdf-0d": "8da6f8e9649f90cc",
    "absmax_pdf-int64": "3b89b6544ad80d61",
    "absmax_pdf-bool": "c34913b439500a89",
    "absmax_pdf-list": "25b8e9d7ae149bda",
    "fx_cdf-float": "296629a55b4b6f65",
    "fx_cdf-float32": "296629a55b4b6f65",
    "fx_cdf-0d": "296629a55b4b6f65",
    "fx_cdf-int64": "89f1a8cda93f696e",
    "fx_cdf-bool": "2c83551aa2fbb610",
    "fx_cdf-Fraction": "296629a55b4b6f65",
    "fx_cdf-Decimal": "296629a55b4b6f65",
    "fx_quantile-float": "aecb580e16de3082",
    "fx_quantile-float32": "aecb580e16de3082",
    "fx_quantile-0d": "aecb580e16de3082",
    "fx_quantile-Fraction": "aecb580e16de3082",
    "fx_quantile-Decimal": "aecb580e16de3082",
    "fx_cdf_approx-float": "38f0e08d9d089bac",
    "fx_cdf_approx-float32": "38f0e08d9d089bac",
    "fx_cdf_approx-0d": "38f0e08d9d089bac",
    "fx_cdf_approx-int64": "f1f9ac4e760f77b6",
    "fx_cdf_approx-bool": "2c83551aa2fbb610",
    "fx_cdf_approx-Fraction": "38f0e08d9d089bac",
    "fx_cdf_approx-Decimal": "38f0e08d9d089bac",
    "ScaledMaxDistribution.gb_cdf-float": "223a62004870094f",
    "ScaledMaxDistribution.gb_cdf-float32": "223a62004870094f",
    "ScaledMaxDistribution.gb_cdf-0d": "223a62004870094f",
    "ScaledMaxDistribution.gb_cdf-int64": "c10f1bbca5af93aa",
    "ScaledMaxDistribution.gb_cdf-bool": "11a7c67087fed2ec",
    "ScaledMaxDistribution.gb_cdf-Fraction": "223a62004870094f",
    "ScaledMaxDistribution.gb_cdf-Decimal": "223a62004870094f",
    "ScaledMaxDistribution.fx_cdf-float": "bfdc9e978c35ead3",
    "ScaledMaxDistribution.fx_cdf-float32": "bfdc9e978c35ead3",
    "ScaledMaxDistribution.fx_cdf-0d": "bfdc9e978c35ead3",
    "ScaledMaxDistribution.fx_cdf-int64": "145e8152d92aa375",
    "ScaledMaxDistribution.fx_cdf-bool": "89f1a8cda93f696e",
    "ScaledMaxDistribution.fx_cdf-Fraction": "bfdc9e978c35ead3",
    "ScaledMaxDistribution.fx_cdf-Decimal": "bfdc9e978c35ead3",
    "ScaledMaxDistribution.fx_quantile-float": "39ed04ddf6e4bd55",
    "ScaledMaxDistribution.fx_quantile-float32": "39ed04ddf6e4bd55",
    "ScaledMaxDistribution.fx_quantile-0d": "39ed04ddf6e4bd55",
    "ScaledMaxDistribution.fx_quantile-Fraction": "39ed04ddf6e4bd55",
    "ScaledMaxDistribution.fx_quantile-Decimal": "39ed04ddf6e4bd55",
    "ScaledMaxDistribution.fx_cdf_approx-float": "70b74e8ddf027fe9",
    "ScaledMaxDistribution.fx_cdf_approx-float32": "70b74e8ddf027fe9",
    "ScaledMaxDistribution.fx_cdf_approx-0d": "70b74e8ddf027fe9",
    "ScaledMaxDistribution.fx_cdf_approx-int64": "2c83551aa2fbb610",
    "ScaledMaxDistribution.fx_cdf_approx-bool": "f1f9ac4e760f77b6",
    "ScaledMaxDistribution.fx_cdf_approx-Fraction": "70b74e8ddf027fe9",
    "ScaledMaxDistribution.fx_cdf_approx-Decimal": "70b74e8ddf027fe9",
    "ScaledMaxDistribution.expected_min_abs_distance-list": "3aa168f82811b215",
    "ScaledMaxDistribution.expected_min_abs_distance-float32": "3aa168f82811b215",
    "ScaledMaxDistribution.expected_min_abs_distance-int64": "d0a300d5fa3be45a",
    "ScaledMaxDistribution.expected_min_abs_distance-bool": "c4e29ab9b9b79807",
    "stationarity_step-a_prev-float": "1116fc1dc4f00cf3",
    "stationarity_step-a_prev-float32": "1116fc1dc4f00cf3",
    "stationarity_step-a_prev-0d": "1116fc1dc4f00cf3",
    "stationarity_step-a_prev-int64": "5d0ec09cf78d23a1",
    "stationarity_step-a_prev-Fraction": "1116fc1dc4f00cf3",
    "stationarity_step-a_prev-Decimal": "1116fc1dc4f00cf3",
    "stationarity_step-a_cur-float": "a580108413713369",
    "stationarity_step-a_cur-float32": "a580108413713369",
    "stationarity_step-a_cur-0d": "a580108413713369",
    "stationarity_step-a_cur-int64": "5d0ec09cf78d23a1",
    "stationarity_step-a_cur-bool": "5d0ec09cf78d23a1",
    "stationarity_step-a_cur-Fraction": "a580108413713369",
    "stationarity_step-a_cur-Decimal": "a580108413713369",
    "balanced_code-float": "fc06f2040853700a",
    "balanced_code-float32": "6f2f0264e6f2ec96",
    "balanced_code-0d": "fc06f2040853700a",
    "balanced_code-Fraction": "fc06f2040853700a",
    "balanced_code-Decimal": "fc06f2040853700a",
    "Code16-list": "5cc46dcdc7379607",
    "Code16-float32": "6409af9c49fb7fa0",
    "Code16-Fraction": "5cc46dcdc7379607",
    "BinEdges-list": "8d5d4c228e658ab3",
    "BinEdges-float32": "53850095faaef973",
    "BinEdges-int64": "4a97572f432b471a",
    "BinEdges-Fraction": "8d5d4c228e658ab3",
    "nearest_index-normalized-list": "7c6871c8a4fb5ebe",
    "nearest_index-normalized-float32": "7c6871c8a4fb5ebe",
    "nearest_index-normalized-int64": "51a7f56c77336b34",
    "nearest_index-normalized-bool": "5535f9b32dbcd808",
    "nearest_index-normalized-0d": "75ca4b33377aa585",
    "quantize-list": "976510cdb4c5e03a",
    "quantize-float32": "976510cdb4c5e03a",
    "quantize-int64": "4c5492ebfbee6fef",
    "quantize-bool": "095e48cf1c2da4b9",
    "reconstruction_errors-original-list": "2f1009b8aa2e29f1",
    "reconstruction_errors-original-float32": "2f1009b8aa2e29f1",
    "reconstruction_errors-original-int64": "96d8bc91dc3e0ac0",
    "reconstruction_errors-original-bool": "7cb22941ed5e8805",
    "reconstruction_errors-reconstructed-list": "2f1009b8aa2e29f1",
    "reconstruction_errors-reconstructed-float32": "2f1009b8aa2e29f1",
    "reconstruction_errors-reconstructed-int64": "96d8bc91dc3e0ac0",
    "reconstruction_errors-reconstructed-bool": "7cb22941ed5e8805",
    "empirical_cdf_stream-list": "defda9bc9886ba47",
    "empirical_cdf_stream-float32": "defda9bc9886ba47",
    "empirical_cdf_stream-int64": "605e2dab78da1da7",
    "empirical_cdf_stream-bool": "94760def3d3f68b9",
    "empirical_cdf_stream-0d": "c3cc47a5107707c9",
}


@pytest.mark.parametrize("call, value", [case[1:] for case in VALID],
                         ids=[case[0] for case in VALID])
def test_valid_value_gives_the_pinned_output(request, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call(value)
    assert _digest(out) == EXPECTED[request.node.callspec.id], _text(out)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("call", [call for call, _ in CASES.values()], ids=CASES.keys())
def test_invalid_value_is_domain_error(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("value", [np.array([0.25, 0.5], dtype=object), Fraction(1, 4)],
                         ids=["object-array-of-floats", "Fraction"])
@pytest.mark.parametrize("call", [
    qd.normal_quantile, qd.normal_pdf, qd.halfnormal_quantile,
    lambda v: qd.trunc_normal_cdf(v, 1.0), lambda v: qd.absmax_pdf(v, 64),
    DIST.expected_min_abs_distance, lambda v: mc.empirical_cdf_stream(CFG, v),
    lambda v: bq.nearest_index(v, CODE), lambda v: bq.quantize(v, CODE, 2),
], ids=["normal_quantile", "normal_pdf", "halfnormal_quantile", "trunc_normal_cdf",
        "absmax_pdf", "expected_min_abs_distance", "empirical_cdf_stream",
        "nearest_index", "quantize"])
def test_array_arguments_take_no_number_objects(call, value):
    # an array argument takes what _real takes: numbers as objects are the
    # one-number rule's extension (and Code16's), not an array's
    with pytest.raises(DomainError, match="dtype object"):
        call(value)


@pytest.mark.parametrize("m", [np.float32(0.3), np.float32(1.0), 1.0, 2])
def test_truncated_normal_cdf_is_one_at_m(m):
    # a float32 m once kept the normalizer in float32: F(1) read 1.0000000031
    assert qd.trunc_normal_cdf(m, m) == 1.0
    assert qd.trunc_normal_cdf(-m, m) == 0.0
