# Quantizing a tensor end to end: 32-bit floats -> 4 bits + one scale per
# block, bit-exact files, and reconstruction error accounting.

import os
import tempfile

import numpy as np

from quantlab import (
    af4_code,
    dequantize,
    nf4_code,
    qtensor_read,
    qtensor_write,
    quantize,
    reconstruction_errors,
    tensor_read,
    tensor_write,
    usage_histogram,
)

rng = np.random.default_rng(0)
weights = rng.standard_normal((1024, 1024)).astype(np.float32)

# Blocks run along axis 0 (down each column); the last block may be short.
B = 64
nf4 = nf4_code()
qt = quantize(weights, nf4, B, axis=0)
print(f"tensor {weights.shape} -> {qt.num_blocks} blocks of {B}")
print(f"FQZ1 records: {qt.records.size} bytes, a float32 scale and "
      f"{B // 2} bytes of packed indices per block")

recon = dequantize(qt)
for metric, value in reconstruction_errors(weights, recon).items():
    print(f"  {metric:>8}: {value:.6f}")

# Storage cost: 4 bits per element plus 4 bytes per block, exactly the
# records the FQZ1 file holds after its header.
bits = qt.records.size * 8 / weights.size
print(f"  {bits:.2f} bits per element (fp32 is 32)\n")

# How often is each code value used?  The outer values are rare even at
# B=64, and get much rarer at larger block sizes.
counts = usage_histogram(qt)
print("usage of each NF4 value (%):")
print("  " + " ".join(f"{100 * p:.1f}" for p in counts / counts.sum()))

# Larger blocks: fewer scales, bigger error; AF4 tuned for the block size
# claws some of it back.
B = 4096
err_nf4 = reconstruction_errors(
    weights, dequantize(quantize(weights, nf4, B, axis=0)))["mean_abs"]
err_af4 = reconstruction_errors(
    weights, dequantize(quantize(weights, af4_code(B), B, axis=0)))["mean_abs"]
print(f"\nmean_abs at B=4096:  NF4 {err_nf4:.6f}   AF4-4096 {err_af4:.6f}")

# Files: FQT1 holds plain float32 tensors, FQZ1 the quantized form.  Both
# round trip bit for bit.
with tempfile.TemporaryDirectory() as td:
    t_path = os.path.join(td, "weights.fqt")
    q_path = os.path.join(td, "weights.fqz")
    tensor_write(weights, t_path)
    qtensor_write(qt, q_path)
    assert np.array_equal(tensor_read(t_path), weights)
    back = qtensor_read(q_path)
    assert np.array_equal(back.records, qt.records)
    fqt_mb = os.path.getsize(t_path) / 2**20
    fqz_mb = os.path.getsize(q_path) / 2**20
    print(f"\nFQT1 file: {fqt_mb:.1f} MiB   FQZ1 file: {fqz_mb:.1f} MiB")

# The same pipeline is scriptable: quantlab quantize in.fqt out.fqz
#   --code code.json --block-size 64 --axis 0 --report
