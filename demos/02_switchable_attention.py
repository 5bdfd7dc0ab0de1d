#!/usr/bin/env python3
"""The attention layer stage by stage: squeeze, decide, excite, switch,
recalibrate, from the terms the gate computes; the layer as the one tape
node the backbone runs inside a 1x1 conv; and the single-operator special
case (the ECA gate).

Run:  python demos/02_switchable_attention.py
"""

import numpy as np

from semnet import RngState, Tensor, eca_kernel_size, init_sem_params, sem_forward
from semnet.attention import _gate_terms

B, C, H, W = 2, 16, 8, 8
gen = RngState(1).generator()
x = Tensor(gen.standard_normal((B, C, H, W)), dtype=np.float64)

# The adaptive kernel rule ties the channel-convolution width to C.
for c in (16, 64, 256, 1024):
    print(f"channels {c:5d} -> kernel {eca_kernel_size(c)}")

params = init_sem_params(C, rng=RngState(2), dtype=np.float64)

# 1) squeeze: one scalar per channel
m = x.data.mean(axis=(2, 3))
print("\ndescriptor shape:", m.shape)
weights, _, branches, _, gated, v = _gate_terms(m, params)

# 2) decide: a per-sample weight in (0,1) for each enabled branch
print("decision vector:", np.round(weights[0], 3), "(fc, cnn, ie)")

# 3) excite: three branch scores per channel, no activation yet
print("ie branch at init is constant:", branches[0, 2, :4], "(scale 0, shift -1)")

# 4) switch: sigmoid(branch * weight) multiplied across branches
print("switch outputs of sample 0, channel 0:", np.round(gated[0, :, 0], 3))
print("attention map range: (%.4f, %.4f)" % (v.min(), v.max()))

# 5) recalibrate x by v, as one tape node: the backbone runs the layer
# inside the 1x1 conv that feeds it, here with the identity kernel, so
# the conv hands the gate x itself
identity = Tensor(np.eye(C)[:, :, None, None], dtype=np.float64)
out = sem_forward(x, params, conv=(identity, None))
print("recalibrated feature map:", out.shape)
print("one node inside the conv vs x * v, max diff:",
      float(np.max(np.abs(out.data - x.data * v[:, :, None, None]))))

# The conventional gates are single-operator special cases: with one
# operator and unit decision weights the layer is x * sigmoid(branch(m)),
# here the ECA gate with a k-tap convolution along the channel axis.
eca_params = init_sem_params(C, ("cnn",), rng=RngState(3), dtype=np.float64,
                             with_decision=False)
a = sem_forward(x, eca_params, conv=(identity, None))
kernel = eca_params.conv_kernel.data
half = len(kernel) // 2
padded = np.pad(m, ((0, 0), (half, half)))
conv = sum(kernel[t] * padded[:, t : t + C] for t in range(len(kernel)))
b = x.data / (1.0 + np.exp(-conv))[:, :, None, None]
print("single-cnn route vs the ECA formula, max diff:",
      float(np.max(np.abs(a.data - b))))
