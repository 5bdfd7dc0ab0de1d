#!/usr/bin/env python3
"""The attention layer stage by stage: squeeze, decide, excite, switch,
recalibrate, plus the single-operator special case (the ECA gate).

Run:  python demos/02_switchable_attention.py
"""

import numpy as np

from semnet import (
    RngState,
    Tensor,
    decide,
    eca_kernel_size,
    excite_cnn,
    excite_fc,
    excite_ie,
    init_sem_params,
    sem_forward,
    squeeze,
)
from semnet.attention import switch

B, C, H, W = 2, 16, 8, 8
gen = RngState(1).generator()
x = Tensor(gen.standard_normal((B, C, H, W)), dtype=np.float64)

# The adaptive kernel rule ties the channel-convolution width to C.
for c in (16, 64, 256, 1024):
    print(f"channels {c:5d} -> kernel {eca_kernel_size(c)}")

params = init_sem_params(C, rng=RngState(2), dtype=np.float64)

# 1) squeeze: one scalar per channel
m = squeeze(x)
print("\ndescriptor shape:", m.shape)

# 2) decide: a per-sample weight in (0,1) for each enabled branch
weights = decide(m, params.decision_weight)
print("decision vector:", np.round(weights.data[0], 3), "(fc, cnn, ie)")

# 3) excite: three branch scores per channel, no activation yet
branches = [
    excite_fc(m, params.reduce_weight, params.expand_weight),
    excite_cnn(m, params.conv_kernel),
    excite_ie(m, params.ie_scale, params.ie_shift),
]
print("ie branch at init is constant:", branches[2].data[0, :4], "(scale 0, shift -1)")

# 4) switch: sigmoid(branch * weight) multiplied across branches
v = switch(branches, weights)
print("attention map range: (%.4f, %.4f)" % (v.data.min(), v.data.max()))

# 5) the whole layer in one call, recalibration included
out = sem_forward(x, params)
print("recalibrated feature map:", out.shape)

# The conventional gates are single-operator special cases: with one
# operator and unit decision weights the layer is x * sigmoid(branch(m)),
# here the ECA gate with a k-tap convolution along the channel axis.
eca_params = init_sem_params(C, ("cnn",), rng=RngState(3), dtype=np.float64,
                             with_decision=False)
a = sem_forward(x, eca_params)
kernel = eca_params.conv_kernel.data
half = len(kernel) // 2
padded = np.pad(x.data.mean(axis=(2, 3)), ((0, 0), (half, half)))
conv = sum(kernel[t] * padded[:, t : t + C] for t in range(len(kernel)))
b = x.data / (1.0 + np.exp(-conv))[:, :, None, None]
print("single-cnn route vs the ECA formula, max diff:",
      float(np.max(np.abs(a.data - b))))
