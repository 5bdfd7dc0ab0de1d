#!/usr/bin/env python3
"""Tour of the tensor engine: building blocks, reverse mode, verification.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from semnet import Tensor, affine, backward, conv2d, finite_difference_grad, sigmoid

# ------------------------------------------------------------------
# Tensors wrap contiguous float32/float64 numpy buffers. Setting
# requires_grad marks a leaf whose gradient we want.
# ------------------------------------------------------------------
gen = np.random.default_rng(0)
x = Tensor(gen.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
w = Tensor(gen.standard_normal((2, 3)), requires_grad=True, dtype=np.float64)
b = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)

y = sigmoid(affine(x, w, b))      # (4, 2), graph recorded as we go
loss = y.mean()
print("loss:", loss.item())

# One reverse sweep fills .grad on every reachable leaf. Each graph node
# is released as soon as its rule has run, so activations and intermediate
# gradients are freed layer by layer; y keeps its .grad because we hold it.
backward(loss)
print("dloss/dw:\n", w.grad)

# ------------------------------------------------------------------
# The engine's own oracle: central differences. Gradients of every op
# agree with the numeric estimate to ~1e-9 in float64.
# ------------------------------------------------------------------
x2 = Tensor(gen.standard_normal((1, 2, 5, 5)), requires_grad=True, dtype=np.float64)
k2 = Tensor(gen.standard_normal((3, 2, 3, 3)), requires_grad=True, dtype=np.float64)


def objective(_):
    return conv2d(x2, k2, stride=1, pad=1).sum()


backward(objective(None))
numeric = finite_difference_grad(objective, k2)
print("conv kernel grad, max abs diff vs finite differences:",
      float(np.max(np.abs(k2.grad - numeric))))

# Gradients accumulate across uses, which is what lets one tensor feed
# several branches of a network.
t = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
backward((t + t).sum())
print("grad of x used twice:", t.grad)   # [2. 2. 2.]
