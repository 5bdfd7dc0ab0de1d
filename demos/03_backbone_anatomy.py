#!/usr/bin/env python3
"""Backbones: depth rule, parameter budgets, attention placement, and
random per-block operator assignment.

Run:  python demos/03_backbone_anatomy.py
"""

import numpy as np

from semnet import (
    RngState,
    RunConfig,
    Tensor,
    assign_random_operators,
    build_network,
    depth_to_blocks,
    no_grad,
    sem_block_param_count,
)
from semnet.backbone import STAGE_WIDTHS

# Valid depths satisfy (depth - 2) % 9 == 0: three stages of bottleneck
# blocks, nine weighted layers each.
for depth in (11, 20, 47, 164):
    print(f"depth {depth:3d} -> {depth_to_blocks(depth)} blocks per stage")

# Parameter budgets, plain vs attention-augmented.
for mode in ("none", "se", "eca", "ie", "sem"):
    model = build_network(RunConfig(depth=20, attention=mode), RngState(0))
    print(f"depth-20 {mode:5s}: {model.param_count():7d} parameters")

# The attention overhead has a closed form per block; compare it against
# the built network.
plain = build_network(RunConfig(depth=20, attention="none"), RngState(0))
sem = build_network(RunConfig(depth=20, attention="sem"), RngState(0))
budget = sum(2 * sem_block_param_count(w * 4) for w in STAGE_WIDTHS)
print("attention overhead:", sem.param_count() - plain.param_count(),
      "closed form:", budget)

# Forward pass with decision capture: each gate hands over its raw (B, 3)
# weights, and the model turns them into one record per gate. Forwards over
# further samples could append to the same list; the records join them.
gen = RngState(4).generator()
x = Tensor(gen.standard_normal((2, 3, 32, 32)).astype(np.float32))
decisions = []
with no_grad():
    logits = sem(x, decisions=decisions)
print("logits:", logits.shape)
for rec in sem.decision_records(decisions):
    stats = rec.stats()
    line = " ".join(f"{op}={m:.3f}" for op, (m, _) in stats.items())
    print(f"  block {rec.layer_index} (stage {rec.stage}, C={rec.channels}): {line}")

# Random assignment modes give every block its own operator (or pair),
# reproducibly from a seed.
print("\nrandom single:", [ops[0] for ops in assign_random_operators(6, 1, seed=7)])
print("random double:", assign_random_operators(6, 2, seed=7))
