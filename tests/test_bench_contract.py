"""The lookups the benchmark's tracer patches (perfbench/tracer.py) still
exist and still see every op: one traced depth-11 SEM training step counts
the expected gates and tape nodes and gives the untraced loss bit for bit.

The step runs whole, as the benchmark's batches of 16 do, or in two sample
shards, as its batches of 128 do. Either way each forward has 3 gates of
69 nodes and 93 nodes in its 3 blocks. Whole, the tracer counts those, the
loss, 4 head nodes and the stem conv: 99. Sharded, it walks each shard's
blocks and gates, the joined logits (its "head") and the first block input
down to the images (its "stem"); it does not reach either shard's 4 head
nodes or the other shard's stem conv, so it counts 2 x 93 + loss + join +
one stem = 189."""

import importlib.util
import os

import numpy as np
import pytest

from semnet import backbone, training
from semnet.rng import RngState
from semnet.tensor import Tensor

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_step(tracer):
    """A training step as the benchmark's worker runs it, looking every
    function up where the worker and the tracer do."""
    cfg = training.RunConfig(depth=11, attention="sem", seed=3).resolved()
    model = training.build_network(cfg.network_config(),
                                   RngState(cfg.seed, training._STREAM_PARAMS))
    gen = RngState(4).generator()
    images = Tensor(gen.standard_normal((4, 3, 32, 32)).astype(np.float32))
    labels = gen.integers(0, 10, size=4)
    tracer.watch_model(model)
    if tracer.enabled:
        tracer.install()
    try:
        with tracer.span("step"):
            loss = training.softmax_cross_entropy(model(images, training=True), labels)
            training.backward(loss)
    finally:
        if tracer.enabled:
            tracer.uninstall()
    return loss.data


@pytest.mark.parametrize("shards", [1, 2])
def test_traced_step_counts_and_loss(tracer_module, monkeypatch, shards):
    if shards == 2:  # the 4-sample batch runs two shards
        monkeypatch.setattr(backbone, "_MIN_SHARD_SAMPLES", 1)
    tracer = tracer_module.Tracer()
    traced = one_step(tracer)
    assert not tracer.installed
    (_, counts), = tracer.summarize()
    assert counts["attention.calls"] == shards * 3
    assert counts["tensor.tape_nodes"] == (99 if shards == 1 else 2 * 93 + 3)
    assert counts["attention.nodes"] == shards * 69
    untraced = one_step(tracer_module.NullTracer())
    assert traced.tobytes() == untraced.tobytes()
