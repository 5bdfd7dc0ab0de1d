"""semnet: switchable channel attention on a minimal numpy autodiff engine."""

from .attention import (
    ALL_OPERATORS,
    DecisionRecord,
    SemParams,
    attention_map,
    decide,
    decision_summary_csv,
    eca_kernel_size,
    excite_cnn,
    excite_fc,
    excite_ie,
    init_sem_params,
    recalibrate,
    sem_forward,
    squeeze,
    switch,
)
from .backbone import (
    Model,
    assign_random_operators,
    build_network,
    depth_to_blocks,
    sem_block_param_count,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .data import (
    AugmentConfig,
    DatasetRecord,
    augment_batch,
    batch_iterator,
    compute_channel_stats,
    load_cifar,
    normalize_images,
    synthetic_dataset,
)
from .errors import CheckpointError, IngestionError, NumericalFailure
from .gradcheck import finite_difference_grad, max_relative_error
from .optim import SGD, MultiStepSchedule
from .rng import RngState
from .tensor import (
    Tensor,
    activation,
    affine,
    backward,
    batch_norm,
    conv1d_channel,
    conv2d,
    global_avg_pool,
    no_grad,
    sigmoid,
    softmax_cross_entropy,
)
from .training import MetricsRecord, RunConfig, evaluate, load_run_checkpoint, train_grid, train_run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
