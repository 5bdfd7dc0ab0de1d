"""Exception types shared across the package."""


class IngestionError(Exception):
    """Raised when a dataset fails validation: a malformed file, or a
    split with a constant channel, which no normalisation can scale."""


class CheckpointError(Exception):
    """Raised when a checkpoint file is malformed or fails its CRC."""


class NumericalFailure(Exception):
    """Raised when training produces a non-finite loss or activation."""


class WorkerLost(RuntimeError):
    """Raised when a sharded step's worker process dies before it replies."""
