"""Host I/O stack: queue models, volumes, the file system (fsync/barrier
policy), and fio."""

from .filesystem import FSYNC_SYSCALL_TIME, FileHandle, FileSystem, FileView
from .fio import FioJob, FioResult, run_fio
from .integrity import (
    BlockChecksums,
    CorruptDataError,
    DetectedDataLossError,
    IrreparableCorruptionError,
    Scrubber,
)
from .lifecycle import (
    STORAGE_ERRORS,
    CommandLifecycle,
    DeviceTimeoutError,
    TimeoutPolicy,
)
from .queues import (
    DEFAULT_QUEUE_DEPTH,
    NvmeMultiQueue,
    QueueModel,
    QueueTopology,
    SataNcq,
)
from .volume import (
    BlockTarget,
    MirroredVolume,
    PlacementVolume,
    Rebuilder,
    RegionView,
    SingleDevice,
    StripedVolume,
    VerifyingTarget,
    as_target,
)

__all__ = [
    "BlockChecksums",
    "BlockTarget",
    "CommandLifecycle",
    "CorruptDataError",
    "DEFAULT_QUEUE_DEPTH",
    "DetectedDataLossError",
    "DeviceTimeoutError",
    "NvmeMultiQueue",
    "QueueModel",
    "QueueTopology",
    "SataNcq",
    "Rebuilder",
    "STORAGE_ERRORS",
    "FSYNC_SYSCALL_TIME",
    "FileHandle",
    "FileSystem",
    "FileView",
    "IrreparableCorruptionError",
    "MirroredVolume",
    "PlacementVolume",
    "RegionView",
    "Scrubber",
    "SingleDevice",
    "StripedVolume",
    "TimeoutPolicy",
    "VerifyingTarget",
    "as_target",
    "FioJob",
    "FioResult",
    "run_fio",
]
