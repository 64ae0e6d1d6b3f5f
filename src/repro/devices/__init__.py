"""Block-device models: the common interface, an HDD, volatile-cache SSDs,
and calibrated presets for the paper's four test devices."""

from .atomic_ssd import AtomicWriteSSD, fusionio_spec, make_fusionio
from .base import (
    READ,
    WRITE,
    AckRecord,
    IORequest,
    PowerFailedError,
    StorageDevice,
)
from .hdd import DiskDrive, HDDSpec
from .presets import (
    DEVICE_MAKERS,
    cheetah_15k6_spec,
    durassd_spec,
    make_durassd,
    make_hdd,
    make_ssd_a,
    make_ssd_b,
    ssd_a_spec,
    ssd_b_spec,
)
from .ssd import FlashSSD, SSDSpec
from .write_cache import WriteCache

__all__ = [
    "AtomicWriteSSD",
    "DEVICE_MAKERS",
    "READ",
    "WRITE",
    "AckRecord",
    "DiskDrive",
    "FlashSSD",
    "HDDSpec",
    "IORequest",
    "PowerFailedError",
    "SSDSpec",
    "StorageDevice",
    "WriteCache",
    "fusionio_spec",
    "make_fusionio",
    "cheetah_15k6_spec",
    "durassd_spec",
    "make_durassd",
    "make_hdd",
    "make_ssd_a",
    "make_ssd_b",
    "ssd_a_spec",
    "ssd_b_spec",
]
