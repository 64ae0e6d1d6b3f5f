"""Transient flash-fault model (read/program/erase errors, bad blocks).

NAND fails in ways power loss does not: a program or erase operation can
report failure (and eventually retire the block as a *grown bad block*),
and a read can return uncorrectable data even though the page was
programmed cleanly.  Firmware is expected to mask the transient cases
with bounded retry + backoff, remap around grown bad blocks, and — on a
capacitor-backed device — to *demote itself* when its energy reserve can
no longer cover the dump, rather than keep advertising durability it
cannot deliver.

The model here is seeded and deterministic: the same
:class:`FaultConfig` produces the same fault schedule, which the torture
harness relies on for replayable repro artifacts.  Rates are
per-operation Bernoulli draws, which is the standard abstraction used by
SSD simulators for transient (non-wearout) faults; wearout itself is
modelled by the FTL's erase counters.
"""

from typing import NamedTuple

from ..sim.record import Record
from ..sim.rng import make_rng


class FlashFaultError(Exception):
    """Raised when bounded retry could not mask a flash fault."""


class _FaultFields(NamedTuple):
    seed: int = 0
    read_error_rate: float = 0.0
    program_error_rate: float = 0.0
    erase_error_rate: float = 0.0
    initial_bad_blocks: int = 0
    max_retries: int = 3
    retry_backoff: float = 50e-6
    program_failures_to_retire: int = 2


class FaultConfig(Record, _FaultFields):
    """Seeded rates for the transient-fault model.

    Rates are probabilities per operation.  ``initial_bad_blocks`` are
    factory-marked bad blocks retired before the device serves I/O;
    ``program_failures_to_retire`` is how many program failures a block
    accumulates before the firmware retires it as grown-bad.
    """

    __slots__ = ()

    def _check(self):
        for name in ("read_error_rate", "program_error_rate",
                     "erase_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError("%s must be in [0, 1): %r" % (name, rate))
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


class TransientFaultModel:
    """Deterministic per-operation fault oracle for a :class:`FlashArray`.

    Attach with :meth:`repro.devices.ssd.FlashSSD.inject_faults` (which
    also retires the factory bad blocks); the FTL then consults the
    model's retry policy on every failure.
    """

    def __init__(self, config=None):
        self.config = config or FaultConfig()
        self._rng = make_rng(("flash-faults", self.config.seed))
        self.counters = {"read_errors": 0, "program_errors": 0,
                         "erase_errors": 0}

    def pick_initial_bad_blocks(self, total_blocks):
        """Factory bad-block list: a deterministic sample of the array."""
        count = min(self.config.initial_bad_blocks, max(0, total_blocks - 1))
        if count <= 0:
            return []
        return sorted(self._rng.sample(range(total_blocks), count))

    # --- per-operation oracles (called at operation completion) ----------
    def program_fails(self, ppn):
        if self.config.program_error_rate <= 0.0:
            return False
        if self._rng.random() < self.config.program_error_rate:
            self.counters["program_errors"] += 1
            return True
        return False

    def read_fails(self, ppn):
        if self.config.read_error_rate <= 0.0:
            return False
        if self._rng.random() < self.config.read_error_rate:
            self.counters["read_errors"] += 1
            return True
        return False

    def erase_fails(self, block):
        if self.config.erase_error_rate <= 0.0:
            return False
        if self._rng.random() < self.config.erase_error_rate:
            self.counters["erase_errors"] += 1
            return True
        return False
