"""NAND flash array geometry.

The paper's example (Section 2.3): 8 channels x 4 packages x 4 chips x
2 planes gives a theoretical parallelism of 256.  Effective parallelism
is lower because channels are shared buses; device presets carry an
*effective lane count* calibrated from measured throughput, while the
geometry here tracks the physical layout used for block allocation,
garbage collection and wear accounting.
"""

from ..sim import units


class FlashGeometry:
    """Physical layout of a NAND array.

    Parameters mirror a real SSD data sheet.  ``page_size`` is the NAND
    page (8KB on the enterprise devices the paper uses); the device may
    expose a smaller *mapping* unit on top (DuraSSD maps 4KB logical
    pages onto 8KB NAND pages, Section 3.1.2).
    """

    def __init__(
        self,
        channels=8,
        packages_per_channel=4,
        chips_per_package=4,
        planes_per_chip=2,
        blocks_per_plane=64,
        pages_per_block=128,
        page_size=8 * units.KIB,
    ):
        if min(channels, packages_per_channel, chips_per_package,
               planes_per_chip, blocks_per_plane, pages_per_block) < 1:
            raise ValueError("all geometry dimensions must be >= 1")
        self.channels = channels
        self.packages_per_channel = packages_per_channel
        self.chips_per_package = chips_per_package
        self.planes_per_chip = planes_per_chip
        self.blocks_per_plane = blocks_per_plane
        self.pages_per_block = pages_per_block
        self.page_size = page_size

    @property
    def planes(self):
        """Total planes = theoretical upper bound on parallelism."""
        return (self.channels * self.packages_per_channel *
                self.chips_per_package * self.planes_per_chip)

    @property
    def total_blocks(self):
        return self.planes * self.blocks_per_plane

    @property
    def total_pages(self):
        return self.total_blocks * self.pages_per_block

    @property
    def capacity_bytes(self):
        return self.total_pages * self.page_size

    def block_of_page(self, ppn):
        """Block index containing physical page ``ppn``."""
        return ppn // self.pages_per_block

    def pages_of_block(self, block):
        """Range of physical page numbers inside ``block``."""
        start = block * self.pages_per_block
        return range(start, start + self.pages_per_block)

    @classmethod
    def scaled(cls, capacity_bytes, page_size=8 * units.KIB,
               pages_per_block=128, channels=8):
        """A geometry of roughly ``capacity_bytes``, keeping the paper's
        channel structure but shrinking blocks-per-plane.

        Used to build laptop-scale devices whose structural behaviour
        (striping, GC) matches the 480GB prototype.
        """
        pages_needed = max(1, capacity_bytes // page_size)
        blocks_needed = max(1, (pages_needed + pages_per_block - 1)
                            // pages_per_block)
        # For tiny devices also shrink the channel structure, or the
        # 4-blocks-per-plane floor would leave GC-free over-provisioning.
        for try_channels in dict.fromkeys((channels, 4, 2, 1)):
            proto = cls(channels=try_channels, page_size=page_size,
                        pages_per_block=pages_per_block)
            per_plane = (blocks_needed + proto.planes - 1) // proto.planes
            if per_plane >= 4 or try_channels == 1:
                return cls(channels=try_channels,
                           packages_per_channel=proto.packages_per_channel,
                           chips_per_package=proto.chips_per_package,
                           planes_per_chip=proto.planes_per_chip,
                           blocks_per_plane=max(4, per_plane),
                           pages_per_block=pages_per_block,
                           page_size=page_size)
        raise AssertionError("unreachable")
