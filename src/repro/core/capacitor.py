"""The tantalum-capacitor bank that makes DuraSSD's cache durable.

Fifteen tantalum (tantalum-polymer) capacitors back the 512MB DRAM of
the prototype (Section 3.1, Figure 4).  Their retail price is about five
USD — roughly one percent of the device cost — and their stored energy
sustains the drive for the few hundred milliseconds needed to flush
*dozens of megabytes* (the buffer pool plus the modified mapping-table
entries) to a pre-erased dump area.

The bank therefore defines a hard byte budget: firmware flow control
must keep (dirty buffer + mapping delta) at or below it, or a power cut
would lose the tail of the dump.  Both sides of that contract are
modelled and tested.
"""

from ..sim import units


class CapacitorBank:
    """Energy budget of the capacitor bank, expressed as dumpable bytes."""

    def __init__(self, count=15, dump_bytes_per_capacitor=3.2 * units.MIB,
                 dump_bandwidth=160 * units.MIB, recharge_time=0.5,
                 unit_price_usd=0.33, health=1.0):
        if count < 0:
            raise ValueError("capacitor count must be >= 0")
        self.count = count
        self.dump_bytes_per_capacitor = dump_bytes_per_capacitor
        self.dump_bandwidth = dump_bandwidth
        self.recharge_time = recharge_time
        self.unit_price_usd = unit_price_usd
        if not 0.0 <= health <= 1.0:
            raise ValueError("health must be in [0, 1]: %r" % health)
        # Tantalum banks age: ESR rises and capacitance falls, shrinking
        # the energy (= dumpable bytes) the bank delivers.  Firmware
        # periodically measures this; ``health`` is the measured fraction
        # of the nominal budget that is still deliverable.
        self.health = health

    def degrade_to(self, health):
        """Record a capacitance measurement; returns the new health."""
        if not 0.0 <= health <= 1.0:
            raise ValueError("health must be in [0, 1]: %r" % health)
        self.health = health
        return self.health

    @property
    def dump_budget_bytes(self):
        """Bytes the bank can push to flash after a power cut, at the
        currently measured health."""
        return int(self.count * self.dump_bytes_per_capacitor * self.health)

    @property
    def nominal_dump_budget_bytes(self):
        """The factory-fresh budget (health == 1.0)."""
        return int(self.count * self.dump_bytes_per_capacitor)

    @property
    def cost_usd(self):
        """About five USD for the prototype's fifteen capacitors."""
        return self.count * self.unit_price_usd

    def cost_fraction_of_device(self, device_price_usd=500.0):
        """The paper's headline: capacitors add ~1% to the SSD price."""
        if device_price_usd <= 0:
            raise ValueError("device price must be positive")
        return self.cost_usd / device_price_usd

    def dump_time(self, nbytes):
        """Seconds to dump ``nbytes``; only meaningful within budget."""
        if self.dump_bandwidth <= 0:
            return float("inf")
        return nbytes / self.dump_bandwidth

    def can_dump(self, nbytes):
        return nbytes <= self.dump_budget_bytes
