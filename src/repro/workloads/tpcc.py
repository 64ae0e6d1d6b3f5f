"""The TPC-C order-entry benchmark.

Five transaction types over the nine-table warehouse schema, with the
standard mix (45% New-Order, 43% Payment, 4% each of Order-Status,
Delivery and Stock-Level).  Throughput is reported as **tpmC** —
New-Order transactions per minute — the metric of Table 4.

The paper's run: 1,000 warehouses (~100GB), 2GB buffer pool, Benchmark
Factory clients over GigE against a commercial DBMS.  We scale the
warehouse count with the database size and keep the per-transaction
page-access profiles at their TPC-C values.
"""

from itertools import accumulate

from ..sim import LatencyRecorder, ThroughputMeter
from ..sim.resources import Resource
from ..sim.rng import make_rng

#: (name, weight %) — the standard TPC-C transaction mix
TRANSACTION_MIX = [
    ("NEW_ORDER", 45.0),
    ("PAYMENT", 43.0),
    ("ORDER_STATUS", 4.0),
    ("DELIVERY", 4.0),
    ("STOCK_LEVEL", 4.0),
]

#: full-scale rows per warehouse (TPC-C spec) and row sizes
FULL_STOCK_PER_WAREHOUSE = 100_000
FULL_CUSTOMER_PER_WAREHOUSE = 30_000
FULL_ORDER_LINES_PER_WAREHOUSE = 300_000
DISTRICTS_PER_WAREHOUSE = 10
FULL_ITEM_ROWS = 100_000


class TPCCConfig:
    """Scale and cost model for one TPC-C database.

    The warehouse (and district) count stays at the paper's 1,000 —
    district-row contention is a first-order effect in TPC-C and must
    not be distorted — while the *rows per warehouse* shrink by
    ``scale`` so the database and buffer pool fit a laptop.
    """

    def __init__(self, scale=256, warehouses=1000,
                 cpu_per_transaction=2.2e-3,
                 cpu_per_page_kib=8e-6, host_cores=32,
                 remote_client_rtt=250e-6, seed=11):
        self.scale = scale
        self.warehouses = warehouses
        self.cpu_per_transaction = cpu_per_transaction
        self.cpu_per_page_kib = cpu_per_page_kib
        self.host_cores = host_cores
        # Benchmark Factory drove the server over Gigabit Ethernet.
        self.remote_client_rtt = remote_client_rtt
        self.seed = seed

    @property
    def stock_per_warehouse(self):
        return max(40, FULL_STOCK_PER_WAREHOUSE // self.scale)

    @property
    def customer_per_warehouse(self):
        return max(20, FULL_CUSTOMER_PER_WAREHOUSE // self.scale)

    @property
    def order_lines_per_warehouse(self):
        return max(120, FULL_ORDER_LINES_PER_WAREHOUSE // self.scale)

    @property
    def item_rows(self):
        return max(400, FULL_ITEM_ROWS // self.scale)


class TPCCResult:
    def __init__(self):
        self.meter = ThroughputMeter("tpcc")          # all transactions
        self.new_orders = ThroughputMeter("neworder")  # tpmC source
        self.latency = {name: LatencyRecorder(name)
                        for name, _w in TRANSACTION_MIX}

    @property
    def tpmc(self):
        return self.new_orders.per_minute()

    @property
    def tps(self):
        return self.meter.per_second()


class TPCCWorkload:
    """TPC-C over a page-engine (the commercial engine in the paper)."""

    def __init__(self, engine, config):
        self.engine = engine
        self.config = config
        warehouses = config.warehouses
        self.stock = engine.create_table(
            "stock", warehouses * config.stock_per_warehouse, 300)
        self.customer = engine.create_table(
            "customer", warehouses * config.customer_per_warehouse, 600)
        self.district = engine.create_table(
            "district", warehouses * DISTRICTS_PER_WAREHOUSE, 100)
        self.item = engine.create_table("item", config.item_rows, 80)
        self.orders = engine.create_table(
            "orders", warehouses * config.order_lines_per_warehouse // 10, 60)
        self.order_line = engine.create_table(
            "order_line", warehouses * config.order_lines_per_warehouse, 70)
        # random.choices accumulates its weights on every call; passing
        # them accumulated once draws the same values.
        self._cum_weights = list(accumulate(
            weight for _n, weight in TRANSACTION_MIX))
        self._names = [name for name, _w in TRANSACTION_MIX]
        # per-district append cursors: order inserts land on the hot
        # tail pages of the orders/order_line trees, as they do in a
        # real TPC-C database
        self._order_cursor = {}

    # --- key helpers ------------------------------------------------------------
    def _rank(self, rng, table, warehouse, per_warehouse):
        base = warehouse * per_warehouse
        return min(base + rng.randrange(per_warehouse), table.n_rows - 1)

    def _customer_rank(self, rng, warehouse):
        """NURand-style skew: 60% of accesses hit a hot 10% of the
        warehouse's customers."""
        span = self.config.customer_per_warehouse
        base = warehouse * span
        if rng.random() < 0.6:
            rank = base + rng.randrange(max(1, span // 10))
        else:
            rank = base + rng.randrange(span)
        return min(rank, self.customer.n_rows - 1)

    def _order_insert_rank(self, rng, table, warehouse, per_warehouse):
        """Inserts append at a per-district cursor: tail pages stay hot."""
        district = (warehouse, rng.randrange(DISTRICTS_PER_WAREHOUSE),
                    table.space_id)
        cursor = self._order_cursor.get(district, 0)
        self._order_cursor[district] = cursor + 1
        base = warehouse * per_warehouse
        window = max(1, table.leaf_capacity * 2)
        return min(base + (cursor % window), table.n_rows - 1)

    # --- transaction bodies ---------------------------------------------------------
    def _new_order(self, rng, warehouse):
        """~23 reads (district, customer, 10 items, 10 stocks) and ~14
        writes (district counter, 10 stock rows, order + lines)."""
        engine = self.engine
        txn = engine.begin()
        yield from engine.read_rank(self.customer,
                                    self._customer_rank(rng, warehouse))
        yield from engine.modify_rank(
            txn, self.district, self._rank(rng, self.district, warehouse,
                                           DISTRICTS_PER_WAREHOUSE))
        # Stock rows are locked in sorted order — the standard TPC-C
        # implementation trick that avoids lock-order deadlocks between
        # concurrent New-Orders.
        stock_ranks = sorted(
            self._rank(rng, self.stock, warehouse,
                       self.config.stock_per_warehouse)
            for _ in range(10))
        for stock_rank in stock_ranks:
            yield from engine.read_rank(
                self.item, rng.randrange(self.item.n_rows))
            yield from engine.modify_rank(txn, self.stock, stock_rank)
        yield from engine.modify_rank(
            txn, self.orders,
            self._order_insert_rank(rng, self.orders, warehouse,
                                    self.config.order_lines_per_warehouse // 10))
        yield from engine.modify_rank(
            txn, self.order_line,
            self._order_insert_rank(rng, self.order_line, warehouse,
                                    self.config.order_lines_per_warehouse))
        yield from engine.commit(txn)

    def _payment(self, rng, warehouse):
        engine = self.engine
        txn = engine.begin()
        yield from engine.modify_rank(
            txn, self.district, self._rank(rng, self.district, warehouse,
                                           DISTRICTS_PER_WAREHOUSE))
        yield from engine.modify_rank(txn, self.customer,
                                      self._customer_rank(rng, warehouse))
        yield from engine.commit(txn)

    def _order_status(self, rng, warehouse):
        engine = self.engine
        yield from engine.read_rank(self.customer,
                                    self._customer_rank(rng, warehouse))
        yield from engine.scan(
            self.order_line,
            self._order_insert_rank(rng, self.order_line, warehouse,
                                    self.config.order_lines_per_warehouse), 10)

    def _delivery(self, rng, warehouse):
        engine = self.engine
        txn = engine.begin()
        order_ranks = sorted(
            self._order_insert_rank(rng, self.orders, warehouse,
                                    self.config.order_lines_per_warehouse
                                    // 10)
            for _ in range(10))
        for order_rank in order_ranks:
            yield from engine.modify_rank(txn, self.orders, order_rank)
        yield from engine.commit(txn)

    def _stock_level(self, rng, warehouse):
        engine = self.engine
        yield from engine.scan(
            self.stock, self._rank(rng, self.stock, warehouse,
                                   self.config.stock_per_warehouse),
            min(200, self.config.stock_per_warehouse))

    def _pages_touched(self, name):
        depth = self.stock.depth
        return {"NEW_ORDER": 25 * depth,
                "PAYMENT": 2 * depth,
                "ORDER_STATUS": 2 * depth + 2,
                "DELIVERY": 10 * depth,
                "STOCK_LEVEL": depth + 8}[name]

    # --- warm-up & driver --------------------------------------------------------------
    def key_stream(self, rng):
        tables = [(self.stock, self.config.stock_per_warehouse, 40),
                  (self.customer, self.config.customer_per_warehouse, 25),
                  (self.item, None, 20),
                  (self.district, DISTRICTS_PER_WAREHOUSE, 10),
                  (self.order_line, self.config.order_lines_per_warehouse, 5)]
        choices = [entry for entry in tables]
        weights = [weight for _t, _p, weight in tables]
        warehouses = self.config.warehouses
        while True:
            table, per_wh, _weight = rng.choices(choices, weights=weights)[0]
            if per_wh is None:
                yield table, rng.randrange(table.n_rows)
                continue
            warehouse = rng.randrange(warehouses)
            if table is self.customer:
                yield table, self._customer_rank(rng, warehouse)
            else:
                yield table, self._rank(rng, table, warehouse, per_wh)

    def run(self, clients=64, txns_per_client=100, warmup_txns=15,
            warm_buffer=True):
        sim = self.engine.sim
        if warm_buffer:
            rng = make_rng((self.config.seed, "warm"))
            self.engine.warm(self.key_stream(rng), dirty_rng=rng)
        result = TPCCResult()
        cores = Resource(sim, capacity=self.config.host_cores)
        bodies = {"NEW_ORDER": self._new_order, "PAYMENT": self._payment,
                  "ORDER_STATUS": self._order_status,
                  "DELIVERY": self._delivery,
                  "STOCK_LEVEL": self._stock_level}

        def client(index):
            rng = make_rng((self.config.seed, "client", index))
            for i in range(warmup_txns + txns_per_client):
                if i == warmup_txns and index == 0:
                    result.meter.start_window(sim.now)
                    result.new_orders.start_window(sim.now)
                name = rng.choices(self._names,
                                   cum_weights=self._cum_weights)[0]
                warehouse = rng.randrange(self.config.warehouses)
                begin = sim.now
                yield self.config.remote_client_rtt
                page_kib = self.engine.config.page_size / 1024.0
                cpu = (self.config.cpu_per_transaction +
                       self._pages_touched(name) * page_kib *
                       self.config.cpu_per_page_kib)
                yield cores.acquire()
                try:
                    yield cpu
                finally:
                    cores.release()
                yield from bodies[name](rng, warehouse)
                if i >= warmup_txns:
                    result.latency[name].record(sim.now - begin)
                    result.meter.record(sim.now)
                    if name == "NEW_ORDER":
                        result.new_orders.record(sim.now)

        done = sim.all_of([sim.process(client(i)) for i in range(clients)])
        sim.run_until(done)
        return result
