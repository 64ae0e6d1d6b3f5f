"""The LinkBench workload (Armstrong et al., SIGMOD'13).

Facebook's social-graph benchmark: nodes, typed links, and link counts,
with a read-heavy (~70/30) mix of ten operation types.  Because most
reads are absorbed by an upstream cache tier, the key distribution
reaching the database has modest locality — modelled as a scrambled
Zipfian over node ids.

The driver reports exactly what the paper's Tables/Figures need:
transactions per second plus per-operation latency distributions
(mean/P25/P50/P75/P99/max, Table 3).
"""

from itertools import accumulate

from ..sim import LatencyRecorder, ThroughputMeter
from ..sim.resources import Resource
from ..sim.rng import ZipfGenerator, make_rng
from ..telemetry.hub import NULL_SPAN

#: (operation name, weight %, kind) — the benchmark's default mix.
OPERATION_MIX = [
    ("GET_NODE", 12.9, "read"),
    ("COUNT_LINK", 4.9, "read"),
    ("GET_LINK_LIST", 50.7, "read"),
    ("MULTIGET_LINK", 0.5, "read"),
    ("ADD_NODE", 2.6, "write"),
    ("DELETE_NODE", 1.0, "write"),
    ("UPDATE_NODE", 7.4, "write"),
    ("ADD_LINK", 9.0, "write"),
    ("DELETE_LINK", 3.0, "write"),
    ("UPDATE_LINK", 8.0, "write"),
]

#: average row sizes (bytes) from the LinkBench data model
NODE_ROW_BYTES = 320
LINK_ROW_BYTES = 220
COUNT_ROW_BYTES = 32
LINKS_PER_NODE = 5


class LinkBenchConfig:
    """Scale and behaviour of one LinkBench database."""

    def __init__(self, db_bytes, zipf_theta=0.90, hot_fraction=0.95,
                 hot_node_fraction=0.003, range_rows=8,
                 cpu_per_operation=850e-6, cpu_per_page_kib=8e-6,
                 host_cores=32, seed=7):
        self.db_bytes = db_bytes
        # Request locality: ``hot_fraction`` of requests go (Zipf-skewed)
        # to a working set of ``hot_node_fraction`` of the graph; the
        # rest are uniform over everything.  This mixture reproduces the
        # 3-9% buffer miss ratios of Figure 6(a): LinkBench's traffic is
        # cache-filtered, but the social graph still has a hot core.
        self.zipf_theta = zipf_theta
        self.hot_fraction = hot_fraction
        self.hot_node_fraction = hot_node_fraction
        # Writes are NOT filtered by the caching tier, so they reach the
        # database with far less locality than reads — this is what
        # keeps the LRU tail full of cooling dirty pages and makes
        # "every other read blocked by writes" (Section 4.3.1) true.
        self.write_hot_fraction = 0.55
        self.range_rows = range_rows
        self.cpu_per_operation = cpu_per_operation
        # CPU per page touched scales with the page size: latching,
        # searching and copying a 16KB page costs ~4x a 4KB one.
        self.cpu_per_page_kib = cpu_per_page_kib
        self.host_cores = host_cores  # the paper's 4x8-core Xeon host
        self.seed = seed

    @property
    def n_nodes(self):
        per_node = (NODE_ROW_BYTES + LINKS_PER_NODE * LINK_ROW_BYTES
                    + COUNT_ROW_BYTES)
        return max(1000, int(self.db_bytes // per_node))


class LinkBenchResult:
    """Throughput plus per-operation latency distributions."""

    def __init__(self):
        self.meter = ThroughputMeter("linkbench")
        self.op_latency = {name: LatencyRecorder(name)
                           for name, _w, _k in OPERATION_MIX}
        self.reads = LatencyRecorder("reads")
        self.writes = LatencyRecorder("writes")
        self.buffer_miss_ratio = 0.0
        self.engine_counters = {}
        self.pool_stats = {}

    @property
    def tps(self):
        return self.meter.per_second()

    def latency_table(self):
        """{op: summary dict} in the paper's Table 3 shape (seconds)."""
        return {name: recorder.summary()
                for name, recorder in self.op_latency.items()}


class NodeSampler:
    """Draws node ids with the hot/cold mixture of LinkBenchConfig."""

    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, config, rng, hot_fraction=None):
        self._rng = rng
        self._n = config.n_nodes
        self._hot_fraction = (config.hot_fraction if hot_fraction is None
                              else hot_fraction)
        hot_count = max(100, int(self._n * config.hot_node_fraction))
        self._zipf = ZipfGenerator(hot_count, config.zipf_theta, rng)

    def next(self):
        if self._rng.random() < self._hot_fraction:
            rank = self._zipf.next()
            # spread the hot set across the id space deterministically
            return ((rank * self._GOLDEN) & 0xFFFFFFFFFFFFFFFF) % self._n
        return self._rng.randrange(self._n)


class LinkBenchWorkload:
    """Generates and executes the operation stream against an engine."""

    def __init__(self, engine, config):
        self.engine = engine
        self.config = config
        n_nodes = config.n_nodes
        self.node_table = engine.create_table("node", n_nodes,
                                              NODE_ROW_BYTES)
        self.link_table = engine.create_table("link",
                                              n_nodes * LINKS_PER_NODE,
                                              LINK_ROW_BYTES)
        self.count_table = engine.create_table("count", n_nodes,
                                               COUNT_ROW_BYTES)
        # random.choices accumulates its weights on every call; passing
        # them accumulated once draws the same values.
        self._cum_weights = list(accumulate(
            weight for _n, weight, _k in OPERATION_MIX))
        self._kinds = {name: kind for name, _w, kind in OPERATION_MIX}
        metrics = engine.sim.telemetry.metrics
        self._op_counter = metrics.counter("workload.ops")
        self._latency_hists = {
            "read": metrics.histogram("workload.read_latency"),
            "write": metrics.histogram("workload.write_latency"),
        }

    # --- key streams ----------------------------------------------------------
    def key_stream(self, rng):
        """Infinite (table, rank) pairs for warm-up, matching the op mix's
        page-touch distribution."""
        sampler = NodeSampler(self.config, rng)
        tables = [self.node_table, self.link_table, self.count_table]
        cum_weights = list(accumulate([20, 70, 10]))
        while True:
            node = sampler.next()
            table = rng.choices(tables, cum_weights=cum_weights)[0]
            if table is self.link_table:
                yield table, min(node * LINKS_PER_NODE,
                                 table.n_rows - 1)
            else:
                yield table, min(node, table.n_rows - 1)

    def warm(self):
        """Pre-fill the buffer pool (the paper's 600s warm-up run)."""
        rng = make_rng((self.config.seed, "warm"))
        self.engine.warm(self.key_stream(rng), dirty_rng=rng)

    # --- operations -------------------------------------------------------------
    def _operation(self, name, node):
        """Generator performing one LinkBench operation."""
        engine = self.engine
        node_rank = min(node, self.node_table.n_rows - 1)
        link_rank = min(node * LINKS_PER_NODE, self.link_table.n_rows - 1)
        count_rank = min(node, self.count_table.n_rows - 1)
        if name == "GET_NODE":
            yield from engine.read_rank(self.node_table, node_rank)
        elif name == "COUNT_LINK":
            yield from engine.read_rank(self.count_table, count_rank)
        elif name == "GET_LINK_LIST":
            yield from engine.scan(self.link_table, link_rank,
                                   self.config.range_rows)
        elif name == "MULTIGET_LINK":
            yield from engine.scan(self.link_table, link_rank, 2)
        elif name in ("ADD_NODE", "UPDATE_NODE", "DELETE_NODE"):
            yield from self._write_txn(
                [(self.node_table, node_rank)])
        elif name == "UPDATE_LINK":
            yield from self._write_txn(
                [(self.link_table, link_rank)])
        elif name in ("ADD_LINK", "DELETE_LINK"):
            yield from self._write_txn(
                [(self.link_table, link_rank),
                 (self.count_table, count_rank)])
        else:
            raise ValueError("unknown operation: %r" % name)

    def _write_txn(self, modifications):
        """One write transaction; aborted (locks released) on any failure.

        Without the abort, a modify or commit failing mid-transaction —
        a deadlock victim, a device timeout escalation, a read-only
        rejection — would leak its page locks and convoy every later
        writer of those pages behind a transaction that no longer exists.
        """
        engine = self.engine
        txn = engine.begin()
        try:
            for table, rank in modifications:
                yield from engine.modify_rank(txn, table, rank)
            yield from engine.commit(txn)
        except BaseException:
            engine.abort(txn)
            raise

    def _pages_touched(self, name):
        """Approximate page touches, for the CPU cost model."""
        if name in ("GET_LINK_LIST",):
            return self.link_table.depth + 1
        if name in ("ADD_LINK", "DELETE_LINK"):
            return self.link_table.depth + self.count_table.depth
        return self.node_table.depth

    # --- the driver -----------------------------------------------------------------
    def run(self, clients, ops_per_client, warmup_ops=20,
            warm_buffer=True):
        """Run the benchmark; returns a :class:`LinkBenchResult`.

        ``warmup_ops`` per client are executed but not measured, on top
        of the untimed buffer-pool warm-up.
        """
        sim = self.engine.sim
        if warm_buffer:
            self.warm()
        result = LinkBenchResult()
        names = [name for name, _w, _k in OPERATION_MIX]
        misses_at_start = {}
        cores = Resource(sim, capacity=self.config.host_cores)
        telemetry = sim.telemetry
        metrics = telemetry.metrics

        def client(index):
            rng = make_rng((self.config.seed, "client", index))
            sampler = NodeSampler(self.config, rng)
            write_sampler = NodeSampler(self.config, rng,
                                        self.config.write_hot_fraction)
            for i in range(warmup_ops + ops_per_client):
                if i == warmup_ops and index == 0:
                    result.meter.start_window(sim.now)
                    misses_at_start.update(self.engine.pool.stats)
                name = rng.choices(names, cum_weights=self._cum_weights)[0]
                if self._kinds[name] == "write":
                    node = write_sampler.next()
                else:
                    node = sampler.next()
                begin = sim.now
                page_kib = self.engine.config.page_size / 1024.0
                cpu = (self.config.cpu_per_operation +
                       self._pages_touched(name) * page_kib *
                       self.config.cpu_per_page_kib)
                with (telemetry.span("op." + name, "workload",
                                     client=index, node=node)
                      if telemetry.enabled else NULL_SPAN):
                    with (telemetry.span("op.cpu", "workload")
                          if telemetry.enabled else NULL_SPAN):
                        yield cores.acquire()
                        try:
                            yield cpu
                        finally:
                            cores.release()
                    yield from self._operation(name, node)
                if i >= warmup_ops:
                    latency = sim.now - begin
                    result.op_latency[name].record(latency)
                    target = (result.reads if self._kinds[name] == "read"
                              else result.writes)
                    target.record(latency)
                    result.meter.record(sim.now)
                    if metrics.enabled:
                        self._op_counter.inc()
                        self._latency_hists[self._kinds[name]].observe(
                            latency)

        done = sim.all_of([sim.process(client(i)) for i in range(clients)])
        sim.run_until(done)
        stats = self.engine.pool.stats
        hits = stats["hits"] - misses_at_start.get("hits", 0)
        misses = stats["misses"] - misses_at_start.get("misses", 0)
        result.buffer_miss_ratio = (misses / (hits + misses)
                                    if hits + misses else 0.0)
        result.engine_counters = dict(self.engine.counters)
        result.pool_stats = dict(stats)
        return result
