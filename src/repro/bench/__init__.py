"""Experiment drivers: one module per table or figure of the paper,
plus the ablations.

:data:`EXPERIMENTS` is the one ordered registry of them.  Each
experiment maps to its :class:`Table` entries, and each table's text is
``render(run(...))``; ``python -m repro <experiment>``, ``python -m
repro all`` and the paper-claims suite under ``benchmarks/`` all make
that call, so the CLI prints exactly the committed
``benchmarks/output/<stem>.txt``.
"""

from typing import Callable, NamedTuple, Tuple

from . import (  # noqa: F401
    ablations,
    atomicity,
    bursts,
    figure5,
    figure6,
    setups,
    table1,
    table2,
    table3,
    table4,
    table5,
    tableio,
    torture,
)


class Table(NamedTuple):
    """One committed table, ``benchmarks/output/<stem>.txt``.

    ``run(spec=..., worlds=...)`` measures it (a traced experiment's
    ``run`` also takes ``telemetry=``) and ``render(results)`` is its
    text.
    """

    stem: str
    run: Callable
    render: Callable


class Experiment(NamedTuple):
    """A named experiment: a title and its tables, in print order."""

    title: str
    tables: Tuple[Table, ...]


EXPERIMENTS = {
    "table1": Experiment(
        "Table 1: fsync/flush-cache vs 4KB write IOPS",
        (Table("table1", table1.run, table1.format_table),)),
    "table2": Experiment(
        "Table 2: page size vs IOPS",
        (Table("table2", table2.run, table2.format_table),)),
    "figure5": Experiment(
        "Figure 5: LinkBench TPS across configurations",
        (Table("figure5", figure5.run, figure5.format_table),)),
    "figure6": Experiment(
        "Figure 6: miss ratio / TPS vs buffer size",
        (Table("figure6", figure6.run, figure6.format_table),)),
    "table3": Experiment(
        "Table 3: LinkBench latency distributions",
        (Table("table3", table3.run, table3.format_table),)),
    "table4": Experiment(
        "Table 4: TPC-C tpmC",
        (Table("table4", table4.run, table4.format_table),)),
    "table5": Experiment(
        "Table 5: Couchbase YCSB vs fsync batch",
        (Table("table5", table5.run, table5.format_table),)),
    "ablations": Experiment(
        "Ablations: lifetime, capacitors, mapping, flush",
        (Table("ablation_write_amplification",
               ablations.run_write_amplification,
               ablations.format_write_amplification),
         Table("ablation_capacitors", ablations.run_capacitor_sweep,
               ablations.format_capacitor_sweep),
         Table("ablation_mapping", ablations.run_mapping_granularity,
               ablations.format_mapping_granularity),
         Table("ablation_flush", ablations.run_flush_semantics,
               ablations.format_flush_semantics),
         Table("ablation_victim_policy", ablations.run_victim_policies,
               ablations.format_victim_policies))),
    "atomicity": Experiment(
        "Atomic-write mechanism comparison",
        (Table("ablation_atomicity", atomicity.run,
               atomicity.format_table),
         Table("ablation_sqlite", atomicity.run_sqlite_comparison,
               atomicity.format_sqlite_table))),
    "bursts": Experiment(
        "Write-burst absorption / tail tolerance",
        (Table("bursts", bursts.run, bursts.format_table),)),
}

#: every committed table by its file stem
TABLES = {table.stem: table for experiment in EXPERIMENTS.values()
          for table in experiment.tables}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "TABLES",
    "Table",
    "ablations",
    "atomicity",
    "bursts",
    "figure5",
    "figure6",
    "setups",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "tableio",
    "torture",
]
