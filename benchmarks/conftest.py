"""Benchmark-suite configuration.

Every benchmark regenerates one registered table of the paper
(:data:`repro.bench.TABLES`) with :func:`regenerate`, the same call
``python -m repro <experiment>`` makes, and prints it (run pytest with
``-s`` to see the tables inline; they are also written to
``benchmarks/output/``).  Set ``REPRO_QUICK=1`` for a fast
smoke pass and ``REPRO_SCALE`` to trade fidelity for wall-clock.

Only a full-scale run (``REPRO_QUICK`` unset, ``REPRO_SCALE`` at its
default 256) rewrites the committed tables; quick or rescaled runs write
theirs to the gitignored ``benchmarks/output/quick/`` instead.
"""

import os

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: where quick or rescaled runs put their off-scale tables
QUICK_OUTPUT_DIR = os.path.join(OUTPUT_DIR, "quick")


def output_dir():
    """``benchmarks/output/`` at full scale, else its ``quick/`` child."""
    # Imported here: benchmarks/perf shares this conftest and runs
    # without ``src`` on the path.
    from repro.bench.setups import DEFAULT_SCALE, quick_mode, scale_factor
    if quick_mode() or scale_factor() != DEFAULT_SCALE:
        return QUICK_OUTPUT_DIR
    return OUTPUT_DIR


def emit(name, text):
    """Print a finished table and persist it under :func:`output_dir`."""
    print()
    print(text)
    directory = output_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def regenerate(benchmark, stem, **kwargs):
    """Run the registered table ``stem`` once under ``benchmark``, emit
    its text and return its results for the claim assertions."""
    from repro.bench import TABLES
    table = TABLES[stem]
    results = benchmark.pedantic(table.run, kwargs=kwargs, rounds=1,
                                 iterations=1)
    emit(stem, table.render(results))
    return results
