"""Command-line entry point: regenerate any of the paper's artifacts.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro all            # every table and figure, in order
    REPRO_QUICK=1 python -m repro figure5

    python -m repro trace table1 --out trace.json   # telemetry trace
    python -m repro table1 --telemetry              # trace the real run

    python -m repro torture innodb durassd          # crash-point sweep
    python -m repro torture --smoke                 # CI torture gate

    python -m repro chaos --seeds 20                # gray-failure sweeps
    python -m repro chaos --smoke                   # CI chaos gate
    python -m repro chaos --corruption bit-rot --mirror 2
    python -m repro table1 --gray-faults mild       # benches on a sick device

    python -m repro integrity                       # corruption vs defenses
    python -m repro integrity --smoke               # CI integrity gate

    python -m repro failover                        # rebuild MTTR vs pace
    python -m repro failover --smoke                # CI failover gate
    python -m repro chaos --death mid-death --mirror 2 --spares 1
    python -m repro chaos --list-profiles           # every fault profile

    python -m repro scaling                         # stripe-width sweep
    python -m repro figure5 --devices 4             # any bench, striped data
    python -m repro figure5 --mirror 2              # any bench, mirrored data
    python -m repro table5 --log-device             # dedicated log placement
    python -m repro figure5 --interface nvme --sq 4 # NVMe multi-queue host
    python -m repro table5 --queue-depth 64         # deeper queue slots

    python -m repro explain linkbench               # latency blame report
    python -m repro regress                         # perf gate vs baseline

    python -m repro monitor figure5                 # metrics + SLO dashboard
    python -m repro table1 --metrics-interval 0.01  # any bench + series CSV

    python -m repro profile figure5-small           # simulator self-profile
    python -m repro table5 --profile                # any bench + wall report

    python -m repro validate trace.json --min-tracks 4  # schema checks
    python -m repro validate profile.json              # a run record

    python -m repro <command> --help                # options, scenarios

World flags.  Every bench table, ``all``, ``scaling``, ``regress``,
``explain``, ``monitor``, ``profile`` and ``trace`` take the same flags
and build one :class:`~repro.bench.setups.WorldSpec` from them::

    --devices N            stripe the data target over N devices
    --mirror N             mirror the data target across N devices
    --log-device           give the Couchbase world its own log device
    --interface sata|nvme  host queue model (default sata)
    --sq N                 NVMe submission queues (default 2)
    --queue-depth N        slots per queue (default 32)
    --gray-faults PROFILE  inject a gray-fault profile into every device
    --metrics-interval S   windowed metrics, exported as <command>-metrics.csv
    --profile              self-profile, reported as <command>-profile.json
"""

import argparse
import json
import sys

from .bench import (
    EXPERIMENTS,
    chaos,
    explain,
    failover,
    integrity,
    monitor,
    profile,
    regress,
    run_table,
    scaling,
    torture,
    tracing,
)
from .bench.scenarios import CORRUPTION_PROFILES, DEATH_PROFILES, \
    GRAY_PROFILES, TRACED
from .bench.setups import WorldSpec
from .devices import DEVICE_MAKERS
from .failures.chaos import chaos_scenario
from .failures.torture import ENGINES
from .host.queues import INTERFACES, QueueTopology
from .telemetry import validate

#: the experiments, in ``all``'s order (see :data:`repro.bench.EXPERIMENTS`)
ORDER = list(EXPERIMENTS)

#: experiments with a traced table (--telemetry flag)
TELEMETRY_CAPABLE = frozenset(
    name for name, experiment in EXPERIMENTS.items()
    if any(table.traced is not None for table in experiment.tables))

#: the world flags' dests; every other option a world command parses is
#: a keyword argument of its module's ``main``
WORLD_FLAGS = ("devices", "mirror", "log_device", "interface", "sq",
               "queue_depth", "gray_faults", "metrics_interval", "profile")


def count(text):
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1: %s" % text)
    return value


def seconds(text):
    """An argparse type: a duration > 0 (seconds)."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0: %s" % text)
    return value


def names(text):
    """An argparse type: a comma-separated list of names."""
    return [name for name in text.split(",") if name]


def paces(text):
    """An argparse type: comma-separated rebuild paces > 0 (seconds)."""
    values = tuple(float(pace) for pace in text.split(","))
    if min(values) <= 0:
        raise argparse.ArgumentTypeError("paces must be > 0: %s" % text)
    return values


def _add_world_commands(commands, world):
    """The world commands: the world flags plus options of their own,
    run as ``module.main(spec=..., worlds=..., **options)``."""
    def command(name, module, scenarios=None, aliases=None):
        epilog = None
        if scenarios is not None:
            lines = scenarios.listing() + [
                "  %-9s alias for %s" % pair
                for pair in sorted((aliases or {}).items())]
            epilog = "scenarios:\n" + "\n".join(lines)
        parser = commands.add_parser(
            name, parents=[world], description=module.__doc__,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            allow_abbrev=False)
        parser.set_defaults(run=module.main, parser=parser)
        if scenarios is not None:
            parser.add_argument("scenario", nargs="?", metavar="SCENARIO",
                                choices=scenarios.names()
                                + sorted(aliases or ()))
        return parser

    def paths(parser, *flags):
        for flag in flags:
            parser.add_argument("--" + flag, dest=flag + "_path",
                                metavar="PATH")

    sub = command("scaling", scaling)
    sub.add_argument("--smoke", action="store_true",
                     help="CI: widths 1/2, tiny ops")
    sub.add_argument("--ops", type=count, metavar="N")
    sub.add_argument("--out", dest="out_path", metavar="PATH",
                     default=scaling.BASELINE_PATH)

    sub = command("regress", regress)
    sub.add_argument("--baseline", dest="baseline_path", metavar="PATH",
                     default=regress.BASELINE_PATH)
    paths(sub, "json")
    sub.add_argument("--smoke", action="store_true",
                     help="CI: width-1 cells only, tolerances %g"
                     % regress.SMOKE_TOLERANCE)
    sub.add_argument("--tps-tol", type=float, metavar="FRACTION",
                     help="default %g" % regress.TPS_TOLERANCE)
    sub.add_argument("--p99-tol", type=float, metavar="FRACTION",
                     help="default %g" % regress.P99_TOLERANCE)

    sub = command("explain", explain, explain.SCENARIOS)
    sub.add_argument("--quick", action="store_true")
    paths(sub, "json", "out")
    sub.add_argument("--top", dest="top_k", type=int, default=5,
                     metavar="N")

    sub = command("monitor", monitor, TRACED)
    paths(sub, "out", "json", "prom", "csv")
    sub.add_argument("--quiet", action="store_true")

    sub = command("profile", profile, TRACED, profile.ALIASES)
    paths(sub, "out", "json", "collapsed")
    sub.add_argument("--top", type=int, default=profile.DEFAULT_TOP,
                     metavar="N")
    sub.add_argument("--no-alloc", dest="alloc", action="store_false")
    sub.add_argument("--no-ablation", dest="ablation",
                     action="store_false")

    sub = command("trace", tracing, TRACED)
    sub.add_argument("--out", dest="out_path", default="trace.json",
                     metavar="PATH")
    paths(sub, "jsonl")
    sub.add_argument("--sample-interval", type=seconds, default=0.002,
                     metavar="SECONDS")
    sub.add_argument("--quiet", action="store_true")


def _add_validate(commands):
    """The artifact validator: no world flags."""
    sub = commands.add_parser(
        "validate", description=validate.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False)
    sub.add_argument("paths", nargs="+", metavar="FILE")
    tracks = sub.add_argument_group("trace checks")
    tracks.add_argument("--min-tracks", type=int, default=0, metavar="N")
    tracks.add_argument("--require-tracks", type=names, default=(),
                        metavar="NAME[,NAME...]")
    tracks.add_argument("--check-probe-attrs", action="store_true")


def _add_campaigns(commands):
    """The fault campaigns: scenario flags of their own, no world flags."""
    def campaign(name, module, seed=11, epilog=None):
        parser = commands.add_parser(
            name, description=module.__doc__, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            allow_abbrev=False)
        parser.add_argument("--smoke", action="store_true",
                            help="the quick CI gate")
        parser.add_argument("--ops", type=count, metavar="N")
        parser.add_argument("--seed", type=int, default=seed)
        return parser

    def engine_and_device(parser):
        parser.add_argument("engine", nargs="?", choices=ENGINES,
                            default="innodb", metavar="ENGINE")
        parser.add_argument("device", nargs="?",
                            choices=tuple(DEVICE_MAKERS),
                            default="durassd", metavar="DEVICE")

    sub = campaign("torture", torture)
    engine_and_device(sub)
    sub.add_argument("--barriers", choices=("auto", "on", "off"),
                     default="auto")
    sub.add_argument("--no-doublewrite", action="store_true")
    sub.add_argument("--max-trials", type=count, metavar="N")
    sub.add_argument("--out", metavar="PATH")

    # --seed: the smoke gate's default is 11, a sweep's is 0
    sub = campaign("chaos", chaos, seed=None, epilog=chaos.profile_listing())
    engine_and_device(sub)
    sub.add_argument("--seeds", type=count, default=1, metavar="N")
    sub.add_argument("--profile", choices=GRAY_PROFILES.names(),
                     metavar="NAME")
    sub.add_argument("--corruption", choices=CORRUPTION_PROFILES.names(),
                     metavar="NAME")
    sub.add_argument("--death", choices=DEATH_PROFILES.names(),
                     metavar="NAME")
    sub.add_argument("--death-target", default="data")
    sub.add_argument("--mirror", type=count, default=1, metavar="N")
    sub.add_argument("--spares", type=int, default=0, metavar="N")
    sub.add_argument("--interface", choices=INTERFACES, default="sata")
    sub.add_argument("--sq", type=count, default=2, metavar="N")
    sub.add_argument("--out", metavar="PATH")
    sub.add_argument("--replay", metavar="PATH")
    sub.add_argument("--list-profiles", action="store_true")

    sub = campaign("integrity", integrity,
                   epilog="corruption profiles:\n"
                   + "\n".join(CORRUPTION_PROFILES.listing()))
    sub.add_argument("--profile", choices=CORRUPTION_PROFILES.names(),
                     metavar="NAME")
    sub.add_argument("--mirror", type=count, metavar="N")

    sub = campaign("failover", failover,
                   epilog="death profiles:\n"
                   + "\n".join(DEATH_PROFILES.listing()))
    sub.add_argument("--death", choices=failover.SINGLE_DEATHS,
                     default="mid-death", metavar="NAME")
    sub.add_argument("--pace", type=paces, metavar="P[,P...]")


def _torture(args, parser):
    if args.smoke:
        return torture.smoke(ops=args.ops, seed=args.seed)
    return torture.full(
        args.engine, args.device, ops=args.ops, seed=args.seed,
        barriers={"auto": None, "on": True, "off": False}[args.barriers],
        doublewrite=not args.no_doublewrite, max_trials=args.max_trials,
        out_path=args.out)


def _chaos(args, parser):
    if args.list_profiles:
        print(chaos.profile_listing())
        return 0
    if args.replay:
        return chaos.replay(args.replay)
    if args.smoke:
        return chaos.smoke(ops=args.ops,
                           seed=11 if args.seed is None else args.seed)
    world = dict(mirror=args.mirror, death_target=args.death_target,
                 spares=args.spares, interface=args.interface,
                 submission_queues=args.sq)
    try:
        chaos_scenario(engine=args.engine, device=args.device, **world)
    except ValueError as error:
        parser.error(str(error))
    return chaos.sweep(
        args.engine, args.device, args.profile, seeds=args.seeds,
        ops=args.ops, base_seed=0 if args.seed is None else args.seed,
        out_path=args.out, corruption=args.corruption, death=args.death,
        **world)


def _integrity(args, parser):
    if args.smoke:
        return integrity.smoke(seed=args.seed, ops=args.ops)
    return integrity.sweep(profiles=[args.profile] if args.profile else None,
                           seed=args.seed, ops=args.ops, mirror=args.mirror)


def _failover(args, parser):
    if args.smoke:
        return failover.smoke(seed=args.seed, ops=args.ops)
    return failover.sweep(seed=args.seed, ops=args.ops, death=args.death,
                          paces=args.pace or failover.PACES)


#: fault campaigns: each runs as ``run(args, parser)``
CAMPAIGNS = {
    "torture": _torture,
    "chaos": _chaos,
    "integrity": _integrity,
    "failover": _failover,
}


def build_parser():
    """The CLI parser: one subcommand per command, the world flags in
    one parent parser they share."""
    world = argparse.ArgumentParser(add_help=False)
    flags = world.add_argument_group("world flags")
    flags.add_argument("--devices", type=int, default=1, metavar="N")
    flags.add_argument("--mirror", type=int, default=1, metavar="N")
    flags.add_argument("--log-device", action="store_true")
    flags.add_argument("--interface", choices=INTERFACES, default="sata")
    flags.add_argument("--sq", type=int, default=2, metavar="N")
    flags.add_argument("--queue-depth", type=int, metavar="N")
    flags.add_argument("--gray-faults", choices=GRAY_PROFILES.names(),
                       metavar="PROFILE")
    flags.add_argument("--metrics-interval", type=float, metavar="SECONDS")
    flags.add_argument("--profile", action="store_true")

    parser = argparse.ArgumentParser(prog="python -m repro")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    for name in ORDER + ["all"]:
        bench = commands.add_parser(name, parents=[world],
                                    allow_abbrev=False)
        if name in TELEMETRY_CAPABLE:
            bench.add_argument("--telemetry", action="store_true")
            bench.add_argument("--out", metavar="PATH")
    _add_world_commands(commands, world)
    _add_campaigns(commands)
    _add_validate(commands)
    return parser


def world_spec(args):
    """The :class:`WorldSpec` the parsed world flags describe; raises
    ``ValueError`` on a bad combination."""
    gray = None if args.gray_faults == "none" else args.gray_faults
    return WorldSpec(
        data_devices=args.devices, mirror=args.mirror,
        dedicated_log=args.log_device,
        topology=QueueTopology.for_interface(args.interface, args.sq,
                                             args.queue_depth),
        gray_faults=gray, metrics_interval=args.metrics_interval,
        profile=args.profile)


def _emit_profile(target, worlds, spec):
    """Report the self-profile of every world a ``--profile`` run
    built: a pooled summary on stdout, and the run record
    ``<target>-profile.json`` with the aggregate as its ``profile``."""
    profilers = [world.telemetry.profiler for world in worlds
                 if world.telemetry.profiler is not None
                 and world.telemetry.profiler.steps]
    if not profilers:
        return
    from .bench.runner import envelope
    from .sim.profiler import aggregate
    report = aggregate(profilers)
    path = "%s-profile.json" % target
    with open(path, "w") as handle:
        json.dump(envelope(target, spec, outcome=None, profile=report),
                  handle, indent=2, sort_keys=True)
    print("\nself-profile: %d world(s), %d events, %.2fx real time, "
          "%.0f events/sec -> %s"
          % (report["worlds"], report["steps"],
             report["real_time_factor"], report["events_per_sec"], path))
    for row in report["layers"][:5]:
        print("  %-10s %6.1f%%  %.3fs" % (row["layer"],
                                          row["share"] * 100,
                                          row["wall_s"]))


def _emit_metrics(target, worlds):
    """Export the series of every metrics-armed world a run built
    (``--metrics-interval``) as long-format CSV, one world column."""
    sims = [world for world in worlds if world.telemetry.metrics.enabled]
    if not sims:
        return
    from .telemetry import series as series_mod
    path = "%s-metrics.csv" % target
    lines = []
    windows = 0
    for index, sim in enumerate(sims):
        registry = sim.telemetry.metrics
        registry.finish()
        windows += len(registry.windows)
        chunk = series_mod.csv_lines(registry, world=index)
        lines.extend(chunk if not lines else chunk[1:])
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\nmetrics: %d world(s), %d window(s) at %gs intervals -> %s"
          % (len(sims), windows, sims[0].telemetry.metrics.interval, path))


def _emit(target, worlds, spec):
    _emit_metrics(target, worlds)
    _emit_profile(target, worlds, spec)


def _run_bench(name, args, spec):
    """Print the experiment's tables, each ``render(run(...))`` exactly
    as committed, separated by blank lines."""
    worlds = []
    telemetry = None
    if getattr(args, "telemetry", False):
        from .telemetry import Telemetry
        telemetry = Telemetry(enabled=True)
    for index, table in enumerate(EXPERIMENTS[name].tables):
        if index:
            print()
        print(table.render(run_table(table, spec, worlds, telemetry)))
    if telemetry is not None:
        out = args.out or "%s-trace.json" % name
        telemetry.write_chrome_trace(out)
        print("\nchrome trace of the representative %s run: %s "
              "(%d events, tracks: %s)"
              % (name, out, len(telemetry.events),
                 ", ".join(telemetry.tracks())))
    _emit(name, worlds, spec)


def _run_world_command(args, spec):
    """Hand every option but the world flags to the command's ``main``."""
    options = {dest: value for dest, value in vars(args).items()
               if dest not in WORLD_FLAGS + ("command", "run", "parser")}
    sub = args.parser
    if options.get("scenario", "") is None:
        sub.error("a SCENARIO is required; --help lists them")
    if args.command == "scaling":
        refusal = scaling.baseline_refusal(spec=spec, **options)
        if refusal:
            sub.error(refusal)
    worlds = []
    status = args.run(spec=spec, worlds=worlds, **options)
    _emit(args.command, worlds, spec)
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("experiments:")
        for name in ORDER:
            flag = " [--telemetry]" if name in TELEMETRY_CAPABLE else ""
            print("  %-10s %s%s" % (name, EXPERIMENTS[name].title, flag))
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command in CAMPAIGNS:
        return CAMPAIGNS[command](args, parser)
    if command == "validate":
        return validate.main(args.paths, min_tracks=args.min_tracks,
                             require_tracks=args.require_tracks,
                             check_probe_attrs=args.check_probe_attrs)
    try:
        spec = world_spec(args)
    except ValueError as error:
        parser.error(str(error))
    if hasattr(args, "run"):
        return _run_world_command(args, spec)
    if command == "all":
        for name in ORDER:
            print("=" * 70)
            print("== %s" % EXPERIMENTS[name].title)
            print("=" * 70)
            _run_bench(name, args, spec)
            print()
        return 0
    _run_bench(command, args, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
