"""Schema checks for exported telemetry artifacts.

Usable as a library (``validate_chrome_trace``, ``validate_probe_attrs``,
``validate_run_record``) or through ``python -m repro validate`` — CI's
smoke jobs run::

    REPRO_QUICK=1 python -m repro trace table1 --out trace.json
    python -m repro validate trace.json --min-tracks 4

    python -m repro explain linkbench --quick --json report.json
    REPRO_QUICK=1 python -m repro monitor figure5 --quiet --json dash.json
    python -m repro validate report.json dash.json

The Chrome checks cover exactly what downstream viewers require: the
JSON Object Format envelope, per-phase mandatory fields, non-negative
durations, and (optionally) a minimum number of named layer tracks.
Probe-attr checks enforce the instance-naming contract: a probe's
``name#N`` suffix and its identifying attrs (``device=<name>``) travel
together and stay consistent across every sample.  Run-record checks
enforce the ``repro.run/1`` envelope and each section's own guarantees:
the blame decomposition is exact (blame sums to wall time, bounded
``other``), metric windows are closed and monotone, and the profiler
attributes at least 95% of the wall clock.
"""

import json

_ALLOWED_PHASES = {"X", "i", "C", "M", "B", "E", "b", "e"}

#: probe families with a fixed identifying-attr schema.  The legacy
#: single-queue depth probe identifies by device alone; the multi-queue
#: depth probe must also say *which* submission queue it watches.
REQUIRED_PROBE_ATTRS = {
    "ncq.depth": frozenset({"device"}),
    "queue.depth": frozenset({"device", "queue"}),
}


def validate_chrome_trace(obj, min_tracks=0, require_tracks=(),
                          check_probe_attrs=False):
    """Validate a parsed trace object; returns a list of error strings
    (empty when the trace is valid)."""
    errors = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    tracks = {}
    n_spans = 0
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            errors.append("%s: not an object" % where)
            continue
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            errors.append("%s: bad phase %r" % (where, phase))
            continue
        if "name" not in event or "pid" not in event:
            errors.append("%s: missing name/pid" % where)
            continue
        if phase == "M":
            if event["name"] == "thread_name":
                tracks[event.get("tid")] = event.get("args", {}).get("name")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append("%s: missing numeric ts" % where)
            continue
        if phase == "X":
            n_spans += 1
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append("%s: 'X' event needs dur >= 0 (got %r)"
                              % (where, duration))
    if n_spans == 0:
        errors.append("trace contains no span ('X') events")
    named = {name for name in tracks.values() if name}
    if min_tracks and len(named) < min_tracks:
        errors.append("expected >= %d named tracks, found %d: %s"
                      % (min_tracks, len(named), sorted(named)))
    missing = [track for track in require_tracks if track not in named]
    if missing:
        errors.append("missing required tracks: %s (found %s)"
                      % (missing, sorted(named)))
    if check_probe_attrs:
        errors.extend(validate_probe_attrs(events))
    return errors


def validate_probe_attrs(events):
    """Check the probe instance-naming contract over counter events.

    Works on either raw hub events (``type == "sample"``, attrs under
    ``attrs``) or Chrome counter events (``ph == "C"``, attrs in
    ``args`` next to ``value``).  Rules:

    1. every sample of one probe name carries the same attrs;
    2. all members of a ``name``/``name#2``/... family carry the same
       attr *keys* (one schema per probe family);
    3. a family with several members must tell them apart by attrs
       (``device=<name>``), never by the ``#N`` suffix alone;
    4. families listed in :data:`REQUIRED_PROBE_ATTRS` carry exactly
       their contracted attr keys (``queue.depth`` must say
       ``device=<name> queue=<i>``; ``ncq.depth`` stays device-only).
    """
    per_name = {}
    for event in events:
        if event.get("type") == "sample":
            name, attrs = event["name"], dict(event.get("attrs") or {})
        elif event.get("ph") == "C":
            attrs = dict(event.get("args") or {})
            attrs.pop("value", None)
            name = event["name"]
        else:
            continue
        seen = per_name.setdefault(name, attrs)
        if seen != attrs:
            return ["probe %r: inconsistent attrs across samples: "
                    "%r vs %r" % (name, seen, attrs)]
    errors = []
    families = {}
    for name, attrs in per_name.items():
        families.setdefault(name.split("#", 1)[0], []).append(
            (name, attrs))
    for base, members in sorted(families.items()):
        keysets = {frozenset(attrs) for _name, attrs in members}
        required = REQUIRED_PROBE_ATTRS.get(base)
        if required is not None and keysets != {required}:
            errors.append("probe family %r: attr keys must be exactly "
                          "%s, got %s"
                          % (base, sorted(required),
                             sorted(sorted(keys) for keys in keysets)))
            continue
        if len(keysets) > 1:
            errors.append("probe family %r: members disagree on attr "
                          "keys: %s"
                          % (base, sorted(sorted(keys)
                                          for keys in keysets)))
            continue
        if len(members) > 1:
            if not next(iter(keysets)):
                errors.append("probe family %r has %d instances but no "
                              "identifying attrs (want device=<name>)"
                              % (base, len(members)))
            elif len({tuple(sorted(attrs.items()))
                      for _name, attrs in members}) != len(members):
                errors.append("probe family %r: two instances share "
                              "identical attrs" % base)
    return errors


#: the schema of every record the commands write
RUN_SCHEMA = "repro.run/1"

#: a profile section must attribute at least this share of measured wall
PROFILE_COVERAGE_FLOOR = 0.95


def _trace_errors(trace):
    """The span stream a run recorded: how many events, on which tracks."""
    events, tracks = trace.get("events"), trace.get("tracks")
    if isinstance(events, int) and events > 0 and isinstance(tracks, list) \
            and tracks:
        return []
    return ["needs a positive 'events' count and the named 'tracks'"]


def _blame_errors(blame):
    """Schema and exactness of one run's latency decomposition: blame
    sums to wall time and the ``other`` share stays in budget."""
    from .report import check
    errors = ["missing %r" % key
              for key in ("blame", "requests", "episodes", "tail",
                          "other_share", "max_residue_s")
              if key not in blame]
    table = blame.get("blame")
    if not isinstance(table, dict):
        return errors + ["'blame' must be the blame table object"]
    errors.extend("blame: missing %r" % key
                  for key in ("requests", "wall_s", "latency", "causes")
                  if key not in table)
    requests = blame.get("requests")
    if not isinstance(requests, list) \
            or len(requests) != table.get("requests", -1):
        errors.append("request list/count mismatch")
    return errors or check(blame)


def _metrics_errors(metrics):
    """What downstream dashboards require: at least one closed window,
    series entries with a known kind and monotone window boundaries, at
    least one SLO rule that actually evaluated, and a SMART report list.
    """
    errors = []
    if not isinstance(metrics.get("windows"), int) \
            or metrics.get("windows", 0) < 1:
        errors.append("'windows' must be a positive window count")
    series = metrics.get("series")
    if not isinstance(series, list) or not series:
        errors.append("needs a non-empty 'series' list")
        series = []
    populated = 0
    for index, entry in enumerate(series):
        where = "series[%d]" % index
        if not isinstance(entry, dict):
            errors.append("%s: not an object" % where)
            continue
        if entry.get("kind") not in ("counter", "gauge", "histogram"):
            errors.append("%s: bad kind %r" % (where, entry.get("kind")))
        if not entry.get("name"):
            errors.append("%s: missing name" % where)
        points = entry.get("windows")
        if not isinstance(points, list):
            errors.append("%s: missing windows list" % where)
            continue
        previous_t1 = None
        for point in points:
            t0, t1 = (point.get("t0"), point.get("t1")) \
                if isinstance(point, dict) else (None, None)
            if not isinstance(t0, (int, float)) \
                    or not isinstance(t1, (int, float)) or t1 <= t0:
                errors.append("%s: window needs t0 < t1 (got %r..%r)"
                              % (where, t0, t1))
                break
            if previous_t1 is not None and t0 < previous_t1:
                errors.append("%s: windows overlap (%r < %r)"
                              % (where, t0, previous_t1))
                break
            previous_t1 = t1
        if points:
            populated += 1
    if series and not populated:
        errors.append("every series entry is empty — no window data")
    slo = metrics.get("slo")
    if not isinstance(slo, dict) or not isinstance(slo.get("rules"), list) \
            or not slo.get("rules"):
        errors.append("needs a non-empty 'slo.rules' list")
    elif not any(rule.get("evaluations", 0) >= 1
                 for rule in slo["rules"] if isinstance(rule, dict)):
        errors.append("no SLO rule evaluated even one window")
    if not isinstance(slo, dict) or not isinstance(slo.get("alerts"),
                                                   list):
        errors.append("needs an 'slo.alerts' list")
    if not isinstance(metrics.get("smart"), list):
        errors.append("needs a 'smart' device-report list")
    return errors


def _profile_errors(profile):
    """Schema and coverage of a wall-clock attribution.  Per-layer wall
    shares must cover at least :data:`PROFILE_COVERAGE_FLOOR` of the
    measured wall time — a profiler losing track of where the time went
    is worse than none."""
    errors = []
    for key in ("wall_seconds", "sim_seconds", "real_time_factor",
                "events_per_sec"):
        value = profile.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append("%r must be a positive number (got %r)"
                          % (key, value))
    if not isinstance(profile.get("steps"), int) \
            or profile.get("steps", 0) < 1:
        errors.append("'steps' must be a positive event count")
    layers = profile.get("layers")
    if not isinstance(layers, list) or not layers:
        errors.append("needs a non-empty 'layers' list")
        layers = []
    share_sum = 0.0
    for index, row in enumerate(layers):
        where = "layers[%d]" % index
        if not isinstance(row, dict):
            errors.append("%s: not an object" % where)
            continue
        if not row.get("layer"):
            errors.append("%s: missing layer name" % where)
        for key in ("wall_s", "share"):
            if not isinstance(row.get(key), (int, float)) \
                    or row.get(key, -1) < 0:
                errors.append("%s: %r must be a non-negative number"
                              % (where, key))
        if not isinstance(row.get("events"), int):
            errors.append("%s: missing integer 'events'" % where)
        share_sum += row.get("share", 0.0) or 0.0
    coverage = profile.get("coverage")
    if not isinstance(coverage, (int, float)):
        errors.append("'coverage' must be a number")
    elif coverage < PROFILE_COVERAGE_FLOOR:
        errors.append("attributed layer shares cover only %.1f%% of "
                      "measured wall (floor: %.0f%%)"
                      % (coverage * 100, PROFILE_COVERAGE_FLOOR * 100))
    if layers and not errors and abs(share_sum - coverage) > 1e-6:
        errors.append("layer shares sum to %.4f but coverage says %.4f"
                      % (share_sum, coverage))
    if not isinstance(profile.get("event_types"), list) \
            or not profile.get("event_types"):
        errors.append("needs a non-empty 'event_types' list")
    hot = profile.get("hot")
    if not isinstance(hot, list) or not hot or not all(
            isinstance(row, dict) and row.get("target") for row in hot):
        errors.append("needs a non-empty 'hot' list of targets")
    overhead = profile.get("telemetry_overhead")
    if overhead is not None:
        if not isinstance(overhead, dict):
            errors.append("'telemetry_overhead' must be an object")
        elif overhead.get("base_events") != overhead.get("armed_events"):
            errors.append("telemetry ablation changed the event count "
                          "(%r vs %r) — the hub must add no events"
                          % (overhead.get("base_events"),
                             overhead.get("armed_events")))
    allocations = profile.get("allocations")
    if allocations is not None:
        if not isinstance(allocations, dict) \
                or not isinstance(allocations.get("layers"), list):
            errors.append("'allocations' needs a layer list")
        elif not isinstance(allocations.get("total_kib"), (int, float)):
            errors.append("'allocations' needs a numeric total_kib")
    return errors


def _modes_errors(modes):
    """An explain record's modes: each one a run record of its own."""
    if not modes:
        return ["needs at least one mode"]
    return ["mode %r: %s" % (label, error) for label, mode in modes.items()
            for error in validate_run_record(mode)]


#: run-record section -> its checks (a list of problems, empty if none)
SECTIONS = {
    "trace": _trace_errors,
    "blame": _blame_errors,
    "metrics": _metrics_errors,
    "profile": _profile_errors,
    "modes": _modes_errors,
}


def validate_run_record(record):
    """Errors of a ``repro.run/1`` record (none when valid): its
    envelope, then each :data:`SECTIONS` entry it carries (at least
    one)."""
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    errors = []
    if record.get("schema") != RUN_SCHEMA:
        errors.append("schema must be %r (got %r)"
                      % (RUN_SCHEMA, record.get("schema")))
    if not isinstance(record.get("scenario"), str):
        errors.append("'scenario' must be a string")
    if not isinstance(record.get("spec"), dict):
        errors.append("'spec' must be the run's world spec object")
    present = [name for name in SECTIONS if name in record]
    if not present:
        errors.append("record carries no section (want one of %s)"
                      % ", ".join(SECTIONS))
    for name in present:
        section = record[name]
        problems = (SECTIONS[name](section) if isinstance(section, dict)
                    else ["must be an object"])
        errors.extend("%s: %s" % (name, problem) for problem in problems)
    return errors


def _trace_stats(obj):
    """Event count and sorted named tracks of a parsed Chrome trace."""
    events = obj.get("traceEvents", []) if isinstance(obj, dict) else []
    tracks = sorted({event.get("args", {}).get("name")
                     for event in events
                     if isinstance(event, dict)
                     and event.get("ph") == "M"
                     and event.get("name") == "thread_name"})
    return {"events": len(events), "tracks": tracks}


def validate_trace_file(path, min_tracks=0, require_tracks=(),
                        check_probe_attrs=False):
    """Load ``path`` and validate it; returns (errors, stats dict)."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except (OSError, ValueError) as exc:
        return ["cannot load %s: %s" % (path, exc)], {}
    errors = validate_chrome_trace(obj, min_tracks=min_tracks,
                                   require_tracks=require_tracks,
                                   check_probe_attrs=check_probe_attrs)
    return errors, _trace_stats(obj)


def _trace_summary(obj):
    stats = _trace_stats(obj)
    return "%d events, tracks: %s" % (stats["events"],
                                      ", ".join(stats["tracks"]))


def _record_summary(record):
    return "%s %s: %s" % (record["schema"], record["scenario"],
                          ", ".join(name for name in SECTIONS
                                    if name in record))


def main(paths, min_tracks=0, require_tracks=(), check_probe_attrs=False):
    """``python -m repro validate``: check each file in ``paths`` and
    print one OK/INVALID verdict per file.  A file with ``traceEvents``
    is a Chrome trace, checked with the track options; anything else
    must be a ``repro.run/1`` record.  Returns 1 if any file is
    invalid."""
    status = 0
    for path in paths:
        try:
            with open(path) as handle:
                artifact = json.load(handle)
        except (OSError, ValueError) as exc:
            errors = ["cannot load: %s" % exc]
        else:
            if isinstance(artifact, dict) and "traceEvents" in artifact:
                errors = validate_chrome_trace(
                    artifact, min_tracks=min_tracks,
                    require_tracks=require_tracks,
                    check_probe_attrs=check_probe_attrs)
                summary = _trace_summary
            else:
                errors = validate_run_record(artifact)
                summary = _record_summary
        if errors:
            status = 1
            print("%s: INVALID" % path)
            for error in errors:
                print("  - %s" % error)
        else:
            print("%s: OK (%s)" % (path, summary(artifact)))
    return status
