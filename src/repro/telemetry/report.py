"""Explain reports: attribution + critical paths + episodes.

:func:`analyze` decomposes one traced run into the ``blame`` section of
its ``repro.run/1`` record.  The explain record reproduces the paper's
latency-CDF argument as a *blame delta*: run the same workload in
flush-cache and durable-cache modes, decompose every request, and show
the flush/doublewrite categories collapsing while everything else holds
still.  :func:`render_markdown` is that record's markdown view.
"""

import math

from . import anomaly, critical_path
from .attribution import CATEGORIES, BlameTable, attribute_requests

#: residue tolerance: blame sums must match wall time to float noise
EXACTNESS = 1e-9

#: the acceptance threshold on unattributed time
OTHER_BUDGET = 0.01


def analyze(events, top_k=5, name_prefix="op."):
    """Decompose one traced run into a JSON-ready analysis dict."""
    index, requests = attribute_requests(events, name_prefix=name_prefix)
    episodes = anomaly.detect(events)
    anomaly.tag_requests(requests, episodes)
    table = BlameTable(requests)
    worst = max((abs(r.residue()) for r in requests), default=0.0)
    tail = critical_path.slowest(requests, k=top_k)
    return {
        "blame": table.as_dict(),
        "other_share": table.share("other"),
        "max_residue_s": worst,
        "requests": [{
            "name": r.name,
            "start_s": r.start,
            "latency_s": r.duration,
            "blame": {cat: r.blame[cat] for cat in CATEGORIES
                      if r.blame[cat] > 0.0 or cat == "other"},
            "tags": list(r.tags),
        } for r in requests],
        "episodes": [e.as_dict() for e in episodes],
        "tail": [critical_path.timeline_dict(r, index) for r in tail],
    }


def blame_delta(base, other, base_label, other_label):
    """Per-category share comparison between two modes' blame sections
    (base vs other)."""
    base_shares = {row["category"]: row["share"]
                   for row in base["blame"]["causes"]}
    other_shares = {row["category"]: row["share"]
                    for row in other["blame"]["causes"]}
    rows = []
    for category in CATEGORIES:
        a = base_shares.get(category, 0.0)
        b = other_shares.get(category, 0.0)
        if a == 0.0 and b == 0.0:
            continue
        rows.append({"category": category,
                     base_label: a, other_label: b, "delta": b - a})
    rows.sort(key=lambda r: (r["delta"], r["category"]))
    return {
        "base": base_label,
        "other": other_label,
        "p99_s": {base_label: base["blame"]["latency"]["p99"],
                  other_label: other["blame"]["latency"]["p99"]},
        "shares": rows,
    }


def check(blame, other_budget=OTHER_BUDGET, exactness=EXACTNESS):
    """Problems of one run's blame section: none means every request's
    blame sums to its wall time within float noise, and the ``other``
    bucket is under budget."""
    problems = []
    residue = blame["max_residue_s"]
    if residue > max(exactness, blame["blame"]["wall_s"] * 1e-12):
        problems.append("blame does not sum to wall time "
                        "(max residue %.3g s)" % residue)
    if blame["other_share"] > other_budget:
        problems.append("unattributed 'other' share %.2f%% exceeds %.2f%% "
                        "budget" % (blame["other_share"] * 100,
                                    other_budget * 100))
    for record in blame["requests"]:
        gap = abs(math.fsum(record["blame"].values()) - record["latency_s"])
        if gap > max(exactness, record["latency_s"] * 1e-9):
            problems.append("request %s at %.6fs off by %.3g s"
                            % (record["name"], record["start_s"], gap))
            break
    return problems


# --- markdown rendering -------------------------------------------------
def _fmt_ms(seconds):
    return "%.3f" % (seconds * 1e3)


def _blame_section(label, analysis, outcome):
    blame = analysis["blame"]
    lines = ["## %s" % label, ""]
    if outcome:
        lines.append("  ".join("%s=%s" % (key, outcome[key])
                               for key in sorted(outcome)))
        lines.append("")
    latency = blame["latency"]
    lines.append("%d requests; latency p50=%sms p99=%sms p99.9=%sms; "
                 "unattributed %.3f%%"
                 % (blame["requests"], _fmt_ms(latency["p50"]),
                    _fmt_ms(latency["p99"]), _fmt_ms(latency["p999"]),
                    analysis["other_share"] * 100))
    lines.append("")
    lines.append("| cause | total s | share | p50 ms | p99 ms "
                 "| p99.9 ms |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for row in blame["causes"]:
        lines.append("| %s | %.4f | %.1f%% | %s | %s | %s |"
                     % (row["category"], row["total_s"],
                        row["share"] * 100, _fmt_ms(row["p50"]),
                        _fmt_ms(row["p99"]), _fmt_ms(row["p999"])))
    if analysis["episodes"]:
        lines.append("")
        lines.append("Episodes:")
        for episode in analysis["episodes"]:
            probes = "; ".join(
                "%s max=%g" % (name, stats["max"])
                for name, stats in sorted(episode["probes"].items()))
            lines.append("- %s %.3fs..%.3fs (%d hits)%s"
                         % (episode["kind"], episode["start_s"],
                            episode["end_s"], episode["hits"],
                            " — " + probes if probes else ""))
    return lines


def _tail_section(analysis):
    lines = []
    for record in analysis["tail"][:1]:
        lines.append("")
        lines.append("Slowest request: %s at %.3fs, %sms%s"
                     % (record["name"], record["start_s"],
                        _fmt_ms(record["latency_s"]),
                        " [" + ", ".join(record["tags"]) + "]"
                        if record["tags"] else ""))
        lines.append("")
        lines.append("| at ms | dur ms | cause | span |")
        lines.append("|---:|---:|---|---|")
        shown = 0
        for segment in record["segments"]:
            if segment["dur_s"] < record["latency_s"] * 0.01:
                continue
            lines.append("| %s | %s | %s | %s%s |"
                         % (_fmt_ms(segment["at_s"]),
                            _fmt_ms(segment["dur_s"]),
                            segment["category"],
                            "&nbsp;" * 2 * segment["depth"],
                            segment["span"]))
            shown += 1
            if shown >= 20:
                break
        chain = " > ".join("%s (%sms)" % (hop["span"],
                                          _fmt_ms(hop["claimed_s"]))
                           for hop in record["critical_chain"]
                           if hop["claimed_s"] > 0.0)
        lines.append("")
        lines.append("Critical chain: %s" % chain)
    return lines


def render_markdown(record):
    """The explain record as markdown: each mode's blame table and
    slowest request, then the delta between the modes."""
    lines = ["# Latency attribution: %s" % record["scenario"], ""]
    meta = record.get("meta") or {}
    if meta:
        lines.append("  ".join("%s=%s" % (key, meta[key])
                               for key in sorted(meta)))
        lines.append("")
    for label, mode in record["modes"].items():
        lines.extend(_blame_section(label, mode["blame"], mode["outcome"]))
        lines.extend(_tail_section(mode["blame"]))
        lines.append("")
    delta = record.get("delta")
    if delta:
        lines.append("## Delta: %s vs %s" % (delta["other"],
                                             delta["base"]))
        lines.append("")
        p99 = delta["p99_s"]
        base_p99 = p99[delta["base"]]
        other_p99 = p99[delta["other"]]
        ratio = (base_p99 / other_p99) if other_p99 else float("inf")
        lines.append("p99: %sms -> %sms (%.1fx)"
                     % (_fmt_ms(base_p99), _fmt_ms(other_p99), ratio))
        lines.append("")
        lines.append("| cause | %s | %s | delta |"
                     % (delta["base"], delta["other"]))
        lines.append("|---|---:|---:|---:|")
        for row in delta["shares"]:
            lines.append("| %s | %.1f%% | %.1f%% | %+.1f%% |"
                         % (row["category"],
                            row[delta["base"]] * 100,
                            row[delta["other"]] * 100,
                            row["delta"] * 100))
        lines.append("")
    return "\n".join(lines)
