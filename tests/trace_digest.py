"""A digest of a telemetry trace that does not depend on span IDs.

Span IDs are handed out in creation order, and the records of one
instant are written in the order their spans close.  Both move when a
refactor drops or reorders same-instant queue entries, even though every
span keeps its name, track, times, attributes and parent.  The canonical
digest keeps exactly that: each record's ``span_id``/``parent`` is
replaced by the signature of its parent span: the sha256 of the
parent's own record with its parent replaced the same way (up to a
root, or up to a span still open when the trace was written).  The
records are then hashed as a sorted multiset.

It reads both forms the hub writes: the JSONL stream (``id`` and
``parent`` on each record) and the Chrome trace (``span_id`` and
``parent`` in each event's ``args``).
"""

import hashlib
import json


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _canonical(records, ids_of):
    """Sorted signatures of ``records``; ``ids_of(record)`` returns the
    record's ``(span_id, parent, body)`` with both IDs removed from
    ``body``."""
    split = [ids_of(record) for record in records]
    by_id = {span_id: (parent, body) for span_id, parent, body in split
             if span_id is not None}
    memo = {}

    def signature(span_id):
        if span_id is None:
            return None
        if span_id not in by_id:
            return "unclosed"  # a span still open when the trace was written
        if span_id not in memo:
            parent, body = by_id[span_id]
            memo[span_id] = hashlib.sha256(
                _dumps([body, signature(parent)]).encode()).hexdigest()
        return memo[span_id]

    return sorted(_dumps([body, signature(parent)])
                  for _span_id, parent, body in split)


def _jsonl_ids(record):
    body = dict(record)
    return body.pop("id", None), body.pop("parent", None), body


def _chrome_ids(event):
    body = dict(event)
    args = dict(body.get("args") or {})
    span_id = args.pop("span_id", None)
    parent = args.pop("parent", None)
    if "args" in body:
        body["args"] = args
    return span_id, parent, body


def canonical_digest(data):
    """sha256 of the span-ID-free form of a JSONL stream or a Chrome
    trace, given as text or bytes."""
    if isinstance(data, bytes):
        data = data.decode()
    try:
        trace = json.loads(data)
    except ValueError:
        trace = None  # more than one line: a JSONL stream
    if isinstance(trace, dict) and "traceEvents" in trace:
        lines = _canonical(trace["traceEvents"], _chrome_ids)
        rest = {key: value for key, value in trace.items()
                if key != "traceEvents"}
        lines.append(_dumps(rest))
    else:
        records = [json.loads(line) for line in data.splitlines() if line]
        lines = _canonical(records, _jsonl_ids)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
