"""The gateway's wire protocol: request shapes, response envelopes,
and the streaming NDJSON framing.

One request shape serves both transports the gateway accepts:

* ``POST /query`` with a JSON body,
* ``GET /query?xpath=...&doc=...`` with URL parameters (curl-able).

Both normalize into a :class:`QuerySpec`; validation failures raise the
typed :class:`~repro.errors.ProtocolError` which the status table in
:mod:`repro.errors` maps to HTTP 400 — the gateway never hand-rolls a
status code.

**Streaming framing.**  A streamed response is ``application/x-ndjson``
sent with chunked transfer-encoding: one JSON object per line, rows
flushed *per shard as each shard completes* instead of after the full
scatter-gather materializes.

::

    {"event": "start", "request_id": "...", "shards": 3}
    {"event": "rows",  "shard": 1, "rows": [[doc, pre], ...]}
    {"event": "rows",  "shard": 0, "rows": [[doc, pre], ...]}
    {"event": "shard_error", "shard": 2, "message": "..."}      # partial mode
    {"event": "end", "outcome": "partial", "rows": 7, ...}

The ``end`` event is the stream's status line: by the time a mid-flight
error surfaces the HTTP 200 header is long gone, so clients must treat
a terminal ``error`` event (or a missing ``end``) as failure.  Rows
arrive in per-shard completion order, **not** global document order —
streaming trades the merge-sort for first-byte latency; clients that
need document order sort the union themselves or use the materialized
endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ProtocolError, error_payload

#: Content type of streamed responses.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Content type of materialized (and error) responses.
JSON_CONTENT_TYPE = "application/json"

#: Largest accepted request body; anything bigger is a 400, not an OOM.
MAX_BODY_BYTES = 1 << 20

#: Hard cap on a single deadline a client may request, seconds.
MAX_DEADLINE_SECONDS = 300.0

#: Header naming the quota principal; falls back to the JSON ``client``
#: field, then to the catch-all bucket.
CLIENT_HEADER = "x-client-id"

#: Quota principal used when the request names none.
ANONYMOUS_CLIENT = "anonymous"


@dataclass(frozen=True)
class QuerySpec:
    """One validated query request, transport-independent."""

    xpath: str
    doc_id: int | None = None
    deadline: float | None = None
    stream: bool = False
    client: str = ANONYMOUS_CLIENT


def _bad(message: str) -> ProtocolError:
    return ProtocolError(message)


def _coerce_deadline(value) -> float | None:
    if value is None:
        return None
    try:
        deadline = float(value)
    except (TypeError, ValueError):
        raise _bad(f"deadline_seconds must be a number, got {value!r}")
    if deadline <= 0:
        raise _bad("deadline_seconds must be > 0")
    return min(deadline, MAX_DEADLINE_SECONDS)


def _coerce_doc_id(value) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool):
        raise _bad("doc_id must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _bad(f"doc_id must be an integer, got {value!r}")


def _coerce_bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off", ""):
            return False
    raise _bad(f"{name} must be a boolean, got {value!r}")


def parse_query_payload(
    payload: dict, default_client: str = ANONYMOUS_CLIENT
) -> QuerySpec:
    """Validate one request *payload* (parsed JSON object or flattened
    URL parameters) into a :class:`QuerySpec`.

    *default_client* is the transport-level principal (the
    ``X-Client-Id`` header); an explicit ``client`` field wins.
    """
    if not isinstance(payload, dict):
        raise _bad("request body must be a JSON object")
    known = {"xpath", "doc_id", "deadline_seconds", "stream", "client"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise _bad(f"unknown request field(s): {', '.join(unknown)}")
    xpath = payload.get("xpath")
    if not isinstance(xpath, str) or not xpath.strip():
        raise _bad("xpath must be a non-empty string")
    client = payload.get("client", default_client)
    if not isinstance(client, str) or not client:
        raise _bad("client must be a non-empty string")
    return QuerySpec(
        xpath=xpath,
        doc_id=_coerce_doc_id(payload.get("doc_id")),
        deadline=_coerce_deadline(payload.get("deadline_seconds")),
        stream=_coerce_bool(payload.get("stream", False), "stream"),
        client=client,
    )


def parse_json_body(body: bytes, default_client: str) -> QuerySpec:
    """Parse a ``POST /query`` body."""
    if len(body) > MAX_BODY_BYTES:
        raise _bad(
            f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad(f"request body is not valid JSON: {exc}")
    return parse_query_payload(payload, default_client=default_client)


def parse_query_params(
    params: dict[str, str], default_client: str
) -> QuerySpec:
    """Parse ``GET /query`` URL parameters (``doc`` aliases ``doc_id``)."""
    payload: dict = dict(params)
    if "doc" in payload:
        payload["doc_id"] = payload.pop("doc")
    if "deadline" in payload:
        payload["deadline_seconds"] = payload.pop("deadline")
    return parse_query_payload(payload, default_client=default_client)


# -- response bodies ----------------------------------------------------------------


def ndjson_line(obj: dict) -> bytes:
    """One streaming event, encoded: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"), default=str).encode(
        "utf-8"
    ) + b"\n"


def encode_rows(rows) -> bytes:
    """``(doc_id, pre)`` rows as the wire carries them, without the
    enclosing brackets: ``[g,p],[g,p]`` (what :func:`ndjson_line` makes
    of the rows as lists).  The one owner of the row format: responses
    splice these fragments, encoded on the thread that ran the SQL."""
    return ",".join(["[%d,%d]" % row for row in rows]).encode("ascii")


def join_fragments(fragments) -> bytes:
    """Row fragments, in order, as one (empty results leave no comma)."""
    return b",".join([fragment for fragment in fragments if fragment])


def rows_event(shard: int, fragment: bytes) -> bytes:
    """One streamed ``rows`` event around an encoded *fragment*."""
    return b'{"event":"rows","shard":%d,"rows":[%b]}\n' % (shard, fragment)


def result_line(result, request_id: str, fragment: bytes) -> bytes:
    """``ndjson_line(result_body(result, request_id))`` — the same
    bytes — spliced around the result's already-encoded *fragment*."""
    head = ndjson_line({"request_id": request_id})[:-2]
    tail = ndjson_line(_envelope(result))[1:]
    return b'%b,"rows":[%b],%b' % (head, fragment, tail)


def result_body(result, request_id: str) -> dict:
    """The materialized-response envelope for one
    :class:`~repro.serve.executor.ScatterResult`."""
    return {
        "request_id": request_id,
        "rows": [list(row) for row in result.rows],
        **_envelope(result),
    }


def _envelope(result) -> dict:
    """What a materialized response says besides its id and rows."""
    body = {
        "row_count": len(result.rows),
        "shards_queried": result.shards_queried,
        "elapsed_seconds": result.elapsed_seconds,
        "partial": result.partial,
    }
    if result.partial:
        body["failed_shards"] = [
            {"shard": shard, "message": message}
            for shard, message in result.failed_shards
        ]
    return body


def error_body(error: BaseException, request_id: str | None = None) -> dict:
    """The error envelope: :func:`repro.errors.error_payload` plus the
    request id when one was minted before the failure."""
    payload = error_payload(error)
    if request_id is not None:
        payload["request_id"] = request_id
    return payload
