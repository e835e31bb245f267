"""Wire schemas of the analysis daemon (:mod:`repro.serve`).

Requests and results are JSON envelopes validated like every other
report schema in the suite (checkpoint shards, lint reports): an
explicit ``schema`` tag, a closed set of fields, and a structured error
object instead of a stack trace.

``repro-serve-request/1``
    ``{"schema", "traces" | "upload", "stem", "signature"?, "params"?,
    "inject"?}`` — the trace source, an optional machine signature
    (inline dict or server-side path), and endpoint-specific analysis
    parameters.  Unknown top-level keys and unknown ``params`` keys are
    rejected: a typo'd parameter must fail loudly, never silently fall
    back to a default.
``repro-serve-result/1``
    ``{"schema", "ok", "kind", "build"?, "result"?}`` on success;
    ``{"schema", "ok": false, "error": {"code", "message"}}`` on
    failure.  ``build`` reports the content-addressed build key and
    whether this request hit the live cache — the observable face of
    request coalescing.

Every handler failure becomes one of the :data:`ERROR_CODES` with an
HTTP status, so clients can branch on ``error.code`` without parsing
prose.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "ENDPOINTS",
    "ERROR_CODES",
    "REQUEST_SCHEMA",
    "RESULT_SCHEMA",
    "ServeError",
    "error_envelope",
    "ok_envelope",
    "validate_request",
    "validate_result",
]

REQUEST_SCHEMA = "repro-serve-request/1"
RESULT_SCHEMA = "repro-serve-result/1"

#: The job endpoints (POST /v1/<endpoint>); /healthz and /metricsz are
#: GET probes outside the job envelope.
ENDPOINTS = ("analyze", "sweep", "diagnose", "metrics", "verify")

#: code -> HTTP status.  ``bad-request`` covers malformed envelopes and
#: invalid analysis parameters; ``input-error`` covers well-formed
#: requests whose traces/signature cannot be loaded; ``fault-injected``
#: is the structured face of an injected crash; ``worker-lost`` means a
#: pool worker died and the FaultPolicy gave up.
ERROR_CODES: dict[str, int] = {
    "bad-request": 400,
    "forbidden": 403,
    "not-found": 404,
    "method-not-allowed": 405,
    "input-error": 400,
    "overloaded": 429,
    "timeout": 504,
    "fault-injected": 500,
    "worker-lost": 500,
    "internal": 500,
}

MODES = ("additive", "threshold")
COLLECTIVES = ("hub", "butterfly")
INJECTIONS = ("error", "kill-worker")

#: params accepted per endpoint (name -> validator); everything is
#: optional — defaults mirror the CLI flags exactly.
_COMMON = ("seed", "scale", "mode", "collective_mode", "eager_threshold")
_PARAM_KEYS: dict[str, tuple[str, ...]] = {
    "analyze": _COMMON + ("replicates", "resume"),
    "sweep": _COMMON + ("scales", "resume"),
    "diagnose": _COMMON + ("replicates",),
    "metrics": ("windows",),
    "verify": _COMMON + ("replicates", "quantile", "matches"),
}


class ServeError(Exception):
    """A structured daemon failure: an :data:`ERROR_CODES` code plus a
    human-readable message.  Raised by validation and handlers, caught
    once at the dispatch layer, and rendered as an error envelope —
    nothing in the daemon surfaces a Python traceback to the client."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.message = message


def _bad(message: str) -> ServeError:
    return ServeError("bad-request", message)


def _expect(obj: Any, typ: type, what: str) -> Any:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(obj, bool) and typ is not bool:
        raise _bad(f"{what} must be {typ.__name__}, got bool")
    if not isinstance(obj, typ):
        raise _bad(f"{what} must be {typ.__name__}, got {type(obj).__name__}")
    return obj


def _expect_number(obj: Any, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _bad(f"{what} must be a number, got {type(obj).__name__}")
    return float(obj)


def _expect_choice(obj: Any, choices: tuple[str, ...], what: str) -> str:
    value = _expect(obj, str, what)
    if value not in choices:
        raise _bad(f"{what} must be one of {choices}, got {value!r}")
    return str(value)


def _validate_params(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    allowed = _PARAM_KEYS[kind]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise _bad(
            f"unknown params for {kind!r}: {', '.join(unknown)}; allowed: {', '.join(allowed)}"
        )
    out: dict[str, Any] = {}
    for key, value in params.items():
        if key == "seed":
            out[key] = int(_expect(value, int, "params.seed"))
        elif key in ("scale", "quantile"):
            out[key] = _expect_number(value, f"params.{key}")
        elif key == "mode":
            out[key] = _expect_choice(value, MODES, "params.mode")
        elif key == "collective_mode":
            out[key] = _expect_choice(value, COLLECTIVES, "params.collective_mode")
        elif key == "eager_threshold":
            out[key] = None if value is None else int(_expect(value, int, "params.eager_threshold"))
        elif key in ("replicates", "windows"):
            n = int(_expect(value, int, f"params.{key}"))
            if n < 0 or (key == "windows" and n < 1):
                raise _bad(f"params.{key} must be {'>= 1' if key == 'windows' else '>= 0'}")
            out[key] = n
        elif key in ("resume", "matches"):
            out[key] = bool(_expect(value, bool, f"params.{key}"))
        elif key == "scales":
            seq = _expect(value, list, "params.scales")
            if not seq:
                raise _bad("params.scales must be a non-empty list of numbers")
            out[key] = [_expect_number(v, "params.scales[*]") for v in seq]
    return out


def validate_request(payload: Any, kind: str) -> dict[str, Any]:
    """Validate and normalize one job request body.

    Returns ``{"traces", "upload", "stem", "signature", "params",
    "inject"}`` with ``params`` filtered to the endpoint's allowed keys
    and every value type-checked.  Raises :class:`ServeError`
    (``bad-request``) on any violation.
    """
    if kind not in ENDPOINTS:
        raise ServeError("not-found", f"unknown endpoint {kind!r}")
    body = _expect(payload, dict, "request body")
    if body.get("schema") != REQUEST_SCHEMA:
        raise _bad(f"schema must be {REQUEST_SCHEMA!r}, got {body.get('schema')!r}")
    known = {"schema", "traces", "upload", "stem", "signature", "params", "inject"}
    unknown = sorted(set(body) - known)
    if unknown:
        raise _bad(f"unknown request field(s): {', '.join(unknown)}")

    traces = body.get("traces")
    upload = body.get("upload")
    if (traces is None) == (upload is None):
        raise _bad("provide exactly one of 'traces' (server-side dir) or 'upload' (inline files)")
    if traces is not None:
        traces = _expect(traces, str, "traces")
    if upload is not None:
        upload = _expect(upload, dict, "upload")
        if not upload:
            raise _bad("upload must contain at least one file")
        for name, content in upload.items():
            _expect(name, str, "upload filename")
            _expect(content, str, f"upload[{name!r}]")
            if "/" in name or "\\" in name or name.startswith("."):
                raise _bad(f"upload filename {name!r} must be a bare file name")

    stem = _expect(body.get("stem"), str, "stem")
    if not stem:
        raise _bad("stem must be non-empty")

    signature = body.get("signature")
    if signature is not None and not isinstance(signature, (str, dict)):
        raise _bad("signature must be a server-side path (str) or an inline signature dict")

    params = _validate_params(kind, _expect(body.get("params", {}), dict, "params"))

    inject = body.get("inject")
    if inject is not None:
        inject = _expect_choice(inject, INJECTIONS, "inject")

    return {
        "traces": traces,
        "upload": upload,
        "stem": stem,
        "signature": signature,
        "params": params,
        "inject": inject,
    }


def ok_envelope(kind: str, result: dict[str, Any], build: dict[str, Any] | None = None) -> dict:
    """The success envelope for one completed job."""
    env: dict[str, Any] = {"schema": RESULT_SCHEMA, "ok": True, "kind": kind}
    if build is not None:
        env["build"] = build
    env["result"] = result
    return env


def error_envelope(code: str, message: str, kind: str | None = None) -> dict:
    """The failure envelope (``ok: false`` + structured error)."""
    env: dict[str, Any] = {"schema": RESULT_SCHEMA, "ok": False}
    if kind is not None:
        env["kind"] = kind
    env["error"] = {"code": code, "message": message}
    return env


def validate_result(payload: Any) -> dict[str, Any]:
    """Client-side envelope check: the daemon spoke the result schema.

    Returns the payload; raises :class:`ServeError` (``internal``) when
    the response is not a well-formed ``repro-serve-result/1`` envelope.
    """
    if not isinstance(payload, dict) or payload.get("schema") != RESULT_SCHEMA:
        raise ServeError("internal", f"response is not a {RESULT_SCHEMA} envelope")
    if not isinstance(payload.get("ok"), bool):
        raise ServeError("internal", "response envelope missing boolean 'ok'")
    if payload["ok"]:
        if not isinstance(payload.get("result"), dict):
            raise ServeError("internal", "ok response missing 'result' object")
    else:
        err = payload.get("error")
        if not isinstance(err, dict) or err.get("code") not in ERROR_CODES:
            raise ServeError("internal", "error response missing structured 'error'")
    return payload
