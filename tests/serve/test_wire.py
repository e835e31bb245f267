"""Wire-format tests: request validation, envelopes, error mapping.

The request schema is *closed* — unknown fields, unknown params, and
wrong types are rejected with ``bad-request`` before any work happens,
so a daemon never burns a build on a malformed job.
"""

import pytest

from repro.serve.wire import (
    ENDPOINTS,
    ERROR_CODES,
    REQUEST_SCHEMA,
    RESULT_SCHEMA,
    ServeError,
    error_envelope,
    ok_envelope,
    validate_request,
    validate_result,
)


def _minimal(**overrides):
    body = {"schema": REQUEST_SCHEMA, "traces": "traces", "stem": "app"}
    body.update(overrides)
    return body


class TestValidateRequest:
    def test_minimal_request_normalizes_all_keys(self):
        req = validate_request(_minimal(), "metrics")
        assert req["traces"] == "traces"
        assert req["stem"] == "app"
        assert req["upload"] is None
        assert req["signature"] is None
        assert req["params"] == {}
        assert req["inject"] is None

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ServeError, match="must be dict"):
            validate_request(["not", "a", "dict"], "analyze")

    def test_missing_schema_rejected(self):
        body = _minimal()
        del body["schema"]
        with pytest.raises(ServeError, match="schema"):
            validate_request(body, "analyze")

    def test_wrong_schema_tag_rejected(self):
        with pytest.raises(ServeError, match="schema"):
            validate_request(_minimal(schema="repro-serve-request/999"), "analyze")

    def test_unknown_field_rejected(self):
        with pytest.raises(ServeError, match="unknown"):
            validate_request(_minimal(bogus=1), "analyze")

    def test_traces_and_upload_mutually_exclusive(self):
        with pytest.raises(ServeError, match="exactly one"):
            validate_request(_minimal(upload={"a.jsonl": "{}"}), "analyze")

    def test_neither_traces_nor_upload_rejected(self):
        body = _minimal()
        del body["traces"]
        with pytest.raises(ServeError, match="exactly one"):
            validate_request(body, "analyze")

    def test_missing_stem_rejected(self):
        body = _minimal()
        del body["stem"]
        with pytest.raises(ServeError, match="stem"):
            validate_request(body, "analyze")

    def test_upload_with_path_separator_rejected(self):
        body = _minimal()
        del body["traces"]
        body["upload"] = {"../evil.jsonl": "{}"}
        with pytest.raises(ServeError, match="bare file name"):
            validate_request(body, "analyze")

    def test_upload_with_absolute_path_rejected(self):
        body = _minimal()
        del body["traces"]
        body["upload"] = {"/etc/passwd": "x"}
        with pytest.raises(ServeError, match="bare file name"):
            validate_request(body, "analyze")

    def test_unknown_param_rejected_per_endpoint(self):
        # windows is a metrics-only parameter
        with pytest.raises(ServeError, match="windows"):
            validate_request(_minimal(params={"windows": 4}), "analyze")
        validate_request(_minimal(params={"windows": 4}), "metrics")

    def test_bool_rejected_where_number_expected(self):
        with pytest.raises(ServeError, match="replicates"):
            validate_request(_minimal(params={"replicates": True}), "analyze")

    def test_wrong_param_type_rejected(self):
        with pytest.raises(ServeError, match="scale"):
            validate_request(_minimal(params={"scale": "big"}), "analyze")

    def test_scales_must_be_numbers(self):
        with pytest.raises(ServeError, match="scales"):
            validate_request(_minimal(params={"scales": [1.0, "x"]}), "sweep")
        validate_request(_minimal(params={"scales": [0.0, 1.5]}), "sweep")

    def test_bad_engine_vocabulary_rejected(self):
        # There is one engine: engine/coarsen selectors are unknown params.
        for kind in ("analyze", "sweep", "diagnose", "verify"):
            for key, value in (("engine", "compiled"), ("coarsen", "auto")):
                with pytest.raises(ServeError, match=f"unknown params.*{key}") as err:
                    validate_request(_minimal(params={key: value}), kind)
                assert err.value.code == "bad-request"

    def test_bad_inject_rejected(self):
        with pytest.raises(ServeError, match="inject"):
            validate_request(_minimal(inject="segfault"), "analyze")

    def test_valid_inject_passes(self):
        req = validate_request(_minimal(inject="error"), "analyze")
        assert req["inject"] == "error"

    def test_signature_inline_dict_or_string_path(self):
        validate_request(_minimal(signature={"os_noise": {}}), "analyze")
        validate_request(_minimal(signature="sig.json"), "analyze")
        with pytest.raises(ServeError, match="signature"):
            validate_request(_minimal(signature=42), "analyze")


class TestEnvelopes:
    def test_ok_envelope_shape(self):
        env = ok_envelope("analyze", {"x": 1}, {"key": "k", "digest": "d", "cached": False})
        assert env["schema"] == RESULT_SCHEMA
        assert env["ok"] is True
        assert env["kind"] == "analyze"
        assert env["result"] == {"x": 1}
        assert env["build"]["cached"] is False
        assert validate_result(env) is env

    def test_error_envelope_shape(self):
        env = error_envelope("bad-request", "nope", "sweep")
        assert env["schema"] == RESULT_SCHEMA
        assert env["ok"] is False
        assert env["error"] == {"code": "bad-request", "message": "nope"}
        assert env["kind"] == "sweep"
        assert validate_result(env) is env

    def test_validate_result_rejects_wrong_schema(self):
        env = ok_envelope("analyze", {}, {})
        env["schema"] = "other/1"
        with pytest.raises(ServeError, match="envelope"):
            validate_result(env)

    def test_validate_result_rejects_non_dict(self):
        with pytest.raises(ServeError):
            validate_result("nope")


class TestServeError:
    def test_every_code_has_an_http_status(self):
        for code, status in ERROR_CODES.items():
            assert ServeError(code, "m").status == status
            assert 400 <= status <= 599

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unknown serve error code"):
            ServeError("mystery", "m")

    def test_endpoint_list_is_stable(self):
        assert ENDPOINTS == ("analyze", "sweep", "diagnose", "metrics", "verify")
