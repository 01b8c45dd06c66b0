"""Request-surface conformance: the reference's error cases 01-05 (flat) and
01-04 (JSON-LD) from /root/reference/pytest/testcases.txt, driven through
handle_flat_request / handle_jsonld_request with the vendored SOyA overlay
as the fetched configuration."""

import json
import os

import pytest

from anonymization_ray.api import (
    handle_flat_request,
    handle_jsonld_request,
    static_fetcher,
)

from refcorpus import needs_corpus

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")
FLAT_IN = "/root/reference/pytest/02_input_flat_json"
FLAT_OUT = "/root/reference/pytest/02_output_flat_json"
LD_IN = "/root/reference/pytest/01_input_json_ld"
LD_OUT = "/root/reference/pytest/01_output_json_ld"

CONFIG_URL = "https://soya.ownyourdata.eu/AnonymisationDemo"
CONFIG_URL2 = "https://soya.ownyourdata.eu/AnonymisationDemo2"

with open(os.path.join(FIXDIR, "anonymisation_demo_soya.jsonld")) as _f:
    _DEMO = _f.read()
with open(os.path.join(FIXDIR, "anonymisation_demo2_soya.jsonld")) as _f:
    _DEMO2 = _f.read()
FETCH = static_fetcher({CONFIG_URL: _DEMO, CONFIG_URL2: _DEMO2})
needs_pytest_corpus = needs_corpus(os.path.dirname(FLAT_IN))


def load(indir, name):
    with open(f"{indir}/{name}.json") as f:
        return json.load(f)


def golden(outdir, name):
    with open(f"{outdir}/{name}.json") as f:
        return json.load(f)


# ---- flat error cases -----------------------------------------------------

@needs_pytest_corpus
def test_flat_01_missing_parameter():
    got = handle_flat_request(load(FLAT_IN, "01-missing-parameter"), fetch=FETCH)
    assert got == golden(FLAT_OUT, "01-missing-parameter")


@needs_pytest_corpus
def test_flat_02_invalid_url():
    got = handle_flat_request(load(FLAT_IN, "02-invalid-url"), fetch=FETCH)
    want = golden(FLAT_OUT, "02-invalid-url")
    assert (got["status"], got["title"], got["detail"], got["instance"]) == (
        want["status"], want["title"], want["detail"], want["instance"]
    )


@needs_pytest_corpus
def test_flat_03_invalid_config_content():
    # the reference fetches https://soya.ownyourdata.eu/ which serves HTML;
    # mirror with a fetcher that returns non-RDF content for that url
    req = load(FLAT_IN, "03-invalid-config")
    fetch = static_fetcher({req["configurationUrl"]: "<html>landing page</html>"})
    got = handle_flat_request(req, fetch=fetch)
    want = golden(FLAT_OUT, "03-invalid-config")
    assert (got["status"], got["title"], got["detail"], got["instance"]) == (
        want["status"], want["title"], want["detail"], want["instance"]
    )


@needs_pytest_corpus
def test_flat_04_jsonld_data_on_flat_endpoint():
    # byte-exact including the Jackson token name and source position (the
    # column is computed against the corpus's own request serialization)
    got = handle_flat_request(load(FLAT_IN, "04-no-json-ld"), fetch=FETCH)
    assert got == golden(FLAT_OUT, "04-no-json-ld")


@needs_pytest_corpus
def test_flat_05_invalid_prefix():
    got = handle_flat_request(load(FLAT_IN, "05-invalid-prefix"), fetch=FETCH)
    assert got == golden(FLAT_OUT, "05-invalid-prefix")


# ---- flat happy path through the API (url -> SOyA parse -> anonymize) -----

@needs_pytest_corpus
def test_flat_11_masking_through_api():
    got = handle_flat_request(load(FLAT_IN, "11-maksing"), fetch=FETCH)
    assert got == golden(FLAT_OUT, "11-maksing")


# ---- json-ld error cases --------------------------------------------------

@needs_pytest_corpus
def test_jsonld_01_missing_parameter():
    got = handle_jsonld_request(load(LD_IN, "01-missing-parameter"), fetch=FETCH)
    assert got == golden(LD_OUT, "01-missing-parameter")


@needs_pytest_corpus
def test_jsonld_02_invalid_url():
    got = handle_jsonld_request(load(LD_IN, "02-invalid-url"), fetch=FETCH)
    want = golden(LD_OUT, "02-invalid-url")
    assert (got["status"], got["title"], got["detail"], got["instance"]) == (
        want["status"], want["title"], want["detail"], want["instance"]
    )


@needs_pytest_corpus
def test_jsonld_03_invalid_config_content():
    req = load(LD_IN, "03-invalid-config")
    fetch = static_fetcher({req["configurationUrl"]: "<html>landing page</html>"})
    got = handle_jsonld_request(req, fetch=fetch)
    want = golden(LD_OUT, "03-invalid-config")
    assert (got["status"], got["title"], got["detail"], got["instance"]) == (
        want["status"], want["title"], want["detail"], want["instance"]
    )


@needs_pytest_corpus
@pytest.mark.parametrize(
    "name",
    [
        "11-maksing",
        "12-generalization",
        "13-generalization-address",
        "14-randomization",
        "15-multiple-attributes",
        "16-multiple-objects",
        "17-use-original-attributes",
    ],
)
def test_jsonld_through_api_document_level(name):
    # full surface: url -> SOyA parse -> anonymize -> write_jsonld; the
    # serialized document re-parses to the golden's triple set at P/R 1.0 —
    # no exclusions: the endpoint runs java_compat, so randomized literals,
    # tie orders and k-anonymity are byte-exact
    from anonymization_ray.sources.jsonld import (
        normalize_triples,
        parse_jsonld,
        triple_precision_recall,
    )

    req = load(LD_IN, name)
    got_doc = handle_jsonld_request(req, fetch=FETCH)
    want = golden(LD_OUT, name)
    gset = normalize_triples(parse_jsonld(got_doc))
    wset = normalize_triples(parse_jsonld(want))
    p, r = triple_precision_recall(gset, wset)
    assert p == 1.0 and r == 1.0, f"{name}: P={p:.4f} R={r:.4f}"


@needs_pytest_corpus
def test_jsonld_04_flat_data_on_jsonld_endpoint():
    # non-JSON-LD data -> empty model; only the kpi node (k=1) survives
    got = handle_jsonld_request(load(LD_IN, "04-no-json-ld"), fetch=FETCH)
    graph = got["@graph"]
    assert len(graph) == 1
    node = graph[0]
    assert node["@id"].endswith("kpiAnonymisationDemo")
    (kan,) = [v for k, v in node.items() if k.endswith("kanonymity")]
    assert kan["@value"] == "1"


@needs_pytest_corpus
def test_http_fetcher_live_localhost_roundtrip():
    """End-to-end over a REAL socket: the vendored demo overlay served by a
    stdlib HTTP server on 127.0.0.1, fetched by http_fetcher at request time
    (the reference's live GET, ConfigurationService.java:72-101) — the
    masking case must produce byte-identical output to the static-fetch
    golden path."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from anonymization_ray.api import http_fetcher

    class _H(BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path == "/AnonymisationDemo":
                body = _DEMO.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_response(404)
                self.end_headers()

        def log_message(self, *a):
            pass

    srv = HTTPServer(("127.0.0.1", 0), _H)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        req = load(FLAT_IN, "11-maksing")
        req["configurationUrl"] = (
            f"http://127.0.0.1:{srv.server_port}/AnonymisationDemo"
        )
        got = handle_flat_request(req, fetch=http_fetcher(timeout=5.0))
        assert got == golden(FLAT_OUT, "11-maksing")
    finally:
        srv.shutdown()
        srv.server_close()


def test_http_fetcher_error_semantics(monkeypatch):
    """Reference ConfigurationService.fetchStringContent semantics: non-2xx,
    empty body, bad URI and transport failures all become OntologyFetchError
    (-> the 404 ontology problem body) without an HTTP dependency."""
    import io
    import urllib.error
    import urllib.request

    from anonymization_ray.api import OntologyFetchError, http_fetcher

    fetch = http_fetcher(timeout=1.0)

    class _Resp(io.BytesIO):
        def __init__(self, body, status=200):
            super().__init__(body)
            self.status = status
        def __enter__(self):
            return self
        def __exit__(self, *a):
            return False

    # happy path
    monkeypatch.setattr(urllib.request, "urlopen", lambda u, timeout: _Resp(b'{"@graph": []}'))
    assert fetch("https://example.org/cfg") == '{"@graph": []}'
    # empty body
    monkeypatch.setattr(urllib.request, "urlopen", lambda u, timeout: _Resp(b""))
    with pytest.raises(OntologyFetchError):
        fetch("https://example.org/empty")
    # non-2xx
    monkeypatch.setattr(urllib.request, "urlopen", lambda u, timeout: _Resp(b"x", status=503))
    with pytest.raises(OntologyFetchError):
        fetch("https://example.org/down")
    # transport error
    def _boom(u, timeout):
        raise urllib.error.URLError("no route")
    monkeypatch.setattr(urllib.request, "urlopen", _boom)
    with pytest.raises(OntologyFetchError):
        fetch("https://example.org/unreachable")
    # URI syntax error (urlopen raises ValueError on unknown scheme)
    monkeypatch.setattr(urllib.request, "urlopen", urllib.request.urlopen)
    with pytest.raises(OntologyFetchError):
        fetch("not a url")
