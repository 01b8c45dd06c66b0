"""JSON-LD EXPANDED-form acceptance (round-4 verdict item 6).

The reference parses arbitrary JSON-LD through Jena
(``AnonymizationService.java:139-149``); third-party documents commonly
arrive in the W3C EXPANDED form — a top-level array of node objects with
full-IRI keys and array-wrapped ``{"@value"}`` / ``{"@id"}`` values.
``parse_jsonld`` now accepts that shape (and ``@list`` collections), so the
expanded form of the reference goldens anonymizes to the SAME triples as
the compact form without pre-compaction.
"""

import json

import pytest

from anonymization_ray.api import handle_jsonld_request
from anonymization_ray.pipelines.jsonld import anonymize_jsonld_request
from anonymization_ray.sources.jsonld import (
    jsonld_expand,
    normalize_triples,
    parse_jsonld,
    triple_precision_recall,
)

from test_api import CONFIG_URL, FETCH, LD_IN, load, needs_pytest_corpus
from test_conformance import REF_CONFIG

PREFIX = "https://soya.ownyourdata.eu/AnonymisationDemo/"


def _norm(t):
    return normalize_triples(t, prefix=PREFIX)


@needs_pytest_corpus
def test_expand_roundtrips_to_same_triples():
    doc = load(LD_IN, "11-maksing")["data"]
    expanded = jsonld_expand(doc)
    assert isinstance(expanded, list)
    # expanded keys are full IRIs, values array-wrapped
    assert all(k.startswith(("http", "@")) for n in expanded for k in n)
    assert _norm(parse_jsonld(expanded)) == _norm(parse_jsonld(doc))


@needs_pytest_corpus
def test_expanded_with_context_compacts_byte_identically():
    doc = load(LD_IN, "13-generalization-address")["data"]
    ctx = {k: v for k, v in doc["@context"].items() if isinstance(v, str)}
    compact = parse_jsonld(doc)
    re_compacted = parse_jsonld(jsonld_expand(doc), context=ctx)
    # with the context supplied, full IRIs compact back to pfx:local and
    # the triple table is IDENTICAL, not merely equivalent
    assert compact.to_pylist() == re_compacted.to_pylist()


@needs_pytest_corpus
@pytest.mark.parametrize("name", ["11-maksing", "13-generalization-address"])
def test_expanded_anonymization_matches_compact(name):
    req = load(LD_IN, name)
    compact_out = anonymize_jsonld_request(
        req["data"], REF_CONFIG, seed=req.get("randomSeed", 0), java_compat=True
    )
    expanded_out = anonymize_jsonld_request(
        jsonld_expand(req["data"]),
        REF_CONFIG,
        seed=req.get("randomSeed", 0),
        java_compat=True,
    )
    p, r = triple_precision_recall(_norm(expanded_out), _norm(compact_out))
    assert (p, r) == (1.0, 1.0)


@needs_pytest_corpus
def test_expanded_through_api_endpoint():
    req = load(LD_IN, "11-maksing")
    payload = dict(req)
    payload["data"] = jsonld_expand(req["data"])
    payload["configurationUrl"] = CONFIG_URL
    got = handle_jsonld_request(payload, fetch=FETCH)
    ref_req = dict(req)
    ref_req["configurationUrl"] = CONFIG_URL
    want = handle_jsonld_request(ref_req, fetch=FETCH)
    gt, wt = parse_jsonld(got), parse_jsonld(want)
    p, r = triple_precision_recall(_norm(gt), _norm(wt))
    assert (p, r) == (1.0, 1.0)


def test_list_values_become_rdf_collections():
    doc = [
        {
            "@id": "http://ex.org/s",
            "http://ex.org/items": [{"@list": [{"@value": 1}, {"@value": 2}]}],
        }
    ]
    t = parse_jsonld(doc)
    rows = t.to_pylist()
    firsts = [r for r in rows if r["pred"].endswith("#first")]
    rests = [r for r in rows if r["pred"].endswith("#rest")]
    assert [r["obj"] for r in firsts] == ["1", "2"]
    assert rests[-1]["obj"].endswith("#nil")
    # chain is rooted at the subject via the property
    assert any(r["subj"] == "http://ex.org/s" for r in rows)
