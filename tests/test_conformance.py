"""Conformance vs the reference's own pytest corpus
(/root/reference/pytest/02_{input,output}_flat_json — read-only).

The reference's config graph (fetched from the live SOyA URL at request time,
not in its repo) is vendored as a SOyA overlay JSON-LD fixture
(tests/fixtures/anonymisation_demo_soya.jsonld, shape per FIXTURES.md §1-§3)
and parsed through the same extraction path a real request uses
(soya.parse_soya_config). Every happy case 11-17 is asserted BYTE-EXACT
against the goldens: java_compat mode replays the reference's
java.util.Random(seed) draw stream and its HashMap-iteration sort tie order
(javacompat.py), making randomized values, tie-straddling bucket assignments
and the RNG-dependent k-anonymity all exact. A separate test keeps the
engine-default Philox mode honest (bounds + determinism).
"""

import json
import math
import os

import pytest

from anonymization_ray.config import AnonymizationConfig, AttributeConfig
from anonymization_ray.pipelines.flat import (
    RequestModelError,
    anonymize_flat_request,
    validate_key,
    validate_request,
)
from anonymization_ray.soya import parse_soya_config

from refcorpus import needs_corpus

IN_DIR = "/root/reference/pytest/02_input_flat_json"
OUT_DIR = "/root/reference/pytest/02_output_flat_json"
needs_pytest_corpus = needs_corpus(os.path.dirname(IN_DIR))

with open(os.path.join(os.path.dirname(__file__), "fixtures", "anonymisation_demo_soya.jsonld")) as _f:
    REF_CONFIG = parse_soya_config(_f.read())

REF_CONFIG2 = AnonymizationConfig(
    (
        AttributeConfig("Object1", "name", "string", "masking"),
        AttributeConfig("Object1", "gehalt", "float", "generalization"),
        AttributeConfig("Object1", "geburtsdatum", "date", "generalization"),
        AttributeConfig("Object2", "latitude", "float", "randomization"),
        AttributeConfig("Object2", "longitude", "float", "randomization"),
    )
)


def load_case(name):
    with open(f"{IN_DIR}/{name}.json") as f:
        req = json.load(f)
    with open(f"{OUT_DIR}/{name}.json") as f:
        golden = json.load(f)
    return req, golden


def run(req, config, java_compat=True):
    return anonymize_flat_request(
        req["data"],
        config,
        seed=req.get("randomSeed", 0),
        include_original_data=req.get("includeOriginalData", False),
        use_adjusted_attributes=req.get("useAdjustedAttributes", True),
        java_compat=java_compat,
        prefix=req.get("prefix", ""),
    )


@needs_pytest_corpus
def test_case_11_masking_exact():
    req, golden = load_case("11-maksing")
    got = run(req, REF_CONFIG)
    assert got == golden


@needs_pytest_corpus
def test_case_12_generalization_exact():
    # byte-exact including tie-straddling bucket assignments: java_compat
    # replays the reference's HashMap-iteration tie order (javacompat._bucket
    # — uri.hashCode() + Jena's hashURI salt)
    req, golden = load_case("12-generalization")
    got = run(req, REF_CONFIG)
    assert got == golden


@needs_pytest_corpus
@pytest.mark.parametrize("name", ["12-generalization-address", "13-generalization-address"])
def test_case_object_generalization_exact(name):
    req, golden = load_case(name)
    got = run(req, REF_CONFIG)
    assert got == golden


@needs_pytest_corpus
def test_case_14_randomization_byte_exact():
    # the reference's java.util.Random(1234) stream replayed exactly —
    # randomized literals AND the RNG-dependent k-anonymity match the golden
    req, golden = load_case("14-randomization")
    got = run(req, REF_CONFIG)
    assert got == golden


@needs_pytest_corpus
def test_case_14_philox_mode_structural():
    """Engine-default Philox mode: distributionally equivalent, not
    bit-equal — bounds + determinism (the documented deviation)."""
    req, golden = load_case("14-randomization")
    got = run(req, REF_CONFIG, java_compat=False)
    assert len(got["data"]) == len(golden["data"])
    lons = [float(r["longitude"]) for r in req["data"] if r.get("longitude")]
    for row in got["data"]:
        if "longitude_randomized" in row:
            assert min(lons) - 1e-9 <= float(row["longitude_randomized"]) <= max(lons) + 1e-9
    assert run(req, REF_CONFIG, java_compat=False) == got


@needs_pytest_corpus
def test_case_15_multiple_attributes_byte_exact():
    req, golden = load_case("15-multiple-attributes")
    got = run(req, REF_CONFIG)
    assert got == golden


def _norm_types(row):
    r = dict(row)
    if "types" in r:
        r["types"] = sorted(r["types"])  # the reference's type order is arbitrary
    return r


@needs_pytest_corpus
def test_case_16_multiple_objects_byte_exact():
    req, golden = load_case("16-multiple-objects")
    got = run(req, REF_CONFIG2)
    assert got["kpis"] == golden["kpis"]
    for g_row, ref_row in zip(got["data"], golden["data"]):
        assert _norm_types(g_row) == _norm_types(ref_row)


@needs_pytest_corpus
def test_case_17_use_original_attributes_byte_exact():
    req, golden = load_case("17-use-original-attributes")
    got = run(req, REF_CONFIG)
    assert got == golden


# --- error cases (reference 01-05 semantics) -------------------------------

def test_invalid_key_rejected():
    with pytest.raises(RequestModelError):
        validate_key("bad-key!")
    with pytest.raises(RequestModelError):
        validate_key("1leading")
    validate_key("fine_Key2")


def test_adjusted_original_constraint():
    with pytest.raises(RequestModelError):
        validate_request(use_adjusted_attributes=False, include_original_data=True)
    validate_request(use_adjusted_attributes=False, include_original_data=False)
