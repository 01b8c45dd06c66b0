"""Turtle reader (kg/turtle.py) — the reference's last unread input format
(`exampleInputs/*.ttl`, what Jena's RDFDataMgr would parse)."""

import os

import pyarrow as pa
import pytest

from anonymization_ray.kg.turtle import parse_turtle, read_turtle_files

from refcorpus import needs_corpus

TTL_ONE = "/root/reference/exampleInputs/input_oneargument.ttl"
TTL_TWO = "/root/reference/exampleInputs/input_twoargument.ttl"
needs_example_inputs = needs_corpus(os.path.dirname(TTL_ONE))


def _rows(t: pa.Table):
    return {(r["subj"], r["pred"], r["obj"], r["obj_kind"]) for r in t.to_pylist()}


@needs_example_inputs
def test_reference_oneargument_ttl():
    t = parse_turtle(open(TTL_ONE).read())
    rows = _rows(t)
    # 9 subjects, each typed + one integer longitude
    assert t.num_rows == 18
    assert ("oyd:test1", "rdf:type", "oyd:AnonymisationDemo", "iri") in rows
    assert ("oyd:test1", "oyd:longitude", "1234", "integer") in rows
    assert ("oyd:test9", "oyd:longitude", "123", "integer") in rows


@needs_example_inputs
def test_reference_twoargument_ttl():
    rows = _rows(parse_turtle(open(TTL_TWO).read()))
    assert ("oyd:test1", "oyd:gehalt", "211", "integer") in rows
    assert ("oyd:test1", "oyd:name", "Test", "string") in rows
    assert ("oyd:test9", "oyd:gehalt", "219", "integer") in rows


@needs_example_inputs
def test_expand_resolves_prefixes():
    rows = _rows(parse_turtle(open(TTL_ONE).read(), expand=True))
    base = "https://soya.ownyourdata.eu/AnonymisationDemo/"
    assert (
        f"{base}test1",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        f"{base}AnonymisationDemo",
        "iri",
    ) in rows


def test_literals_datatypes_lang_numbers_booleans():
    ttl = """
    @prefix ex: <http://ex.org/> .
    ex:s ex:str "hi\\"there" ;
         ex:lang "bonjour"@fr ;
         ex:typed "2021-01-02"^^<http://www.w3.org/2001/XMLSchema#date> ;
         ex:typed2 "5"^^ex:custom ;
         ex:int 42 ;
         ex:neg -7 ;
         ex:dec 3.25 ;
         ex:dbl 1.5e3 ;
         ex:flag true .
    """
    rows = _rows(parse_turtle(ttl))
    assert ("ex:s", "ex:str", 'hi"there', "string") in rows
    assert ("ex:s", "ex:lang", "bonjour", "string") in rows
    assert ("ex:s", "ex:typed", "2021-01-02", "date") in rows
    assert ("ex:s", "ex:typed2", "5", "custom") in rows
    assert ("ex:s", "ex:int", "42", "integer") in rows
    assert ("ex:s", "ex:neg", "-7", "integer") in rows
    assert ("ex:s", "ex:dec", "3.25", "decimal") in rows
    assert ("ex:s", "ex:dbl", "1500.0", "double") in rows
    assert ("ex:s", "ex:flag", "true", "boolean") in rows


def test_object_lists_base_and_blank_nodes():
    ttl = """
    BASE <http://ex.org/>
    PREFIX ex: <http://ex.org/>
    <s> ex:likes ex:a, ex:b, <c> .
    _:b1 ex:knows _:b2 .
    ex:t ex:anon [] .
    """
    rows = _rows(parse_turtle(ttl))
    assert ("http://ex.org/s", "ex:likes", "ex:a", "iri") in rows
    assert ("http://ex.org/s", "ex:likes", "http://ex.org/c", "iri") in rows
    assert ("_:b1", "ex:knows", "_:b2", "iri") in rows
    anon = [r for r in rows if r[1] == "ex:anon"]
    assert len(anon) == 1 and anon[0][2].startswith("_:")


def test_honest_refusals():
    with pytest.raises(NotImplementedError, match="long"):
        parse_turtle('<s> <p> """x""" .')
    with pytest.raises(NotImplementedError, match="property lists"):
        parse_turtle("<s> <p> [ <q> 1 ] .")
    with pytest.raises(NotImplementedError, match="collections"):
        parse_turtle("<s> <p> ( 1 2 ) .")


def test_read_turtle_files_dataset(tmp_path):
    p = tmp_path / "x.ttl"
    p.write_text("@prefix ex: <http://ex.org/> .\nex:s ex:p 1 .\n")
    ds = read_turtle_files(str(p))
    rows = ds.take_all()
    assert rows == [
        {"subj": "ex:s", "pred": "ex:p", "obj": "1", "obj_kind": "integer"}
    ]


@needs_example_inputs
def test_anonymization_from_turtle_input():
    """End-to-end: the reference's Turtle example through the anonymization
    pass — the triple table from parse_turtle drives the same pipeline the
    JSON-LD/page paths use (proof the reader integrates, not just parses)."""
    import ray.data as rd

    from anonymization_ray.kg.anonymize import (
        TriplePredicateConfig,
        anonymize_triples,
    )

    ds = rd.from_arrow(parse_turtle(open(TTL_ONE).read())).materialize()
    out, results = anonymize_triples(
        ds,
        [TriplePredicateConfig("oyd:longitude", "integer", "generalization")],
    )
    rows = out.take_all()
    gen = [r for r in rows if r["pred"] == "oyd:longitude_generalized"]
    assert len(gen) == 9  # every subject's longitude got a bucket
    assert "oyd:longitude" in results
