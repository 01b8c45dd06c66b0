"""Dictionary-encoded triple store — the RDF-3X / Jena-TDB storage trick
re-expressed Ray-Data-first.

Every triple store that survives past toy scale stores terms ONCE in a
term dictionary and keeps the triple table as three fixed-width integer
ids: joins, sorts and shuffles then move 24 bytes/row instead of the
~50-150 bytes of IRI/literal text, and equality compares are single int64
instructions instead of string memcmps. (The reference's Jena backend does
exactly this inside TDB's NodeTable; here the dictionary is an explicit,
queryable Dataset so the encoding itself is oracle-checkable.)

Shapes:

- ``build_term_dictionary``: one streaming pass of per-batch ``unique``
  partials over subj/pred/obj flattened into a single ``term`` column,
  a sort-scan global distinct (``util.distinct_rows`` — no per-group
  aggregate at term cardinality), then a dense 0-based id stamped from the
  already-sorted block layout (per-block row counts to the driver, arange
  + offset per block — ids are the rank of the term in global sorted
  order, so the assignment is deterministic and SQL-replicable as
  ``row_number() OVER (ORDER BY term) - 1``).
- ``encode_triples``: predicates are a bounded vocabulary — their id
  slice is gathered once (one vectorized ``is_in`` scan of the
  dictionary) and BROADCAST into a stateless ``map_batches`` replace;
  subjects and objects are unbounded, so they go through the
  hash-partitioned join against the dictionary (the one all-to-all this
  layout pays, and it is paid ONCE at encode time — every downstream
  query joins on int64).
- ``decode_bindings``: final projections re-attach surface forms by
  joining each id column back against the dictionary — only the
  result-sized tail of a query pays string traffic.

At 100 TB the dictionary itself is written as sorted Parquet so constant
terms resolve by row-group pushdown rather than a scan; here constants
resolve with one filtered scan per query (bounded by the constant count).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..util import distinct_rows, hash_join, retry_shuffle_race

_POS_COLS = ("subj", "pred", "obj")


@retry_shuffle_race
def build_term_dictionary(
    triples: rd.Dataset, cols: tuple[str, ...] = _POS_COLS
) -> rd.Dataset:
    """(term: string, term_id: int64) with term_id = rank of the term in
    global sorted order over the distinct terms of all ``cols``."""

    def _partial(b: pa.Table) -> pa.Table:
        parts = [
            pc.unique(b.column(c).combine_chunks()).cast(pa.string()) for c in cols
        ]
        return pa.table({"term": pa.concat_arrays(parts)})

    terms = distinct_rows(
        triples.map_batches(_partial, batch_format="pyarrow"), ["term"]
    ).materialize()
    # distinct_rows output blocks are globally sorted by term — stamp dense
    # ids from block offsets (no second sort, no per-group anything)
    refs = terms.to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    counts = ray.get([_nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

    @ray.remote(num_cpus=0.25)
    def _stamp(t: pa.Table, off: int) -> pa.Table:
        ids = np.arange(off, off + t.num_rows, dtype=np.int64)
        return t.append_column("term_id", pa.array(ids, pa.int64()))

    live = [(r, o) for r, o, c in zip(refs, offsets, counts) if c]
    if not live:
        return rd.from_arrow(pa.table({"term": pa.array([], pa.string()),
                                       "term_id": pa.array([], pa.int64())}))
    return rd.from_arrow_refs([_stamp.remote(r, int(o)) for r, o in live])


@retry_shuffle_race
def encode_triples(
    triples: rd.Dataset,
    dictionary: rd.Dataset,
    *,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(s_id, p_id, o_id) int64 encoding of (subj, pred, obj).

    Predicate ids broadcast (bounded vocabulary, one dictionary scan);
    subj/obj ids attach via the hash-partitioned dictionary join."""
    preds = [
        r["term"]
        for r in distinct_rows(triples.select_columns(["pred"]), ["pred"])
        .map_batches(
            lambda b: b.rename_columns(["term"]), batch_format="pyarrow"
        )
        .take_all()
    ]
    pred_map = resolve_terms(dictionary, preds)
    pm_terms = pa.array(list(pred_map), pa.string())
    pm_ids = np.fromiter(pred_map.values(), dtype=np.int64, count=len(pred_map))

    def _encode_pred(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b.column("pred").combine_chunks(), pm_terms)
        p_id = pm_ids[idx.to_numpy(zero_copy_only=False)]
        return pa.table(
            {
                "subj": b.column("subj"),
                "p_id": pa.array(p_id, pa.int64()),
                "obj": b.column("obj"),
            }
        )

    enc = triples.map_batches(_encode_pred, batch_format="pyarrow")
    sdict = dictionary.map_batches(
        lambda b: b.rename_columns(["subj", "s_id"]), batch_format="pyarrow"
    ).materialize()
    odict = dictionary.map_batches(
        lambda b: b.rename_columns(["obj", "o_id"]), batch_format="pyarrow"
    ).materialize()
    enc = hash_join(enc, sdict, on="subj", join_type="inner",
                    num_partitions=num_partitions)
    enc = hash_join(enc, odict, on="obj", join_type="inner",
                    num_partitions=num_partitions)
    return enc.select_columns(["s_id", "p_id", "o_id"])


def resolve_terms(dictionary: rd.Dataset, terms: list[str]) -> dict[str, int]:
    """Constant-term ids in ONE filtered scan (bounded by len(terms))."""
    want = pa.array(terms, pa.string())

    def _probe(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.fill_null(pc.is_in(b.column("term").combine_chunks(), value_set=want), False)
        )

    rows = dictionary.map_batches(_probe, batch_format="pyarrow").take_all()
    out = {r["term"]: r["term_id"] for r in rows}
    missing = [t for t in terms if t not in out]
    if missing:
        raise KeyError(f"terms not in dictionary: {missing[:5]}")
    return out


@retry_shuffle_race
def decode_bindings(
    bindings: rd.Dataset,
    dictionary: rd.Dataset,
    mapping: dict[str, str],
    *,
    broadcast_cols: tuple[str, ...] = (),
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Re-attach surface forms: for each ``out_col -> id_col`` in
    ``mapping``, join the id column against the dictionary and emit the
    term as ``out_col``. Only the (result-sized) bindings move.

    ``broadcast_cols`` names output columns whose id has BOUNDED distinct
    cardinality (a dimension-like variable, e.g. nations): those decode by
    broadcasting the needed dictionary slice into a stateless lookup
    instead of a hash join — a low-distinct-key left side leaves most join
    partitions empty, which Ray's shuffle aggregator turns into
    schema-less blocks the Arrow join rejects (the documented ``hash_join``
    quirk), and the broadcast is the better plan for a dimension anyway."""
    out = bindings
    for out_col, id_col in mapping.items():
        if out_col in broadcast_cols:
            partials = out.map_batches(
                lambda b, ic=id_col: pa.table(
                    {"term_id": pc.unique(pc.drop_null(b.column(ic)))}
                ),
                batch_format="pyarrow",
            )
            blocks = [b for b in ray.get(partials.to_arrow_refs()) if b.num_rows]
            ids = (
                pc.unique(pa.concat_tables(blocks).column("term_id").combine_chunks())
                if blocks
                else pa.array([], pa.int64())
            )
            slice_rows = dictionary.map_batches(
                lambda b, want=ids: b.filter(
                    pc.fill_null(
                        pc.is_in(b.column("term_id").combine_chunks(), value_set=want),
                        False,
                    )
                ),
                batch_format="pyarrow",
            ).take_all()
            lut_ids = np.fromiter(
                (r["term_id"] for r in slice_rows), dtype=np.int64, count=len(slice_rows)
            )
            lut_terms = pa.array([r["term"] for r in slice_rows], pa.string())
            lut_key = pa.array(lut_ids, pa.int64())

            def _attach(b: pa.Table, oc=out_col, ic=id_col,
                        lk=lut_key, lt=lut_terms) -> pa.Table:
                idx = pc.index_in(b.column(ic).combine_chunks(), lk)
                return b.append_column(oc, pc.take(lt, idx))

            out = out.map_batches(_attach, batch_format="pyarrow")
        else:
            d = dictionary.map_batches(
                lambda b, oc=out_col, ic=id_col: pa.table(
                    {oc: b.column("term"), ic: b.column("term_id")}
                ),
                batch_format="pyarrow",
            ).materialize()
            # the (result-sized) bindings materialize before each decode
            # join, so a plan holds one join however many columns decode:
            # every join's aggregators reserve memory when its plan starts,
            # and ``util.default_num_partitions`` budgets for two at a time
            out = hash_join(out.materialize(), d, on=id_col, join_type="inner",
                            num_partitions=num_partitions)
    return out.select_columns(list(mapping))


@retry_shuffle_race
def write_encoded_store(
    triples: rd.Dataset, out_dir: str, *, num_partitions: int | None = None
) -> rd.Dataset:
    """Materialize the dictionary-encoded store as sorted Parquet:

    - ``dict/``  — (term, term_id) sorted by term: a constant term resolves
      by row-group pushdown on ``term`` (the NodeTable lookup);
    - ``pos/``   — (p_id, s_id, o_id) sorted by (p_id, s_id, o_id): a
      constant-predicate scan reads only its row-group range, and the rows
      it reads are 24 B fixed-width instead of IRI text.

    Returns the (materialized) dictionary for reuse. The output directory
    is truncated first — ``write_parquet`` appends into existing dirs."""
    import os
    import shutil

    import json

    shutil.rmtree(out_dir, ignore_errors=True)
    d = build_term_dictionary(triples).materialize()
    # build's output blocks are already term-sorted; write as-is
    d.write_parquet(os.path.join(out_dir, "dict"))
    enc = encode_triples(triples, d, num_partitions=num_partitions).materialize()
    enc.sort(["p_id", "s_id", "o_id"]).write_parquet(os.path.join(out_dir, "pos"))
    # per-predicate counts: the BGP optimizer's stats table, persisted at
    # write time (vocabulary-sized)
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump(_store_stats(enc, d), f, sort_keys=True)
    return d


def read_dictionary(out_dir: str) -> rd.Dataset:
    import os

    return rd.read_parquet(os.path.join(out_dir, "dict"))


def read_pred_encoded(out_dir: str, pred: str) -> rd.Dataset:
    """Index-aware encoded read of one predicate: resolve the term id with
    a pushdown read of the dictionary (row-group pruning on ``term``), then
    read only the p_id range of the POS-sorted encoded table."""
    import os

    import pyarrow.dataset as pads

    rows = rd.read_parquet(
        os.path.join(out_dir, "dict"), filter=pads.field("term") == pred
    ).take_all()
    if not rows:
        raise KeyError(f"predicate {pred!r} not in the store's dictionary")
    pid = rows[0]["term_id"]
    return rd.read_parquet(
        os.path.join(out_dir, "pos"), filter=pads.field("p_id") == pid
    )


def _store_stats(enc: rd.Dataset, dictionary: rd.Dataset) -> dict[str, int]:
    """Per-predicate triple counts (bounded by the predicate vocabulary):
    one fold over p_id, then an is_in slice of the dictionary to name them."""
    from ..util import fold_per_key

    rows = fold_per_key(
        enc.select_columns(["p_id"]), "p_id", {"n": ("count", None)}
    ).take_all()
    by_id = {r["p_id"]: r["n"] for r in rows}
    want = pa.array(list(by_id), pa.int64())
    names = dictionary.map_batches(
        lambda b: b.filter(
            pc.fill_null(
                pc.is_in(b.column("term_id").combine_chunks(), value_set=want),
                False,
            )
        ),
        batch_format="pyarrow",
    ).take_all()
    return {r["term"]: int(by_id[r["term_id"]]) for r in names}


def read_store_stats(out_dir: str) -> dict[str, int]:
    """Per-predicate triple counts persisted at write time — feed these to
    ``kg.bgp.optimize_pattern_order(pred_counts=...)`` so BGP planning over
    the store costs one small JSON read instead of a vocabulary-sized
    fold over the corpus."""
    import json
    import os

    with open(os.path.join(out_dir, "stats.json")) as f:
        return json.load(f)
