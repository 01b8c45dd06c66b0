"""Entity-resolution fuzzy linking — match a corpus-scale stream of messy
surface forms against a broadcast canonical dictionary at edit distance <= 1
(the dominant typo class: one substitution, insertion or deletion).

Scale shape: the dictionary rides the object store ONCE (`ray.put`); each
batch dedups its mentions locally (`pd.factorize` — repeated surface forms
are the norm in web text), prunes candidates with vectorized length-band +
first/last-char filters, and only the surviving (mention, name) pairs pay
the O(len) banded distance check. The corpus never shuffles. Blocking for
larger distances is a different algorithm (q-gram / LSH — see dedup.py);
this operator is deliberately exact and d<=1.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def _within1(a: str, b: str) -> int | None:
    """Edit distance if <= 1 else None (banded check, O(len))."""
    la, lb = len(a), len(b)
    if a == b:
        return 0
    if la == lb:
        diff = sum(1 for x, y in zip(a, b) if x != y)
        return 1 if diff == 1 else None
    if abs(la - lb) != 1:
        return None
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is shorter: one skip allowed in b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def link_batch(
    b: pa.Table,
    col: str,
    names_: list[str],
    lens_: np.ndarray,
    firsts_: np.ndarray,
    lasts_: np.ndarray,
    keep: list[str],
    out_col: str,
    dist_col: str,
) -> pa.Table:
    """The fuzzy-link batch kernel, module-level so the A/B harness
    (``scripts/er_kernel_ab.py``) can time it against alternatives without
    Ray scheduling noise. ``names_`` must be sorted; lens/firsts/lasts are
    its precomputed per-name length and end characters."""
    vals = b.column(col).to_pandas()
    codes, uniq = pd.factorize(vals)
    uniq_list = [m if isinstance(m, str) else None for m in uniq]
    valid_u = np.array([m is not None for m in uniq_list], bool)
    u_lens = np.array([len(m) if m is not None else -9 for m in uniq_list])
    u_first = np.array([m[0] if m else "\x00" for m in uniq_list])
    u_last = np.array([m[-1] if m else "\x00" for m in uniq_list])

    # candidate (unique-mention, name) pairs via a CHUNKED boolean
    # matrix of the length-band + end-char prefilter — one numpy pass
    # per chunk instead of a Python loop per unique mention; chunking
    # bounds the matrix at CHUNK x |dict| bools regardless of batch size
    CHUNK = 2048
    su_parts, sc_parts = [], []
    for s in range(0, len(uniq_list), CHUNK):
        e = min(s + CHUNK, len(uniq_list))
        # a d<=1 pair always keeps its first OR last char equal, except
        # when either side is a single char (substitution moves both ends)
        m = (np.abs(u_lens[s:e, None] - lens_[None, :]) <= 1) & (
            (u_first[s:e, None] == firsts_[None, :])
            | (u_last[s:e, None] == lasts_[None, :])
            | (lens_[None, :] <= 1)
            | (u_lens[s:e, None] <= 1)
        ) & valid_u[s:e, None]
        ui, ci = np.nonzero(m)
        su_parts.append(ui + s)
        sc_parts.append(ci)
    cu = np.concatenate(su_parts) if su_parts else np.empty(0, np.int64)
    cn = np.concatenate(sc_parts) if sc_parts else np.empty(0, np.int64)

    # exact banded edit-distance only on the surviving candidate pairs
    sd = np.empty(len(cu), np.int64)
    ok = np.zeros(len(cu), bool)
    for p in range(len(cu)):
        d = _within1(uniq_list[cu[p]], names_[cn[p]])
        if d is not None:
            ok[p] = True
            sd[p] = d
    su, sc, sd = cu[ok], cn[ok], sd[ok]

    # expand per-unique hits back to rows, fully vectorized: hits are
    # already grouped by unique (chunks scan uniques in order and
    # nonzero is row-major), so offsets + repeat reconstruct each
    # row's match list in sorted-name order
    n_u = len(uniq_list)
    counts = np.bincount(su, minlength=n_u) if n_u else np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]) if n_u else counts
    safe = np.maximum(codes, 0)
    row_counts = np.where(codes >= 0, counts[safe], 0)
    rows = np.repeat(np.arange(len(codes)), row_counts)
    offs = np.arange(int(row_counts.sum())) - np.repeat(
        np.cumsum(row_counts) - row_counts, row_counts
    )
    match_pos = np.repeat(starts[safe], row_counts) + offs
    idx = pa.array(rows, pa.int64())
    cols = {c: b.column(c).take(idx) for c in keep}
    cols[col] = b.column(col).take(idx)
    cols[out_col] = pa.array(
        [names_[sc[p]] for p in match_pos], pa.string()
    )
    cols[dist_col] = pa.array(sd[match_pos], pa.int64())
    return pa.table(cols)


def fuzzy_link(
    ds: rd.Dataset,
    col: str,
    names: list[str],
    *,
    keep_cols: list[str] | None = None,
    out_col: str = "match",
    dist_col: str = "dist",
) -> rd.Dataset:
    """Rows of ``ds`` linked to every dictionary name within edit distance 1
    of ``ds[col]`` (one output row per (row, matching name); non-matching
    rows drop — semi-join semantics)."""
    arr = sorted(set(names))
    lens = np.array([len(n) for n in arr], np.int64)
    firsts = np.array([n[0] if n else "" for n in arr])
    lasts = np.array([n[-1] if n else "" for n in arr])
    ref = ray.put((arr, lens, firsts, lasts))
    keep = keep_cols or []

    def _link(b: pa.Table) -> pa.Table:
        names_, lens_, firsts_, lasts_ = ray.get(ref)
        return link_batch(
            b, col, names_, lens_, firsts_, lasts_, keep, out_col, dist_col
        )

    return ds.map_batches(_link, batch_format="pyarrow")


def survivorship_merge(
    ds: rd.Dataset,
    *,
    entity_col: str,
    priority_col: str,
    value_cols: list[str],
) -> rd.Dataset:
    """Golden-record survivorship (the MDM step after `fuzzy_link`
    matching): per entity and per attribute INDEPENDENTLY, the surviving
    value is the non-null one from the best (lowest) source priority —
    the "first non-null by trust order" rule every master-data tool
    defaults to. (entity, priority) pairs must be unique; entities with
    no non-null value for an attribute surface it as null.

    Scale shape, per attribute: drop nulls -> `min_per_key` winning
    priority (range sort + boundary scan, no per-group aggregate) -> one
    entity-keyed hash join fetches the winning value. Attribute results
    re-join the golden table on the entity key, one materialized step per
    attribute, so the merge runs at call time and a plan never holds more
    than one attribute's two joins; no stage ever holds more than
    (entity, priority, one attribute)."""
    from ..util import hash_join, min_per_key

    # seed with the entity universe so an entity whose every source left an
    # attribute null still surfaces (with that attribute null) — the
    # per-attribute null-drop below cannot resurrect it
    golden: rd.Dataset = min_per_key(
        ds.select_columns([entity_col, priority_col]), entity_col, priority_col
    ).select_columns([entity_col])
    for c in value_cols:
        nn = ds.select_columns([entity_col, priority_col, c]).map_batches(
            lambda b, col=c: b.filter(pc.is_valid(b.column(col))),
            batch_format="pyarrow",
        )
        win = min_per_key(nn, entity_col, priority_col).rename_columns(
            {priority_col: "_pmin"}
        )
        picked = hash_join(nn, win, on=entity_col, join_type="inner")
        part = picked.map_batches(
            lambda b, col=c: b.filter(
                pc.equal(b.column(priority_col), b.column("_pmin"))
            ).select([entity_col, col]),
            batch_format="pyarrow",
        )
        # materialized per attribute (entity-sized), so one plan holds two
        # joins, the most ``util.default_num_partitions`` budgets memory for
        golden = hash_join(
            golden, part, on=entity_col, join_type="left_outer"
        ).materialize()
    return golden
