"""The benchmark harness merges its records into BENCH_perf.json by
bench name instead of overwriting the file."""

import json
import os

from benchmarks.conftest import merge_bench_records


def _write(path, records):
    path.write_text(json.dumps({"python": "3", "machine": "x",
                                "records": records}))


def test_same_name_is_replaced_and_others_are_kept(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    _write(path, [{"bench": "a", "wall_s": 1.0},
                  {"bench": "b", "wall_s": 2.0, "nproc": 1}])
    payload = merge_bench_records(path, [{"bench": "a", "wall_s": 0.5},
                                         {"bench": "c", "wall_s": 3.0}])
    assert payload["records"] == [
        {"bench": "a", "wall_s": 0.5, "nproc": os.cpu_count()},
        {"bench": "b", "wall_s": 2.0, "nproc": 1},
        {"bench": "c", "wall_s": 3.0, "nproc": os.cpu_count()},
    ]
    assert {"python", "machine"} <= payload.keys()


def test_missing_file_starts_fresh(tmp_path):
    payload = merge_bench_records(tmp_path / "absent.json",
                                  [{"bench": "a"}])
    assert payload["records"] == [{"bench": "a", "nproc": os.cpu_count()}]


def test_unreadable_file_starts_fresh(tmp_path):
    for text in ("{not json", json.dumps({"runs": []}),
                 json.dumps({"records": "oops"}),
                 json.dumps({"records": [1, 2]})):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(text)
        payload = merge_bench_records(path, [{"bench": "a"}])
        assert payload["records"] == [{"bench": "a",
                                       "nproc": os.cpu_count()}]
