import os

import pytest

from prooflab.algebra import Field, RATIONALS
from prooflab.errors import UsageError
from prooflab.experiments import (calibration_pairs, experiment_csp_sweep,
                                  experiment_degree_growth, experiment_wl_calibrate,
                                  rows_to_csv, run_cells)


def test_calibration_corpus_has_required_pairs():
    names = [name for (name, _, _, _) in calibration_pairs(include_cfi=True)]
    assert len(names) >= 20
    assert "triangles_vs_c6" in names
    assert names[-1] == "cfi_k4_twisted"
    assert len(set(names)) == len(names)


def test_wl_calibrate_on_cheap_subset():
    pairs = [p for p in calibration_pairs(include_cfi=False)
             if p[0] in ("path3_vs_triangle", "star_vs_path4", "matching_vs_path")]
    report = experiment_wl_calibrate(k_max=3, dim_max=2, timeout_s=120.0, pairs=pairs)
    assert report["c"] == 1
    assert all(row["status"] == "done" for row in report["rows"])
    assert all(row["min_degree"] == row["wl_dim"] + 1 for row in report["rows"])


def test_csp_sweep_rows_agree():
    rows = experiment_csp_sweep(cycle_min=3, cycle_max=5, timeout_s=120.0)
    assert [row["cycle"] for row in rows] == [3, 4, 5]
    assert all(row["agree"] for row in rows)
    assert [row["direct"] for row in rows] == [False, True, False]


def test_degree_growth_rejects_bad_inputs():
    with pytest.raises(UsageError):
        experiment_degree_growth(["k4", "dodecahedron"])
    with pytest.raises(UsageError):
        experiment_degree_growth(["k4"], p=2, field=Field(2))


def test_degree_growth_timed_out_row_keeps_wl_dim():
    # encoding and 1-WL on the K4 pair take well under a second; the
    # degree-4 closure takes far longer than the timeout
    (row,) = experiment_degree_growth(["k4"], k_max=4, dim_max=1, timeout_s=5.0)
    assert row["status"] == "timeout"
    assert "wl_dim" in row and row["wl_dim"] is None
    assert row["min_degree"] is None and row["k_checked"] < 4


def test_wl_calibrate_timed_out_row_keeps_wl_dim():
    # as for degree growth: 1-WL on the K4 pair is quick, its degree-4
    # closure takes far longer than the timeout
    pairs = [p for p in calibration_pairs() if p[0] == "cfi_k4_twisted"]
    report = experiment_wl_calibrate(k_max=4, dim_max=1, timeout_s=5.0, pairs=pairs)
    (row,) = report["rows"]
    assert row["status"] == "timeout" and row["pair"] == "cfi_k4_twisted"
    assert "wl_dim" in row and row["wl_dim"] is None
    assert row["min_degree"] is None and row["k_checked"] < 4
    assert report["offsets"] == [] and report["c"] is None


def test_run_cells_timeout_and_error_paths():
    def slow_cell(n):
        import time
        yield {"n": n}
        time.sleep(30)

    def bad_cell(n):
        yield {"n": n}
        raise ValueError("boom")

    results = run_cells([("slow", slow_cell, (1,)), ("bad", bad_cell, (2,))],
                        timeout_s=2.0, workers=2)
    assert results["slow"]["status"] == "timeout"
    assert results["slow"]["n"] == 1
    assert results["bad"]["status"] == "error"
    assert "boom" in results["bad"]["error"]


def test_run_cells_cell_that_exits_is_an_error_and_keeps_its_progress():
    def exiting_cell():
        yield {"n": 1}
        os._exit(0)  # no "done", no "error": the pipe just ends

    results = run_cells([("gone", exiting_cell, ())], timeout_s=60.0, workers=1)
    assert results["gone"] == {"n": 1, "status": "error"}


def test_run_cells_many_cells_few_workers():
    def cell(i):
        yield {"i": i}
        yield {"square": i * i}

    results = run_cells([(i, cell, (i,)) for i in range(20)], timeout_s=60.0, workers=2)
    assert results == {i: {"i": i, "square": i * i, "status": "done"} for i in range(20)}


def test_run_cells_rejects_workers_below_one():
    def cell():
        yield {}

    for workers in (0, -1):
        with pytest.raises(UsageError):
            run_cells([("c", cell, ())], timeout_s=1.0, workers=workers)


def test_rows_to_csv_escapes_structures():
    text = rows_to_csv([{"a": 1, "b": [1, 2]}, {"a": 2, "b": []}])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1].startswith("1,")
