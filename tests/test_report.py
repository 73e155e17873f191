"""Report serialization: 17-digit CSV, lossless round-trip, JSON metadata."""

import csv
import json

import numpy as np
import pytest

from conftest import read_report_csv
from diracdiag.report import (
    REPORT_COLUMNS,
    format_float,
    gamma_tag,
    sort_report_rows,
    validate_report_rows,
    write_json_summary,
    write_report_csv,
    write_table_csv,
)


def sample_rows():
    rows = []
    for gamma in (0.1, 0.3):
        for k in range(3):
            rows.append({
                "gamma": gamma, "k": k,
                "resolvent_distance": 0.123456789012345678 * (k + 1),
                "weighted_remainder_norm": 1e-7 / (k + 1),
                "max_eigval_error": np.pi * 10.0 ** -k,
                "fitted_ratio": 0.25,
            })
    return rows


def test_format_float_17_digits():
    s = format_float(np.pi)
    assert s == f"{np.pi:.16e}"
    assert float(s) == np.pi  # 17 significant digits are lossless for doubles


def test_sort_report_rows():
    rows = sample_rows()[::-1]
    ordered = sort_report_rows(rows)
    keys = [(r["gamma"], r["k"]) for r in ordered]
    assert keys == sorted(keys)


def test_validate_report_rows_rejects_bad_values():
    rows = sample_rows()
    rows[0]["resolvent_distance"] = float("nan")
    with pytest.raises(ValueError):
        validate_report_rows(rows)
    rows = sample_rows()
    rows[1]["weighted_remainder_norm"] = -1.0
    with pytest.raises(ValueError):
        validate_report_rows(rows)


def test_report_csv_round_trip(tmp_path):
    path = str(tmp_path / "report.csv")
    rows = sample_rows()
    write_report_csv(path, rows)
    back = read_report_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(sort_report_rows(rows), back):
        assert a["k"] == b["k"]
        for col in REPORT_COLUMNS:
            if col == "k":
                continue
            assert a[col] == b[col]  # bitwise: 17 digits round-trip doubles


def test_report_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("gamma,k,wrong\n0.1,0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_report_csv(str(path))


def test_table_csv_formats(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(str(path), ("index", "value", "note"),
                    [(0, 1.5, ""), (1, np.pi, 2.0)])
    with open(path, newline="", encoding="utf-8") as fh:
        reader = list(csv.reader(fh))
    assert reader[0] == ["index", "value", "note"]
    assert reader[1][0] == "0"  # integers stay plain
    assert reader[1][2] == ""   # empties stay empty
    assert float(reader[2][1]) == np.pi


def test_json_summary_fields(tmp_path):
    path = tmp_path / "summary.json"
    write_json_summary(str(path), "validate", {"grid": {"n": 10}}, "ab" * 32,
                       {"checks": []})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["command"] == "validate"
    assert doc["config_sha256"] == "ab" * 32
    assert doc["config"] == {"grid": {"n": 10}}
    assert "generated_at" in doc
    assert doc["results"] == {"checks": []}


def test_gamma_tag():
    assert gamma_tag(0.3) == "0p3000"
    assert gamma_tag(0.3775) == "0p3775"
    assert "." not in gamma_tag(0.12345)
