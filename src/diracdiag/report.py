"""Machine-readable outputs: convergence CSV tables and JSON mirrors.

CSV files carry no timestamps and use fixed scientific formatting with 17
significant digits, so identical configs produce identical bytes.  The
JSON mirror carries run metadata (config echo, config hash, timestamps).
"""

from __future__ import annotations

import json
import math
import os
from datetime import datetime, timezone

REPORT_COLUMNS = ("gamma", "k", "resolvent_distance",
                  "weighted_remainder_norm", "max_eigval_error", "fitted_ratio")


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


def sort_report_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["gamma"], r["k"]))


def validate_report_rows(rows: list[dict]) -> None:
    for row in rows:
        for col in REPORT_COLUMNS:
            if col not in row:
                raise ValueError(f"report row missing column '{col}'")
            val = float(row[col])
            if not math.isfinite(val) or val < 0:
                raise ValueError(f"report column '{col}' has non-finite or negative value {val}")


def write_report_csv(path: str, rows: list[dict]) -> None:
    validate_report_rows(rows)
    table = [(float(r["gamma"]), int(r["k"])) + tuple(float(r[c]) for c in REPORT_COLUMNS[2:])
             for r in sort_report_rows(rows)]
    write_table_csv(path, REPORT_COLUMNS, table)


def write_table_csv(path: str, columns: tuple[str, ...], rows: list[tuple]) -> None:
    """Generic numeric table; ints stay ints, floats get full precision, '' stays empty."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if cell == "":
                cells.append("")
            elif isinstance(cell, (int,)) and not isinstance(cell, bool):
                cells.append(str(cell))
            else:
                cells.append(format_float(cell))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def write_json_summary(path: str, command: str, config_dict: dict, digest: str,
                       results: dict) -> None:
    payload = {
        "command": command,
        "config": config_dict,
        "config_sha256": digest,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_text_report(path: str, lines: list[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def gamma_tag(gamma: float) -> str:
    """Filesystem-safe coupling label, e.g. 0.3 -> 0p3000."""
    return f"{gamma:.4f}".replace("-", "m").replace(".", "p")
