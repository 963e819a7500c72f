"""Row check of table CSVs against the golden copies in ``golden/``.

The golden CSVs were written by ``imexest table --id N`` for every table
the workloads run.  A row of an output CSV fails when

* the table raised or the file is missing or short of rows,
* its ``# config:`` line differs from the golden one in any character,
* its scheme label or column count differs, or
* a value differs from the golden value by more than the tolerance.

Tolerance: two units in the last printed digit (the CSVs carry 6
significant digits, so this admits a roundoff change that flips the
last digit) or 1e-9 of the largest magnitude in the golden row,
whichever is larger.  The second term covers components that cancel to
roundoff, whose printed digits are noise.  ``NA`` must match ``NA``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
LAST_DIGIT_UNITS = 2.0
ROW_SCALE_TOL = 1e-9
EFFECTIVITY_COLUMN = 2


@dataclass
class Row:
    config: str | None
    values: list[str]


@dataclass
class TableCheck:
    table_id: int
    attempted: int
    failed: int
    effectivities: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def golden_path(table_id: int) -> Path:
    return GOLDEN_DIR / f"table{table_id}.csv"


def parse_rows(text: str) -> list[Row]:
    """Data rows of a report CSV, each with the config line before it."""
    rows, config, n_cols = [], None, None
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = line
        elif line.startswith("#") or not line:
            continue
        elif n_cols is None:
            n_cols = line.count(",") + 1
        else:
            # scheme labels such as SSP3(3,3,2) hold commas themselves
            rows.append(Row(config=config, values=line.rsplit(",", n_cols - 1)))
            config = None
    return rows


def _value_ok(out: str, gold: str, row_scale: float) -> bool:
    if gold == "NA" or out == "NA":
        return out == gold
    try:
        a, g = float(out), float(gold)
    except ValueError:
        return False
    if not math.isfinite(a):
        return False
    ulp = 10.0 ** (math.floor(math.log10(abs(g))) - 5) if g != 0.0 else 0.0
    return abs(a - g) <= max(LAST_DIGIT_UNITS * ulp, ROW_SCALE_TOL * row_scale)


def _row_scale(values: list[str]) -> float:
    nums = [abs(float(v)) for v in values[1:] if v != "NA"]
    return max(nums, default=0.0)


def compare_rows(table_id: int, out_rows: list[Row] | None,
                 gold_rows: list[Row]) -> TableCheck:
    """Check output rows against golden rows; None means the table raised."""
    check = TableCheck(table_id=table_id, attempted=len(gold_rows), failed=0)
    out_rows = out_rows or []
    for i, gold in enumerate(gold_rows):
        label = f"table {table_id} row {i + 1}"
        if i >= len(out_rows):
            check.failed += 1
            check.problems.append(f"{label}: missing")
            continue
        out = out_rows[i]
        if out.config != gold.config:
            bad = "config line differs"
        elif len(out.values) != len(gold.values) or out.values[0] != gold.values[0]:
            bad = "scheme or column count differs"
        else:
            scale = _row_scale(gold.values)
            cols = [j for j in range(1, len(gold.values))
                    if not _value_ok(out.values[j], gold.values[j], scale)]
            bad = f"columns {cols} differ" if cols else None
        if bad:
            check.failed += 1
            check.problems.append(f"{label}: {bad}")
        eff = out.values[EFFECTIVITY_COLUMN] if len(out.values) > 2 else "NA"
        if eff != "NA":
            try:
                check.effectivities.append(float(eff))
            except ValueError:
                pass
    return check


def check_table(table_id: int, out_path: Path | None,
                gold_path: Path | None = None) -> TableCheck:
    """Check one written table; ``out_path`` None or missing fails every row."""
    gold_rows = parse_rows((gold_path or golden_path(table_id)).read_text())
    out_rows = None
    if out_path is not None and out_path.exists():
        out_rows = parse_rows(out_path.read_text())
    return compare_rows(table_id, out_rows, gold_rows)
