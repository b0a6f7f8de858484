"""Table III: hardware parameters and estimated area (7 nm + 40 nm)."""

import pytest

from repro.bench import tables


def test_table3_area(emit):
    result = tables.table3()
    emit("table3_area", result["text"])
    # The calibrated model lands on the paper's 7 nm column.
    assert result["ours_7nm"]["DMB"] == pytest.approx(0.077, rel=0.05), "Table III: 7 nm DMB"
    assert result["ours_7nm"]["Total"] == pytest.approx(0.106, abs=0.005), "Table III: 7 nm total"
    # 40 nm via node scaling stays within 6% of the paper's total.
    assert result["ours_40nm"]["Total"] == pytest.approx(3.215, rel=0.06), "Table III: 40 nm total"
