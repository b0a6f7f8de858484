"""Table I: qualitative dataflow comparison of the implemented engines."""

from repro.bench import tables


def test_table1_comparison(emit):
    text = tables.table1()
    emit("table1_comparison", text)
    assert "Hybrid (row + outer)" in text, "Table I: HyMM's hybrid dataflow is missing"
