"""The catalog's JSON writer against the stdlib encoder it replaces."""

import json
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey.records import build_record, catalog_cells, emit_json, json_text

json_values = st.recursive(
    st.integers() | st.text() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(), inner,
                                                                 max_size=6),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}, [[]]]})
@example([-7, 0, 12345678901234567890, -98765])
@example([1, "2n", [1, 1, 1, "2n"]])
@example({'quote " back \\ nl \n tab \t nul \x00': "é ü 中 \U0001f600  "})
def test_json_text_is_the_stdlib_indent_2_rendering(value):
    assert json_text(value) == json.dumps(value, indent=2)


def _stdlib_catalog(records, max_level, order):
    doc = {"schema_version": 1, "max_level": max_level, "order": order,
           "records": [r.to_json_dict() for r in records]}
    return json.dumps(doc, indent=2) + "\n"


def test_empty_catalog_is_the_stdlib_rendering():
    assert emit_json([], 3, 5) == _stdlib_catalog([], 3, 5)


def test_emit_json_peak_memory_stays_within_four_outputs():
    # the stdlib's indenting encoder holds one string per token, about 8.6
    # times the document at its peak
    records = [build_record(*c, order=10) for c in catalog_cells(19)]
    assert len(records) == 180
    tracemalloc.start()
    try:
        out = emit_json(records, 19, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == _stdlib_catalog(records, 19, 10)
    assert peak < 4 * len(out)
