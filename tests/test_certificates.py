import gc
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from spherebraid import certificates
from spherebraid.certificates import _write_json, to_json


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# text that json escapes: quotes, backslashes, control characters, non-ASCII
_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\r é€ 𝄞') | st.characters())
_scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | _text
_trees = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=30,
)


class TestWriteJson:
    """`_write_json` writes what json.dumps(obj, sort_keys=True, indent=2) writes, plus a newline."""

    @given(_trees)
    @settings(max_examples=300, deadline=None)
    @example({"": {}, "b": [[], {}, ()], 'q"\\\x01é': {"z": {"y": []}, "a": -(2**70)}})
    @example([True, False, None, 0, -1])
    def test_matches_json_dumps(self, tree):
        assert _write_json(tree) == _dumps(tree)

    @pytest.mark.parametrize("dumps_indents_in_c", [False, True])
    def test_to_json_matches_json_dumps_on_either_path(self, monkeypatch, dumps_indents_in_c):
        monkeypatch.setattr(certificates, "_DUMPS_INDENTS_IN_C", dumps_indents_in_c)
        doc = {"b": [1, "x\ty", None], "a": {"c": (True, {})}}
        assert to_json(doc) == _dumps(doc)

    def test_leaves_no_reference_cycle(self):
        # a cycle would hold the token list until the cyclic collector ran
        gc.collect()
        gc.disable()
        try:
            _write_json({"a": [{"b": [1, "x"]}, []], "c": {}})
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "obj",
        [1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "a"}, {"a": {2: []}}],
        ids=["float", "nested-float", "set", "nested-set", "int-key", "nested-int-key"],
    )
    def test_a_type_no_document_holds_is_a_type_error(self, obj):
        with pytest.raises(TypeError):
            _write_json(obj)
