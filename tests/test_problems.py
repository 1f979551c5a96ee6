import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import QQ, PrimeField, Tensor2, recognize_table
from cybe.problems import (
    NAMED_CELLS,
    Problem,
    ProblemError,
    dumps_report,
    load_problem,
    parse_algebra,
    parse_field,
    parse_problem,
    parse_tensor,
    tensor_obj,
)

F5 = PrimeField(5)


def doc_sl2_with_tensor():
    return {
        "field": {"kind": "rational"},
        "algebra": {"family": "sl2"},
        "tensor": {"entries": [[1, 1, "4"]], "named": {"s": "2", "t": "2"}},
    }


def test_parse_field_kinds():
    assert parse_field({"kind": "rational"}) is QQ
    f = parse_field({"kind": "prime", "p": 7})
    assert f.p == 7
    with pytest.raises(ProblemError):
        parse_field({"kind": "prime", "p": 2})
    with pytest.raises(ProblemError):
        parse_field({"kind": "real"})
    with pytest.raises(ProblemError, match="unknown"):
        parse_field({"kind": "rational", "modulus": 5})
    with pytest.raises(ProblemError, match="JSON object"):
        parse_field("rational")


def test_parse_family_algebra():
    L = parse_algebra({"family": "II",
                       "params": {"alpha": "1", "beta": "-4"}}, QQ)
    table = recognize_table(L)
    assert (table.kind, table.alpha, table.beta) == ("ii", 1, -4)
    L = parse_algebra({"family": "I", "params": {"dim": 2}}, QQ)
    assert L.n == 2 and not L.nonzero_constants()
    with pytest.raises(ProblemError, match="bad algebra spec"):
        parse_algebra({"family": "II", "params": {"alpha": "0", "beta": "1"}},
                      QQ)
    with pytest.raises(ProblemError, match="bad algebra spec"):
        parse_algebra({"family": "VIII"}, QQ)
    with pytest.raises(ProblemError, match='"dim" must be an integer'):
        parse_algebra({"family": "I", "params": {"dim": "3"}}, QQ)
    with pytest.raises(ProblemError, match="unknown"):
        parse_algebra({"family": "sl2", "extra": 1}, QQ)


def test_parse_family_params_are_field_strings():
    with pytest.raises(ProblemError, match="strings"):
        parse_algebra({"family": "II", "params": {"alpha": 1, "beta": "1"}},
                      QQ)
    with pytest.raises(ProblemError, match="algebra param alpha"):
        parse_algebra({"family": "II",
                       "params": {"alpha": "0.5", "beta": "1"}}, QQ)


def test_parse_custom_brackets():
    # structurally sl2: [e1,e2]=e3, [e2,e3]=4e1, [e1,e3]=4e2 (so that
    # [e3,e1]=-4e2, the beta=-4 convention)
    obj = {"dim": 3, "brackets": [
        [1, 2, ["0", "0", "1"]],
        [2, 3, ["4", "0", "0"]],
        [1, 3, ["0", "4", "0"]],
    ]}
    L = parse_algebra(obj, QQ)
    assert L.label == "custom"
    table = recognize_table(L)
    assert (table.kind, table.alpha, table.beta) == ("ii", 4, -4)


def test_parse_custom_brackets_errors():
    with pytest.raises(ProblemError, match="1 <= i < j"):
        parse_algebra({"dim": 2, "brackets": [[2, 1, ["0", "0"]]]}, QQ)
    with pytest.raises(ProblemError, match="needs 2 coefficients"):
        parse_algebra({"dim": 2, "brackets": [[1, 2, ["1"]]]}, QQ)
    with pytest.raises(ProblemError, match="duplicate bracket"):
        parse_algebra({"dim": 2, "brackets": [[1, 2, ["1", "0"]],
                                              [1, 2, ["0", "0"]]]}, QQ)
    with pytest.raises(ProblemError, match="bracket entries"):
        parse_algebra({"dim": 2, "brackets": [[1, 2]]}, QQ)
    with pytest.raises(ProblemError, match="positive integer"):
        parse_algebra({"dim": 0, "brackets": []}, QQ)
    with pytest.raises(ProblemError, match="positive integer"):
        parse_algebra({"brackets": []}, QQ)
    with pytest.raises(ProblemError, match="either"):
        parse_algebra({}, QQ)
    # a bracket table that breaks the Jacobi identity still parses; only
    # antisymmetry is structural (the CLI reports Jacobi separately)
    L = parse_algebra({"dim": 3, "brackets": [[1, 2, ["0", "1", "0"]],
                                              [2, 3, ["1", "0", "0"]]]}, QQ)
    from cybe import check_jacobi
    assert check_jacobi(L)


def test_parse_tensor_entries_and_names():
    r = parse_tensor({"entries": [[1, 2, "1/2"]], "named": {"v": "-3"}},
                     3, QQ)
    assert r.k[0][1] == Fraction(1, 2)
    assert r.v == Fraction(-3)
    # every named cell round-trips through its alias
    for name, (i, j) in NAMED_CELLS.items():
        r = parse_tensor({"named": {name: "2"}}, 3, QQ)
        assert r.k[i - 1][j - 1] == Fraction(2)


def test_parse_tensor_errors():
    with pytest.raises(ProblemError, match="duplicate tensor entry"):
        parse_tensor({"entries": [[1, 2, "1"], [1, 2, "2"]]}, 3, QQ)
    with pytest.raises(ProblemError, match="via 'p'"):
        parse_tensor({"entries": [[1, 2, "1"]], "named": {"p": "2"}}, 3, QQ)
    with pytest.raises(ProblemError, match="out of range"):
        parse_tensor({"entries": [[4, 1, "1"]]}, 3, QQ)
    with pytest.raises(ProblemError, match="needs dim 3"):
        parse_tensor({"named": {"z": "1"}}, 2, QQ)
    with pytest.raises(ProblemError, match="unknown coefficient name"):
        parse_tensor({"named": {"w": "1"}}, 3, QQ)
    with pytest.raises(ProblemError, match="must be strings"):
        parse_tensor({"entries": [[1, 1, 0.5]]}, 3, QQ)
    with pytest.raises(ProblemError, match="must be strings"):
        parse_tensor({"entries": [[1, 1, 2]]}, 3, QQ)
    with pytest.raises(ProblemError, match="indices must be ints"):
        parse_tensor({"entries": [["1", 1, "2"]]}, 3, QQ)
    with pytest.raises(ProblemError, match="unknown tensor keys"):
        parse_tensor({"rows": []}, 3, QQ)
    with pytest.raises(ProblemError, match="tensor entry \\(1, 1\\)"):
        parse_tensor({"entries": [[1, 1, "1/0"]]}, 3, QQ)


def test_parse_problem_shapes():
    p = parse_problem(doc_sl2_with_tensor())
    assert p.field is QQ and p.algebra.n == 3 and len(p.tensors) == 1
    assert p.tensors[0].k[0][0] == Fraction(4)
    assert p.options == {}

    doc = {
        "field": {"kind": "prime", "p": 5},
        "algebra": {"family": "VI"},
        "tensors": [{"named": {"p": "1", "q": "-1"}}, {}],
        "options": {"budget": 1000},
    }
    p = parse_problem(doc)
    assert len(p.tensors) == 2 and p.tensors[1].is_zero()
    assert p.options == {"budget": 1000}
    assert int(p.tensors[0].k[1][0]) == 4    # -1 mod 5

    p = parse_problem({"field": {"kind": "rational"}})
    assert isinstance(p, Problem) and p.algebra is None and p.tensors == []


def test_parse_problem_errors():
    with pytest.raises(ProblemError, match='needs a "field"'):
        parse_problem({"algebra": {"family": "sl2"}})
    with pytest.raises(ProblemError, match="unknown top-level"):
        parse_problem({"field": {"kind": "rational"}, "algebras": {}})
    with pytest.raises(ProblemError, match="not both"):
        parse_problem({"field": {"kind": "rational"},
                       "algebra": {"family": "sl2"},
                       "tensor": {}, "tensors": []})
    with pytest.raises(ProblemError, match="need an algebra"):
        parse_problem({"field": {"kind": "rational"}, "tensor": {}})
    with pytest.raises(ProblemError, match="JSON object"):
        parse_problem([1, 2])
    with pytest.raises(ProblemError, match='"tensors" must be a list'):
        parse_problem({"field": {"kind": "rational"},
                       "algebra": {"family": "sl2"}, "tensors": {}})


def test_load_problem(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc_sl2_with_tensor()))
    p = load_problem(str(path))
    assert p.algebra.label == "sl2"
    with pytest.raises(ProblemError, match="cannot read"):
        load_problem(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ProblemError, match="not valid JSON"):
        load_problem(str(bad))


def test_serialization_helpers():
    assert QQ.to_spec() == {"kind": "rational"}
    assert F5.to_spec() == {"kind": "prime", "p": 5}
    r = Tensor2.from_entries(2, QQ, {(0, 1): Fraction(-1, 2)})
    assert tensor_obj(r) == {"entries": [[1, 2, "-1/2"]]}
    text = dumps_report({"ok": True, "n": 3})
    assert text.endswith("\n")
    assert json.loads(text) == {"ok": True, "n": 3}
    # key order is preserved, so equal reports serialize identically
    assert dumps_report({"a": 1, "b": 2}) != dumps_report({"b": 2, "a": 1})


# dumps_report is json.dumps(indent=2, ensure_ascii=False) + "\n", byte for
# byte, on dicts with str keys and on lists, tuples and generators as arrays;
# it raises TypeError on anything else, a non-str key included

json_text = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\ud800",
     "é", "\U0001f600"]))
json_scalars = (st.none() | st.booleans() | json_text
                | st.integers() | st.integers(-10 ** 80, 10 ** 80)
                | st.floats() | st.sampled_from(
                    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]))
report_like = st.recursive(
    json_scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(json_text, kids, max_size=4)),
    max_leaves=24)
# what json.dumps also takes: tuples, and int, float, bool or None keys
json_like = st.recursive(
    json_scalars,
    lambda kids: (st.lists(kids, max_size=3) | st.tuples(kids, kids)
                  | st.dictionaries(json_text | st.integers() | st.floats()
                                    | st.booleans() | st.none(),
                                    kids, max_size=3)),
    max_leaves=12)


def has_non_str_key(value):
    if type(value) is dict:
        return any(type(k) is not str or has_non_str_key(v)
                   for k, v in value.items())
    return type(value) in (list, tuple) and any(map(has_non_str_key, value))


def lists_as_generators(value):
    """value with each list a generator of the same items."""
    if type(value) is list:
        return (lists_as_generators(v) for v in value)
    if type(value) is dict:
        return {k: lists_as_generators(v) for k, v in value.items()}
    return value


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(report_like | json_like)
def test_dumps_report_is_json_dumps_indent_2(value):
    for report in (value, {"report": [value]}):
        if has_non_str_key(report) or type(report) not in (dict, list, tuple):
            with pytest.raises(TypeError):
                dumps_report(report)
            continue
        want = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        assert dumps_report(report) == want
        assert dumps_report(lists_as_generators(report)) == want


def test_dumps_report_raises_on_other_values():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(RecursionError):
        dumps_report(loop)
    with pytest.raises(TypeError):
        dumps_report({"x": {1, 2}})
    with pytest.raises(TypeError):
        dumps_report({"x": Fraction(1, 2)})
    with pytest.raises(TypeError):
        dumps_report({"x": {1: "y"}})
