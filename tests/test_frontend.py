from __future__ import annotations

import hashlib
import re

import pytest

from dynslice import generate, load, parse, pretty, resolve_overload
from dynslice.frontend import (
    CheckError,
    LexError,
    NoMatchError,
    ParseError,
    tokenize,
)
from dynslice.fixtures import (
    BYREF_SOURCE,
    CALLS_SOURCE,
    CONST_LOOP_SOURCE,
    LOOP_SOURCE,
    SAMPLE_SOURCE,
    STREAM_SOURCE,
)
from dynslice.syntax import BinOp, Call, Name, walk

# sha256 of (kind, text, line, col) for every token of the fixture sources
# and of generator seeds 0..199, recorded before the lexer became one regex
TOKEN_DIGEST = "f560f4f498bd563802abca6c359c30d69ff5987e4a543b7e82d3c490d8a65211"


def test_sample_shape(sample_program):
    assert sample_program.stmt_count == 24
    assert len(sample_program.classes) == 1
    cls = sample_program.classes[0]
    assert cls.name == "test"
    assert [m.name for m in cls.methods] == ["get", "display", "add", "add"]
    assert [s.id for s in walk(sample_program.main)] == list(range(1, 17))


def test_explicit_labels_respected(sample_program):
    ids = [s.id for cls, method, body in sample_program.procedures()
           for s in walk(body)]
    assert sorted(ids) == list(range(1, 25))
    # the fixture pins main to 1..16 and the method bodies to 17..24
    assert [s.id for s in walk(sample_program.main)] == list(range(1, 17))


def test_auto_numbering_is_textual_order():
    program = load(re.sub(r"#\d+:\s*", "", SAMPLE_SOURCE))
    assert program.stmt_count == 24
    # class bodies come first in the text, so methods get 1..8, main 9..24
    method_ids = [s.id for cls, method, body in program.procedures()
                  if method is not None for s in walk(body)]
    assert method_ids == list(range(1, 9))
    assert [s.id for s in walk(program.main)] == list(range(9, 25))


def test_partial_labels_rejected():
    with pytest.raises(ParseError, match="mixed labeling"):
        parse("void main() { int x; #1: x = 1; x = 2; }")


def test_duplicate_label_rejected():
    with pytest.raises(ParseError, match="collision"):
        parse("void main() { int x; #1: x = 1; #1: x = 2; }")


def test_label_gap_rejected():
    with pytest.raises(ParseError, match="1..2"):
        parse("void main() { int x; #3: x = 1; #1: x = 2; }")


def test_lex_error():
    with pytest.raises(LexError, match="'@'"):
        parse("void main() { int x; x = 1 @ 2; }")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("void main() { int x; x = 1 }")
    assert err.value.pos is not None
    assert "expected ';'" in str(err.value)


def test_tokenize_maximal_munch():
    kinds = [t.kind for t in tokenize("cin >> x > y // comment\n")]
    assert kinds == ["cin", ">>", "IDENT", ">", "IDENT", "EOF"]


def test_token_stream_digest():
    sources = [SAMPLE_SOURCE, LOOP_SOURCE, STREAM_SOURCE, CALLS_SOURCE,
               CONST_LOOP_SOURCE, BYREF_SOURCE]
    sources += [generate(seed).source for seed in range(200)]
    digest = hashlib.sha256()
    for source in sources:
        for t in tokenize(source):
            digest.update(repr((t.kind, t.text, t.pos.line, t.pos.col)).encode())
    assert digest.hexdigest() == TOKEN_DIGEST


A, B, C = Name("a"), Name("b"), Name("c")


@pytest.mark.parametrize("text,tree", [
    ("a - b - c", BinOp("-", BinOp("-", A, B), C)),
    ("a / b * c", BinOp("*", BinOp("/", A, B), C)),
    ("a + b * c", BinOp("+", A, BinOp("*", B, C))),
    ("a * (b - c)", BinOp("*", A, BinOp("-", B, C))),
    ("a + b < c", BinOp("<", BinOp("+", A, B), C)),
    ("(a < b) < c", BinOp("<", BinOp("<", A, B), C)),
])
def test_expression_shape(text, tree):
    program = load(f"void main() {{ int a, b, c, x; x = {text}; }}")
    assert program.main[1].value == tree
    assert parse(pretty(program)) == program


def test_relational_operators_do_not_chain():
    with pytest.raises(ParseError, match="expected ';', found '<'"):
        parse("void main() { int a, b, c, x; x = a < b < c; }")


def test_pretty_round_trip(sample_program):
    again = parse(pretty(sample_program))
    assert again == parse(SAMPLE_SOURCE)
    assert pretty(load(pretty(sample_program))) == pretty(sample_program)


@pytest.mark.parametrize("source", [LOOP_SOURCE, BYREF_SOURCE])
def test_pretty_round_trip_fixtures(source):
    assert parse(pretty(load(source))) == parse(source)


def test_pretty_round_trip_generated():
    for seed in range(200):
        source = generate(seed).source
        assert parse(pretty(load(source))) == parse(source), seed


def test_undeclared_variable():
    with pytest.raises(CheckError, match="undeclared"):
        load("void main() { x = 1; }")


def test_local_cannot_shadow_member():
    src = """class c { int m; public: void f() { int m; m = 1; } };
void main() { c o; o.f(); }"""
    with pytest.raises(CheckError, match="shadow"):
        load(src)


def test_by_ref_needs_variable_actual():
    src = """class c { int m; public: void f(int &r) { r = 1; } };
void main() { c o; o.f(5); }"""
    with pytest.raises(CheckError, match="by-reference"):
        load(src)


def test_call_assignment_requires_int_return():
    src = """class c { int m; public: void f() { m = 1; } };
void main() { c o; int x; x = o.f(); }"""
    with pytest.raises(CheckError):
        load(src)


def test_return_value_only_in_int_methods():
    src = """class c { int m; public: void f() { return 3; } };
void main() { c o; o.f(); }"""
    with pytest.raises(CheckError):
        load(src)


def test_call_sites_resolved(sample_program):
    calls = {s.id: s for s in sample_program.statements() if isinstance(s, Call)}
    assert calls[13].resolved.signature.param_types == ("test", "test")
    assert calls[15].resolved.signature.param_types == ("test", "int")
    assert calls[5].resolved.name == "get"


def test_resolve_overload_exact(sample_program):
    cls = sample_program.class_named("test")
    assert resolve_overload(cls, "add", ("test", "test")).signature.param_types \
        == ("test", "test")
    assert resolve_overload(cls, "add", ("test", "int")).signature.param_types \
        == ("test", "int")


def test_resolve_overload_no_conversions(sample_program):
    cls = sample_program.class_named("test")
    with pytest.raises(NoMatchError, match=r"add\(int, int\)"):
        resolve_overload(cls, "add", ("int", "int"))
    with pytest.raises(NoMatchError):
        resolve_overload(cls, "add", ("test",))
    with pytest.raises(NoMatchError):
        resolve_overload(cls, "missing", ())


def test_no_match_is_a_check_error():
    bad = SAMPLE_SOURCE.replace("#15: T4.add(T3, 5);", "#15: T4.add(5, 5);")
    with pytest.raises(NoMatchError, match=r"add\(int, int\)"):
        load(bad)
    assert issubclass(NoMatchError, CheckError)
