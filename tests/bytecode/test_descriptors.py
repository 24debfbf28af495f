"""Tests for JVM descriptors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bytecode.descriptors import (
    ArrayType,
    DescriptorError,
    MethodDescriptor,
    ObjectType,
    PrimitiveType,
    parse_field_descriptor,
    parse_method_descriptor,
)


class TestFieldDescriptors:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("I", PrimitiveType.INT),
            ("J", PrimitiveType.LONG),
            ("Z", PrimitiveType.BOOLEAN),
            ("Ljava/lang/String;", ObjectType("java/lang/String")),
            ("[I", ArrayType(PrimitiveType.INT)),
            ("[[LA;", ArrayType(ArrayType(ObjectType("A")))),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_field_descriptor(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "V", "L;", "LFoo", "X", "I0", "[V", "II"]
    )
    def test_rejects(self, text):
        with pytest.raises(DescriptorError):
            parse_field_descriptor(text)

    def test_referenced_classes(self):
        parsed = parse_field_descriptor("[Lapp/C;")
        assert parsed.referenced_classes() == {"app/C"}
        assert parse_field_descriptor("I").referenced_classes() == frozenset()


class TestMethodDescriptors:
    def test_parses_mixed(self):
        parsed = parse_method_descriptor("(ILA;)LB;")
        assert parsed.parameters == (PrimitiveType.INT, ObjectType("A"))
        assert parsed.return_type == ObjectType("B")

    def test_void_return(self):
        parsed = parse_method_descriptor("()V")
        assert parsed.parameters == ()
        assert parsed.return_type == PrimitiveType.VOID

    def test_referenced_classes(self):
        parsed = parse_method_descriptor("(LA;I)LB;")
        assert parsed.referenced_classes() == {"A", "B"}

    @pytest.mark.parametrize(
        "text", ["", "I", "(", "(V)V", "()", "()VV", "(I"]
    )
    def test_rejects(self, text):
        with pytest.raises(DescriptorError):
            parse_method_descriptor(text)


@st.composite
def jvm_types(draw, depth=0):
    kinds = ["prim", "object"]
    if depth < 2:
        kinds.append("array")
    kind = draw(st.sampled_from(kinds))
    if kind == "prim":
        return draw(
            st.sampled_from([p for p in PrimitiveType if p != PrimitiveType.VOID])
        )
    if kind == "object":
        segments = draw(
            st.lists(
                st.text(
                    alphabet="abcdefghij0123456789", min_size=1, max_size=5
                ),
                min_size=1,
                max_size=3,
            )
        )
        return ObjectType("/".join(segments))
    return ArrayType(draw(jvm_types(depth=depth + 1)))


class TestRoundTrip:
    @given(jvm_types())
    def test_field_descriptor_round_trip(self, jvm_type):
        assert parse_field_descriptor(jvm_type.descriptor()) == jvm_type

    @given(st.lists(jvm_types(), max_size=4), st.one_of(jvm_types(), st.just(PrimitiveType.VOID)))
    def test_method_descriptor_round_trip(self, params, ret):
        descriptor = MethodDescriptor(tuple(params), ret)
        assert parse_method_descriptor(descriptor.descriptor()) == descriptor


class TestParseCache:
    """Parsed descriptors are cached; the cache changes no answer."""

    @given(
        st.lists(jvm_types(), max_size=4),
        st.one_of(jvm_types(), st.just(PrimitiveType.VOID)),
    )
    def test_cached_values_equal_a_fresh_parse(self, params, ret):
        text = MethodDescriptor(tuple(params), ret).descriptor()
        first = parse_method_descriptor(text)
        assert parse_method_descriptor(text) is first
        assert first == parse_method_descriptor.__wrapped__(text)
        for param in params:
            field_text = param.descriptor()
            assert parse_field_descriptor(field_text) == (
                parse_field_descriptor.__wrapped__(field_text)
            )

    @pytest.mark.parametrize(
        "parse, text",
        [(parse_method_descriptor, "(V)V"), (parse_field_descriptor, "LFoo")],
    )
    def test_malformed_raises_on_every_call(self, parse, text):
        for _ in range(2):
            with pytest.raises(DescriptorError):
                parse(text)
