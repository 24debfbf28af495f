"""Tests for the binary serializer (the honest bytes metric)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import (
    Application,
    deserialize_application,
    serialize_application,
)
from repro.bytecode.classfile import ClassFile, Code, Field, MethodDef
from repro.bytecode.instructions import ConstInt, Return
from repro.bytecode.metrics import application_size_bytes, size_metrics
from repro.bytecode.serializer import FormatError
from repro.workloads import generate_application
from repro.workloads.generator import WorkloadConfig


class TestSerializer:
    def test_empty_application(self):
        app = Application(classes=())
        assert deserialize_application(serialize_application(app)) == app

    def test_deterministic(self):
        app = generate_application(5)
        assert serialize_application(app) == serialize_application(app)

    def test_magic_checked(self):
        with pytest.raises(FormatError):
            deserialize_application(b"XXXX\x00\x01")

    def test_truncation_detected(self):
        data = serialize_application(generate_application(0))
        with pytest.raises(FormatError):
            deserialize_application(data[: len(data) // 2])

    def test_trailing_bytes_detected(self):
        data = serialize_application(Application(classes=()))
        with pytest.raises(FormatError):
            deserialize_application(data + b"\x00")

    def test_constant_pool_sharing_shrinks_output(self):
        """Repeated strings are stored once, like a real constant pool."""
        body = Code(1, 1, tuple([ConstInt(1)] * 50) + (Return("void"),))
        one = Application(
            classes=(
                ClassFile(
                    name="app/A",
                    methods=(MethodDef("m", "()V", code=body),),
                ),
            )
        )
        # 50 ConstInt(1) instructions: each costs opcode+int, no pool growth.
        assert len(serialize_application(one)) < 400

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2000))
    def test_round_trip_on_generated_apps(self, seed):
        app = generate_application(
            seed, WorkloadConfig(num_classes=8, num_interfaces=2)
        )
        data = serialize_application(app)
        assert deserialize_application(data) == app


class TestMetrics:
    def test_size_metrics_counts(self):
        app = generate_application(1)
        metrics = size_metrics(app)
        assert metrics.classes == len(app.classes)
        assert metrics.bytes == application_size_bytes(app)
        assert metrics.methods == sum(len(c.methods) for c in app.classes)
        assert metrics.instructions > 0

    def test_removing_a_class_shrinks_bytes(self):
        app = generate_application(2)
        smaller = app.replace_classes(app.classes[:-1])
        assert application_size_bytes(smaller) < application_size_bytes(app)


def _every_member_kind() -> Application:
    """One application with every member the size parts distinguish:
    interfaces (one extending another), an abstract method, code-less
    and coded constructors, a superclass, static and instance methods,
    ``CheckCast`` with and without ``known_from``, fields, a repeated
    interface, repeated and non-ASCII attributes."""
    from repro.bytecode.classfile import Attribute
    from repro.bytecode.instructions import (
        CheckCast,
        GetField,
        InvokeSpecial,
        InvokeVirtual,
        Load,
        New,
    )

    base = ClassFile(
        name="app/A",
        interfaces=("app/I",),
        is_abstract=True,
        fields=(Field("f", "I"),),
        methods=(
            MethodDef("<init>", "()V"),
            MethodDef("n", "()I", is_abstract=True),
            MethodDef("m", "()V", code=Code(1, 1, (Return("void"),))),
        ),
        attributes=(Attribute("SourceFile", "A.java"),),
    )
    body = Code(
        3,
        2,
        (
            New("app/B"),
            CheckCast("app/A", known_from="app/B"),
            CheckCast("app/I"),
            Load(0),
            GetField("app/A", "f", "I"),
            InvokeVirtual("app/A", "n", "()I"),
            Return("int"),
        ),
    )
    sub = ClassFile(
        name="app/B",
        superclass="app/A",
        interfaces=("app/J", "app/J"),
        fields=(Field("g", "Lapp/A;"), Field("s", "I", is_static=True)),
        methods=(
            MethodDef(
                "<init>",
                "(I)V",
                code=Code(
                    1,
                    2,
                    (
                        Load(0),
                        InvokeSpecial(
                            "app/A", "<init>", "()V", is_super_call=True
                        ),
                        Return("void"),
                    ),
                ),
            ),
            MethodDef("n", "()I", code=body),
            MethodDef("k", "(II)Lapp/A;", is_static=True),
            MethodDef("main", "()V", is_static=True, code=body),
        ),
        attributes=(
            Attribute("SourceFile", "B.java"),
            Attribute("Deprecated"),
            Attribute("Note", "r\u00e9sum\u00e9"),
            Attribute("SourceFile", "B2.java"),
        ),
    )
    return Application(
        classes=(
            ClassFile(
                name="app/I",
                is_interface=True,
                interfaces=("app/J",),
                methods=(MethodDef("m", "()V"),),
            ),
            ClassFile(name="app/J", is_interface=True),
            base,
            sub,
        ),
        entry_class="app/B",
    )


def _apps():
    return [
        _every_member_kind(),
        generate_application(
            11, WorkloadConfig(num_classes=16, num_interfaces=4)
        ),
        generate_application(
            29, WorkloadConfig(num_classes=10, num_interfaces=3)
        ),
    ]


class TestApplicationSerializer:
    """The summed parts must equal the length of the reduce-then-
    serialize reference on every input."""

    APPS = _apps()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_size_of_items_equals_serialized_length(self, data):
        from repro.bytecode.items import items_of
        from repro.bytecode.reducer import reduce_application
        from repro.bytecode.serializer import ApplicationSerializer

        app = data.draw(st.sampled_from(self.APPS))
        kept = data.draw(st.sets(st.sampled_from(items_of(app))))
        expected = serialize_application(reduce_application(app, kept))
        assert ApplicationSerializer(app).size_of_items(kept) == len(
            expected
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_size_of_classes_equals_serialized_length(self, data):
        from repro.bytecode.serializer import ApplicationSerializer

        app = data.draw(st.sampled_from(self.APPS))
        names = [decl.name for decl in app.classes]
        kept = data.draw(st.sets(st.sampled_from(names)))
        expected = serialize_application(
            app.replace_classes(
                tuple(decl for decl in app.classes if decl.name in kept)
            )
        )
        assert ApplicationSerializer(app).size_of_classes(kept) == len(
            expected
        )

    def test_item_granularity_bytes_identical(self):
        """One serializer answers a run's many kept sets."""
        import random

        from repro.bytecode.items import items_of
        from repro.bytecode.reducer import reduce_application
        from repro.bytecode.serializer import ApplicationSerializer

        app = self.APPS[1]
        universe = items_of(app)
        serializer = ApplicationSerializer(app)
        rng = random.Random(3)
        for _ in range(25):
            subset = frozenset(
                rng.sample(universe, rng.randint(0, len(universe)))
            )
            expected = serialize_application(
                reduce_application(app, subset)
            )
            assert serializer.size_of_items(subset) == len(expected)

    def test_class_granularity_bytes_identical(self):
        import random

        from repro.bytecode.serializer import ApplicationSerializer

        app = self.APPS[1]
        names = [decl.name for decl in app.classes]
        serializer = ApplicationSerializer(app)
        rng = random.Random(4)
        for _ in range(15):
            kept = rng.sample(names, rng.randint(0, len(names)))
            subset = app.replace_classes(
                tuple(d for d in app.classes if d.name in kept)
            )
            expected = serialize_application(subset)
            assert serializer.size_of_classes(kept) == len(expected)

    def test_full_set_round_trips(self):
        """Keeping every item of a generated application (every concrete
        method has code) reduces to the application itself, whose size
        both granularities report."""
        from repro.bytecode.items import items_of
        from repro.bytecode.reducer import reduce_application
        from repro.bytecode.serializer import ApplicationSerializer

        for app in self.APPS[1:]:
            everything = frozenset(items_of(app))
            data = serialize_application(reduce_application(app, everything))
            assert deserialize_application(data) == app
            serializer = ApplicationSerializer(app)
            assert serializer.size_of_items(everything) == len(data)
            assert serializer.size_of_classes(
                decl.name for decl in app.classes
            ) == len(data)

    def test_items_of_other_applications_are_ignored(self):
        from repro.bytecode.items import ClassItem, items_of
        from repro.bytecode.serializer import ApplicationSerializer

        app = self.APPS[1]
        kept = frozenset(items_of(app)) | {ClassItem("app/Elsewhere")}
        assert ApplicationSerializer(app).size_of_items(kept) == len(
            serialize_application(app)
        )
