"""Tests for the decompilers (clean translation + targeted corruption)."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.classfile import (
    Application,
    ClassFile,
    Code,
    Field,
    INIT,
    MethodDef,
)
from repro.bytecode.instructions import (
    CheckCast,
    ConstInt,
    ConstNull,
    Dup,
    GetField,
    InvokeInterface,
    InvokeSpecial,
    InvokeStatic,
    InvokeVirtual,
    Load,
    LoadClassConstant,
    New,
    Pop,
    PutField,
    Return,
)
from repro.decompiler import DECOMPILERS, check_sources, get_decompiler
from repro.decompiler.decompile import DecompileMemo, Decompiler
from repro.decompiler.source import (
    DeclStmt,
    NewExpr,
    ReturnStmt,
    SuperCallStmt,
    ThisCallStmt,
    render_source,
)
from repro.workloads import generate_application
from repro.workloads.generator import WorkloadConfig

CLEAN = Decompiler("clean", "v", ())  # no defects at all


def decompile(decompiler, app):
    return decompiler.decompile(app, DecompileMemo())


def errors_of(decompiler, app):
    return check_sources(decompile(decompiler, app), {})


def ctor(name, superclass="java/lang/Object"):
    return MethodDef(
        INIT,
        "()V",
        code=Code(
            1,
            1,
            (
                Load(0),
                InvokeSpecial(superclass, INIT, "()V", is_super_call=True),
                Return("void"),
            ),
        ),
    )


class TestCleanDecompilation:
    def test_constructor_becomes_super_call(self):
        app = Application(
            classes=(ClassFile(name="app/C", methods=(ctor("app/C"),)),)
        )
        (source,) = decompile(CLEAN, app)
        init = source.methods[0]
        assert isinstance(init.statements[0], SuperCallStmt)

    def test_new_dup_init_becomes_decl(self):
        body = Code(
            2,
            1,
            (
                New("app/D"),
                Dup(),
                InvokeSpecial("app/D", INIT, "()V"),
                Pop(),
                Return("void"),
            ),
        )
        app = Application(
            classes=(
                ClassFile(name="app/D", methods=(ctor("app/D"),)),
                ClassFile(
                    name="app/C",
                    methods=(MethodDef("m", "()V", code=body),),
                ),
            )
        )
        sources = decompile(CLEAN, app)
        target = next(s for s in sources if s.name == "app/C")
        stmt = target.methods[0].statements[0]
        assert isinstance(stmt, DeclStmt)
        assert stmt.expr == NewExpr("app/D", ())

    def test_trivial_reduced_body_decompiles_cleanly(self):
        from repro.bytecode.reducer import trivial_code

        method = MethodDef(
            "m",
            "(I)I",
            code=Code(1, 1, (ConstInt(0), Return("int"))),
        )
        trivial = MethodDef("m", "(I)I", code=trivial_code("app/C", method))
        app = Application(
            classes=(
                ClassFile(name="app/C", methods=(ctor("app/C"), trivial)),
            )
        )
        assert errors_of(CLEAN, app) == frozenset()

    def test_this_recursion_constructor(self):
        from repro.bytecode.reducer import trivial_code

        original = MethodDef(INIT, "()V", code=Code(1, 1, (Return("void"),)))
        recursive = MethodDef(
            INIT, "()V", code=trivial_code("app/C", original)
        )
        app = Application(
            classes=(ClassFile(name="app/C", methods=(recursive,)),)
        )
        (source,) = decompile(CLEAN, app)
        assert isinstance(source.methods[0].statements[0], ThisCallStmt)
        assert check_sources([source], {}) == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_clean_decompiler_compiles_generated_apps(self, seed):
        """A defect-free decompiler's output always compiles."""
        app = generate_application(
            seed, WorkloadConfig(num_classes=10, num_interfaces=3)
        )
        assert errors_of(CLEAN, app) == frozenset()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_rendering_never_crashes(self, seed):
        app = generate_application(
            seed, WorkloadConfig(num_classes=8, num_interfaces=2)
        )
        for source in decompile(CLEAN, app):
            assert render_source(source)


def scaled(name):
    """The shipped decompiler with every pattern occurrence buggy."""
    return replace(get_decompiler(name), bug_scale=0.0)


class TestCorruptions:
    def test_iface_dispatch_corruption(self):
        iface = ClassFile(
            name="app/I",
            is_interface=True,
            is_abstract=True,
            methods=(MethodDef("im", "()V", is_abstract=True),),
        )
        impl = ClassFile(
            name="app/C",
            interfaces=("app/I",),
            methods=(
                ctor("app/C"),
                MethodDef("im", "()V", code=Code(1, 1, (Return("void"),))),
            ),
        )
        body = Code(
            2,
            1,
            (
                New("app/C"),
                Dup(),
                InvokeSpecial("app/C", INIT, "()V"),
                CheckCast("app/I", known_from="app/C"),
                InvokeInterface("app/I", "im", "()V"),
                Return("void"),
            ),
        )
        user = ClassFile(
            name="app/U", methods=(MethodDef("u", "()V", code=body),)
        )
        app = Application(classes=(iface, impl, user))
        errors = errors_of(scaled("alpha"), app)
        assert errors == {
            "U.java: error: cannot find symbol: method im$iface in I"
        }

    def test_ctor_cache_corruption_needs_two_sites(self):
        def construct_body():
            return Code(
                2,
                1,
                (
                    New("app/D"),
                    Dup(),
                    InvokeSpecial("app/D", INIT, "()V"),
                    Pop(),
                    Return("void"),
                ),
            )

        target = ClassFile(name="app/D", methods=(ctor("app/D"),))
        one = ClassFile(
            name="app/A",
            methods=(MethodDef("m", "()V", code=construct_body()),),
        )
        two = ClassFile(
            name="app/B",
            methods=(MethodDef("m", "()V", code=construct_body()),),
        )
        alpha = scaled("alpha")
        single = Application(classes=(target, one))
        both = Application(classes=(target, one, two))
        assert errors_of(alpha, single) == frozenset()
        errors = errors_of(alpha, both)
        assert errors == {
            "A.java: error: cannot find symbol: method instance$cache in D",
            "B.java: error: cannot find symbol: method instance$cache in D",
        }

    def test_field_alias_corruption_needs_two_fields(self):
        def write_body():
            return Code(
                2,
                2,
                (
                    New("app/D"),
                    Dup(),
                    InvokeSpecial("app/D", INIT, "()V"),
                    ConstInt(1),
                    PutField("app/D", "f", "I"),
                    Return("void"),
                ),
            )

        beta = scaled("beta")
        one_field = ClassFile(
            name="app/D", fields=(Field("f", "I"),), methods=(ctor("app/D"),)
        )
        two_fields = ClassFile(
            name="app/D",
            fields=(Field("f", "I"), Field("g", "I")),
            methods=(ctor("app/D"),),
        )
        user = ClassFile(
            name="app/U",
            methods=(MethodDef("u", "()V", code=write_body()),),
        )
        assert errors_of(
            beta, Application(classes=(one_field, user))
        ) == frozenset()
        errors = errors_of(beta, Application(classes=(two_fields, user)))
        assert errors == {
            "U.java: error: cannot find symbol: variable alias$f"
        }

    def test_param_drop_corruption(self):
        callee = ClassFile(
            name="app/D",
            methods=(
                ctor("app/D"),
                MethodDef(
                    "two",
                    "(II)V",
                    code=Code(1, 3, (Return("void"),)),
                ),
            ),
        )
        body = Code(
            4,
            1,
            (
                New("app/D"),
                Dup(),
                InvokeSpecial("app/D", INIT, "()V"),
                ConstInt(1),
                ConstInt(2),
                InvokeVirtual("app/D", "two", "(II)V"),
                Return("void"),
            ),
        )
        user = ClassFile(
            name="app/U", methods=(MethodDef("u", "()V", code=body),)
        )
        app = Application(classes=(callee, user))
        errors = errors_of(scaled("beta"), app)
        assert errors == {
            "U.java: error: method two in D cannot be applied to "
            "given arguments"
        }

    def test_reflection_corruption(self):
        target = ClassFile(name="app/D")
        body = Code(
            1, 1, (LoadClassConstant("app/D"), Pop(), Return("void"))
        )
        user = ClassFile(
            name="app/U", methods=(MethodDef("u", "()V", code=body),)
        )
        app = Application(classes=(target, user))
        errors = errors_of(scaled("gamma"), app)
        assert errors == {
            "U.java: error: cannot find symbol: method componentType$ "
            "in Class"
        }

    def test_dup_interface_corruption(self):
        i1 = ClassFile(name="app/I1", is_interface=True, is_abstract=True)
        i2 = ClassFile(name="app/I2", is_interface=True, is_abstract=True)
        impl = ClassFile(name="app/C", interfaces=("app/I1", "app/I2"))
        app = Application(classes=(i1, i2, impl))
        errors = errors_of(scaled("gamma"), app)
        assert errors == {"C.java: error: repeated interface I1"}


class TestRegistry:
    def test_three_decompilers(self):
        assert set(DECOMPILERS) == {"alpha", "beta", "gamma"}

    def test_disjoint_bug_sets(self):
        all_ids = [b for d in DECOMPILERS.values() for b in d.bug_ids]
        assert len(all_ids) == len(set(all_ids)) == 6

    def test_unknown_name(self):
        import pytest

        with pytest.raises(ValueError):
            get_decompiler("nope")
