"""Tests for the mini-javac checker."""

from repro.decompiler.javac import check_sources
from repro.decompiler.source import (
    AssignFieldStmt,
    CallExpr,
    CastExpr,
    ClassLit,
    DeclStmt,
    ExprStmt,
    FieldExpr,
    IntLit,
    NewExpr,
    NullLit,
    ReturnStmt,
    SourceClass,
    SourceField,
    SourceMethod,
    StaticCallExpr,
    SuperCallStmt,
    ThisCallStmt,
    VarRef,
)


def cls(name, superclass="java/lang/Object", interfaces=(), fields=(),
        methods=(), is_interface=False, is_abstract=False):
    return SourceClass(
        name=name,
        superclass=superclass,
        interfaces=tuple(interfaces),
        is_interface=is_interface,
        is_abstract=is_abstract or is_interface,
        fields=tuple(fields),
        methods=tuple(methods),
    )


def method(name, return_type="void", params=(), statements=(ReturnStmt(),),
           is_static=False, is_abstract=False):
    return SourceMethod(
        name=name,
        return_type=return_type,
        params=tuple(params),
        statements=tuple(statements) if not is_abstract else (),
        is_static=is_static,
        is_abstract=is_abstract,
    )


class TestCleanPrograms:
    def test_empty(self):
        assert check_sources([], {}) == frozenset()

    def test_simple_method(self):
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    "int",
                    params=[("int", "p0")],
                    statements=[ReturnStmt(VarRef("p0"))],
                )
            ],
        )
        assert check_sources([source], {}) == frozenset()

    def test_inherited_method_call(self):
        parent = cls("app/P", methods=[method("pm")])
        child = cls("app/C", superclass="app/P")
        user = cls(
            "app/U",
            methods=[
                method(
                    "u",
                    statements=[
                        DeclStmt("app/C", "c", NewExpr("app/C")),
                        ExprStmt(CallExpr(VarRef("c"), "pm", ())),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([parent, child, user], {}) == frozenset()

    def test_null_assignable_to_references(self):
        source = cls(
            "app/C",
            fields=[SourceField("java/lang/String", "s")],
            methods=[
                method(
                    "m",
                    statements=[
                        DeclStmt("app/C", "c", NewExpr("app/C")),
                        AssignFieldStmt(VarRef("c"), "s", NullLit()),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == frozenset()

    def test_upcast_via_interface(self):
        iface = cls("app/I", is_interface=True,
                    methods=[method("im", is_abstract=True)])
        impl = cls("app/C", interfaces=["app/I"], methods=[method("im")])
        user = cls(
            "app/U",
            methods=[
                method(
                    "u",
                    statements=[
                        DeclStmt(
                            "app/I",
                            "i",
                            CastExpr("app/I", NewExpr("app/C")),
                        ),
                        ExprStmt(CallExpr(VarRef("i"), "im", ())),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([iface, impl, user], {}) == frozenset()

    def test_object_methods_available(self):
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    "int",
                    statements=[
                        ReturnStmt(CallExpr(VarRef("this"), "hashCode", ()))
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == frozenset()

    def test_this_and_super_constructor_calls(self):
        parent = cls("app/P", methods=[method("<init>")])
        child = cls(
            "app/C",
            superclass="app/P",
            methods=[
                method("<init>", statements=[SuperCallStmt(), ReturnStmt()])
            ],
        )
        assert check_sources([parent, child], {}) == frozenset()


class TestErrors:
    def test_unknown_variable(self):
        source = cls(
            "app/C",
            methods=[method("m", statements=[ExprStmt(VarRef("ghost")),
                                             ReturnStmt()])],
        )
        errors = check_sources([source], {})
        assert errors == {
            "C.java: error: cannot find symbol: variable ghost"
        }

    def test_unknown_method(self):
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    statements=[
                        ExprStmt(CallExpr(VarRef("this"), "ghost", ())),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == {
            "C.java: error: cannot find symbol: method ghost in C"
        }

    def test_unknown_class(self):
        source = cls("app/C", superclass="app/Ghost")
        assert check_sources([source], {}) == {
            "C.java: error: cannot find symbol: class Ghost"
        }

    def test_arity_mismatch(self):
        source = cls(
            "app/C",
            methods=[
                method("two", params=[("int", "a"), ("int", "b")]),
                method(
                    "m",
                    statements=[
                        ExprStmt(
                            CallExpr(VarRef("this"), "two", (IntLit(1),))
                        ),
                        ReturnStmt(),
                    ],
                ),
            ],
        )
        assert check_sources([source], {}) == {
            "C.java: error: method two in C cannot be applied to "
            "given arguments"
        }

    def test_incompatible_assignment(self):
        a = cls("app/A")
        b = cls("app/B")
        user = cls(
            "app/U",
            methods=[
                method(
                    "m",
                    statements=[
                        DeclStmt("app/A", "x", NewExpr("app/B")),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([a, b, user], {}) == {
            "U.java: error: incompatible types: B cannot be converted to A"
        }

    def test_int_not_dereferenceable(self):
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    statements=[
                        ExprStmt(CallExpr(IntLit(1), "foo", ())),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == {
            "C.java: error: int cannot be dereferenced"
        }

    def test_class_literal_has_no_methods(self):
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    statements=[
                        DeclStmt(
                            "Class",
                            "k",
                            CallExpr(ClassLit("app/C"), "componentType$"),
                        ),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == {
            "C.java: error: cannot find symbol: method componentType$ "
            "in Class"
        }

    def test_repeated_interface(self):
        iface = cls("app/I", is_interface=True)
        impl = cls("app/C", interfaces=["app/I", "app/I"])
        assert check_sources([iface, impl], {}) == {
            "C.java: error: repeated interface I"
        }

    def test_abstract_instantiation(self):
        abstract = cls("app/A", is_abstract=True)
        user = cls(
            "app/U",
            methods=[
                method(
                    "m",
                    statements=[ExprStmt(NewExpr("app/A")), ReturnStmt()],
                )
            ],
        )
        assert check_sources([abstract, user], {}) == {
            "U.java: error: A is abstract; cannot be instantiated"
        }

    def test_missing_return_value(self):
        source = cls(
            "app/C",
            methods=[method("m", "int", statements=[ReturnStmt()])],
        )
        assert check_sources([source], {}) == {
            "C.java: error: missing return value"
        }

    def test_wrong_constructor_arity(self):
        target = cls("app/D", methods=[method("<init>",
                                              params=[("int", "x")],
                                              statements=[ReturnStmt()])])
        user = cls(
            "app/U",
            methods=[
                method(
                    "m",
                    statements=[ExprStmt(NewExpr("app/D")), ReturnStmt()],
                )
            ],
        )
        assert check_sources([target, user], {}) == {
            "U.java: error: constructor D cannot be applied to "
            "given arguments"
        }

    def test_error_type_does_not_cascade(self):
        """One unknown symbol produces one error, not an avalanche."""
        source = cls(
            "app/C",
            methods=[
                method(
                    "m",
                    statements=[
                        DeclStmt(
                            "app/C",
                            "v",
                            CallExpr(VarRef("ghost"), "anything", ()),
                        ),
                        ExprStmt(CallExpr(VarRef("v"), "hashCode", ())),
                        ReturnStmt(),
                    ],
                )
            ],
        )
        assert check_sources([source], {}) == {
            "C.java: error: cannot find symbol: variable ghost"
        }
