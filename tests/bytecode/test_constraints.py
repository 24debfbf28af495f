"""Tests for the bytecode constraint generator."""

import pytest

from repro.bytecode.classfile import (
    Application,
    ClassFile,
    Code,
    Field,
    INIT,
    MethodDef,
)
from repro.bytecode.constraints import (
    ConstraintError,
    class_dependency_graph,
    generate_constraints,
)
from repro.bytecode.instructions import (
    CheckCast,
    GetField,
    InvokeInterface,
    InvokeSpecial,
    InvokeVirtual,
    Load,
    LoadClassConstant,
    New,
    PutField,
    Return,
)
from repro.bytecode.items import (
    ClassItem,
    CodeItem,
    ConstructorItem,
    FieldItem,
    ImplementsItem,
    InterfaceItem,
    MethodItem,
    SignatureItem,
    SuperClassItem,
    items_of,
)
from repro.logic.cnf import Clause


def code(*instructions):
    return Code(4, 4, tuple(instructions) + (Return("void"),))


def concrete(name, descriptor="()V", *instructions):
    return MethodDef(name, descriptor, code=code(*instructions))


class TestSyntacticConstraints:
    def test_member_implies_class(self):
        app = Application(
            classes=(
                ClassFile(
                    name="app/A",
                    fields=(Field("f", "I"),),
                    methods=(concrete("m"),),
                ),
            )
        )
        cnf = generate_constraints(app)
        clauses = set(cnf)
        assert Clause.implication(
            [MethodItem("app/A", "m", "()V")], [ClassItem("app/A")]
        ) in clauses
        assert Clause.implication(
            [FieldItem("app/A", "f")], [ClassItem("app/A")]
        ) in clauses
        assert Clause.implication(
            [CodeItem("app/A", "m", "()V")],
            [MethodItem("app/A", "m", "()V")],
        ) in clauses

    def test_relation_items_imply_both_ends(self):
        app = Application(
            classes=(
                ClassFile(name="app/I", is_interface=True, is_abstract=True),
                ClassFile(name="app/A"),
                ClassFile(
                    name="app/B", superclass="app/A", interfaces=("app/I",)
                ),
            )
        )
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [SuperClassItem("app/B")], [ClassItem("app/B")]
        ) in clauses
        assert Clause.implication(
            [SuperClassItem("app/B")], [ClassItem("app/A")]
        ) in clauses
        assert Clause.implication(
            [ImplementsItem("app/B", "app/I")], [InterfaceItem("app/I")]
        ) in clauses


class TestReferentialConstraints:
    def test_descriptor_types_required(self):
        app = Application(
            classes=(
                ClassFile(name="app/D"),
                ClassFile(
                    name="app/A",
                    methods=(
                        MethodDef("m", "(Lapp/D;)V", is_abstract=True),
                    ),
                    is_abstract=True,
                ),
            )
        )
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [SignatureItem("app/A", "m", "(Lapp/D;)V")], [ClassItem("app/D")]
        ) in clauses

    def test_new_requires_class(self):
        app = Application(
            classes=(
                ClassFile(
                    name="app/D",
                    methods=(
                        MethodDef(
                            INIT, "()V", code=code(Load(0))
                        ),
                    ),
                ),
                ClassFile(
                    name="app/A",
                    methods=(concrete("m", "()V", New("app/D")),),
                ),
            )
        )
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [CodeItem("app/A", "m", "()V")], [ClassItem("app/D")]
        ) in clauses

    def test_call_requires_m_any(self):
        app = Application(
            classes=(
                ClassFile(name="app/D", methods=(concrete("dm"),)),
                ClassFile(
                    name="app/A",
                    methods=(
                        concrete(
                            "m", "()V", InvokeVirtual("app/D", "dm", "()V")
                        ),
                    ),
                ),
            )
        )
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [CodeItem("app/A", "m", "()V")],
            [MethodItem("app/D", "dm", "()V")],
        ) in clauses

    def test_inherited_call_requires_chain_relation(self):
        """Calling a superclass method keeps the extends relation alive —
        the paper's 'references that do not generate dependencies' case
        turned into one that does."""
        app = Application(
            classes=(
                ClassFile(name="app/P", methods=(concrete("pm"),)),
                ClassFile(name="app/C", superclass="app/P"),
                ClassFile(
                    name="app/U",
                    methods=(
                        concrete(
                            "m", "()V", InvokeVirtual("app/C", "pm", "()V")
                        ),
                    ),
                ),
            )
        )
        cnf = generate_constraints(app)
        # [U.m!code] => [C <: super] /\ [P.pm] appears as a clause with
        # the conjunction broken into the two positives... it is an
        # implication to a conjunction, i.e. two clauses after CNF — but
        # through a disjunction of paths it is one clause per element.
        code_item = CodeItem("app/U", "m", "()V")
        model_without_relation = set(items_of(app)) - {
            SuperClassItem("app/C")
        }
        assert not cnf.satisfied_by(frozenset(model_without_relation))
        assert cnf.satisfied_by(frozenset(items_of(app)))

    def test_field_access_requires_field(self):
        app = Application(
            classes=(
                ClassFile(name="app/D", fields=(Field("f", "I"),)),
                ClassFile(
                    name="app/A",
                    methods=(
                        concrete(
                            "m", "()V", GetField("app/D", "f", "I")
                        ),
                    ),
                ),
            )
        )
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [CodeItem("app/A", "m", "()V")], [FieldItem("app/D", "f")]
        ) in clauses

    def test_unresolvable_reference_rejected(self):
        app = Application(
            classes=(
                ClassFile(
                    name="app/A",
                    methods=(concrete("m", "()V", New("app/Ghost")),),
                ),
            )
        )
        with pytest.raises(ConstraintError):
            generate_constraints(app)


class TestSemanticConstraints:
    def make_interface_app(self):
        iface = ClassFile(
            name="app/I",
            is_interface=True,
            is_abstract=True,
            methods=(MethodDef("im", "()V", is_abstract=True),),
        )
        impl = ClassFile(
            name="app/C",
            interfaces=("app/I",),
            methods=(concrete("im"),),
        )
        return Application(classes=(iface, impl))

    def test_interface_obligation(self):
        """([C <| I] /\\ [I.im]) => [C.im] — the paper's key constraint."""
        cnf = generate_constraints(self.make_interface_app())
        full = set(items_of(self.make_interface_app()))
        broken = frozenset(full - {MethodItem("app/C", "im", "()V")})
        assert not cnf.satisfied_by(broken)
        # Without the implements relation the method is removable.
        fine = frozenset(
            full
            - {
                MethodItem("app/C", "im", "()V"),
                CodeItem("app/C", "im", "()V"),
                ImplementsItem("app/C", "app/I"),
            }
        )
        assert cnf.satisfied_by(fine)

    def test_cast_requires_subtype_path(self):
        iface = ClassFile(
            name="app/I", is_interface=True, is_abstract=True
        )
        impl = ClassFile(name="app/C", interfaces=("app/I",))
        user = ClassFile(
            name="app/U",
            methods=(
                concrete(
                    "m",
                    "()V",
                    CheckCast("app/I", known_from="app/C"),
                ),
            ),
        )
        app = Application(classes=(iface, impl, user))
        cnf = generate_constraints(app)
        full = set(items_of(app))
        without_path = frozenset(full - {ImplementsItem("app/C", "app/I")})
        assert not cnf.satisfied_by(without_path)

    def test_impossible_cast_rejected(self):
        unrelated = ClassFile(name="app/X")
        iface = ClassFile(name="app/I", is_interface=True, is_abstract=True)
        user = ClassFile(
            name="app/U",
            methods=(
                concrete(
                    "m", "()V", CheckCast("app/I", known_from="app/X")
                ),
            ),
        )
        with pytest.raises(ConstraintError):
            generate_constraints(
                Application(classes=(unrelated, iface, user))
            )

    def test_reflection_requires_super_chain(self):
        base = ClassFile(name="app/P")
        derived = ClassFile(name="app/C", superclass="app/P")
        user = ClassFile(
            name="app/U",
            methods=(
                concrete("m", "()V", LoadClassConstant("app/C")),
            ),
        )
        app = Application(classes=(base, derived, user))
        clauses = set(generate_constraints(app))
        assert Clause.implication(
            [CodeItem("app/U", "m", "()V")], [SuperClassItem("app/C")]
        ) in clauses

    def test_super_call_requires_relation(self):
        base = ClassFile(
            name="app/P",
            methods=(MethodDef(INIT, "()V", code=code(Load(0))),),
        )
        derived = ClassFile(
            name="app/C",
            superclass="app/P",
            methods=(
                MethodDef(
                    INIT,
                    "()V",
                    code=code(
                        Load(0),
                        InvokeSpecial(
                            "app/P", INIT, "()V", is_super_call=True
                        ),
                    ),
                ),
            ),
        )
        app = Application(classes=(base, derived))
        clauses = set(generate_constraints(app))
        from repro.bytecode.items import ConstructorCodeItem

        assert Clause.implication(
            [ConstructorCodeItem("app/C", "()V")], [SuperClassItem("app/C")]
        ) in clauses
        assert Clause.implication(
            [ConstructorCodeItem("app/C", "()V")],
            [ConstructorItem("app/P", "()V")],
        ) in clauses


class TestClassDependencyGraph:
    def test_edges_from_references(self):
        app = Application(
            classes=(
                ClassFile(name="app/D", methods=(concrete("dm"),)),
                ClassFile(
                    name="app/A",
                    methods=(
                        concrete(
                            "m", "()V", InvokeVirtual("app/D", "dm", "()V")
                        ),
                    ),
                ),
            )
        )
        graph = class_dependency_graph(app)
        assert graph.has_edge("app/A", "app/D")
        assert not graph.has_edge("app/D", "app/A")

    def test_no_self_or_builtin_edges(self):
        app = Application(
            classes=(
                ClassFile(
                    name="app/A",
                    methods=(concrete("m", "()V", New("app/A")),),
                ),
            )
        )
        graph = class_dependency_graph(app)
        assert graph.num_edges() == 0


def abstract_interface(name="app/I", method="im"):
    return ClassFile(
        name=name,
        is_interface=True,
        is_abstract=True,
        methods=(MethodDef(method, "()V", is_abstract=True),),
    )


#: One app per ConstraintError case, with the message it must raise.
BROKEN_APPS = {
    "unknown type": (
        Application(classes=(
            ClassFile(name="app/A", methods=(
                concrete("m", "()V", New("app/Ghost")),
            )),
        )),
        "reference to unknown type 'app/Ghost'",
    ),
    "unresolved method": (
        Application(classes=(
            ClassFile(name="app/A", methods=(
                concrete("m", "()V", InvokeVirtual("app/A", "gone", "()V")),
            )),
        )),
        "method app/A.gone()V does not resolve",
    ),
    "unresolved field": (
        Application(classes=(
            ClassFile(name="app/A", methods=(
                concrete("m", "()V", GetField("app/A", "gone", "I")),
            )),
        )),
        "field app/A.gone does not resolve",
    ),
    "unresolved constructor": (
        Application(classes=(
            ClassFile(name="app/A", methods=(
                concrete("m", "()V", InvokeSpecial("app/A", INIT, "(I)V")),
            )),
        )),
        "constructor app/A.<init>(I)V does not resolve",
    ),
    "impossible cast": (
        Application(classes=(
            ClassFile(name="app/X"),
            ClassFile(name="app/I", is_interface=True, is_abstract=True),
            ClassFile(name="app/U", methods=(
                concrete("m", "()V", CheckCast("app/I", known_from="app/X")),
            )),
        )),
        "cast app/X -> app/I can never succeed",
    ),
    "no concrete implementation": (
        Application(classes=(
            abstract_interface(),
            ClassFile(name="app/C", interfaces=("app/I",)),
        )),
        "app/C has no concrete implementation of im()V",
    ),
    # Two faults: both generators walk the rules in the same order, so
    # the first fault met (the field's type) is the one reported.
    "first of two faults": (
        Application(classes=(
            ClassFile(
                name="app/A",
                fields=(Field("f", "Lapp/Ghost;"),),
                methods=(concrete(
                    "m", "()V", InvokeVirtual("app/A", "gone", "()V")
                ),),
            ),
        )),
        "reference to unknown type 'app/Ghost'",
    ),
}


class TestErrorParity:
    """The emitter raises what the formula-based reference raises."""

    @pytest.mark.parametrize("case", sorted(BROKEN_APPS))
    def test_same_error_as_the_reference(self, case):
        from tests.reference_engines import generate_constraints_reference

        app, message = BROKEN_APPS[case]
        with pytest.raises(ConstraintError) as produced:
            generate_constraints(app)
        with pytest.raises(ConstraintError) as expected:
            generate_constraints_reference(app)
        assert str(produced.value) == str(expected.value) == message
