"""JSON roundtrips and schema validation for every serialized shape."""

import pytest

from ndlogic.calculi import STAR, Calculus, Label, Node, RuleSchema
from ndlogic.errors import SemanticsError, SerializeError
from ndlogic.language import App, Signature, Var, parse_formula
from ndlogic.logics import (SIGMA_MCI, cpl_pos, example2, mci_artifacts,
                            mci_worked_derivations, mk_matrix)
from ndlogic.semantics import (BMatrix, BStatement, NdAlgebra, NdMatrix,
                               Statement1D)
from ndlogic.serialize import (calculus_from_data, calculus_to_data, dumps,
                               loads, matrix_from_data, matrix_to_data,
                               rule_from_data, rule_to_data,
                               signature_from_data,
                               signature_to_data, statement_from_data,
                               statement_to_data, tree_from_data,
                               tree_to_data)


def f(text):
    return parse_formula(text, SIGMA_MCI)


class TestMatrixRoundtrip:

    def test_m5(self, m5):
        data = matrix_to_data(m5)
        assert data["values"] == ["f", "F", "I", "T", "t"]
        assert data["designated"] == ["I", "T", "t"]
        assert "antidesignated" not in data
        assert data["interpretation"]["neg"]["f"] == ["I", "t"]
        assert data["interpretation"]["and"]["T,t"] == ["I", "t"]
        back = matrix_from_data(data)
        assert isinstance(back, NdMatrix) and back == m5

    def test_b5(self, b5):
        data = matrix_to_data(b5)
        assert data["antidesignated"] == ["f", "I", "T"]
        back = matrix_from_data(data)
        assert isinstance(back, BMatrix) and back == b5

    def test_mk(self):
        m = mk_matrix(2)
        assert matrix_from_data(matrix_to_data(m)) == m

    def test_signature_notation_kept(self):
        data = signature_to_data(SIGMA_MCI)
        assert data["notation"]["imp"] == "->"
        assert signature_from_data(data) == SIGMA_MCI

    def test_json_text_roundtrip(self, b5):
        text = dumps(matrix_to_data(b5))
        assert matrix_from_data(loads(text)) == b5

    def test_dumps_deterministic(self, b5):
        assert dumps(matrix_to_data(b5)) == dumps(matrix_to_data(b5))

    def test_value_named_empty_string(self):
        # a unary cell at the value "" has the key "" that a constant has;
        # it is split, a constant's is not, and a constant's must stay ""
        values = ("", "a")
        interp = {"c": {(): {""}},
                  "g": {(x,): {x, "a"} for x in values},
                  "k": {(x, y): {y} for x in values for y in values}}
        m = NdMatrix(NdAlgebra(Signature({"c": 0, "g": 1, "k": 2}), values,
                               interp), {""})
        data = matrix_to_data(m)
        assert data["interpretation"]["c"] == {"": [""]}
        assert data["interpretation"]["g"][""] == ["", "a"]
        assert data["interpretation"]["k"][","] == [""]
        assert matrix_from_data(loads(dumps(data))) == m
        data["interpretation"]["c"] = {"a": ["a"]}
        with pytest.raises(SemanticsError):
            matrix_from_data(data)

    def test_comma_value_rejected(self):
        data = {"signature": {"connectives": {}}, "values": ["a,b"],
                "designated": [], "interpretation": {}}
        with pytest.raises(SerializeError):
            matrix_from_data(data)

    def test_missing_key(self):
        with pytest.raises(SerializeError):
            matrix_from_data({"values": ["a"]})

    def test_unknown_key(self, m5):
        data = matrix_to_data(m5)
        data["extra"] = 1
        with pytest.raises(SerializeError):
            matrix_from_data(data)


def _int_cell_key():
    data = matrix_to_data(mci_artifacts().m5)
    data["interpretation"]["neg"] = {1: ["f"]}
    return data


_COMMA_VALUE = NdMatrix(NdAlgebra(Signature({}), ("a,b",), {}), {"a,b"})


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_from_data([]), "matrix must be a JSON object"),
    (lambda: matrix_from_data({"signature": {"connectives": {}},
                               "values": "ab", "designated": [],
                               "interpretation": {}}),
     "values must be a list of strings"),
    (lambda: matrix_to_data(_COMMA_VALUE),
     "value names must not contain commas"),
    (lambda: matrix_from_data(_int_cell_key()), "bad cell key 1 for 'neg'"),
    (lambda: statement_to_data("x"), "not a statement: 'x'"),
    (lambda: calculus_from_data({"name": "c", "dimension": 2, "rules": {}}),
     "rules must be a list"),
    (lambda: tree_from_data({"label": {}, "rule": 1}),
     "rule name must be a string"),
    (lambda: tree_from_data({"label": {}, "rule": "r", "children": {}}),
     "children must be a list"),
])
def test_refusal_message(call, message):
    with pytest.raises(SerializeError) as e:
        call()
    assert str(e.value) == message


class TestStatementRoundtrip:

    def test_1d(self):
        s = Statement1D({f("neg(p)"), Var("p")}, {Var("q")})
        data = statement_to_data(s)
        assert data == {"antecedent": ["neg(p)", "p"], "succedent": ["q"]}
        assert statement_from_data(data, SIGMA_MCI) == s

    def test_2d(self):
        s = BStatement(acc={f("and(p,q)")}, nrej={Var("p")})
        data = statement_to_data(s)
        assert data == {"acc": ["and(p,q)"], "nacc": [], "rej": [],
                        "nrej": ["p"]}
        assert statement_from_data(data, SIGMA_MCI) == s

    def test_partial_keys_default_empty(self):
        s = statement_from_data({"acc": ["p"]}, SIGMA_MCI)
        assert s == BStatement(acc={Var("p")})

    def test_infix_accepted_with_signature(self):
        s = statement_from_data({"antecedent": ["(p -> q)"], "succedent": []},
                                SIGMA_MCI)
        assert s.antecedent == {f("imp(p,q)")}

    def test_ambiguous_rejected(self):
        with pytest.raises(SerializeError):
            statement_from_data({})
        with pytest.raises(SerializeError):
            statement_from_data({"antecedent": [], "acc": []})


class TestCalculusRoundtrip:

    def test_hmci2d(self):
        calc = mci_artifacts().hmci2d
        data = calculus_to_data(calc)
        assert data["name"] == "hmci2d"
        assert data["dimension"] == 2
        assert data["theta"] == ["cons(p)", "p"]
        assert len(data["rules"]) == 28
        neg2 = next(r for r in data["rules"] if r["name"] == "neg2")
        assert neg2 == {"name": "neg2",
                        "acc": ["cons(p)", "neg(p)", "p"],
                        "nacc": [], "rej": [], "nrej": []}
        assert calculus_from_data(data, SIGMA_MCI) == calc

    def test_dim1_uses_sequent_keys(self):
        calc = cpl_pos()
        data = calculus_to_data(calc)
        assert "theta" not in data
        mp = next(r for r in data["rules"] if r["name"] == "mp")
        assert set(mp) == {"name", "antecedent", "succedent"}
        assert calculus_from_data(data, SIGMA_MCI) == calc

    def test_ex2(self):
        _, calc = example2()
        assert calculus_from_data(calculus_to_data(calc)) == calc

    def test_constant_is_refused(self):
        # read back without a signature, bot would be a variable and efq
        # would derive p from any formula
        efq = RuleSchema("efq", 2, acc={App("bot", ())}, nacc={Var("p")})
        with pytest.raises(SerializeError, match="'bot'"):
            rule_to_data(efq)
        with pytest.raises(SerializeError, match="'bot'"):
            calculus_to_data(Calculus("efq", 2, (efq,)))

    def test_dim_mismatch_keys_rejected(self):
        with pytest.raises(SerializeError):
            rule_from_data({"name": "r", "acc": ["p"]}, 1)
        with pytest.raises(SerializeError):
            rule_from_data({"name": "r", "antecedent": ["p"]}, 2)

    def test_nameless_rule_rejected(self):
        with pytest.raises(SerializeError):
            rule_from_data({"acc": ["p"]}, 2)

    @pytest.mark.parametrize("dimension", [3, True, 1.0])
    def test_bad_dimension(self, dimension):
        with pytest.raises(SerializeError):
            calculus_from_data({"name": "x", "dimension": dimension,
                                "rules": []})


class TestTreeRoundtrip:

    def test_worked_trees(self):
        for _, tree in mci_worked_derivations():
            data = tree_to_data(tree)
            assert tree_from_data(data, SIGMA_MCI) == tree

    def test_star_leaf(self):
        assert tree_to_data(Node(STAR)) == {"label": "star"}
        assert tree_from_data({"label": "star"}).is_star

    def test_leaf_omits_rule_keys(self):
        from ndlogic.calculi import Label
        data = tree_to_data(Node(Label({Var("p")})))
        assert data == {"label": {"acc": ["p"], "rej": []}}

    def test_constant_is_refused(self):
        bot = App("bot", ())
        nbot = App("neg", (bot,))
        for tree in (Node(Label({bot})),
                     Node(Label({Var("p")}), "efq", (("p", nbot),),
                          (Node(Label({Var("p"), nbot})),))):
            with pytest.raises(SerializeError, match="'bot'"):
                tree_to_data(tree)

    def test_text_roundtrip(self):
        _, tree = mci_worked_derivations()[2]
        text = dumps(tree_to_data(tree))
        assert tree_from_data(loads(text), SIGMA_MCI) == tree

    def test_leaf_with_children_rejected(self):
        with pytest.raises(SerializeError):
            tree_from_data({"label": {"acc": []}, "children": []})

    def test_star_with_rule_rejected(self):
        with pytest.raises(SerializeError):
            tree_from_data({"label": "star", "rule": "r"})

    def test_bad_json_text(self):
        with pytest.raises(SerializeError):
            loads("{not json")
