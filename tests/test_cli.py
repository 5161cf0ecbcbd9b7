"""Golden transcripts and exit-code contracts for the command line."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ndlogic
from ndlogic.cli import main
from ndlogic.logics import mci_artifacts, mci_worked_derivations
from ndlogic.serialize import (dumps, loads, matrix_from_data,
                               statement_to_data, tree_to_data)

PARACONSISTENCY = '{"antecedent":["p","neg(p)"],"succedent":["q"]}'
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


class TestCheck:

    def test_invalid_with_countermodel(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement", PARACONSISTENCY)
        assert res.exit_code == 1
        assert res.output == ("invalid; countermodel:\n"
                              "  v(p) = I\n"
                              "  v(q) = f\n"
                              "  v(neg(p)) = I\n")

    def test_valid(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement",
                     '{"antecedent":["cons(p)","p","neg(p)"],"succedent":[]}')
        assert res.exit_code == 0
        assert res.output == "valid\n"

    def test_empty_statement_is_invalid(self, runner):
        # the countermodel assigns no formula, so a marker stands in for it
        for matrix, statement in (("builtin:mci5", '{"antecedent": []}'),
                                  ("builtin:mci-b", '{"acc": []}')):
            res = invoke(runner, "check", "--matrix", matrix,
                         "--statement", statement)
            assert res.exit_code == 1
            assert res.output == "invalid; countermodel:\n" \
                "  (empty valuation)\n"

    def test_bstatement_gap(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci-b",
                     "--statement", '{"nacc":["p"],"nrej":["p"]}')
        assert res.exit_code == 1
        assert res.output.startswith("invalid; countermodel:\n  v(p) = F\n")

    def test_statement_from_file(self, runner, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(PARACONSISTENCY)
        for spec in (f"@{path}", str(path)):
            res = invoke(runner, "check", "--matrix", "builtin:mci5",
                         "--statement", spec)
            assert res.exit_code == 1

    def test_neither_statement_flag_rejected(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5")
        assert res.exit_code == 2

    def test_dimension_mismatch(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci-b",
                     "--statement", PARACONSISTENCY)
        assert res.exit_code == 2
        assert res.output.startswith("error: ")
        assert res.output.count("\n") == 1

    def test_wrong_shape_for_flag(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement", '{"acc":["p"]}')
        assert res.exit_code == 2

    def test_missing_file(self, runner):
        res = invoke(runner, "check", "--matrix", "@/nonexistent/m.json",
                     "--statement", PARACONSISTENCY)
        assert res.exit_code == 2
        assert "cannot read matrix" in res.output

    def test_very_deep_formula_gets_its_verdict(self, runner):
        # deeper than the interpreter's recursion limit: the valuation
        # search walks the closure on an explicit stack
        deep = "neg(" * 1500 + "p" + ")" * 1500
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement",
                     json.dumps({"antecedent": [deep], "succedent": ["q"]}))
        assert res.exit_code == 1
        assert res.output.startswith("invalid; countermodel:\n")
        assert "  v(" + deep + ") = I\n" in res.output

    def test_deep_formula_gets_its_verdict(self, runner):
        deep = "neg(" * 300 + "p" + ")" * 300
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement",
                     json.dumps({"antecedent": [deep], "succedent": ["q"]}))
        assert res.exit_code == 1
        assert res.output.startswith("invalid; countermodel:\n")
        assert "  v(" + deep + ") = " in res.output

    def test_bad_json(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement", "{broken")
        assert res.exit_code == 2
        assert "not valid JSON" in res.output

    def test_byte_identical_reruns(self, runner):
        args = ("check", "--matrix", "builtin:mci5",
                "--statement", PARACONSISTENCY)
        assert invoke(runner, *args).output == invoke(runner, *args).output


class TestProve:

    def test_fig_tree_statement_proved(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement",
                     '{"acc":[],"nacc":["cons(neg(cons(p)))"],'
                     '"rej":[],"nrej":[]}')
        assert res.exit_code == 0
        assert res.output.startswith("acc{} | rej{}  -- cons2 {p := p}\n")
        assert "*" in res.output

    def test_dot_output(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:ex2-calc",
                     "--statement", '{"acc":["h(p)"],"nacc":["p","g(p)"]}',
                     "--dot")
        assert res.exit_code == 0
        assert res.output.startswith("digraph proof {\n")
        assert '[label="r2"]' in res.output

    def test_saturated(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement", '{"acc":["p"],"nacc":["q"]}')
        assert res.exit_code == 1
        assert res.output.startswith("not proved: saturated at open label ")

    def test_empty_statement_saturated(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement",
                     '{"acc":[],"nacc":[],"rej":[],"nrej":[]}')
        assert res.exit_code == 1
        assert res.output == \
            "not proved: saturated at open label acc{} | rej{}\n"

    def test_limit(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement",
                     '{"acc":[],"nacc":["cons(neg(cons(p)))"]}',
                     "--max-nodes", "3")
        assert res.exit_code == 1
        assert res.output.startswith("not proved: max_nodes limit reached")

    def test_infix_needs_a_signature(self, runner):
        # prove parses statements without a signature, so only prefix
        # notation is known
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement", '{"acc":["(p -> q)"]}')
        assert res.exit_code == 2
        assert "unknown token '-'; infix notation needs a signature " \
            "that declares it" in res.output

    @pytest.mark.parametrize("flag, value", [
        ("--max-nodes", "-1"), ("--max-nodes", "0"), ("--max-depth", "-3")])
    def test_empty_budget_is_bad_input(self, runner, flag, value):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement", '{"acc":["p"],"nacc":["q"]}',
                     flag, value)
        assert res.exit_code == 2
        assert "not proved" not in res.output
        assert f"{flag[2:].replace('-', '_')} must be >=" in res.output

    def test_dim1_with_theta_override(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:cplpos",
                     "--statement", '{"antecedent":["p"],"succedent":["p"]}',
                     "--theta", '["p"]')
        assert res.exit_code == 0
        assert res.output == "{p}\n"

    def test_dim1_axiom_instance(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:cplpos",
                     "--statement",
                     '{"antecedent":[],"succedent":["imp(p,imp(q,p))"]}',
                     "--theta", '["p"]')
        assert res.exit_code == 0
        assert res.output == ("{}  -- a1 {p := p, q := q}\n"
                              "  {imp(p,imp(q,p))}\n")

    def test_theta_must_exist(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:cplpos",
                     "--statement", '{"antecedent":["p"],"succedent":["p"]}')
        assert res.exit_code == 2
        assert "no theta" in res.output

    def test_theta_must_be_string_list(self, runner):
        res = invoke(runner, "prove", "--calculus", "builtin:hmci2d",
                     "--statement", '{"acc":["p"],"nacc":["q"]}',
                     "--theta", '{"p": 1}')
        assert res.exit_code == 2


class TestCheckProof:

    def test_transcribed_tree_ok(self, runner, tmp_path):
        (s, tree), _, _ = mci_worked_derivations()
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(dumps(tree_to_data(tree)))
        res = invoke(runner, "check-proof", "--calculus", "builtin:hmci2d",
                     "--statement", json.dumps(statement_to_data(s)),
                     "--tree", f"@{tree_path}")
        assert res.exit_code == 0
        assert res.output == "proof ok\n"

    def test_wrong_statement_rejected(self, runner, tmp_path):
        (_, tree), (s2, _), _ = mci_worked_derivations()
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(dumps(tree_to_data(tree)))
        res = invoke(runner, "check-proof", "--calculus", "builtin:hmci2d",
                     "--statement", json.dumps(statement_to_data(s2)),
                     "--tree", f"@{tree_path}")
        assert res.exit_code == 1
        assert res.output == "proof rejected\n"


    def test_crash_is_one_error_line(self, runner):
        # a tree nested too deep for the reader's recursion
        tree = '{"label": {}}'
        for _ in range(600):
            tree = f'{{"label": {{}}, "rule": "r", "children": [{tree}]}}'
        res = invoke(runner, "check-proof", "--calculus", "builtin:hmci2d",
                     "--statement", '{"acc":["p"]}', "--tree", tree)
        assert res.exit_code == 2
        assert res.output.startswith("error: RecursionError: ")
        assert res.output.count("\n") == 1


class TestProductAndSeparators:

    def test_pipeline(self, runner, tmp_path, b5):
        out = tmp_path / "b.json"
        res = invoke(runner, "product", "builtin:mci5", "builtin:mci5-rej",
                     "-o", str(out))
        assert res.exit_code == 0
        assert res.output == ""
        assert matrix_from_data(loads(out.read_text())) == b5

        res = invoke(runner, "separators", "--matrix", str(out),
                     "--depth", "1")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "expressiveness report (bmatrix, depth <= 1)"
        assert "  <I,T>: cons(p)  [T inside designated]" in lines
        assert lines[-1] == "  => sufficiently expressive (up to bound)"

    def test_product_stdout(self, runner):
        res = invoke(runner, "product", "builtin:mci5", "builtin:mci5-rej")
        assert res.exit_code == 0
        data = loads(res.output)
        assert data["antidesignated"] == ["f", "I", "T"]

    def test_product_needs_plain_matrices(self, runner):
        res = invoke(runner, "product", "builtin:mci-b", "builtin:mci5")
        assert res.exit_code == 2

    def test_product_mismatched_algebras(self, runner):
        res = invoke(runner, "product", "builtin:mci5", "builtin:mk:1")
        assert res.exit_code == 2

    def test_separators_inner_pair_blindness(self, runner):
        res = invoke(runner, "separators", "--matrix", "builtin:mci5",
                     "--depth", "3")
        assert res.exit_code == 1
        assert "  <f,F>: none up to depth 3" in res.output.splitlines()
        assert "  <T,t>: none up to depth 3" in res.output.splitlines()
        assert res.output.splitlines()[-1] == \
            "  => not separated within bound"

    def test_separators_mci_b_depth_four(self, runner):
        # every pair separates by depth 1, so the scan stops early
        res = invoke(runner, "separators", "--matrix", "builtin:mci-b",
                     "--depth", "4")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "expressiveness report (bmatrix, depth <= 4)"
        assert "  <I,T>: cons(p)  [T inside designated]" in lines

    def test_separators_formula_limit(self, runner):
        # mci5 at depth 4 would scan about 5.85e9 formulas
        res = invoke(runner, "separators", "--matrix", "builtin:mci5",
                     "--depth", "4")
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert "  <f,F>: open after depth 3, max_formulas 1000000 reached" \
            in lines
        assert "  <I,T>: cons(p)  [T inside designated]" in lines
        assert lines[-1] == "  => max_formulas limit reached after depth 3"
        res = invoke(runner, "separators", "--matrix", "builtin:mci5",
                     "--depth", "3", "--max-formulas", "121")
        assert res.exit_code == 1
        assert "  <T,t>: open after depth 2, max_formulas 121 reached" in \
            res.output.splitlines()

    def test_separators_budget_must_be_positive(self, runner):
        res = invoke(runner, "separators", "--matrix", "builtin:mci5",
                     "--max-formulas", "0")
        assert res.exit_code == 2
        assert "max_formulas must be >= 1" in res.output


class TestValidateCalculus:

    def test_all_valid(self, runner):
        res = invoke(runner, "validate-calculus", "--calculus",
                     "builtin:hmci2d", "--matrix", "builtin:mci-b")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "ok   imp1"
        assert lines[-1] == "28/28 rules valid"

    def test_cpl_base_valid_in_family(self, runner):
        res = invoke(runner, "validate-calculus", "--calculus",
                     "builtin:cplpos", "--matrix", "builtin:mk:1")
        assert res.exit_code == 0
        assert "10/10 rules valid" in res.output

    def test_invalid_rule_reported(self, runner):
        # the chain axiom two past the family bound fails in that family
        res = invoke(runner, "validate-calculus", "--calculus",
                     "builtin:hmci:2", "--matrix", "builtin:mk:1")
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert any(l.startswith("BAD  cons-iter2; countermodel: ")
                   for l in lines)
        assert lines[-1] == "15/16 rules valid"

    def test_empty_countermodel_marked(self, runner):
        res = invoke(runner, "validate-calculus", "--calculus",
                     '{"name":"c","dimension":1,"rules":[{"name":"r"}]}',
                     "--matrix", "builtin:mci5")
        assert res.exit_code == 1
        assert res.output == ("BAD  r; countermodel: (empty valuation)\n"
                              "0/1 rules valid\n")

    def test_unsound_pairing(self, runner):
        # the two-dimensional mci rules are not valid against ex2's B-matrix
        res = invoke(runner, "validate-calculus", "--calculus",
                     "builtin:ex2-calc", "--matrix", "builtin:mci-b")
        assert res.exit_code == 2  # signature mismatch surfaces as input error


class TestBuiltin:

    def test_matrix_json(self, runner, m5):
        res = invoke(runner, "builtin", "mci5")
        assert res.exit_code == 0
        assert matrix_from_data(loads(res.output)) == m5

    def test_prefix_accepted(self, runner):
        res = invoke(runner, "builtin", "builtin:hmci2d")
        assert res.exit_code == 0
        assert loads(res.output)["name"] == "hmci2d"

    def test_parameterized(self, runner):
        res = invoke(runner, "builtin", "mk:2")
        assert res.exit_code == 0
        assert loads(res.output)["values"] == ["1", "2", "3", "4", "5", "6"]
        res = invoke(runner, "builtin", "hmci:1")
        assert loads(res.output)["name"] == "hmci:1"
        res = invoke(runner, "builtin", "ex1-rules:2")
        assert [r["name"] for r in loads(res.output)["rules"]] == \
            ["gen0", "gen1", "gen2"]

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "m.json"
        res = invoke(runner, "builtin", "ex2", "-o", str(out))
        assert res.exit_code == 0 and res.output == ""
        assert loads(out.read_text())["antidesignated"] == ["f"]

    def test_unknown_name(self, runner):
        res = invoke(runner, "builtin", "nope")
        assert res.exit_code == 2
        assert "unknown builtin" in res.output

    def test_bad_index(self, runner):
        res = invoke(runner, "builtin", "mk:zero")
        assert res.exit_code == 2
        res = invoke(runner, "builtin", "mk:0")
        assert res.exit_code == 2

    def test_builtin_kind_checked(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:hmci2d",
                     "--statement", PARACONSISTENCY)
        assert res.exit_code == 2
        assert "names a calculus" in res.output
        res = invoke(runner, "prove", "--calculus", "builtin:mci5",
                     "--statement", '{"acc":["p"]}')
        assert res.exit_code == 2
        assert "names a matrix" in res.output


KNOWN = ("ex1, ex2, mci-b, mci5, mci5-rej, cplpos, ex2-calc, hmci2d, "
         "mk:<k>, hmci:<k>, ex1-rules:<i>")


class TestMessages:
    """Every input error is one full ``error: ...`` line on exit 2."""

    @pytest.mark.parametrize("args, message", [
        (["builtin", "nope"], f"unknown builtin 'nope'; known: {KNOWN}"),
        (["builtin", "foo:3"], f"unknown builtin 'foo:3'; known: {KNOWN}"),
        (["builtin", "foo:bar"],
         f"unknown builtin 'foo:bar'; known: {KNOWN}"),
        (["builtin", "mk:zero"],
         "builtin 'mk:zero': index 'zero' is not an integer"),
        (["builtin", "builtin:builtin:mci5"],
         f"unknown builtin 'builtin:mci5'; known: {KNOWN}"),
        (["check", "--matrix", "builtin:hmci2d", "--statement",
          PARACONSISTENCY], "'builtin:hmci2d' names a calculus, not a matrix"),
        (["prove", "--calculus", "builtin:mci5", "--statement",
          '{"acc":["p"]}'], "'builtin:mci5' names a matrix, not a calculus"),
        (["check", "--matrix", "builtin:mci-b", "--statement",
          PARACONSISTENCY], "a one-dimensional statement needs a plain "
         "matrix (no antidesignated set)"),
        (["prove", "--calculus", "builtin:hmci2d", "--statement",
          PARACONSISTENCY],
         "one-dimensional statement given to a two-dimensional calculus"),
        (["product", "builtin:mci-b", "builtin:mci5"],
         "product needs two plain matrices"),
        (["product", "builtin:mci5", "builtin:mk:1"],
         "product requires the two matrices to share an identical algebra"),
        (["check", "--matrix", "builtin:mci5", "--statement", ""],
         "cannot read statement from '': No such file or directory"),
        (["check", "--matrix", "builtin:mci5", "--statement",
          '{"foo":["p"],"antecedent":[]}'],
         "statement has unknown key(s) ['foo']"),
        (["check", "--matrix", "builtin:mci5", "--statement",
          '{"acc":["p"]}'], "a two-dimensional statement needs a B-matrix "
         "(matrix with an antidesignated set)"),
    ])
    def test_error_line(self, runner, args, message):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.output == f"error: {message}\n"


# each command's parameters as click builds them: (name, opts, type,
# required, default, help), in order; the help layout is click's own
_MATRIX = ("matrix_spec", ("--matrix",), "text", True, None,
           "Matrix: builtin:NAME, file path, @file, or inline JSON.")
_CALCULUS = ("calculus_spec", ("--calculus",), "text", True, None,
             "Calculus: builtin:NAME, file path, @file, or inline JSON.")
_STATEMENT = ("statement_spec", ("--statement",), "text", True, None,
              "Statement as inline JSON or @file; its keys give its "
              "dimension.")
_PARAMETERS = {
    "check": [_MATRIX, _STATEMENT],
    "prove": [
        _CALCULUS, _STATEMENT,
        ("theta", ("--theta",), "text", False, None,
         "Theta set as a JSON list of formulas; defaults to the calculus "
         "theta."),
        ("max_nodes", ("--max-nodes",), "integer", False, 10 ** 6, None),
        ("max_depth", ("--max-depth",), "integer", False, None,
         "Depth limit; none by default."),
        ("dot", ("--dot",), "boolean", False, False,
         "Render the proof tree as DOT."),
    ],
    "check-proof": [
        _CALCULUS, _STATEMENT,
        ("tree_spec", ("--tree",), "text", True, None,
         "Derivation tree as inline JSON or @file."),
    ],
    "product": [
        ("left", ("left",), "text", True, None, None),
        ("right", ("right",), "text", True, None, None),
        ("output", ("-o", "--output"), "text", False, None,
         "Write the product matrix JSON here instead of stdout."),
    ],
    "separators": [
        _MATRIX,
        ("depth", ("--depth",), "integer", False, 3,
         "Maximum separator formula depth."),
        ("max_formulas", ("--max-formulas",), "integer", False, 10 ** 6,
         "Stop before a depth that takes the formula pool past this size."),
    ],
    "validate-calculus": [_CALCULUS, _MATRIX],
    "builtin": [
        ("name", ("name",), "text", True, None, None),
        ("output", ("-o", "--output"), "text", False, None,
         "Write the artifact JSON here instead of stdout."),
    ],
    "verify-suite": [
        ("chain_k", ("--chain-k",), "integer", False, 3,
         "Largest family index exercised by the chain items."),
        ("timings", ("--timings",), "boolean", False, False,
         "Include per-item wall-clock times (non-reproducible)."),
    ],
}


class TestParameters:

    def test_commands_in_order(self):
        assert list(main.commands) == list(_PARAMETERS)

    @pytest.mark.parametrize("command", list(_PARAMETERS))
    def test_parameters(self, command):
        got = [(p.name, tuple(p.opts), p.type.name, p.required,
                None if p.required else p.default, getattr(p, "help", None))
               for p in main.commands[command].params]
        assert got == _PARAMETERS[command]


class TestVerifySuite:

    def test_runs_clean(self, runner):
        res = invoke(runner, "verify-suite", "--chain-k", "1")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "PASS construction-golden"
        assert lines[-1].startswith("OK: ")
        assert lines[-1].endswith("items passed")

    @pytest.mark.parametrize("chain_k", ["0", "-1"])
    def test_empty_chain_range_is_bad_input(self, runner, chain_k):
        res = invoke(runner, "verify-suite", "--chain-k", chain_k)
        assert res.exit_code == 2
        assert "PASS" not in res.output
        assert "chain_k must be >= 1" in res.output


class TestUsage:

    def test_unknown_command(self, runner):
        assert invoke(runner, "frobnicate").exit_code == 2

    def test_unknown_flag(self, runner):
        res = invoke(runner, "check", "--matrix", "builtin:mci5",
                     "--statement", PARACONSISTENCY, "--bogus")
        assert res.exit_code == 2


class TestReadme:

    def test_command_block_runs(self, runner, tmp_path, monkeypatch):
        # the sh block under "## Command line", run line by line in one
        # directory, so that product's b.json feeds separators
        section = README.read_text(encoding="utf-8").split(
            "\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in
                    block.replace("\\\n", " ").splitlines()]
        assert len(commands) > 1
        (s, tree), _, _ = mci_worked_derivations()
        (tmp_path / "stmt.json").write_text(dumps(statement_to_data(s)))
        (tmp_path / "tree.json").write_text(dumps(tree_to_data(tree)))
        monkeypatch.chdir(tmp_path)
        for program, *args in commands:
            assert program == "ndlogic"
            res = invoke(runner, *args)
            assert res.exit_code in (0, 1), (args, res.output)
            assert not any(line.startswith("error:")
                           for line in res.output.splitlines()), args


class TestDependencies:

    def test_nothing_beyond_click_and_the_standard_library(self):
        # only what the import adds counts, so modules that start-up hooks
        # (.pth files) load before it stay out
        code = ("import sys\n"
                "before = {m.partition('.')[0] for m in sys.modules}\n"
                "import ndlogic.cli, ndlogic.serialize\n"
                "after = {m.partition('.')[0] for m in sys.modules}\n"
                "print(*sorted(after - before\n"
                "              - set(sys.stdlib_module_names)))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        added = set(res.stdout.split())
        assert "ndlogic" in added and added <= {"click", "ndlogic"}


class TestDeterminism:
    """stdout is a function of the input alone: the same bytes under
    every string-hash seed."""

    @pytest.mark.parametrize("args, code", [
        (["check", "--matrix", "builtin:mci-b", "--statement",
          '{"acc":["imp(p,q)","neg(q)"],"nacc":["neg(p)"]}'], 1),
        (["prove", "--calculus", "builtin:hmci2d", "--statement",
          '{"acc":["neg(p)","imp(p,q)"],'
          '"nacc":["cons(neg(cons(p)))","q"]}'], 0),
        (["separators", "--matrix", "builtin:mci5", "--depth", "2"], 1),
        (["prove", "--calculus", "builtin:hmci2d", "--dot", "--statement",
          '{"acc":["neg(p)","imp(p,q)"],'
          '"nacc":["cons(neg(cons(p)))","q"]}'], 0),
        (["check", "--matrix", "builtin:mci5", "--statement",
          '{"antecedent":["neg(p)","neg(q)","cons(r)","cons(s)"],'
          '"succedent":["neg(r)","cons(p)","neg(s)","cons(q)"]}'], 1),
        # depth 3 builds its last level without keeping the nodes
        (["separators", "--matrix", "builtin:mci5", "--depth", "3"], 1),
    ])
    def test_same_output_under_every_hash_seed(self, args, code):
        outs = []
        for seed in ("0", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
            res = subprocess.run(
                [sys.executable, "-m", "ndlogic.cli", *args], env=env,
                capture_output=True, timeout=120)
            assert res.returncode == code, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1] and outs[0]
