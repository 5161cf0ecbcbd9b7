"""ndlogic: a workbench for finite-valued non-deterministic matrix logics
in one and two dimensions.

Highlights: consequence checking by valuation enumeration (with first
countermodels), two-dimensional B-matrices and their product, separator
search and expressiveness reports, schematic Hilbert-style calculi with
derivation checking and bounded saturation proof search, and a bundled
battery of built-in logics with a self-verification suite.

JSON import/export lives in the ``ndlogic.serialize`` submodule; the
command-line front end in ``ndlogic.cli``.
"""

from .calculi import (Calculus, Label, LimitExceeded, Node, Proved,
                      RuleInstance, RuleSchema, Saturated,
                      applicable_instances, check_derivation, check_proof,
                      instantiate_rule, lift_calculus, prove,
                      render_tree_dot, render_tree_text)
from .errors import (CalculiError, LanguageError, LogicsError, NdlogicError,
                     NonTotalAlgebraError, ParseError, SemanticsError,
                     SerializeError)
from .language import (App, Formula, Signature, Var, compose, depth,
                       enumerate_unary_formulas, gen_subformulas,
                       parse_formula, size, subformula_sequence, subformulas,
                       substitute, theta_set, variables)
from .logics import (MciArtifacts, SuiteItem, SuiteReport, cpl_pos,
                     example1, example1_rules, example2, example2_repair,
                     hmci_axioms, iter_neg_formula, iterated_neg,
                     mci_artifacts, mci_worked_derivations,
                     mk_boolean_collapse, mk_matrix,
                     two_valued_positive_matrix, verify_paper_suite)
from .semantics import (BMatrix, BStatement, ExpressivenessReport,
                        FormulaLimit, NdAlgebra, NdMatrix, PairSeparation,
                        Statement1D, Valuation, Verdict, aspect_entails,
                        b_entails, b_product, check_total, coherent_valuations,
                        entails_1d, expressiveness_report,
                        induced_multifunction, separator_for_pair,
                        strong_hom_report, validate_rule)

__all__ = [
    "App", "BMatrix", "BStatement", "CalculiError", "Calculus",
    "ExpressivenessReport", "Formula", "FormulaLimit", "Label",
    "LanguageError", "LimitExceeded", "LogicsError", "MciArtifacts",
    "NdAlgebra", "NdMatrix", "NdlogicError", "Node", "NonTotalAlgebraError",
    "PairSeparation", "ParseError", "Proved", "RuleInstance", "RuleSchema",
    "Saturated", "SemanticsError", "SerializeError", "Signature",
    "Statement1D", "SuiteItem", "SuiteReport", "Valuation", "Var", "Verdict",
    "applicable_instances", "aspect_entails", "b_entails", "b_product",
    "check_derivation", "check_proof", "check_total", "coherent_valuations",
    "compose", "cpl_pos", "depth", "entails_1d", "enumerate_unary_formulas",
    "example1", "example1_rules", "example2", "example2_repair",
    "expressiveness_report", "gen_subformulas", "hmci_axioms",
    "induced_multifunction", "instantiate_rule", "iter_neg_formula",
    "iterated_neg", "lift_calculus", "mci_artifacts", "mci_worked_derivations",
    "mk_boolean_collapse", "mk_matrix", "parse_formula", "prove",
    "render_tree_dot", "render_tree_text", "separator_for_pair", "size",
    "strong_hom_report", "subformula_sequence", "subformulas", "substitute",
    "theta_set", "two_valued_positive_matrix", "validate_rule", "variables",
    "verify_paper_suite",
]
