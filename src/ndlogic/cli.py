"""Command-line front end.

Thin adapters over the library: every verdict printed here equals the
corresponding library call on the parsed inputs.  Matrices and calculi
are loaded from ``builtin:`` names, file paths, ``@file`` references, or
inline JSON; statements, trees, and theta sets from inline JSON or
``@file``.  Exit codes: 0 for valid/proved/pass, 1 for the checked
property failing (countermodel or open label printed), 2 for usage or
input errors and for any unexpected failure, reported as a one-line
diagnostic; 141 when the reader closes stdout early.
"""

from __future__ import annotations

import os
import sys
from functools import wraps

import click

from .calculi import (Calculus, Proved, Saturated, check_proof,
                      render_tree_dot, render_tree_text)
from .calculi import prove as run_prove
from .errors import NdlogicError
from .language import parse_formula
from .logics import (cpl_pos, example1, example1_rules, example2,
                     hmci_axioms, mci_artifacts, mk_matrix,
                     verify_paper_suite)
from .semantics import (BMatrix, NdMatrix, Statement1D, b_entails,
                        b_product, entails_1d, expressiveness_report,
                        validate_rule)
from . import serialize


class CliInputError(Exception):
    """Bad command input; reported as a one-line diagnostic, exit 2."""


# ---------------------------------------------------------------------------
# input resolution


def _read_source(spec: str, what: str) -> str:
    """Raw text behind a spec: inline JSON as-is, @file or bare path read
    from disk."""
    if spec.lstrip().startswith(("{", "[")):
        return spec
    path = spec[1:] if spec.startswith("@") else spec
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliInputError(
            f"cannot read {what} from {path!r}: {e.strerror}")


_BUILTINS = {
    "ex1": lambda: example1()[0],
    "ex2": lambda: example2()[0],
    "mci-b": lambda: mci_artifacts().b5,
    "mci5": lambda: mci_artifacts().m5,
    "mci5-rej": lambda: mci_artifacts().m5_rej,
    "cplpos": cpl_pos,
    "ex2-calc": lambda: example2()[1],
    "hmci2d": lambda: mci_artifacts().hmci2d,
}

_FAMILIES = {
    "mk:<k>": mk_matrix,
    "hmci:<k>": hmci_axioms,
    "ex1-rules:<i>": example1_rules,
}


def _builtin(name: str):
    """Resolve a builtin artifact name, without the ``builtin:`` prefix."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    head, _, arg = name.rpartition(":")
    for key, make in _FAMILIES.items():
        if key.rpartition(":")[0] == head:
            try:
                idx = int(arg)
            except ValueError:
                raise CliInputError(
                    f"builtin {name!r}: index {arg!r} is not an integer")
            return make(idx)
    raise CliInputError(f"unknown builtin {name!r}; known: "
                        f"{', '.join([*_BUILTINS, *_FAMILIES])}")


_FROM_DATA = {"matrix": serialize.matrix_from_data,
              "calculus": serialize.calculus_from_data,
              "statement": serialize.statement_from_data,
              "tree": serialize.tree_from_data}


def _load(spec: str, what: str, *args):
    """Read a matrix, calculus, statement or tree; ``args`` go on to its
    ``serialize`` reader.  Matrices and calculi also take builtin names."""
    if what in ("matrix", "calculus") and spec.startswith("builtin:"):
        got = _builtin(spec.removeprefix("builtin:"))
        if isinstance(got, Calculus) != (what == "calculus"):
            other = "matrix" if what == "calculus" else "calculus"
            raise CliInputError(f"{spec!r} names a {other}, not a {what}")
        return got
    return _FROM_DATA[what](serialize.loads(_read_source(spec, what)), *args)


def _load_theta(spec: str) -> frozenset:
    data = serialize.loads(_read_source(spec, "theta"))
    if not isinstance(data, list) or \
            not all(isinstance(x, str) for x in data):
        raise CliInputError("theta must be a JSON list of formula strings")
    return frozenset(parse_formula(t) for t in data)


def _artifact_option(what: str):
    """The required --matrix or --calculus option."""
    return click.option(f"--{what}", f"{what}_spec", required=True,
                        help=f"{what.capitalize()}: builtin:NAME, file path, "
                             "@file, or inline JSON.")


_statement_option = click.option(
    "--statement", "statement_spec", required=True,
    help="Statement as inline JSON or @file; its keys give its dimension.")


def _guarded(fn):
    """Report domain and input errors as one-line diagnostics, exit 2.

    Any other exception (say, a RecursionError on a JSON tree nested too
    deep) is reported the same way, naming its type: a crash is never a
    verdict, so it must not exit 1.  A reader that closes stdout early
    ends the command quietly with 141 (128 + SIGPIPE), as a shell reports
    a writer killed by the signal; stdout then points at devnull, so the
    flush at exit does not fail again."""

    @wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except Exception as e:
            message = str(e)
            if not isinstance(e, (CliInputError, NdlogicError)):
                message = f"{type(e).__name__}: {e}".splitlines()[0]
            click.echo(f"error: {message}", err=True)
            sys.exit(2)

    return run


def _emit(text: str, out_path: str | None):
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Workbench for finite-valued non-deterministic matrix logics."""


@main.command()
@_artifact_option("matrix")
@_statement_option
@_guarded
def check(matrix_spec, statement_spec):
    """Decide a statement against a matrix; print the first countermodel."""
    m = _load(matrix_spec, "matrix")
    s = _load(statement_spec, "statement", m.algebra.signature)
    if isinstance(s, Statement1D):
        if not isinstance(m, NdMatrix):
            raise CliInputError("a one-dimensional statement needs a plain "
                                "matrix (no antidesignated set)")
        verdict = entails_1d(m, s)
    else:
        if not isinstance(m, BMatrix):
            raise CliInputError("a two-dimensional statement needs a B-matrix "
                                "(matrix with an antidesignated set)")
        verdict = b_entails(m, s)
    if verdict.valid:
        click.echo("valid")
        return
    click.echo("invalid; countermodel:")
    for line in verdict.countermodel.lines() or ["(empty valuation)"]:
        click.echo(f"  {line}")
    sys.exit(1)


@main.command()
@_artifact_option("calculus")
@_statement_option
@click.option("--theta", default=None,
              help="Theta set as a JSON list of formulas; defaults to the "
                   "calculus theta.")
@click.option("--max-nodes", type=int, default=10 ** 6, show_default=True)
@click.option("--max-depth", type=int, default=None,
              help="Depth limit; none by default.")
@click.option("--dot", is_flag=True, help="Render the proof tree as DOT.")
@_guarded
def prove(calculus_spec, statement_spec, theta, max_nodes, max_depth, dot):
    """Search for a proof; print the tree, or why none was found."""
    c = _load(calculus_spec, "calculus")
    s = _load(statement_spec, "statement")
    theta_set = _load_theta(theta) if theta is not None else c.theta
    if theta_set is None:
        raise CliInputError(
            "no theta: pass --theta or use a calculus that has one")
    outcome = run_prove(c, s, theta_set, max_nodes=max_nodes,
                        max_depth=max_depth)
    if isinstance(outcome, Proved):
        render = render_tree_dot if dot else render_tree_text
        click.echo(render(outcome.tree, c.dimension))
        return
    if isinstance(outcome, Saturated):
        click.echo("not proved: saturated at open label "
                   + outcome.label.render(c.dimension))
        sys.exit(1)
    click.echo(f"not proved: {outcome.limit} limit reached "
               f"({outcome.nodes} nodes, depth {outcome.depth})")
    sys.exit(1)


@main.command("check-proof")
@_artifact_option("calculus")
@_statement_option
@click.option("--tree", "tree_spec", required=True,
              help="Derivation tree as inline JSON or @file.")
@_guarded
def check_proof_cmd(calculus_spec, statement_spec, tree_spec):
    """Check a transcribed derivation tree against calculus and statement."""
    c = _load(calculus_spec, "calculus")
    s = _load(statement_spec, "statement")
    if check_proof(c, s, _load(tree_spec, "tree")):
        click.echo("proof ok")
        return
    click.echo("proof rejected")
    sys.exit(1)


@main.command()
@click.argument("left")
@click.argument("right")
@click.option("-o", "--output", default=None,
              help="Write the product matrix JSON here instead of stdout.")
@_guarded
def product(left, right, output):
    """Combine two matrices over one algebra into a B-matrix."""
    b = b_product(_load(left, "matrix"), _load(right, "matrix"))
    _emit(serialize.dumps(serialize.matrix_to_data(b)), output)


@main.command()
@_artifact_option("matrix")
@click.option("--depth", type=int, default=3, show_default=True,
              help="Maximum separator formula depth.")
@click.option("--max-formulas", type=int, default=10 ** 6, show_default=True,
              help="Stop before a depth that takes the formula pool past "
                   "this size.")
@_guarded
def separators(matrix_spec, depth, max_formulas):
    """Search for unary separators for every pair of values."""
    m = _load(matrix_spec, "matrix")
    report = expressiveness_report(m, depth, max_formulas)
    for line in report.lines():
        click.echo(line)
    sys.exit(0 if report.sufficiently_expressive else 1)


@main.command("validate-calculus")
@_artifact_option("calculus")
@_artifact_option("matrix")
@_guarded
def validate_calculus(calculus_spec, matrix_spec):
    """Check every rule of a calculus for validity in a matrix."""
    c = _load(calculus_spec, "calculus")
    m = _load(matrix_spec, "matrix")
    bad = 0
    for r in c.rules:
        verdict = validate_rule(m, r)
        if verdict.valid:
            click.echo(f"ok   {r.name}")
        else:
            bad += 1
            click.echo(f"BAD  {r.name}; countermodel: "
                       + (str(verdict.countermodel) or "(empty valuation)"))
    click.echo(f"{len(c.rules) - bad}/{len(c.rules)} rules valid")
    sys.exit(0 if bad == 0 else 1)


@main.command()
@click.argument("name")
@click.option("-o", "--output", default=None,
              help="Write the artifact JSON here instead of stdout.")
@_guarded
def builtin(name, output):
    """Print a bundled artifact as JSON; NAME may carry a builtin: prefix."""
    got = _builtin(name.removeprefix("builtin:"))
    to_data = (serialize.calculus_to_data if isinstance(got, Calculus)
               else serialize.matrix_to_data)
    _emit(serialize.dumps(to_data(got)), output)


@main.command("verify-suite")
@click.option("--chain-k", type=int, default=3, show_default=True,
              help="Largest family index exercised by the chain items.")
@click.option("--timings", is_flag=True,
              help="Include per-item wall-clock times (non-reproducible).")
@_guarded
def verify_suite(chain_k, timings):
    """Run the bundled verification battery and report per-item results."""
    report = verify_paper_suite(chain_k=chain_k)
    for line in report.lines(timings=timings):
        click.echo(line)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
