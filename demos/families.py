"""Parameterized matrix and axiom families, and a finite two-dimensional
calculus standing in for an infinite one-dimensional schema family.

Run with: python3 demos/families.py
"""

from ndlogic import (App, BStatement, Proved, Statement1D, b_entails,
                     check_proof, entails_1d, example1, example1_rules,
                     example2, example2_repair, hmci_axioms, iter_neg_formula,
                     iterated_neg, mk_matrix, parse_formula, prove,
                     validate_rule)

# The k-indexed matrices grow by two values per step; negation walks their
# value cycle in a closed form.
mk1 = mk_matrix(1)
print("k=1 values:", mk1.algebra.values)
print("k=1 designated:", sorted(mk1.designated, key=int))
print("k=2 negation orbit from value 4:",
      [iterated_neg(2, m) for m in range(1, 5)])

# Each axiom system in the chain is sound for its matrix, and each step of
# the chain is strict: the next consistency-iteration axiom fails.
print()
for k in (1, 2):
    mk = mk_matrix(k)
    calc = hmci_axioms(2 * k - 1)
    sound = all(validate_rule(mk, r).valid for r in calc.rules)
    print(f"{calc.name} sound for the k={k} matrix: {sound}")
    beyond = App("cons", (iter_neg_formula(
        2 * k, parse_formula("cons(p)", mk.algebra.signature)),))
    print(f"  next iteration axiom valid: "
          f"{entails_1d(mk, Statement1D(set(), {beyond})).valid}")

# example1 needs infinitely many one-dimensional schemas; example2 captures
# them with three two-dimensional rules.
print()
m1, gen = example1()
print("first three schemas:",
      ", ".join(r.name for r in example1_rules(2).rules))
b2, calc2 = example2()
print("two-dimensional calculus:",
      ", ".join(r.name for r in calc2.rules))
print("ambiguous rule readings repaired as:", example2_repair())

p = parse_formula("p", m1.algebra.signature)
g_p = parse_formula("g(p)", m1.algebra.signature)
for i in (1, 2, 3):
    tower = p
    for _ in range(i):
        tower = parse_formula(f"h({tower})", m1.algebra.signature)
    s = BStatement(acc={tower}, nacc={p, g_p})
    out = prove(calc2, s, calc2.theta)
    ok = isinstance(out, Proved) and check_proof(calc2, s, out.tree)
    print(f"schema instance i={i}: proved={ok}, "
          f"semantically valid={b_entails(b2, s).valid}")
