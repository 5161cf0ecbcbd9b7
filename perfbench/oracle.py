"""Reference semantics that the benchmark checks ndlogic's answers against.

The five-valued tables are written out here from the paper, apart from
``ndlogic.logics``, so a corrupted built-in matrix or a wrong search makes
these checks fail.  Formulas are handled as canonical prefix strings
(``imp(p,neg(q))``), parsed by this module's own reader.
"""

from __future__ import annotations

VALUES = ("f", "F", "I", "T", "t")
DESIGNATED = frozenset({"I", "T", "t"})
ANTIDESIGNATED = frozenset({"f", "I", "T"})
ARITY = {"neg": 1, "cons": 1, "and": 2, "or": 2, "imp": 2}

# What each attitude demands of a countermodel's value.  One-dimensional
# statements read antecedent/succedent as acc/nacc.
ALLOWED = {
    "acc": DESIGNATED, "antecedent": DESIGNATED,
    "nacc": frozenset(VALUES) - DESIGNATED,
    "succedent": frozenset(VALUES) - DESIGNATED,
    "rej": ANTIDESIGNATED, "nrej": frozenset(VALUES) - ANTIDESIGNATED,
}


def _tables():
    high, low = ("I", "t"), ("f",)
    neg = {"f": ("I", "t"), "F": ("T",), "I": ("I", "t"), "T": ("F",),
           "t": ("f",)}
    cons = {"f": ("T",), "F": ("T",), "I": ("F",), "T": ("T",), "t": ("T",)}
    out = {"neg": {(x,): neg[x] for x in VALUES},
           "cons": {(x,): cons[x] for x in VALUES},
           "and": {}, "or": {}, "imp": {}}
    for x in VALUES:
        for y in VALUES:
            dx, dy = x in DESIGNATED, y in DESIGNATED
            out["and"][x, y] = high if dx and dy else low
            out["or"][x, y] = high if dx or dy else low
            out["imp"][x, y] = high if not dx or dy else low
    return out


TABLES = _tables()


def parse(text: str):
    """A prefix formula as a nested tuple: ``"p"`` or ``(conn, arg, ...)``."""
    pos = 0

    def formula():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ValueError(f"bad formula {text!r}")
        if pos == len(text) or text[pos] != "(":
            return name
        args = []
        while text[pos] in "(,":
            pos += 1
            args.append(formula())
        if text[pos] != ")":
            raise ValueError(f"bad formula {text!r}")
        pos += 1
        return (name, *args)

    tree = formula()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return tree


def render(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"{tree[0]}({','.join(render(a) for a in tree[1:])})"


def closure(texts) -> list:
    """Subformulas of all formulas, each after its parts, as trees."""
    out, seen = [], set()

    def go(t):
        if t in seen:
            return
        if not isinstance(t, str):
            for a in t[1:]:
                go(a)
        seen.add(t)
        out.append(t)

    for text in texts:
        go(parse(text))
    return out


def countermodel_problem(statement: dict, assignment: dict) -> str | None:
    """Why ``assignment`` (formula text -> value) is not a coherent
    countermodel to ``statement`` (attitude -> formula texts); None if it
    is one."""
    texts = [f for fs in statement.values() for f in fs]
    domain = {render(t): t for t in closure(texts)}
    if set(assignment) != set(domain):
        return (f"countermodel domain {sorted(assignment)} is not the "
                f"subformula closure {sorted(domain)}")
    for text, tree in domain.items():
        v = assignment[text]
        if v not in VALUES:
            return f"v({text}) = {v!r} is not a value"
        if not isinstance(tree, str):
            args = tuple(assignment[render(a)] for a in tree[1:])
            if v not in TABLES[tree[0]][args]:
                return f"v({text}) = {v} is not in {tree[0]}{args}"
    for att, fs in statement.items():
        for f in fs:
            if assignment[f] not in ALLOWED[att]:
                return f"v({f}) = {assignment[f]} does not refute {att}"
    return None


def find_countermodel(statement: dict) -> dict | None:
    """A countermodel found by a constraint-pruned depth-first search, or
    None when the statement is valid in the reference matrix."""
    allowed = {}
    for att, fs in statement.items():
        for f in fs:
            tree = parse(f)
            allowed[tree] = allowed.get(tree, frozenset(VALUES)) & ALLOWED[att]
    order = closure(f for fs in statement.values() for f in fs)
    vals = {}

    def search(i):
        if i == len(order):
            return True
        t = order[i]
        if isinstance(t, str):
            cands = VALUES
        else:
            cands = TABLES[t[0]][tuple(vals[a] for a in t[1:])]
        ok = allowed.get(t)
        for c in cands:
            if ok is None or c in ok:
                vals[t] = c
                if search(i + 1):
                    return True
        return False

    if not search(0):
        return None
    return {render(t): v for t, v in vals.items()}


def induced_values(text: str, x: str) -> frozenset:
    """Values a one-variable formula can take when its variable is ``x``."""
    order = closure([text])
    root = order[-1]
    vals, out = {}, set()

    def search(i):
        if i == len(order):
            out.add(vals[root])
            return
        t = order[i]
        cands = (x,) if isinstance(t, str) else \
            TABLES[t[0]][tuple(vals[a] for a in t[1:])]
        for c in cands:
            vals[t] = c
            search(i + 1)

    search(0)
    return frozenset(out)


def separation_problem(sep: str, x: str, y: str, via: str,
                       into: str) -> str | None:
    """Why ``sep`` does not put ``into`` inside the ``via`` set and the
    other value of the pair outside it; None if it does."""
    dist = DESIGNATED if via == "designated" else ANTIDESIGNATED
    if into not in (x, y):
        return f"<{x},{y}>: {into!r} is not in the pair"
    other = y if into == x else x
    inside, outside = induced_values(sep, into), induced_values(sep, other)
    if not inside <= dist or outside & dist:
        return (f"<{x},{y}>: {sep} gives {sorted(inside)} at {into} and "
                f"{sorted(outside)} at {other}; does not separate by {via}")
    return None


# Known separator tables at depth 3: (x, y) -> (separator, via, into), or
# None for a pair that no formula separates.  The mci-b table is the
# verification suite's separator-table; mci5 cannot tell f from F or T
# from t with designation alone.
KNOWN_REPORTS = {
    "mci-b": {
        ("f", "F"): ("p", "antidesignated", "f"),
        ("f", "I"): ("p", "designated", "I"),
        ("f", "T"): ("p", "designated", "T"),
        ("f", "t"): ("p", "designated", "t"),
        ("F", "I"): ("p", "designated", "I"),
        ("F", "T"): ("p", "designated", "T"),
        ("F", "t"): ("p", "designated", "t"),
        ("I", "T"): ("cons(p)", "designated", "T"),
        ("I", "t"): ("p", "antidesignated", "I"),
        ("T", "t"): ("p", "antidesignated", "T"),
    },
    "mci5": {
        ("f", "F"): None,
        ("f", "I"): ("p", "designated", "I"),
        ("f", "T"): ("p", "designated", "T"),
        ("f", "t"): ("p", "designated", "t"),
        ("F", "I"): ("p", "designated", "I"),
        ("F", "T"): ("p", "designated", "T"),
        ("F", "t"): ("p", "designated", "t"),
        ("I", "T"): ("cons(p)", "designated", "T"),
        ("I", "t"): ("cons(p)", "designated", "t"),
        ("T", "t"): None,
    },
}
