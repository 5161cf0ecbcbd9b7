"""Tests of the benchmark itself: seeded inputs repeat, and its correctness
checks catch wrong answers.

    python3 -m pytest perfbench
"""

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NoTracer, Tracer  # noqa: E402

from ndlogic import (BMatrix, BStatement, ExpressivenessReport,  # noqa: E402
                     MciArtifacts, PairSeparation, Valuation, Verdict,
                     coherent_valuations, entails_1d, mci_artifacts,
                     parse_formula)

ARTS = mci_artifacts()


def first(wl, seed, n):
    return list(itertools.islice(wl.inputs(seed), n))


def test_same_seed_same_inputs():
    for cls in (workloads.CheckMix, workloads.ProveHmci2d):
        wl = cls(ARTS)
        assert first(wl, 7, 50) == first(wl, 7, 50)
        assert first(wl, 7, 50) != first(wl, 8, 50)


def test_blocks_follow_closure_quotas():
    for cls, quota in ((workloads.CheckMix, workloads.CHECK_QUOTA),
                       (workloads.ProveHmci2d, workloads.PROVE_QUOTA)):
        block = first(cls(ARTS), 3, sum(quota))
        sizes = [0] * len(quota)
        for item in block:
            sizes[len(oracle.closure(f for fs in item.data.values()
                                     for f in fs))] += 1
        assert tuple(sizes) == quota
        if cls is workloads.CheckMix:
            kinds = [item.kind for item in block]
            assert kinds.count("mci5") == kinds.count("mci-b")


def test_clean_runs_pass_their_checks():
    for cls, n in ((workloads.CheckMix, 200), (workloads.ProveHmci2d, 10)):
        wl = cls(ARTS)
        p = run.run_ops(wl, first(wl, 5, n), NoTracer(), n)
        assert len(p.latencies) == n
        assert p.wrong == 0 and all("empty" in m for _, m in p.failures)


def test_corrupted_product_raises_failed_frac():
    # the verification suite demo's broken product: t no longer designated
    broken = MciArtifacts(
        ARTS.sigma_mci, ARTS.m5, ARTS.m5_rej,
        BMatrix(ARTS.b5.algebra, frozenset({"I", "T"}),
                ARTS.b5.antidesignated),
        ARTS.hmci2d)
    wl = workloads.CheckMix(broken)
    p = run.run_ops(wl, first(wl, 1, 200), NoTracer(), 200)
    assert p.wrong > 0 and p.failed_frac() > 0


def test_tampered_countermodel_is_caught():
    wl = workloads.CheckMix(ARTS)
    item = workloads._item("mci5", {"antecedent": ["p", "neg(p)"],
                                    "succedent": ["q"]})
    done = wl.run(item, NoTracer())
    assert not done.result.valid and wl.check(item, done, NoTracer()) is None
    cm = done.result.countermodel
    tampered = dict(cm.assignment)
    tampered[parse_formula("q")] = "t"  # now designated: no countermodel
    bad = done._replace(result=Verdict(False, Valuation(cm.domain, tampered)))
    failure = wl.check(item, bad, NoTracer())
    assert failure is not None and failure.wrong


def test_wrong_valid_verdict_is_caught():
    wl = workloads.CheckMix(ARTS)
    item = workloads._item("mci5", {"antecedent": ["p"], "succedent": ["q"]})
    done = wl.run(item, NoTracer())
    failure = wl.check(item, done._replace(result=Verdict(True)), NoTracer())
    assert failure is not None and failure.wrong


def test_empty_statement_is_a_named_failure():
    wl = workloads.ProveHmci2d(ARTS)
    item = workloads._item("hmci2d", {a: [] for a in
                                      ("acc", "nacc", "rej", "nrej")})
    failure = wl.check(item, wl.run(item, NoTracer()), NoTracer())
    assert failure is not None and not failure.wrong
    assert failure.message.startswith("empty statement")


def test_separator_reports_are_checked_against_known_tables():
    wl = workloads.Separators(ARTS)

    def report(table):
        entries = tuple(
            PairSeparation(x, y, None) if got is None else
            PairSeparation(x, y, parse_formula(got[0]), got[1], got[2])
            for (x, y), got in table.items())
        return ExpressivenessReport("matrix", 3, entries,
                                    all(table.values()))

    item = next(wl.inputs(1))
    known = [report(oracle.KNOWN_REPORTS[kind]) for kind in wl.kinds]
    good = workloads.Done("", ARTS.sigma_mci, known)
    assert wl.check(item, good, NoTracer()) is None
    swapped = dict(oracle.KNOWN_REPORTS["mci5"])
    swapped["I", "t"] = ("cons(p)", "designated", "I")
    bad = workloads.Done("", ARTS.sigma_mci, [known[0], report(swapped)])
    assert wl.check(item, bad, NoTracer()).wrong


def test_separation_check_is_independent_of_the_table():
    assert oracle.separation_problem("cons(p)", "I", "T", "designated",
                                     "T") is None
    assert oracle.separation_problem("p", "T", "t", "designated",
                                     "T") is not None


def test_reference_search_agrees_with_library():
    wl = workloads.CheckMix(ARTS)
    for item in first(wl, 11, 100):
        if item.kind != "mci5":
            continue
        done = wl.run(item, NoTracer())
        found = oracle.find_countermodel(item.data)
        assert (found is None) == done.result.valid
        if found is not None:
            assert oracle.countermodel_problem(item.data, found) is None


def test_valuations_visited_matches_coherent_valuations():
    s = BStatement(acc={parse_formula("imp(p,q)")},
                   nacc={parse_formula("q")})
    alg = ARTS.b5.algebra
    listed = coherent_valuations(alg, s.formulas())
    from ndlogic import b_entails
    verdict = b_entails(ARTS.b5, s)
    assert workloads.valuations_visited(alg, s, verdict) == \
        listed.index(verdict.countermodel) + 1
    valid = workloads.CheckMix(ARTS).run(
        workloads._item("mci5", {"antecedent": ["and(p,q)"],
                                 "succedent": ["p"]}), NoTracer())
    assert valid.result.valid
    assert workloads.valuations_visited(ARTS.m5.algebra, valid.parsed,
                                        valid.result) == \
        len(coherent_valuations(ARTS.m5.algebra, valid.parsed.formulas()))
    assert entails_1d(ARTS.m5, valid.parsed).valid


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0, 10)
    assert run.tail([float(i) for i in range(1, 100)]) == (90, 89.0, 10)
    assert run.tail([float(i) for i in range(1, 51)]) == (75, 37.0, 13)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0, 0)


def test_self_time_excludes_children_and_probes():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("semantics.report"):
            with tr.span("language.enumerate"):
                pass
    with tr.span("language.closure"):
        pass
    own, total = tr.self_times("op"), tr.totals()
    assert "language.closure" not in own
    assert abs(own["semantics.report"] + own["language.enumerate"]
               - total["semantics.report"]) < 1e-9
    [line] = run.op_breakdown(tr)
    assert "semantics.report" in line and "(language.enumerate" in line
