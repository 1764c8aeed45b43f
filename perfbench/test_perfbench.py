"""Tests of the benchmark's own rules: percentiles, self time, tracing and the checkers."""

import bmfactor
import bmfactor.cli
import bmfactor.factors
import pytest

from perfbench import cases, stats, tracing, workloads


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(1, 101)), 90) == 90  # 10 samples above rank 90
    assert stats.percentile(list(range(1, 100)), 90) is None  # only 9 above
    assert stats.percentile(list(range(1, 21)), 50) == 10
    assert stats.percentile(list(range(1, 20)), 50) is None
    assert stats.percentile([], 50) is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        [tracing.ROOT, -1, 0.0, 10.0, False],
        ["a", 0, 1.0, 4.0, False],
        ["b", 1, 2.0, 3.0, False],
        ["a", 0, 5.0, 9.0, True],
    ]
    totals = tracing.layer_totals(spans)
    assert totals[tracing.ROOT]["self_s"] == pytest.approx(3.0)
    assert totals["a"] == {"calls": 2, "failed": 1, "self_s": pytest.approx(2.0 + 4.0)}
    assert totals["b"]["self_s"] == pytest.approx(1.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_instrumented_rebinds_imported_names_and_restores_them():
    original = bmfactor.factors.factor_hermite_ddx
    tracer = tracing.Tracer()

    def one_pass():
        assert bmfactor.cli.factor_hermite_ddx is not original
        assert bmfactor.factor_hermite_ddx is bmfactor.cli.factor_hermite_ddx
        bmfactor.cli.factor_hermite_ddx(3, 1.0)
        with pytest.raises(ValueError):
            bmfactor.factor_hermite_ddx(0, 1.0)

    with tracing.instrumented(tracer):
        tracer.wrap(tracing.ROOT, one_pass)()
    assert bmfactor.cli.factor_hermite_ddx is original
    assert bmfactor.factor_hermite_ddx is original
    totals = tracing.layer_totals(tracer.spans)
    assert totals["factors.factor"]["calls"] == 2 and totals["factors.factor"]["failed"] == 1
    assert totals["factors.build_pencil"]["calls"] == 1  # called inside factors by global lookup
    assert "core.polynomial" in totals
    root_s = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_s, rel=1e-9)


def test_checker_flags_a_perturbed_value():
    workload = workloads.make("high_degree")
    case = ("hermite", "dunkl", 1.0, 0.0, 12)
    ref = workload.reference[cases.case_key(*case)]
    good, _ = workload.check([case], [((ref, ref), 0.0)])
    bad, _ = workload.check([case], [((ref * (1 + 1e-6), workloads.Raised(RuntimeError("refused"))), 0.0)])
    assert [o.status for o in good[0]] == [workloads.OK, workloads.OK]
    assert [o.status for o in bad[0]] == [workloads.WRONG, workloads.FAIL]

    fresh = workloads.Tally(baseline={})
    fresh.add(bad, [])
    assert not fresh.correct and fresh.failed == 1 and fresh.wrong == 0
    known = workloads.Tally(baseline={o.key: workloads.WRONG for o in bad[0]})
    known.add(bad, [])
    assert known.correct and known.max_rel_err == pytest.approx(1e-6, rel=1e-6)


def test_verify_checker_counts_every_row():
    workload = workloads.make("verify_grid")
    header = "lambda,mu,n,theorem_value,oracle_value,rel_err,branch\n"
    queries, problems = workload.check([None], [((0, header), 0.0)])
    assert len(queries) == cases.VERIFY_ROWS
    assert all(q[0].status == workloads.FAIL for q in queries)
    assert problems
