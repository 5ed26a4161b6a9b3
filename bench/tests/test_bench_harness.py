"""Tests of the benchmark harness itself: python3 -m pytest bench/tests -q"""

import gc
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SETUP, Tracer, layer_metrics, outer_time, self_times  # noqa: E402
import worker  # noqa: E402
from worker import make_workload, run_pass  # noqa: E402

from koopman_dh import lifting  # noqa: E402


def first_passes(workload, seed, count=2):
    passes = workload.passes(seed)
    return [next(passes) for _ in range(count)]


@pytest.mark.parametrize(
    "workload",
    [workloads.Sweep("unused"), workloads.Certify(), workloads.Recover()],
    ids=lambda w: w.name,
)
def test_generation_is_deterministic_per_seed(workload):
    assert first_passes(workload, 7) == first_passes(workload, 7)
    assert first_passes(workload, 7) != first_passes(workload, 8)
    one, two = first_passes(workload, 7)
    assert one != two and len(one) == len(two)


def test_pass_sizes_and_balance():
    sweep, certify, recover = (w.passes(3) for w in (workloads.Sweep("unused"), workloads.Certify(), workloads.Recover()))
    assert len(next(sweep)) == 60
    assert len(next(certify)) == 191
    queries = next(recover)
    assert len(queries) == 43
    assert all(sum(q.p == p for q in queries) == n for p, n in workloads.RECOVER_QUERIES.items())
    assert all(pow(workloads.primitive_roots(q.p)[0], q.e, q.p) == q.c for q in queries)


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(43) == 75
    assert run.tail_percentile(60) == 75
    assert run.tail_percentile(191) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9
    with pytest.raises(run.BenchError):
        run.tail_percentile(19)
    for n in (20, 40, 60, 191, 200, 1000, 10000):
        assert n - run.rank(run.tail_percentile(n), n) >= 10


def test_harrell_davis():
    assert run.harrell_davis([7.0] * 5, 50) == pytest.approx(7.0)
    assert run.harrell_davis([5], 99.9) == pytest.approx(5.0)
    assert run.harrell_davis(range(1, 21), 50) == pytest.approx(10.5)
    assert run.harrell_davis([3, 1, 2], 50) == run.harrell_davis([1, 2, 3], 50)
    # At a step between two equal clusters a nearest rank reads the end of
    # one of them; the estimate sits between them.
    assert run.harrell_davis([1.0] * 10 + [2.0] * 10, 50) == pytest.approx(1.5)
    uniform = [i / 1000 for i in range(1001)]
    assert run.harrell_davis(uniform, 75) == pytest.approx(0.75, abs=1e-3)
    assert run.harrell_davis(uniform, 90) > run.harrell_davis(uniform, 75)


def synthetic_spans():
    # (name, start, end, parent, item, tag); a pass of two items plus set-up.
    return [
        ("spectral.eigen_canonical", 0.0, 2.0, -1, SETUP, None),
        ("edmd.edmd_fit", 10.0, 20.0, -1, 0, "unique"),
        ("linalg_exact.inverse", 11.0, 15.0, 1, 0, None),
        ("linalg_exact.rref", 12.0, 14.0, 2, 0, None),
        ("linalg_exact.matmul", 15.0, 18.0, 1, 0, None),
        ("edmd.edmd_fit", 30.0, 33.0, -1, 1, "minimum-norm"),
    ]


def test_self_time_arithmetic():
    spans = synthetic_spans()
    assert self_times(spans) == [2.0, 3.0, 2.0, 2.0, 3.0, 3.0]
    rational = {"linalg_exact.inverse", "linalg_exact.rref", "linalg_exact.matmul"}
    assert outer_time(spans, rational.__contains__) == 7.0
    metrics = layer_metrics(spans, {}, passes=1, items=2)
    assert metrics["edmd.self_s"][0] == 6.0
    assert metrics["linalg_exact.self_s"][0] == 7.0
    assert metrics["linalg_exact.rational_s"][0] == 7.0
    assert metrics["edmd.fit_unique_s"][0] == 10.0
    assert metrics["edmd.fit_minnorm_s"][0] == 3.0
    assert metrics["spectral.setup_eigen_s"][0] == 2.0
    assert metrics["spectral.eigen_s"][0] == 0.0
    half = layer_metrics(spans, {}, passes=2, items=2)
    assert half["edmd.self_s"][0] == 3.0


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    latencies = [0.001 * i for i in range(20, 0, -1)]
    probes = [run.REFERENCE_PROBE_S] * 20
    passes = [{"wall_s": 2.0, "attempted": 20, "latencies_s": latencies, "probes_s": probes, "failures": []}]
    setups = [{"setup_s": t, "setup_probe_s": run.REFERENCE_PROBE_S} for t in (0.3, 0.1, 0.2)]
    metrics, notes = run.summarize(passes, setups, 40.0)
    assert {(k, u) for k, (_, u) in metrics.items()} == {
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    }
    assert notes["item_tail_percentile"] == 50 and notes["items"] == 20
    assert metrics["item_p50_ms"][0] == pytest.approx(10.5)
    assert metrics["setup_s"][0] == 0.2 and metrics["run_s"][0] == pytest.approx(0.21)
    layer = layer_metrics(synthetic_spans(), {}, passes=1, items=2)
    layer["trace.overhead_ratio"] = (1.0, "ratio")
    assert {(k, u) for k, (_, u) in layer.items()} == {
        (m["name"], m["unit"]) for m in spec["per_layer"]
    }


def test_item_times_scale_with_the_probe_next_to_them():
    # The second half of the pass ran while the host was half as fast: its
    # items took twice as long and so did the probes beside them.
    ref = run.REFERENCE_PROBE_S
    latencies = [0.010] * 10 + [0.020] * 10
    probes = [ref] * 10 + [2 * ref] * 10
    passes = [{"wall_s": 1.0, "attempted": 20, "latencies_s": latencies, "probes_s": probes, "failures": []}]
    metrics, notes = run.summarize(passes, [{"setup_s": 0.1, "setup_probe_s": 2 * ref}], 40.0)
    assert metrics["item_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["item_tail_ms"][0] == pytest.approx(10.0)
    assert metrics["run_s"][0] == pytest.approx(0.2)
    assert metrics["setup_s"][0] == pytest.approx(0.05)
    assert notes["wall_clock"]["run_s"] == pytest.approx(0.3)
    assert notes["wall_clock"]["item_p50_ms"] == pytest.approx(15.0)


def test_probe_uses_no_library_code_and_restores_the_collector():
    tracer = Tracer()
    tracer.install()
    try:
        assert worker.probe_s() > 0
    finally:
        tracer.uninstall()
    assert tracer.spans == [] and not tracer.counts
    assert gc.isenabled()


def test_wrong_answer_is_counted_not_raised():
    recover = workloads.Recover(queries={101: 1})
    recover.setup()
    good = next(recover.passes(1))[0]
    wrong = workloads.Query(good.p, good.c, good.e % 100 + 1)
    broken = workloads.Query(good.p, 0, good.e)  # c outside [1, p-1] raises
    result = run_pass(recover, [good, wrong, broken, good])
    assert result["attempted"] == 4
    assert len(result["failures"]) == 2
    assert "expected" in result["failures"][0] and "ValueError" in result["failures"][1]


def test_sweep_report_digest_ignores_only_wall_clock_and_diagnostics():
    base = '{"manifest": {"wall_clock_s": 1.5, "config": {}}, "records": [{"p": 5}]}'
    same = '{"manifest": {"wall_clock_s": 9.0, "config": {}}, "records": [{"p": 5}], "diagnostics": {"t": 1}}'
    other = '{"manifest": {"wall_clock_s": 1.5, "config": {}}, "records": [{"p": 7}]}'
    assert workloads.report_digest(base) == workloads.report_digest(same)
    assert workloads.report_digest(base) != workloads.report_digest(other)


def test_smoke_sweep(tmp_path):
    sweep = make_workload("sweep", str(tmp_path))
    sweep.primes = (5, 7)
    sweep.setup()
    items = next(sweep.passes(2))
    assert len(items) == 12 and all(case.key in sweep.digests for case in items)
    result = run_pass(sweep, items)
    assert result["failures"] == [] and len(result["latencies_s"]) == 12
    assert len(result["probes_s"]) == 12 and min(result["probes_s"]) > 0


def test_smoke_sweep_wrong_report_fails_the_item(tmp_path, monkeypatch):
    sweep = make_workload("sweep", str(tmp_path))
    sweep.primes = (5,)
    sweep.setup()
    exact = [case for case in next(sweep.passes(2)) if case.branch != "under"]
    mismatched, tampered = exact[:2]
    sweep.digests[mismatched.key] = "0" * 24
    del sweep.digests[tampered.key]  # only the report's own flags can catch this one
    check = sweep.check

    def check_tampered(case, output):
        if case == tampered:
            with open(sweep.report_path) as fh:
                report = json.load(fh)
            report["records"][0]["edmd"]["prediction_equivalent"] = False
            with open(sweep.report_path, "w") as fh:
                json.dump(report, fh)
        return check(case, output)

    monkeypatch.setattr(sweep, "check", check_tampered)
    result = run_pass(sweep, exact)
    assert len(result["failures"]) == 2
    assert str(mismatched) in result["failures"][0] and "digest" in result["failures"][0]
    assert str(tampered) in result["failures"][1]
    assert "prediction_equivalent" in result["failures"][1]


def test_smoke_certify():
    certify = workloads.Certify(primes=(5, 7, 11), smallest_only=(13,), eigen_primes=(11,))
    certify.setup()
    items = next(certify.passes(4))
    assert len(items) == 2 + 2 + 4 + 1 + 1
    assert run_pass(certify, items)["failures"] == []


def test_smoke_recover():
    recover = workloads.Recover(queries={23: 2, 101: 2})
    recover.setup()
    assert run_pass(recover, next(recover.passes(5)))["failures"] == []


def test_traced_pass_nests_spans_and_uninstalls():
    original = lifting.minimal_lifting_dimension
    certify = workloads.Certify(primes=(7,), smallest_only=(), eigen_primes=(11,))
    tracer = Tracer()
    tracer.install()
    try:
        assert lifting.minimal_lifting_dimension is not original
        result = run_pass(certify, next(certify.passes(1)), tracer)
    finally:
        tracer.uninstall()
    assert lifting.minimal_lifting_dimension is original
    assert result["failures"] == []
    spans = tracer.spans
    solves = [s for s in spans if s[0] == "linalg_exact.solve_int_with_ranks"]
    assert solves and all(spans[s[3]][0] == "lifting.solve_alpha_exact" for s in solves)
    assert tracer.counts["cyclotomic.RootSum.is_zero"] > 0
    assert not any(s[0] == "cyclotomic.turn_to_complex" for s in spans)
    metrics = layer_metrics(spans, tracer.counts, passes=1, items=3)
    assert metrics["lifting.min_dim_calls"][0] == pytest.approx(2 / 3)
    assert metrics["edmd.self_s"][0] == 0.0
