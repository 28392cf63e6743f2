"""The benchmark's own tests.  Run: python3 -m pytest perfbench/tests -q"""

import time

import kiselman.universal
import pytest
from kiselman import canonical_form as real_canonical_form
from kiselman.errors import ResourceGuardError

import speed
import workloads
from tracing import NullTracer, Tracer, loglog_slope
from workloads import Recorder


def test_same_seed_gives_same_inputs_and_another_seed_different_ones():
    makers = [
        lambda s: workloads.theorem_words(s, count=50),
        workloads.closure_order,
        lambda s: workloads.canon_items(s, lengths=(10, 40), rounds=2),
    ]
    for make in makers:
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_sweep_inputs_are_the_catalog_plus_the_path_with_two_diamonds():
    dags, shortfall = workloads.sweep_setup(0, NullTracer())
    assert len(dags) == workloads.SWEEP_CLASSES + 1
    assert dags[-1].sorted_edges() == list(workloads.PATH5)
    assert sum(shortfall) == 2


def test_corrupted_output_counts_as_failed_and_the_run_goes_on(monkeypatch):
    ctx = workloads.canon_setup(3, NullTracer(), lengths=(12, 30), rounds=1)
    calls = []

    def corrupt_first(w):
        calls.append(w)
        return () if len(calls) == 1 else real_canonical_form(w)

    monkeypatch.setattr(workloads, "canonical_form", corrupt_first)
    rec = Recorder(NullTracer())
    workloads.canon_pass(ctx, rec)
    assert rec.attempted == 4
    assert (rec.failed, rec.wrong) == (1, 1)
    assert rec.problems[0][0] == 0
    assert len(rec.seconds["word"]) == 4


def test_malformed_output_that_makes_a_check_raise_counts_as_failed(monkeypatch):
    ctx = workloads.canon_setup(3, NullTracer(), lengths=(12, 30), rounds=1)
    calls = []

    def none_first(w):
        calls.append(w)
        return None if len(calls) == 1 else real_canonical_form(w)

    monkeypatch.setattr(workloads, "canonical_form", none_first)
    rec = Recorder(NullTracer())
    workloads.canon_pass(ctx, rec)
    assert rec.attempted == 4
    assert (rec.failed, rec.wrong) == (1, 1)
    assert rec.problems[0][1].startswith("check raised")


def test_guard_refusal_counts_as_failed_and_does_not_abort(monkeypatch):
    usys, words = workloads.theorem_setup(1, NullTracer(), count=6)
    real = workloads.verify_theorem

    def refuse_second(n, ws, system):
        if ws[0] == words[1]:
            raise ResourceGuardError("over the limit")
        return real(n, ws, system)

    monkeypatch.setattr(workloads, "verify_theorem", refuse_second)
    rec = Recorder(NullTracer())
    workloads.theorem_pass((usys, words), rec)
    assert rec.attempted == 6
    assert (rec.failed, rec.wrong, rec.refused) == (1, 0, 1)
    assert rec.problems[0][1].startswith("refused")


def test_traced_theorem_reaches_the_verdicts_of_verify_theorem(monkeypatch):
    usys, words = workloads.theorem_setup(2, NullTracer(), count=40)
    bad = next(w for w in words if len(w) > 3)

    def wrong_on_bad(w):
        c = real_canonical_form(w)
        return c + c[-1:] if w == bad else c

    # both routes look canonical_form up at call time, so both see the fault
    monkeypatch.setattr(kiselman.universal, "canonical_form", wrong_on_bad)
    monkeypatch.setattr(workloads, "canonical_form", wrong_on_bad)
    plain, traced = Recorder(NullTracer()), Recorder(Tracer())
    workloads.theorem_pass((usys, words), plain)
    workloads.theorem_pass((usys, words), traced)
    assert plain.failed >= 1
    assert (plain.failed, plain.problems) == (traced.failed, traced.problems)


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    outer = tr.open("outer")
    tr.call("inner", time.sleep, 0.01)
    tr.call("inner", time.sleep, 0.01)
    tr.close(outer)
    table = tr.table()
    assert table["inner"]["calls"] == 2
    outer_row = table["outer"]
    assert outer_row["self_s"] == pytest.approx(outer_row["s"] - table["inner"]["s"])
    assert outer_row["self_s"] < table["inner"]["s"]


def test_count_within_counts_only_spans_inside_op_spans():
    tr = Tracer()
    tr.call("setup.build", lambda: tr.call("inner", lambda: None))
    op = tr.open("op.word")
    tr.call("layer", lambda: tr.call("inner", lambda: None))
    tr.close(op)
    tr.call("check", lambda: None)
    assert tr.count_within("op.") == 2


def test_words_ranked_sums_the_word_counts_of_the_bounds_tried():
    # enumerate_hk starts at bound 4: bounds 4 and 6 over 2 letters
    assert workloads._words_ranked(2, 6) == (2 ** 5 - 1) + (2 ** 7 - 1)
    assert workloads._words_ranked(1, 4) == 5


def test_loglog_slope_recovers_a_power_law():
    points = [(n, 3e-9 * n ** 2) for n in (100, 200, 400, 800)]
    assert loglog_slope(points) == pytest.approx(2.0)


def test_each_operation_is_scaled_by_the_speed_samples_around_it(monkeypatch):
    # half the reference speed until the last sample, a quarter at it
    samples = iter([2 * speed.REFERENCE_S] * 2 + [4 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    monkeypatch.setattr(speed, "PERIOD_S", 60.0)
    sampler = speed.Sampler()
    rec = Recorder(NullTracer(), sampler)
    with sampler:
        rec.op("word", lambda: time.sleep(0.01), lambda out: None)
        sampler.take()
        rec.op("word", lambda: time.sleep(0.01), lambda out: None)
    raw, scaled = rec.seconds["word"], rec.scaled()["word"]
    assert scaled == pytest.approx([raw[0] / 2, raw[1] / 3])


def test_time_spent_sampling_is_taken_out_of_the_operation(monkeypatch):
    def slow_sample():
        time.sleep(0.05)
        return speed.REFERENCE_S

    monkeypatch.setattr(speed, "sample", slow_sample)
    sampler = speed.Sampler()
    rec = Recorder(NullTracer(), sampler)
    rec.op("word", sampler.take, lambda out: None)
    assert rec.seconds["word"][0] < 0.01
