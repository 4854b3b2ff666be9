"""Tests of the benchmark's own code: generators, output checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np
import pytest
import yaml

import tracing
import workloads as W
from credalmeet import CredalMatrix, cli, meet, meeting, modelio, policy_iteration, solver


def _rows_equal(a, b):
    return a[0] == b[0] and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a[1], b[1])
    )


def test_generators_are_deterministic_for_a_seed():
    a = W.random_credal_rows(np.random.default_rng(5), 30)
    b = W.random_credal_rows(np.random.default_rng(5), 30)
    c = W.random_credal_rows(np.random.default_rng(6), 30)
    assert _rows_equal(a, b)
    assert not _rows_equal(a, c)
    assert W.torus_graph(np.random.default_rng(5)) == W.torus_graph(np.random.default_rng(5))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_inputs_follow_the_seed(name, tmp_path):
    def inputs(seed):
        w = W.WORKLOADS[name](seed, tmp_path)
        if name == "graph-sparse":
            return [text for _, text, _ in w.graphs]
        return [np.concatenate([np.ravel(v) for v in rows]) for _, rows in w.inputs.values()]

    def same(a, b):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    first = inputs(3)
    assert same(inputs(3), first)
    assert same(inputs(3 + W.POOL), first)
    assert not same(inputs(4), first)


def test_torus_rows_are_sparse_and_valid():
    doc = W.torus_graph(np.random.default_rng(0))
    rows = [doc["rows"][lab]["vertices"] for lab in doc["states"]]
    assert max(np.count_nonzero(v) for verts in rows for v in verts) <= 5
    CredalMatrix.from_rows(doc["states"], rows)


def test_check_exact_flags_perturbation_and_flipped_inf():
    ref = np.array([0.0, 3.5, np.inf, 12.25])
    W.check_exact("same", ref.copy(), ref)
    nudged = ref.copy()
    nudged[1] *= 1 + 1e-6
    with pytest.raises(W.CheckFailed):
        W.check_exact("nudged", nudged, ref)
    flipped = ref.copy()
    flipped[2] = 40.0
    with pytest.raises(W.CheckFailed):
        W.check_exact("flipped", flipped, ref)
    flipped = ref.copy()
    flipped[3] = np.inf
    with pytest.raises(W.CheckFailed):
        W.check_exact("flipped", flipped, ref)


def test_check_vi_reports_error_and_flags_bad_outputs():
    exact = np.array([0.0, 10.0, np.inf])
    assert W.check_vi("vi", np.array([0.0, 10.0 - 4e-8, np.inf]), exact, 1e-8) == pytest.approx(4.0)
    with pytest.raises(W.CheckFailed):
        W.check_vi("vi", np.array([0.0, 10.0, 7.0]), exact, 1e-8)
    with pytest.raises(W.CheckFailed):
        W.check_vi("vi", np.array([0.0, 10.0 + 2e-8, np.inf]), exact, 1e-8)


def test_joint_labels_match_the_library_order():
    model = CredalMatrix.from_rows(["x", "y", "z"], [[[0.5, 0.5, 0.0]], [[0, 1, 0]], [[0, 0, 1]]])
    for mode in ("full", "quotient"):
        product = meeting.build_product_space(model.space, 2, mode)
        expected = [product.label(i) for i in range(product.size)]
        assert W.joint_labels(model.space.labels, 2, mode) == expected


def test_self_times_sum_to_the_root_span(tmp_path):
    labels, rows = W.random_credal_rows(np.random.default_rng(1), 6)
    doc = W.torus_graph(np.random.default_rng(1))
    path = tmp_path / "graph.yaml"
    path.write_text(yaml.safe_dump(doc))
    def originals():
        return (solver.CredalChoices, meeting.JointChoices, cli.main, modelio.parse_model,
                vars(CredalMatrix)["from_rows"])

    before = originals()

    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span(tracing.ROOT):
        model = CredalMatrix.from_rows(labels, rows)
        policy_iteration(model, [0], "upper")
        meet(model, 2, "vacuous", "lower")
        code = cli.main(["classify", str(path), "--agents", "2", "--sense", "upper",
                         "--json", str(tmp_path / "out.json")])
    assert code == 0
    assert originals() == before

    (name, start, end, parent), *_ = tracer.spans
    assert (name, parent) == (tracing.ROOT, -1)
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(end - start, rel=1e-9)
    assert all(t >= 0 for t in own.values())

    metrics = tracing.layer_metrics(tracer)
    for name in ("core.build_s", "core.values_s", "reach.classify_s", "solver.self_s",
                 "meeting.values_s", "meeting.supports_s", "modelio.parse_s", "cli.self_s"):
        assert metrics[name] > 0, name
    assert metrics["modelio.bytes"] == len(path.read_bytes())
    assert metrics["trace.coverage"] == pytest.approx(1 - own[tracing.ROOT] / (end - start))


def test_speed_probe_scales_by_the_samples_inside_an_interval():
    import run

    probe = run.SpeedProbe()
    probe.times, probe.speeds = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 1.0]
    assert probe.scaled(0.5, 2.5) == pytest.approx(2.0 * 0.375)
    assert probe.scaled(1.2, 1.4) == pytest.approx(0.2 * 0.375)  # nearest samples
    with probe:
        assert len(probe.times) == 5
    assert probe.speeds[-1] > 0
