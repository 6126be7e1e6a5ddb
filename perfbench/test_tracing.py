"""Checks of the span recorder, the per-layer arithmetic and the text-model check.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

import numpy as np

import tracing
from workloads import check_fasttext

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from offlang import embeddings, model, nn  # noqa: E402


def test_recorder_rebinds_every_reference_and_restores_them():
    original = nn.sigmoid
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert nn.sigmoid is not original and embeddings.sigmoid is nn.sigmoid
        assert model.nn.bilstm_forward.__wrapped__.__name__ == "bilstm_forward"
        assert not hasattr(embeddings.fnv1a_32, "__wrapped__")
        recorder.run_id = "probe"
        embeddings.cbow_pair_loss(
            np.ones((3, 4)), np.ones((5, 4)), np.zeros((3, 4)), [np.array([0, 3])], 1, np.array([2])
        )
    finally:
        recorder.uninstall()
    assert nn.sigmoid is original and embeddings.sigmoid is original
    names = [s[0] for s in recorder.spans]
    assert names == ["embeddings.cbow_pair_loss", "nn.sigmoid"]
    outer, inner = recorder.spans
    assert inner[3] == 0 and outer[3] == -1 and outer[4] == "probe"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, "train", counts]


def test_layer_metrics_split_training_steps_from_inference_and_self_time():
    ms = 1_000_000
    spans = [
        _span("model.train", 0, 100 * ms, -1),                                 # 0
        _span("nn.bilstm_forward", 1 * ms, 11 * ms, 0, {"examples": 32}),      # 1
        _span("nn.sigmoid", 2 * ms, 3 * ms, 1),                                # 2 nested: part of bilstm
        _span("nn.dense_forward", 11 * ms, 12 * ms, 0),                        # 3 nn.other
        _span("nn.bilstm_backward", 12 * ms, 20 * ms, 0),                      # 4
        _span("nn.adam_step", 20 * ms, 25 * ms, 0, {"entries": 1000}),         # 5
        _span(tracing.INFERENCE, 25 * ms, 45 * ms, 0),                         # 6 validation
        _span("nn.bilstm_forward", 26 * ms, 44 * ms, 6, {"examples": 256}),    # 7
        _span("nn.bilstm_forward", 46 * ms, 56 * ms, 0, {"examples": 32}),     # 8
        _span("nn.adam_step", 60 * ms, 65 * ms, 0, {"entries": 1000}),         # 9
        _span("nn.adam_step", 70 * ms, 75 * ms, 0, {"entries": 1000}),         # 10
    ]
    m = tracing.layer_metrics(spans)
    assert m["model.steps"] == 3
    assert m["nn.bilstm_forward.train_ms_per_step"] == 20 / 3
    assert m["nn.bilstm_backward.ms_per_step"] == 8 / 3
    assert m["nn.other.ms_per_step"] == 1 / 3
    assert m["nn.adam_step.entries_per_step"] == 1000
    assert m["nn.bilstm_forward.predict_ms_per_example"] == 18 / 256
    # self time: 100 minus the direct children (10+1+8+5+20+10+5+5)
    assert m["model.self_ms_per_step"] == (100 - 64) / 3
    # the interval across the validation pass is an epoch boundary, not a step
    assert m["model.step_ms_p50"] == 10 and m["model.step_ms_p99"] == 10
    assert m["embeddings.cbow_pair_loss.pairs"] == 0 and m["baseline.tree_depth_max"] == 0


def test_fasttext_check_catches_non_finite_values(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("2 2 3\nab 0.1 -2e-05 3.0\ncd 1.0 2.0 3.0\n0.5 0.5 0.5\n1.5 1.5 1.5\n")
    checks, _ = check_fasttext(good, words=2, dim=3, buckets=2)
    assert all(ok for _, ok in checks)
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 3\nab 0.1 nan 3.0\ncd 1.0 2.0 3.0\n0.5 0.5 0.5\n1.5 inf\n")
    failed = {name for name, ok in check_fasttext(bad, words=2, dim=3, buckets=2)[0] if not ok}
    assert failed == {"fasttext values finite", "fasttext row width"}
