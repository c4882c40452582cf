import numpy as np
import pytest

from hometwin.activity.evaluate import evaluate_timeline
from hometwin.core import MS_PER_MINUTE, ActivityLabel, UNKNOWN_ACTIVITY
from hometwin.errors import AlignmentError
from hometwin.simulate.truth import GroundTruthTimeline

from test_rules_oracle import MinuteEvidence, frame_of, labelled_timeline


def make_truth(codes, start=0):
    return GroundTruthTimeline(
        start=start,
        end=start + len(codes) * MS_PER_MINUTE,
        posture_truth={},
        activity_truth=np.array(codes, dtype=np.uint8),
        away_intervals=[],
    )


def make_timeline(labels, start=0):
    records = [MinuteEvidence(start + i * MS_PER_MINUTE, False) for i in range(len(labels))]
    return labelled_timeline(frame_of(records), labels)


def test_perfect_prediction_scores_one():
    codes = [0, 1, 2, 3, 4, 5, 6, 0]
    result = evaluate_timeline(make_timeline(codes), make_truth(codes))
    assert result.accuracy == 1.0
    assert result.confusion.sum() == 8
    assert np.trace(result.confusion) == 8


def test_all_unknown_scores_zero():
    codes = [0, 1, 2, 3]
    result = evaluate_timeline(make_timeline([UNKNOWN_ACTIVITY] * 4), make_truth(codes))
    assert result.accuracy == 0.0
    assert result.confusion[:, 7].sum() == 4  # everything landed in the Unknown column


def test_confusion_attribution():
    truth = make_truth([ActivityLabel.SLEEPING.value, ActivityLabel.RESTROOM.value])
    pred = make_timeline([ActivityLabel.RESTROOM.value, ActivityLabel.RESTROOM.value])
    result = evaluate_timeline(pred, truth)
    assert result.accuracy == 0.5
    assert result.confusion[ActivityLabel.SLEEPING.value, ActivityLabel.RESTROOM.value] == 1


def test_misaligned_grids_rejected():
    with pytest.raises(AlignmentError):
        evaluate_timeline(make_timeline([0, 1], start=60_000), make_truth([0, 1]))
    with pytest.raises(AlignmentError):
        evaluate_timeline(make_timeline([0, 1]), make_truth([0, 1, 2]))
    # same start and count, but the second minute is off the grid
    records = [MinuteEvidence(0, False), MinuteEvidence(2 * MS_PER_MINUTE, False)]
    with pytest.raises(AlignmentError, match="misaligned"):
        evaluate_timeline(labelled_timeline(frame_of(records), [0, 1]), make_truth([0, 1]))


def test_report_text_has_matrix():
    codes = [0, 1]
    text = evaluate_timeline(make_timeline(codes), make_truth(codes)).to_text()
    assert "minute-level accuracy" in text
    assert "UNKNOWN" in text
