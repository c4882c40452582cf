"""Differential tests: the columnar rule cascade and not-at-home pass against
the per-minute records they replaced.

The oracle below is the code the package ran before the minute evidence
became one frame of columns: one `RoomEvidence` per (minute, role) keyed by
role in a dict, one `MinuteEvidence` per minute, `classify_minute` per
record, and a not-at-home pass that read the records field by field and
grouped the doorway triggers in a Python loop.  It built one
`TimelineEntry` per minute and returns them in its own container,
`OracleTimeline`; the package's timeline is four columns.  `frame_of` turns
such records into the frame, so every random timeline runs through both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from hometwin.activity import evidence as columns
from hometwin.activity.rules import (
    CLUSTER_GAP_MS,
    ActivityTimeline,
    TimelineEntry,
    _trigger_clusters,
    classify_timeline,
    detect_not_at_home,
)
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, ActivityLabel, PostureLabel, UNKNOWN_ACTIVITY
from hometwin.layout import RoomRole

ROLES = list(RoomRole)

# -- the per-minute oracle -----------------------------------------------------


@dataclass
class RoomEvidence:
    """What one thermal room contributed during a minute."""

    majority_posture: PostureLabel = PostureLabel.NOT_HERE
    mean_motion_index: float = 0.0
    multi_blob_windows: int = 0  # windows this minute with blob count >= 2
    theta_active: float = 0.0


@dataclass
class MinuteEvidence:
    minute_start: int
    is_night: bool
    # keyed by room role (one thermal room per role in supported layouts)
    rooms: dict[RoomRole, RoomEvidence] = field(default_factory=dict)
    restroom_triggers: int = 0
    doorway_triggers: int = 0
    other_motion_triggers: int = 0  # motion triggers outside restroom/doorway
    light_step_max: float = 0.0  # largest single-sample light change this minute


@dataclass
class OracleTimeline:
    """What the former cascade returned: one record per minute."""

    start: int
    entries: list[TimelineEntry]
    evidence: list[MinuteEvidence]
    away_intervals: list[tuple[int, int]] = field(default_factory=list)


_ROLE_ORDER = [
    RoomRole.BEDROOM,
    RoomRole.KITCHEN,
    RoomRole.DINING_ROOM,
    RoomRole.LIVING_ROOM,
]

_ROLE_ACTIVITY = {
    RoomRole.BEDROOM: ActivityLabel.SLEEPING,
    RoomRole.KITCHEN: ActivityLabel.KITCHEN_ACTIVITY,
    RoomRole.DINING_ROOM: ActivityLabel.DINING_ROOM_ACTIVITY,
    RoomRole.LIVING_ROOM: ActivityLabel.LIVING_ROOM_ACTIVITY,
}


def classify_minute(
    ev: MinuteEvidence, config: PipelineConfig, previous: int | None = None
) -> TimelineEntry:
    """Former rule cascade over one minute's record."""
    entry = TimelineEntry(ev.minute_start, UNKNOWN_ACTIVITY)

    # rule 1: restroom dominance
    if ev.restroom_triggers >= config.k_rest:
        entry.label = ActivityLabel.RESTROOM.value
        entry.winning_room = RoomRole.RESTROOM
        entry.score = float(ev.restroom_triggers)
        return entry

    # rule 2: sustained multi-blob living room => visitors
    living = ev.rooms.get(RoomRole.LIVING_ROOM)
    if living is not None and living.multi_blob_windows >= config.s_vis:
        entry.label = ActivityLabel.VISITORS.value
        entry.winning_room = RoomRole.LIVING_ROOM
        entry.score = float(living.multi_blob_windows)
        return entry

    # rule 3: best active thermal room by motion-index score
    candidates = []
    for role in _ROLE_ORDER:
        room = ev.rooms.get(role)
        if room is None:
            continue
        if room.majority_posture is PostureLabel.NOT_HERE:
            continue
        if room.mean_motion_index < room.theta_active:
            continue
        score = room.mean_motion_index
        if role is RoomRole.BEDROOM and ev.is_night:
            score *= config.w_night
        candidates.append((score, role, room))
    candidates.sort(key=lambda c: (-c[0], _ROLE_ORDER.index(c[1])))
    for score, role, room in candidates:
        if role is RoomRole.BEDROOM and room.majority_posture is not PostureLabel.LIE_DOWN:
            continue
        entry.label = _ROLE_ACTIVITY[role].value
        entry.winning_room = role
        entry.score = score
        return entry

    # rule 4: stillness continues sleep
    bedroom = ev.rooms.get(RoomRole.BEDROOM)
    if (
        bedroom is not None
        and bedroom.majority_posture is PostureLabel.LIE_DOWN
        and bedroom.mean_motion_index < bedroom.theta_active
        and previous == ActivityLabel.SLEEPING.value
    ):
        entry.label = ActivityLabel.SLEEPING.value
        entry.winning_room = RoomRole.BEDROOM
        entry.score = bedroom.mean_motion_index
        return entry

    # rule 5: carry the previous label once, then Unknown
    entry.label = UNKNOWN_ACTIVITY
    return entry


def oracle_classify_timeline(
    evidence: list[MinuteEvidence], config: PipelineConfig
) -> OracleTimeline:
    """Former sequential classification with single-minute carry-forward."""
    entries: list[TimelineEntry] = []
    previous: int | None = None
    carried_run = 0
    for ev in evidence:
        entry = classify_minute(ev, config, previous)
        if entry.label == UNKNOWN_ACTIVITY:
            if (
                previous is not None
                and previous != UNKNOWN_ACTIVITY
                and carried_run < config.carry_forward_max
            ):
                entry.label = previous
                entry.carried = True
                carried_run += 1
            else:
                carried_run = 0
        else:
            carried_run = 0
        entries.append(entry)
        previous = entry.label
    start = evidence[0].minute_start if evidence else 0
    return OracleTimeline(start, entries, list(evidence))


def oracle_trigger_clusters(trigger_ts) -> list[tuple[int, int]]:
    """Former (first, last) timestamp of each doorway trigger cluster."""
    clusters: list[tuple[int, int]] = []
    for t in sorted(int(v) for v in trigger_ts):
        if clusters and t - clusters[-1][1] <= CLUSTER_GAP_MS:
            clusters[-1] = (clusters[-1][0], t)
        else:
            clusters.append((t, t))
    return clusters


def oracle_detect_not_at_home(
    timeline: OracleTimeline, doorway_trigger_ts, config: PipelineConfig
) -> OracleTimeline:
    """Former not-at-home pass over the per-minute records."""
    entries = timeline.entries
    evidence = timeline.evidence
    n = len(entries)
    start = timeline.start

    def quiet(i: int) -> bool:
        ev = evidence[i]
        if ev.doorway_triggers or ev.restroom_triggers or ev.other_motion_triggers:
            return False
        for room in ev.rooms.values():
            if room.mean_motion_index >= room.theta_active:
                return False
        return entries[i].label == UNKNOWN_ACTIVITY or entries[i].carried

    clusters = oracle_trigger_clusters(doorway_trigger_ts)
    intervals: list[tuple[int, int]] = []
    for (_, leave_last), (return_first, _) in zip(clusters, clusters[1:]):
        if return_first - leave_last < config.min_away_min * MS_PER_MINUTE:
            continue
        first_interior = (leave_last - start) // MS_PER_MINUTE + 1
        last_interior = (return_first - start) // MS_PER_MINUTE - 1
        interior = range(max(first_interior, 0), min(last_interior, n - 1) + 1)
        if all(quiet(i) for i in interior):
            intervals.append((leave_last, return_first))

    new_entries = [
        TimelineEntry(e.minute_start, e.label, e.carried, e.winning_room, e.score)
        for e in entries
    ]
    for lo, hi in intervals:
        for i in range(max((lo - start) // MS_PER_MINUTE, 0), n):
            minute_lo = start + i * MS_PER_MINUTE
            if minute_lo >= hi:
                break
            overlap = min(hi, minute_lo + MS_PER_MINUTE) - max(lo, minute_lo)
            if overlap >= 30_000:
                new_entries[i].label = ActivityLabel.NOT_AT_HOME.value
                new_entries[i].carried = False
                new_entries[i].winning_room = None
                new_entries[i].score = 0.0

    return OracleTimeline(timeline.start, new_entries, evidence, intervals)


# -- records to the frame ------------------------------------------------------


def frame_of(records: list[MinuteEvidence], theta=None) -> columns.MinuteEvidence:
    """The frame of the records.  A role's gate is `theta[role]` when given,
    else the gate its records carry (0 for a role no record has)."""
    n = len(records)
    seen = np.zeros((n, len(ROLES)), dtype=bool)
    majority = np.full((n, len(ROLES)), PostureLabel.NOT_HERE.value, dtype=np.int64)
    mean = np.zeros((n, len(ROLES)))
    multi = np.zeros((n, len(ROLES)), dtype=np.int64)
    theta_active = np.zeros(len(ROLES)) if theta is None else np.array(theta, dtype=np.float64)
    for i, ev in enumerate(records):
        for role, room in ev.rooms.items():
            j = ROLES.index(role)
            seen[i, j] = True
            majority[i, j] = room.majority_posture.value
            mean[i, j] = room.mean_motion_index
            multi[i, j] = room.multi_blob_windows
            if theta is None:
                theta_active[j] = room.theta_active
    return columns.MinuteEvidence(
        minute_start=np.array([ev.minute_start for ev in records], dtype=np.int64),
        is_night=np.array([ev.is_night for ev in records], dtype=bool),
        restroom_triggers=np.array([ev.restroom_triggers for ev in records], dtype=np.int64),
        doorway_triggers=np.array([ev.doorway_triggers for ev in records], dtype=np.int64),
        other_motion_triggers=np.array([ev.other_motion_triggers for ev in records], dtype=np.int64),
        light_step_max=np.array([ev.light_step_max for ev in records], dtype=np.float64),
        seen=seen,
        majority_posture=majority,
        mean_motion_index=mean,
        multi_blob_windows=multi,
        theta_active=theta_active,
    )


FRAME_FIELDS = [f.name for f in fields(columns.MinuteEvidence)]


def frame_bits(frame: columns.MinuteEvidence) -> dict:
    """Each column's dtype, shape and bytes: equal dicts are equal frames bit
    for bit."""
    return {
        name: (getattr(frame, name).dtype.str, getattr(frame, name).shape, getattr(frame, name).tobytes())
        for name in FRAME_FIELDS
    }


COLUMN_DTYPES = {"label": np.int64, "carried": np.bool_, "winning_role": np.int8, "score": np.float64}


def labelled_timeline(frame: columns.MinuteEvidence, labels, away=()) -> ActivityTimeline:
    """A timeline of the given labels over the frame's minutes: none
    carried, no winning room, score 0."""
    n = len(frame)
    return ActivityTimeline(
        int(frame.minute_start[0]) if n else 0, frame, np.array(labels, dtype=np.int64),
        np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int8), np.zeros(n), list(away),
    )


def assert_same_timeline(got: ActivityTimeline, want: OracleTimeline) -> None:
    assert got.start == want.start
    for name, dtype in COLUMN_DTYPES.items():
        column = getattr(got, name)
        assert column.dtype == dtype and column.shape == (len(want.entries),), name
    assert got.label.tolist() == [e.label for e in want.entries]
    assert got.carried.tolist() == [e.carried for e in want.entries]
    assert got.winning_role.tolist() == [
        -1 if e.winning_room is None else ROLES.index(e.winning_room) for e in want.entries
    ]
    # bit for bit, so the sign of a zero score counts
    assert got.score.tobytes() == np.array([e.score for e in want.entries], dtype=np.float64).tobytes()
    assert got.evidence.minute_start.tolist() == [e.minute_start for e in want.entries]
    # the transitional view holds Python values, with the former repr
    assert [repr(e) for e in got.entries] == [repr(e) for e in want.entries]
    for e in got.entries:
        assert type(e.minute_start) is type(e.label) is int and type(e.score) is float
        assert type(e.carried) is bool
    assert got.away_intervals == want.away_intervals
    assert all(type(t) is int for interval in got.away_intervals for t in interval)


# -- random timelines ----------------------------------------------------------

# few motion and gate values, so that a motion equal to its gate and score
# ties are common; 0.2 and 0.25 tie 0.4 and 0.5 only under the night weight 2
MOTION_VALUES = (0.0, 0.1, 0.2, 0.25, 0.4, 0.5, 0.8)
THETA_VALUES = (0.0, 0.2, 0.25, 0.4)
CONFIGS = [
    PipelineConfig(),
    PipelineConfig(k_rest=1),
    PipelineConfig(s_vis=1),
    PipelineConfig(carry_forward_max=0),
    PipelineConfig(carry_forward_max=3, k_rest=1),
    PipelineConfig(theta_active=0.4, s_vis=1, k_rest=1, carry_forward_max=3, min_away_min=1),
    PipelineConfig(min_away_min=0, w_night=1.0),
    PipelineConfig(s_vis=2, min_away_min=2),
]


def random_records(rng) -> tuple[list[MinuteEvidence], np.ndarray]:
    """0-200 minutes of records, each role's dict in a shuffled order, and
    doorway triggers from 30 minutes before the start to 30 minutes after
    the end.  A share of the minutes is empty, so quiet stretches occur."""
    n = int(rng.integers(0, 201))
    start = int(rng.integers(-10**6, 10**13))
    busy = float(rng.choice([0.05, 0.3, 0.9]))
    # each role's thermal rooms, restroom and doorway roles included
    present = [role for role in ROLES if rng.random() < 0.6]
    theta = {role: float(rng.choice(THETA_VALUES)) for role in present}
    records = []
    for m in range(n):
        ev = MinuteEvidence(start + m * MS_PER_MINUTE, bool(rng.random() < 0.5))
        if rng.random() < busy:
            ev.restroom_triggers = int(rng.choice([0, 0, 0, 1, 2, 3, 5]))
            ev.doorway_triggers = int(rng.choice([0, 0, 0, 1]))
            ev.other_motion_triggers = int(rng.choice([0, 0, 0, 1]))
            ev.light_step_max = float(rng.choice([0.0, 10.0, 200.0]))
        rooms = []
        for role in present:
            if rng.random() < busy:
                rooms.append(
                    (
                        role,
                        RoomEvidence(
                            majority_posture=PostureLabel(int(rng.integers(0, 5))),
                            mean_motion_index=float(rng.choice(MOTION_VALUES)),
                            multi_blob_windows=int(rng.integers(0, 7)),
                            theta_active=theta[role],
                        ),
                    )
                )
        rng.shuffle(rooms)
        ev.rooms = dict(rooms)
        records.append(ev)
    n_triggers = int(rng.integers(0, 12))
    lo, hi = start - 30 * MS_PER_MINUTE, start + (n + 30) * MS_PER_MINUTE
    triggers = rng.integers(lo, hi, size=n_triggers)
    # passages: a second trigger within the cluster gap, sometimes at the same ms
    close = triggers + rng.choice([0, 1, CLUSTER_GAP_MS, CLUSTER_GAP_MS + 1], size=n_triggers)
    triggers = np.concatenate([triggers, close[rng.random(n_triggers) < 0.5]])
    rng.shuffle(triggers)
    return records, triggers.astype(np.int64)


def test_columnar_rules_equal_the_per_minute_oracle():
    seen = dict.fromkeys(
        ("rule1", "rule2", "rule3", "rule4", "carried", "away", "tie", "night_tie",
         "bedroom_yields", "at_theta", "empty", "clipped_cluster"),
        0,
    )
    for seed in range(2400):
        rng = np.random.default_rng(seed)
        config = CONFIGS[seed % len(CONFIGS)]
        records, triggers = random_records(rng)
        want = oracle_detect_not_at_home(oracle_classify_timeline(records, config), triggers, config)
        got = detect_not_at_home(classify_timeline(frame_of(records), config), triggers, config)
        assert_same_timeline(got, want)

        # the draws cover what they are meant to
        before = oracle_classify_timeline(records, config)
        for ev, entry in zip(records, before.entries):
            room = entry.winning_room
            seen["rule1"] += room is RoomRole.RESTROOM
            seen["rule2"] += entry.label == ActivityLabel.VISITORS.value
            seen["rule3"] += room in _ROLE_ORDER and entry.label != ActivityLabel.VISITORS.value
            seen["carried"] += entry.carried
            scores = {}
            for role in _ROLE_ORDER:
                r = ev.rooms.get(role)
                if r is None or r.majority_posture is PostureLabel.NOT_HERE:
                    continue
                seen["at_theta"] += r.mean_motion_index == r.theta_active
                if r.mean_motion_index >= r.theta_active:
                    night = role is RoomRole.BEDROOM and ev.is_night
                    scores[role] = r.mean_motion_index * (config.w_night if night else 1.0)
            if scores:
                top = max(scores.values())
                tied = [role for role, s in scores.items() if s == top]
                seen["tie"] += len(tied) > 1
                seen["night_tie"] += (
                    RoomRole.BEDROOM in tied and len(tied) > 1 and ev.is_night
                    and ev.rooms[RoomRole.BEDROOM].mean_motion_index != top
                )
                seen["bedroom_yields"] += (
                    RoomRole.BEDROOM in tied
                    and ev.rooms[RoomRole.BEDROOM].majority_posture is not PostureLabel.LIE_DOWN
                )
        seen["rule4"] += sum(  # rule 3 never names a bedroom below its gate
            e.label == ActivityLabel.SLEEPING.value and not e.carried
            and ev.rooms[RoomRole.BEDROOM].mean_motion_index < ev.rooms[RoomRole.BEDROOM].theta_active
            for e, ev in zip(before.entries, records)
        )
        seen["away"] += len(want.away_intervals)
        seen["empty"] += not records
        clusters = oracle_trigger_clusters(triggers)
        seen["clipped_cluster"] += bool(records) and any(
            hi < before.start or lo >= before.start + len(records) * MS_PER_MINUTE
            for lo, hi in clusters
        )
    assert all(count >= 10 for count in seen.values()), sorted(seen.items())


def test_permuting_room_dict_order_never_changes_the_oracle():
    # the frame has no order; the oracle's dict order must not matter either
    rng = np.random.default_rng(7)
    for seed in range(200):
        records, triggers = random_records(np.random.default_rng(seed))
        config = CONFIGS[seed % len(CONFIGS)]
        want = oracle_detect_not_at_home(oracle_classify_timeline(records, config), triggers, config)
        for ev in records:
            items = list(ev.rooms.items())
            rng.shuffle(items)
            ev.rooms = dict(items)
        again = oracle_detect_not_at_home(oracle_classify_timeline(records, config), triggers, config)
        assert [repr(e) for e in again.entries] == [repr(e) for e in want.entries]
        assert again.away_intervals == want.away_intervals


def test_interior_before_the_window_is_not_read_from_its_end():
    # both clusters lie before the window: the interior is empty, and a
    # negative stop must not wrap round to the busy minutes at the end
    config = PipelineConfig()
    start = 1_000 * MS_PER_MINUTE
    records = [MinuteEvidence(start + m * MS_PER_MINUTE, False) for m in range(10)]
    records[-1].other_motion_triggers = 1
    triggers = np.array([start - 30 * MS_PER_MINUTE, start - 20 * MS_PER_MINUTE])
    want = oracle_detect_not_at_home(oracle_classify_timeline(records, config), triggers, config)
    got = detect_not_at_home(classify_timeline(frame_of(records), config), triggers, config)
    assert want.away_intervals == [(int(triggers[0]), int(triggers[1]))]
    assert_same_timeline(got, want)


@pytest.mark.parametrize(
    "triggers",
    [
        [],
        [5_000],
        [5_000, 5_000, 5_000],  # equal timestamps
        [0, 10_000, 20_000, 30_001],  # gaps of exactly the cluster gap, then one over
        [30_001, 0, 20_000, 10_000, 10_000],  # unsorted
        [100, 100 + CLUSTER_GAP_MS + 1, 100 + 2 * CLUSTER_GAP_MS + 1],
        [-40_000, -30_000, 7 * MS_PER_MINUTE, 7 * MS_PER_MINUTE],
    ],
)
def test_trigger_clusters_equal_the_oracle(triggers):
    ts = np.array(triggers, dtype=np.int64)
    got = _trigger_clusters(ts)
    assert got == oracle_trigger_clusters(ts)
    assert all(type(t) is int for cluster in got for t in cluster)


def test_trigger_clusters_on_random_triggers():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        ts = rng.integers(0, 40 * CLUSTER_GAP_MS, size=int(rng.integers(0, 40)))
        ts = np.concatenate([ts, ts[: len(ts) // 3] + CLUSTER_GAP_MS])
        assert _trigger_clusters(ts) == oracle_trigger_clusters(ts)
