"""The deterministic rule cascade that names one activity per minute, plus the
post-hoc not-at-home pass, both over the columns of the minute evidence.

Cascade order:

1. Restroom motion triggers dominate -- the binary signal is robust and
   toileting matters clinically.
2. A sustained multi-body blob count in the living room means visitors.
3. Among thermal rooms whose majority posture shows somebody present AND
   whose motion index clears the activity threshold, the highest score
   (motion index, bedroom boosted at night) wins; the bedroom
   maps to Sleeping only on a lie-down majority, otherwise it yields to the
   next-best room.
4. A still lie-down in the bedroom continues Sleeping if the previous minute
   was Sleeping.
5. Otherwise the previous label carries forward once, then Unknown.

Rules 1-3 read one minute each and run as masks over every minute at once;
rules 4 and 5 read the previous minute's label and run in one loop over the
minutes rules 1-3 leave Unknown.  The timeline is four `[n]` columns: label,
carried, winning role and score.

Not-at-home is decided retrospectively: a silent stretch bracketed by doorway
trigger clusters with no interior activity becomes NotAtHome, and its minutes
get all four columns of a bare NotAtHome minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import PipelineConfig
from ..core import ACTIVITY_NAMES, MS_PER_MINUTE, ActivityLabel, PostureLabel, UNKNOWN_ACTIVITY
from ..layout import RoomRole
from .evidence import MinuteEvidence

# fixed tie-break order for equal scores
_ROLE_ORDER = [
    RoomRole.BEDROOM,
    RoomRole.KITCHEN,
    RoomRole.DINING_ROOM,
    RoomRole.LIVING_ROOM,
]
_COLUMNS = [list(RoomRole).index(role) for role in _ROLE_ORDER]  # their evidence columns
_BEDROOM = _ROLE_ORDER.index(RoomRole.BEDROOM)  # position in _ROLE_ORDER
_LIVING = list(RoomRole).index(RoomRole.LIVING_ROOM)  # evidence column
_RESTROOM = list(RoomRole).index(RoomRole.RESTROOM)

_ROLE_ACTIVITY = {
    RoomRole.BEDROOM: ActivityLabel.SLEEPING,
    RoomRole.KITCHEN: ActivityLabel.KITCHEN_ACTIVITY,
    RoomRole.DINING_ROOM: ActivityLabel.DINING_ROOM_ACTIVITY,
    RoomRole.LIVING_ROOM: ActivityLabel.LIVING_ROOM_ACTIVITY,
}


@dataclass
class TimelineEntry:
    """One minute as a record: the transitional `ActivityTimeline.entries`."""

    minute_start: int
    label: int  # ActivityLabel value or UNKNOWN_ACTIVITY
    carried: bool = False  # True when rule 5 repeated the previous label
    winning_room: RoomRole | None = None
    score: float = 0.0


@dataclass(eq=False)
class ActivityTimeline:
    """The activity of each of n minutes as `[n]` columns beside the minute
    evidence they were decided from; minute starts are the evidence's."""

    start: int
    evidence: MinuteEvidence
    label: np.ndarray  # int64: ActivityLabel value or UNKNOWN_ACTIVITY
    carried: np.ndarray  # bool: rule 5 repeated the previous label
    winning_role: np.ndarray  # int8: index into list(RoomRole), -1 for none
    score: np.ndarray  # float64
    away_intervals: list[tuple[int, int]] = field(default_factory=list)

    def _rows(self):
        """(minute start, label, carried, room or None, score) of each minute."""
        rooms = [*RoomRole, None]  # role -1 is None
        return zip(
            self.evidence.minute_start.tolist(), self.label.tolist(), self.carried.tolist(),
            [rooms[r] for r in self.winning_role.tolist()], self.score.tolist(),
        )

    @property
    def entries(self) -> list[TimelineEntry]:
        """Transitional: one record per minute, built on each access."""
        return [TimelineEntry(*row) for row in self._rows()]

    def labels(self) -> list[int]:
        return self.label.tolist()

    def to_csv(self) -> str:
        rows = ["minute_start,label,winning_room,score"]
        for m, lab, _, room, sc in self._rows():
            rows.append(f"{m},{ACTIVITY_NAMES[lab]},{room.value if room else ''},{sc:.4f}")
        return "\n".join(rows) + "\n"


def classify_timeline(evidence: MinuteEvidence, config: PipelineConfig) -> ActivityTimeline:
    """The cascade over every minute; every carried/unknown decision is
    recorded.  Reads k_rest, s_vis, w_night and carry_forward_max from the
    config; each role's activity gate is its `theta_active`."""
    n = len(evidence)
    seen = evidence.seen[:, _COLUMNS]
    posture = evidence.majority_posture[:, _COLUMNS]
    motion = evidence.mean_motion_index[:, _COLUMNS]
    theta = evidence.theta_active[_COLUMNS]
    living_blobs = evidence.multi_blob_windows[:, _LIVING]
    lie_down = posture[:, _BEDROOM] == PostureLabel.LIE_DOWN.value

    restroom = evidence.restroom_triggers >= config.k_rest  # rule 1
    visitors = evidence.seen[:, _LIVING] & (living_blobs >= config.s_vis)  # rule 2
    # rule 3; a bedroom without a lie-down majority yields to the next room,
    # having no activity class besides sleeping
    eligible = seen & (posture != PostureLabel.NOT_HERE.value) & (motion >= theta)
    eligible[:, _BEDROOM] &= lie_down
    score = motion.copy()
    score[:, _BEDROOM] *= np.where(evidence.is_night, config.w_night, 1.0)
    best = np.where(eligible, score, -np.inf).max(axis=1, initial=-np.inf)
    # the first top score in _ROLE_ORDER breaks exact ties
    winner = np.argmax(eligible & (score == best[:, None]), axis=1)
    # each minute's winner under rules 1-3, an index into the tables below (-1: none)
    rules = [restroom, visitors, eligible.any(axis=1)]
    rule = np.select(rules, [0, 1, 2 + winner], -1)
    roles = np.array([_RESTROOM, _LIVING, *_COLUMNS, -1], dtype=np.int8)
    labels = [ActivityLabel.RESTROOM.value, ActivityLabel.VISITORS.value]
    labels += [_ROLE_ACTIVITY[role].value for role in _ROLE_ORDER] + [UNKNOWN_ACTIVITY]
    label = np.array(labels, dtype=np.int64)[rule]
    winning_role = roles[rule]
    scores = np.select(
        rules, [evidence.restroom_triggers, living_blobs, score[np.arange(n), winner]], 0.0
    )
    carried = np.zeros(n, dtype=bool)
    # rule 4's stillness, which continues a previous Sleeping
    still = seen[:, _BEDROOM] & lie_down & (motion[:, _BEDROOM] < theta[_BEDROOM])

    run = 0  # carried minutes just before minute i
    for i in np.flatnonzero(rule < 0).tolist():
        previous = int(label[i - 1]) if i else None
        run = run if i and carried[i - 1] else 0
        if still[i] and previous == ActivityLabel.SLEEPING.value:  # rule 4
            label[i], winning_role[i], scores[i] = previous, _COLUMNS[_BEDROOM], motion[i, _BEDROOM]
        elif previous not in (None, UNKNOWN_ACTIVITY) and run < config.carry_forward_max:
            label[i], carried[i] = previous, True  # rule 5: carry the previous label, then Unknown
            run += 1
    start = int(evidence.minute_start[0]) if n else 0
    return ActivityTimeline(start, evidence, label, carried, winning_role, scores)


CLUSTER_GAP_MS = 10_000  # doorway triggers closer than this form one passage


def _trigger_clusters(trigger_ts: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) timestamp of each doorway trigger cluster."""
    ts = np.sort(np.asarray(trigger_ts, dtype=np.int64))
    if not len(ts):
        return []
    cut = np.flatnonzero(np.diff(ts) > CLUSTER_GAP_MS) + 1
    return list(zip(ts[np.r_[0, cut]].tolist(), ts[np.r_[cut - 1, len(ts) - 1]].tolist()))


def detect_not_at_home(
    timeline: ActivityTimeline,
    doorway_trigger_ts: np.ndarray,
    config: PipelineConfig,
) -> ActivityTimeline:
    """Post-hoc relabeling of silent doorway-bracketed stretches.

    Doorway triggers are grouped into passage clusters; the span between two
    consecutive clusters becomes NotAtHome when every fully interior minute is
    Unknown or merely carried forward, shows zero motion triggers anywhere,
    and has no thermal room at or above the activity threshold.  Spans
    shorter than min_away_min are ignored.  Away interval boundaries are the
    bracketing cluster times, so they track the real exit/entry to seconds.
    """
    ev = timeline.evidence
    n = len(ev)
    start = timeline.start

    active = (ev.seen & (ev.mean_motion_index >= ev.theta_active)).any(axis=1)
    quiet = (
        (ev.doorway_triggers == 0)
        & (ev.restroom_triggers == 0)
        & (ev.other_motion_triggers == 0)
        & ~active
        & ((timeline.label == UNKNOWN_ACTIVITY) | timeline.carried)
    )

    clusters = _trigger_clusters(doorway_trigger_ts)
    intervals: list[tuple[int, int]] = []
    for (_, leave_last), (return_first, _) in zip(clusters, clusters[1:]):
        if return_first - leave_last < config.min_away_min * MS_PER_MINUTE:
            continue
        first_interior = max((leave_last - start) // MS_PER_MINUTE + 1, 0)
        stop = max(min((return_first - start) // MS_PER_MINUTE, n), 0)
        if quiet[first_interior:stop].all():
            intervals.append((leave_last, return_first))

    # relabel minutes that are majority-away, mirroring the truth mapping
    minute_lo = start + MS_PER_MINUTE * np.arange(n, dtype=np.int64)
    away = np.zeros(n, dtype=bool)
    for lo, hi in intervals:
        away |= np.minimum(hi, minute_lo + MS_PER_MINUTE) - np.maximum(lo, minute_lo) >= 30_000
    return ActivityTimeline(
        start, ev, np.where(away, ActivityLabel.NOT_AT_HOME.value, timeline.label),
        timeline.carried & ~away, np.where(away, np.int8(-1), timeline.winning_role),
        np.where(away, 0.0, timeline.score), intervals,
    )
