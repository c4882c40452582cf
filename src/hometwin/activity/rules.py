"""The deterministic rule cascade that names one activity per minute, plus the
post-hoc not-at-home pass.

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

Not-at-home is decided retrospectively: a silent stretch bracketed by doorway
trigger clusters with no interior activity becomes NotAtHome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import PipelineConfig
from ..core import MS_PER_MINUTE, ActivityLabel, PostureLabel, UNKNOWN_ACTIVITY
from ..layout import RoomRole
from .evidence import MinuteEvidence

# fixed tie-break order for equal scores
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


@dataclass
class TimelineEntry:
    minute_start: int
    label: int  # ActivityLabel value or UNKNOWN_ACTIVITY
    carried: bool = False  # True when rule 5 repeated the previous label
    winning_room: RoomRole | None = None
    score: float = 0.0

    @property
    def label_name(self) -> str:
        if self.label == UNKNOWN_ACTIVITY:
            return "UNKNOWN"
        return ActivityLabel(self.label).name


@dataclass
class ActivityTimeline:
    start: int
    entries: list[TimelineEntry]
    evidence: list[MinuteEvidence]
    away_intervals: list[tuple[int, int]] = field(default_factory=list)

    def labels(self) -> list[int]:
        return [e.label for e in self.entries]

    def to_csv(self) -> str:
        rows = ["minute_start,label,winning_room,score"]
        for e in self.entries:
            room = e.winning_room.value if e.winning_room else ""
            rows.append(f"{e.minute_start},{e.label_name},{room},{e.score:.4f}")
        return "\n".join(rows) + "\n"


def classify_minute(
    ev: MinuteEvidence, config: PipelineConfig, previous: int | None = None
) -> TimelineEntry:
    """Pure rule cascade; every carried/unknown decision is recorded.

    `previous` is the label of the minute before (rule 4), None for the
    first minute.  Reads k_rest, s_vis and w_night from the config; each
    room's activity gate is its own `theta_active`."""
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
    # descending score; _ROLE_ORDER position breaks exact ties deterministically
    candidates.sort(key=lambda c: (-c[0], _ROLE_ORDER.index(c[1])))
    for score, role, room in candidates:
        if role is RoomRole.BEDROOM and room.majority_posture is not PostureLabel.LIE_DOWN:
            continue  # no bedroom activity class besides sleeping: yield to next room
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


def classify_timeline(
    evidence: list[MinuteEvidence], config: PipelineConfig
) -> ActivityTimeline:
    """Sequential classification with single-minute carry-forward."""
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
    return ActivityTimeline(start, entries, list(evidence))


CLUSTER_GAP_MS = 10_000  # doorway triggers closer than this form one passage


def _trigger_clusters(trigger_ts) -> list[tuple[int, int]]:
    """(first, last) timestamp of each doorway trigger cluster."""
    clusters: list[tuple[int, int]] = []
    for t in sorted(int(v) for v in trigger_ts):
        if clusters and t - clusters[-1][1] <= CLUSTER_GAP_MS:
            clusters[-1] = (clusters[-1][0], t)
        else:
            clusters.append((t, t))
    return clusters


def detect_not_at_home(
    timeline: ActivityTimeline,
    doorway_trigger_ts,
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

    clusters = _trigger_clusters(doorway_trigger_ts)
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
        # relabel minutes that are majority-away, mirroring the truth mapping
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

    return ActivityTimeline(timeline.start, new_entries, evidence, intervals)
