import numpy as np

from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, ActivityLabel, PostureLabel, UNKNOWN_ACTIVITY
from hometwin.activity.rules import classify_timeline, detect_not_at_home
from hometwin.layout import RoomRole

from test_rules_oracle import MinuteEvidence, RoomEvidence, frame_of

PARAMS = PipelineConfig()
BEDROOM = list(RoomRole).index(RoomRole.BEDROOM)
LIVING = list(RoomRole).index(RoomRole.LIVING_ROOM)


def room(posture=PostureLabel.NOT_HERE, index=0.15, multi=0, theta=0.35):
    return RoomEvidence(
        majority_posture=posture,
        mean_motion_index=index,
        multi_blob_windows=multi,
        theta_active=theta,
    )


def record(minute=0, night=False, rest=0, door=0, other=0, light=0.0, rooms=None):
    return MinuteEvidence(
        minute_start=minute * MS_PER_MINUTE,
        is_night=night,
        rooms=rooms or {},
        restroom_triggers=rest,
        doorway_triggers=door,
        other_motion_triggers=other,
        light_step_max=light,
    )


def evidence(**kwargs):
    """A one-minute frame."""
    return frame_of([record(**kwargs)])


def classify(frame, config=PARAMS):
    """The last minute's entry."""
    return classify_timeline(frame, config).entries[-1]


SLEEPING_MINUTE = record(minute=-1, night=True, rooms={RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.5)})


def after(previous, **kwargs):
    """A two-minute frame: a minute the cascade labels `previous` (Sleeping
    or Dining), then the minute of `kwargs`."""
    if previous == ActivityLabel.SLEEPING.value:
        first = SLEEPING_MINUTE
    else:
        assert previous == ActivityLabel.DINING_ROOM_ACTIVITY.value
        first = record(minute=-1, rooms={RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8)})
    frame = frame_of([first, record(**kwargs)])
    assert classify_timeline(frame, PARAMS).entries[0].label == previous
    return frame


def rng_evidence(rng):
    """A random but structurally valid one-minute frame."""
    rooms = {}
    for role in (RoomRole.BEDROOM, RoomRole.KITCHEN, RoomRole.DINING_ROOM, RoomRole.LIVING_ROOM):
        rooms[role] = room(
            posture=PostureLabel(int(rng.integers(0, 5))),
            index=float(rng.uniform(0, 1.2)),
            multi=int(rng.integers(0, 13)),
        )
    return evidence(
        minute=int(rng.integers(0, 1440)),
        night=bool(rng.integers(0, 2)),
        rest=int(rng.integers(0, 3)),  # below k_rest so rule 1 does not mask others
        rooms=rooms,
    )


class TestRestroomDominance:
    def test_triggers_force_restroom(self):
        ev = evidence(
            rest=3,
            rooms={
                RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.9),
            },
        )
        assert classify(ev).label == ActivityLabel.RESTROOM.value

    def test_dominance_on_randomized_evidence(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ev = rng_evidence(rng)
            ev.restroom_triggers[0] = int(rng.integers(3, 40))
            assert classify(ev).label == ActivityLabel.RESTROOM.value

    def test_below_k_rest_does_not_fire_alone(self):
        ev = evidence(rest=2)
        assert classify(ev).label == UNKNOWN_ACTIVITY


class TestVisitors:
    def test_sustained_multi_blob(self):
        ev = evidence(
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=6)}
        )
        assert classify(ev).label == ActivityLabel.VISITORS.value

    def test_brief_multi_blob_ignored(self):
        ev = evidence(
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=3)}
        )
        assert classify(ev).label == ActivityLabel.LIVING_ROOM_ACTIVITY.value

    def test_restroom_outranks_visitors(self):
        ev = evidence(
            rest=5,
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=12)},
        )
        assert classify(ev).label == ActivityLabel.RESTROOM.value


class TestRoomPriority:
    def test_highest_score_wins(self):
        ev = evidence(
            rooms={
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.5),
                RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8),
            }
        )
        entry = classify(ev)
        assert entry.label == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert entry.winning_room is RoomRole.DINING_ROOM

    def test_below_threshold_not_candidate(self):
        ev = evidence(
            rooms={RoomRole.KITCHEN: room(PostureLabel.STAND, 0.2)}
        )
        assert classify(ev).label == UNKNOWN_ACTIVITY

    def test_not_here_posture_not_candidate(self):
        ev = evidence(
            rooms={RoomRole.KITCHEN: room(PostureLabel.NOT_HERE, 0.9)}
        )
        assert classify(ev).label == UNKNOWN_ACTIVITY

    def test_per_room_threshold_honored(self):
        weak = room(PostureLabel.SIT, 0.28, theta=0.24)  # high-resolution sensor gate
        ev = evidence(rooms={RoomRole.LIVING_ROOM: weak})
        assert classify(ev).label == ActivityLabel.LIVING_ROOM_ACTIVITY.value

    def test_night_boost_prefers_bedroom(self):
        rooms = {
            RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.5),
            RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8),
        }
        day = classify(evidence(night=False, rooms=dict(rooms)))
        night = classify(evidence(night=True, rooms=dict(rooms)))
        assert day.label == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert night.label == ActivityLabel.SLEEPING.value  # 0.5 x 2.0 > 0.8

    def test_night_boost_monotonic(self):
        # within the night window, raising the bedroom index never flips the
        # decision away from a winning bedroom
        rng = np.random.default_rng(1)
        for _ in range(1000):
            ev = rng_evidence(rng)
            ev.restroom_triggers[0] = 0
            ev.is_night[0] = True
            ev.majority_posture[0, BEDROOM] = PostureLabel.LIE_DOWN.value
            ev.multi_blob_windows[0, LIVING] = 0
            if classify(ev).winning_room is not RoomRole.BEDROOM:
                continue
            ev.mean_motion_index[0, BEDROOM] += float(rng.uniform(0.01, 1.0))
            assert classify(ev).winning_room is RoomRole.BEDROOM

    def test_bedroom_without_lie_down_falls_through(self):
        ev = evidence(
            rooms={
                RoomRole.BEDROOM: room(PostureLabel.SIT, 1.0),
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.5),
            }
        )
        entry = classify(ev)
        assert entry.label == ActivityLabel.KITCHEN_ACTIVITY.value

    def test_exact_tie_broken_by_role_order(self):
        ev = evidence(
            rooms={
                RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.6),
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.6),
            }
        )
        assert classify(ev).winning_room is RoomRole.KITCHEN


class TestStillnessRule:
    def test_still_lie_down_continues_sleep(self):
        ev = after(ActivityLabel.SLEEPING.value, rooms={RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.2)})
        entry = classify(ev)
        assert entry.label == ActivityLabel.SLEEPING.value and not entry.carried
        assert entry.winning_room is RoomRole.BEDROOM and entry.score == 0.2

    def test_still_lie_down_without_sleep_history_is_unknown(self):
        ev = after(
            ActivityLabel.DINING_ROOM_ACTIVITY.value,
            rooms={RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.2)},
        )
        assert classify(ev).carried  # the cascade said Unknown; rule 5 carried
        assert classify(ev, PARAMS.override(carry_forward_max=0)).label == UNKNOWN_ACTIVITY


class TestCarryForward:
    def test_single_gap_bridged_then_unknown(self):
        rooms = {RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8)}
        seq = [
            record(minute=0, rooms=dict(rooms)),
            record(minute=1),
            record(minute=2),
            record(minute=3),
        ]
        timeline = classify_timeline(frame_of(seq), PARAMS)
        labels = [e.label for e in timeline.entries]
        assert labels[0] == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert labels[1] == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert timeline.entries[1].carried
        assert labels[2] == UNKNOWN_ACTIVITY
        assert labels[3] == UNKNOWN_ACTIVITY


class TestNotAtHome:
    def make_timeline(self, n=120, door_minutes=(10, 100), active=(), triggers_at=()):
        seq = []
        for m in range(n):
            rooms = {}
            if m in active:
                rooms[RoomRole.DINING_ROOM] = room(PostureLabel.SIT, 0.8)
            seq.append(
                record(
                    minute=m,
                    door=3 if m in door_minutes else 0,
                    other=1 if m in triggers_at else 0,
                    rooms=rooms,
                )
            )
        timeline = classify_timeline(frame_of(seq), PARAMS)
        trigger_ts = [m * MS_PER_MINUTE + 30_000 for m in door_minutes]
        return detect_not_at_home(timeline, np.array(trigger_ts), PARAMS)

    def test_silent_bracketed_interval_relabeled(self):
        out = self.make_timeline()
        labels = [e.label for e in out.entries]
        assert all(
            label == ActivityLabel.NOT_AT_HOME.value for label in labels[11:100]
        )
        assert len(out.away_intervals) == 1
        lo, hi = out.away_intervals[0]
        assert lo == 10 * MS_PER_MINUTE + 30_000
        assert hi == 100 * MS_PER_MINUTE + 30_000

    def test_intervening_activity_blocks_relabel(self):
        out = self.make_timeline(active=(50,))
        assert out.away_intervals == []

    def test_intervening_motion_trigger_blocks_relabel(self):
        out = self.make_timeline(triggers_at=(60,))
        assert out.away_intervals == []

    def test_short_interval_ignored(self):
        out = self.make_timeline(door_minutes=(10, 13))
        assert out.away_intervals == []

    def test_never_relabels_active_thermal_minutes(self):
        # soundness: any minute with an index at or above threshold survives
        rng = np.random.default_rng(3)
        out = self.make_timeline(active=tuple(range(40, 45)))
        for i in range(40, 45):
            assert out.entries[i].label != ActivityLabel.NOT_AT_HOME.value
