import numpy as np

from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, ActivityLabel, PostureLabel, UNKNOWN_ACTIVITY
from hometwin.activity.evidence import MinuteEvidence, RoomEvidence
from hometwin.activity.rules import (
    classify_minute,
    classify_timeline,
    detect_not_at_home,
)
from hometwin.layout import RoomRole

PARAMS = PipelineConfig()


def room(posture=PostureLabel.NOT_HERE, index=0.15, multi=0):
    return RoomEvidence(
        majority_posture=posture,
        mean_motion_index=index,
        multi_blob_windows=multi,
        theta_active=0.35,
    )


def evidence(minute=0, night=False, rest=0, door=0, other=0, light=0.0, rooms=None):
    ev = MinuteEvidence(
        minute_start=minute * MS_PER_MINUTE,
        is_night=night,
        restroom_triggers=rest,
        doorway_triggers=door,
        other_motion_triggers=other,
        light_step_max=light,
    )
    ev.rooms = rooms or {}
    return ev


def rng_evidence(rng):
    """A random but structurally valid evidence record."""
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
        assert classify_minute(ev, PARAMS).label == ActivityLabel.RESTROOM.value

    def test_dominance_on_randomized_evidence(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ev = rng_evidence(rng)
            ev.restroom_triggers = int(rng.integers(3, 40))
            assert classify_minute(ev, PARAMS).label == ActivityLabel.RESTROOM.value

    def test_below_k_rest_does_not_fire_alone(self):
        ev = evidence(rest=2)
        assert classify_minute(ev, PARAMS).label == UNKNOWN_ACTIVITY


class TestVisitors:
    def test_sustained_multi_blob(self):
        ev = evidence(
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=6)}
        )
        assert classify_minute(ev, PARAMS).label == ActivityLabel.VISITORS.value

    def test_brief_multi_blob_ignored(self):
        ev = evidence(
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=3)}
        )
        assert classify_minute(ev, PARAMS).label == ActivityLabel.LIVING_ROOM_ACTIVITY.value

    def test_restroom_outranks_visitors(self):
        ev = evidence(
            rest=5,
            rooms={RoomRole.LIVING_ROOM: room(PostureLabel.SIT, 0.5, multi=12)},
        )
        assert classify_minute(ev, PARAMS).label == ActivityLabel.RESTROOM.value


class TestRoomPriority:
    def test_highest_score_wins(self):
        ev = evidence(
            rooms={
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.5),
                RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8),
            }
        )
        entry = classify_minute(ev, PARAMS)
        assert entry.label == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert entry.winning_room is RoomRole.DINING_ROOM

    def test_below_threshold_not_candidate(self):
        ev = evidence(
            rooms={RoomRole.KITCHEN: room(PostureLabel.STAND, 0.2)}
        )
        assert classify_minute(ev, PARAMS).label == UNKNOWN_ACTIVITY

    def test_not_here_posture_not_candidate(self):
        ev = evidence(
            rooms={RoomRole.KITCHEN: room(PostureLabel.NOT_HERE, 0.9)}
        )
        assert classify_minute(ev, PARAMS).label == UNKNOWN_ACTIVITY

    def test_per_room_threshold_honored(self):
        weak = room(PostureLabel.SIT, 0.28)
        weak.theta_active = 0.24  # high-resolution sensor gate
        ev = evidence(rooms={RoomRole.LIVING_ROOM: weak})
        assert classify_minute(ev, PARAMS).label == ActivityLabel.LIVING_ROOM_ACTIVITY.value

    def test_night_boost_prefers_bedroom(self):
        rooms = {
            RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.5),
            RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8),
        }
        day = classify_minute(evidence(night=False, rooms=dict(rooms)), PARAMS)
        night = classify_minute(evidence(night=True, rooms=dict(rooms)), PARAMS)
        assert day.label == ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert night.label == ActivityLabel.SLEEPING.value  # 0.5 x 2.0 > 0.8

    def test_night_boost_monotonic(self):
        # within the night window, raising the bedroom index never flips the
        # decision away from a winning bedroom
        rng = np.random.default_rng(1)
        for _ in range(1000):
            ev = rng_evidence(rng)
            prev = int(rng.integers(0, 8))
            ev.restroom_triggers = 0
            ev.is_night = True
            bedroom = ev.rooms[RoomRole.BEDROOM]
            bedroom.majority_posture = PostureLabel.LIE_DOWN
            living = ev.rooms[RoomRole.LIVING_ROOM]
            living.multi_blob_windows = 0
            first = classify_minute(ev, PARAMS, prev)
            if first.winning_room is not RoomRole.BEDROOM:
                continue
            bedroom.mean_motion_index += float(rng.uniform(0.01, 1.0))
            again = classify_minute(ev, PARAMS, prev)
            assert again.winning_room is RoomRole.BEDROOM

    def test_bedroom_without_lie_down_falls_through(self):
        ev = evidence(
            rooms={
                RoomRole.BEDROOM: room(PostureLabel.SIT, 1.0),
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.5),
            }
        )
        entry = classify_minute(ev, PARAMS)
        assert entry.label == ActivityLabel.KITCHEN_ACTIVITY.value

    def test_exact_tie_broken_by_role_order(self):
        ev = evidence(
            rooms={
                RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.6),
                RoomRole.KITCHEN: room(PostureLabel.STAND, 0.6),
            }
        )
        assert classify_minute(ev, PARAMS).winning_room is RoomRole.KITCHEN

    def test_permuting_room_insertion_order_never_changes_output(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            ev = rng_evidence(rng)
            prev = int(rng.integers(0, 8))
            baseline = classify_minute(ev, PARAMS, prev)
            items = list(ev.rooms.items())
            rng.shuffle(items)
            ev.rooms = dict(items)
            assert classify_minute(ev, PARAMS, prev).label == baseline.label


class TestStillnessRule:
    def test_still_lie_down_continues_sleep(self):
        ev = evidence(
            rooms={RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.2)},
        )
        previous = ActivityLabel.SLEEPING.value
        assert classify_minute(ev, PARAMS, previous).label == ActivityLabel.SLEEPING.value

    def test_still_lie_down_without_sleep_history_is_unknown(self):
        ev = evidence(
            rooms={RoomRole.BEDROOM: room(PostureLabel.LIE_DOWN, 0.2)},
        )
        previous = ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert classify_minute(ev, PARAMS, previous).label == UNKNOWN_ACTIVITY


class TestCarryForward:
    def test_single_gap_bridged_then_unknown(self):
        rooms = {RoomRole.DINING_ROOM: room(PostureLabel.SIT, 0.8)}
        seq = [
            evidence(minute=0, rooms=dict(rooms)),
            evidence(minute=1),
            evidence(minute=2),
            evidence(minute=3),
        ]
        timeline = classify_timeline(seq, PARAMS)
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
                evidence(
                    minute=m,
                    door=3 if m in door_minutes else 0,
                    other=1 if m in triggers_at else 0,
                    rooms=rooms,
                )
            )
        timeline = classify_timeline(seq, PARAMS)
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
