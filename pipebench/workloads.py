"""The benchmark's three workloads: activity specs, sizes, config and waits.

Every workload trains on `train_days` days generated from its specs with the
run's seed and replays a held-out trace of `heldout_days` days generated from
the same specs with another seed. Each round of a run is one log -> model
build plus three replay passes, so every workload reports every end-to-end
metric; the sizes decide which half dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from compare_kernels import household
from habitminer.relations import AllenRelation
from habitminer.synth import ActivitySpec, SuccessorLink

# The held-out trace is generated with seed + HELDOUT_SEED_OFFSET, another
# random stream than the training trace's for every seed below the offset.
HELDOUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Tuple[ActivitySpec, ...]
    train_days: int
    heldout_days: int
    waits: Dict[str, float]
    # replay-chain plants successor links, so its predictions must save
    # something; the build workloads only need savings inside [0, 1]
    expect_savings: bool


def _kitchen_dense() -> Tuple[ActivitySpec, ...]:
    """Three meals in one region: long kitchen sequences, many patterns."""
    meals = [
        ("breakfast", ("kettle", "toaster", "fridge"), 420, (35, 50)),
        ("lunch", ("microwave", "sink", "hob"), 750, (30, 45)),
        ("dinner", ("oven", "extractor", "dishwasher"), 1110, (45, 60)),
    ]
    specs = [
        ActivitySpec(
            name, "kitchen", mandatory,
            # no optional service sits at the 10% minsup, where whether its
            # patterns are frequent, and so the mining work, would turn on the seed
            optional=tuple((f"{name}_x{j}", p) for j, p in enumerate((0.05, 0.2, 0.3))),
            start_mean=start, start_jitter=15, duration=duration,
            daily_probability=0.95,
        )
        for name, mandatory, start, duration in meals
    ]
    specs.append(
        ActivitySpec("bed", "bedroom", ("lights", "alarm", "blind"),
                     start_mean=1380, start_jitter=15, duration=(20, 30),
                     daily_probability=0.95)
    )
    return tuple(specs)


def _chain() -> Tuple[ActivitySpec, ...]:
    """Morning and evening routines linked by `before` successors."""
    before = AllenRelation.BEFORE
    # name, region, mandatory, start (None: placed only by a predecessor),
    # duration, successors
    routine = [
        ("wake", "bedroom", ("alarm", "lamp", "blind"), 390, (10, 15), [("shower", 0.9)]),
        ("shower", "bathroom", ("heater", "shower", "fan"), None, (15, 25), [("breakfast", 0.9)]),
        ("breakfast", "kitchen", ("kettle", "toaster", "fridge"), None, (20, 30), [("dishes", 0.8)]),
        ("dishes", "kitchen", ("sink", "dishwasher"), None, (10, 15), []),
        ("tv", "livingroom", ("tv", "speaker", "console"), 1200, (60, 90), [("bed", 0.9)]),
        ("bed", "bedroom", ("lights", "bed_heater", "curtain"), None, (10, 15), []),
    ]
    return tuple(
        ActivitySpec(
            name, region, mandatory,
            optional=tuple((f"{name}_x{j}", 0.1 + 0.1 * j) for j in range(2)),
            start_mean=start or 0, start_jitter=10, duration=duration,
            daily_probability=0.0 if start is None else 0.95,
            successors=tuple(SuccessorLink(t, before, p) for t, p in successors),
        )
        for name, region, mandatory, start, duration, successors in routine
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "household-600d", tuple(household(600)), train_days=600, heldout_days=90,
            waits={"kettle": 3.0, "stove": 5.0, "heater": 10.0, "shower": 2.0,
                   "microwave": 2.0, "tv": 1.0, "lights": 1.0},
            expect_savings=False,
        ),
        Workload(
            "kitchen-dense", _kitchen_dense(), train_days=150, heldout_days=200,
            waits={"kettle": 3.0, "oven": 10.0, "hob": 4.0, "dishwasher": 5.0,
                   "lights": 1.0},
            expect_savings=False,
        ),
        Workload(
            "replay-chain", _chain(), train_days=150, heldout_days=120,
            waits={"heater": 10.0, "shower": 2.0, "kettle": 3.0, "toaster": 2.0,
                   "sink": 1.0, "dishwasher": 5.0, "tv": 1.0, "bed_heater": 8.0,
                   "lights": 1.0},
            expect_savings=True,
        ),
    )
}
