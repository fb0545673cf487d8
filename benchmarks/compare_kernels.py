"""The synthetic household whose activity specs the benchmark replays.

`household()` is the spec list of the `household-600d` workload:
`pipebench/workloads.py` imports it from this file, and `pipebench/run.py`
checks that this file exists before it runs.
"""

from habitminer.synth import ActivitySpec


def household(days_hint):
    activities = [
        ("breakfast", "kitchen", ("stove", "toaster", "fridge", "kettle"), 390),
        ("shower", "bathroom", ("heater", "shower", "fan"), 450),
        ("lunch", "kitchen", ("microwave", "sink", "hob"), 720),
        ("tv", "livingroom", ("tv", "lamp", "console"), 1200),
        ("bed", "bedroom", ("lights", "alarm", "blind"), 1365),
    ]
    specs = []
    for name, region, mandatory, start in activities:
        optional = tuple((f"{name}_x{j}", 0.05 + 0.04 * j) for j in range(5))
        specs.append(
            ActivitySpec(name, region, mandatory, optional=optional,
                         start_mean=start, start_jitter=12, duration=(30, 45),
                         daily_probability=0.95)
        )
    return specs
