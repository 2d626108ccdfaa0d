"""Cross-validation: the two engines must agree on scaling direction.

The analytical interval model collects the dataset; the discrete-event
engine is the independent check. They share bottleneck physics but
differ in schedule dynamics, so we assert *qualitative* agreement: for
every archetype and every axis, the sign of the end-to-end response
matches (rising, flat, or falling, with a tolerance band).
"""

import pytest

from repro.gpu import GpuSimulator, HardwareConfig
from repro.kernels import ARCHETYPE_BUILDERS

INTERVAL = GpuSimulator("interval")
EVENT = GpuSimulator("event")

#: Gains within [1/BAND, BAND] count as "flat" for direction purposes.
BAND = 1.25

AXES = {
    "cu": [HardwareConfig(c, 1000, 1250) for c in (4, 44)],
    "engine": [HardwareConfig(44, e, 1250) for e in (200, 1000)],
    "memory": [HardwareConfig(44, 1000, m) for m in (150, 1250)],
}


def direction(gain: float) -> int:
    if gain > BAND:
        return 1
    if gain < 1.0 / BAND:
        return -1
    return 0


@pytest.mark.parametrize("kind", sorted(ARCHETYPE_BUILDERS))
@pytest.mark.parametrize("axis", sorted(AXES))
def test_engines_agree_on_axis_direction(kind, axis):
    # Smaller grids keep the event engine fast without changing the
    # direction of any response.
    kwargs = {}
    if kind not in ("limited_parallelism", "tiny"):
        kwargs["global_size"] = 1 << 16
    kernel = ARCHETYPE_BUILDERS[kind](f"{kind}_x", suite="probe", **kwargs)
    low, high = AXES[axis]

    interval_gain = (
        INTERVAL.performance(kernel, high) / INTERVAL.performance(kernel, low)
    )
    event_gain = (
        EVENT.performance(kernel, high) / EVENT.performance(kernel, low)
    )

    di, de = direction(interval_gain), direction(event_gain)
    # Exact class match, or one engine borderline-flat while the other
    # sees a mild trend — never opposite signs.
    assert di * de >= 0, (
        f"{kind}/{axis}: interval gain {interval_gain:.2f} vs "
        f"event gain {event_gain:.2f}"
    )
