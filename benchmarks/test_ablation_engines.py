"""Ablation — analytical vs discrete-event timing engine.

DESIGN.md commits to cross-validating the fast analytical engine (used
for the 237,897-point sweep) against the workgroup-granularity event
engine on scaling *shape*. This bench times both engines on the same
kernel sample and asserts their axis-response agreement at paper
endpoints.
"""

from repro.gpu import GpuSimulator, HardwareConfig
from repro.suites import all_kernels

ENDPOINTS = [
    (HardwareConfig(4, 1000, 1250), HardwareConfig(44, 1000, 1250)),
    (HardwareConfig(44, 200, 1250), HardwareConfig(44, 1000, 1250)),
    (HardwareConfig(44, 1000, 150), HardwareConfig(44, 1000, 1250)),
]

#: One kernel per suite keeps the event engine's runtime modest.
def sample_kernels():
    seen = {}
    for kernel in all_kernels():
        seen.setdefault(kernel.suite, kernel)
    return list(seen.values())


def gains(simulator, kernels):
    result = []
    for kernel in kernels:
        for low, high in ENDPOINTS:
            result.append(
                simulator.performance(kernel, high)
                / simulator.performance(kernel, low)
            )
    return result


def test_engine_agreement_ablation(benchmark):
    kernels = sample_kernels()
    interval = GpuSimulator("interval")
    event = GpuSimulator("event")

    interval_gains = gains(interval, kernels)
    event_gains = benchmark.pedantic(
        gains, args=(event, kernels), rounds=1, iterations=1
    )

    disagreements = 0
    for ig, eg in zip(interval_gains, event_gains):
        rising_i, rising_e = ig > 1.25, eg > 1.25
        falling_i, falling_e = ig < 0.8, eg < 0.8
        if (rising_i and falling_e) or (falling_i and rising_e):
            disagreements += 1
    print(f"\nengines compared on {len(interval_gains)} axis responses, "
          f"{disagreements} sign disagreements")
    # The engines may differ in magnitude but never flip a response.
    assert disagreements == 0
