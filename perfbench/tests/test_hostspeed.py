"""Host-speed scaling: a sample times NOMINAL_S over the median of the
last few kernel times."""

from fqbench import hostspeed
from fqbench.hostspeed import HostSpeed
from fqbench.stream import Timings


def test_scale_is_nominal_over_the_median_of_the_window():
    speed = HostSpeed(window=3)
    speed._times.extend([2e-3, 4e-3, 1e-3, 8e-3])  # window keeps the last 3
    assert speed.scale() == hostspeed.NOMINAL_S / 4e-3


def test_first_scale_samples_the_kernel():
    speed = HostSpeed()
    assert speed.scale() > 0
    assert len(speed.history) == 1


def test_timings_keep_raw_and_scaled_samples():
    speed = HostSpeed(window=1)
    speed._times.append(hostspeed.NOMINAL_S / 2)  # a host twice as fast
    timings = Timings(speed)
    timings.add("query", 0.010)
    timings.add("ingest", 0.030)
    assert timings.raw["query"] == [0.010]
    assert timings.scaled["query"] == [0.020]
    assert abs(timings.busy_s() - 0.080) < 1e-12
