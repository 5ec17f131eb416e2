"""A clock in reference seconds: wall time corrected for the machine's speed.

On a shared host the CPU's throughput changes in phases: the same
single-threaded loop runs up to 1.7 times slower for seconds or minutes at
a time, and process CPU time slows with it. A timer signal therefore runs a
small fixed probe every `period` seconds while the measured code runs, and
each stretch of wall time between two probes is scaled by how long the
probes around it took:

    reference seconds = wall seconds * REF_PROBE_S / probe time

so a stretch that ran at half speed counts half. Time spent inside the
probes counts as zero, so the probes add no time of their own. A change
that makes the program do more work still shows in full; only the
machine's speed at the moment is taken out.

The probe mixes interpreter work with small numpy calls, as a sweep does;
on the baseline machine it followed the speed of whole sweeps better than
either kind of work alone. REF_PROBE_S is about the probe's time when the
host is quiet, so reference seconds read close to wall seconds then.
"""

import bisect
import signal
import statistics
import time

import numpy as np

REF_PROBE_S = 350e-6
_MATRIX = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24)


def probe():
    """Run the fixed probe once -> (start, end) in perf_counter seconds."""
    t0 = time.perf_counter()
    s = 0
    for k in range(2000):
        s += k * k
    x = _MATRIX
    for _ in range(30):
        x = np.tanh(x @ _MATRIX) + _MATRIX[0]
    return t0, time.perf_counter()


class ProbeSampler:
    """Runs the probe on SIGALRM every `period` seconds of wall time.

    Python runs the handler in the main thread between bytecodes, so a
    probe waits for a long C call to return; it then measures the speed
    right after it. Main-thread, single-sampler use only.
    """

    def __init__(self, period: float):
        self.period = period
        self.probes = []
        self._old = None

    def _handler(self, signum, frame):
        self.probes.append(probe())

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        self.probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())


class ReferenceClock:
    """Maps perf_counter times to reference seconds, from recorded probes.

    `probes` are (start, end) pairs in time order. The stretch between
    probe i and probe i + 1 is scaled by the mean speed REF_PROBE_S / time
    of the probes i - 3 .. i + 4. The speed can flip between a fast and a
    slow state several times a second, so speeds are averaged rather than
    a median taken, which would pick one state. A probe slower than twice
    the window's median (an interrupt hit it) counts as twice the median.
    Times before the first probe or after the last are scaled by the
    nearest stretch's speed.
    """

    def __init__(self, probes):
        if not probes:
            raise ValueError("no probes recorded")
        self.starts = [s for s, _ in probes]
        self.ends = [e for _, e in probes]
        durations = [e - s for s, e in probes]
        n = len(probes)
        self.scale = []  # reference seconds per wall second after probe i
        for i in range(n):
            window = durations[max(0, i - 3):min(n, i + 5)]
            cap = 2 * statistics.median(window)
            self.scale.append(statistics.fmean(
                REF_PROBE_S / min(d, cap) for d in window))
        # reference time at the end of each probe
        self.base = [0.0]
        for i in range(n - 1):
            gap = max(0.0, self.starts[i + 1] - self.ends[i])
            self.base.append(self.base[-1] + gap * self.scale[i])

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.ends, t) - 1
        if i < 0:  # before the first probe ended
            return min(0.0, t - self.starts[0]) * self.scale[0]
        if i + 1 < len(self.starts):
            t = min(t, self.starts[i + 1])  # inside a probe: clock stopped
        return self.base[i] + (t - self.ends[i]) * self.scale[i]
