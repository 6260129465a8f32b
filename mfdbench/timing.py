"""Timing helpers: subprocess runs without wait polling, and machine-speed
probes for a host whose speed drifts.

On a shared host the same code can run 30% slower for seconds at a time,
and CPU time moves with wall time, so it is not a scheduling artefact.  A
probe times a fixed reference task next to each measured interval;
``scale()`` turns a raw duration into seconds at the reference speed,
where the task takes ``reference_s``.  The median of the last few probe
times keeps the probe's own jitter out.  Ten runs per workload recorded
in baseline.json show why: unscaled, the same runs spread by more than
the benchmark's bounds.  No mfd code runs inside a probe,
so a change to mfd cannot move the scale.

Two reference tasks match the two kinds of measured work:

- ``kernel``: pure-Python Fraction arithmetic, tuple-keyed dicts and float
  lists, the operations mfd spends its in-process time in;
- ``bare_interpreter``: a fresh ``python3 -c pass``, the floor under every
  command-line call and every set-up measurement.
"""

import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from fractions import Fraction

KERNEL_REFERENCE_S = 0.0015
INTERPRETER_REFERENCE_S = 0.06


def kernel():
    table = {}
    x = Fraction(1, 3)
    floats = [0.5] * 64
    for i in range(150):
        table[(i, i % 7)] = (x, i * 0.5)
        x = x * Fraction(i % 5 + 1, i % 3 + 2) + 1
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        floats = [f * 0.999 + 1e-3 for f in floats]
    return len(table), x, floats[0]


def run_process(args, env=None, capture=False, limit_s=170):
    """Run a process to completion; returns (exit code, stdout, stderr).

    subprocess.run(timeout=...) waits by polling with sleeps of up to 50 ms,
    which would add up to 50 ms to every measured duration.  Here the wait
    blocks, and a timer thread kills a process that outlives ``limit_s``.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(args, env=env, stdout=pipe, stderr=pipe)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out, err


def bare_interpreter(env=None):
    code, _, _ = run_process([sys.executable, "-c", "pass"], env=env, limit_s=60)
    if code != 0:
        raise RuntimeError(f"bare interpreter exited with {code}")


class SpeedProbe:
    def __init__(self, task, reference_s, warm_up, window):
        self._task = task
        self._reference_s = reference_s
        self._warm_up = warm_up
        self._samples = deque(maxlen=window)

    def sample(self):
        """Time the reference task once; returns the raw duration."""
        if self._warm_up:
            self._task()  # warm the caches whatever ran before
        start = time.perf_counter()
        self._task()
        self._samples.append(time.perf_counter() - start)
        return self._samples[-1]

    def scale(self):
        """Factor from raw seconds to seconds at the reference speed."""
        return self._reference_s / statistics.median(self._samples)


def kernel_probe():
    # Sampled before every case: the last three span about 0.1 s.
    return SpeedProbe(kernel, KERNEL_REFERENCE_S, warm_up=True, window=3)


def interpreter_probe(env=None):
    # Sampled before every command-line case or set-up interpreter, each
    # 0.1-0.4 s long; a single interpreter start jitters more than the
    # kernel, so the median takes five.
    return SpeedProbe(lambda: bare_interpreter(env), INTERPRETER_REFERENCE_S, warm_up=False,
                      window=5)
