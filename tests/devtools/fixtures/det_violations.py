"""Fixture: every determinism hazard, at known line numbers.

Parsed (never imported) by the analyzer tests; loaded under a module
name inside the rule's scope.  Line numbers are asserted exactly --
keep edits append-only or fix the test.
"""
import random
import time
from datetime import datetime

import numpy as np


def bad_wall_clock():
    started = time.time()              # line 15: wall-clock read
    stamp = datetime.now()             # line 16: wall-clock read
    return started, stamp


def bad_global_rng():
    a = random.random()                # line 21: process-global RNG
    b = np.random.rand(4)              # line 22: legacy global RNG
    np.random.seed(7)                  # line 23: legacy global RNG
    return a, b


def bad_generators():
    g1 = np.random.default_rng()       # line 28: unseeded
    g2 = np.random.default_rng(0xBEEF)  # line 29: literal seed
    g3 = random.Random()               # line 30: unseeded
    return g1, g2, g3


def fine(seed):
    elapsed = time.perf_counter()      # allowed: duration, not wall clock
    rng = np.random.default_rng(seed)  # allowed: seed flows in
    return elapsed, rng


def suppressed():
    return time.time()  # analyzer: allow[determinism] -- fixture suppression


LOADED_AT = time.time()                # module level: wall-clock read


class Stamped:
    created = datetime.now()           # class body: wall-clock read


def bad_lambda():
    clock = lambda: time.time()        # noqa: E731 -- lambda: wall-clock read
    return clock
