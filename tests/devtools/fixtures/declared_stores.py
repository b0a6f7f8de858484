"""Fixture for the effect table's ``mutates-nonlocal`` stores through
``global``/``nonlocal`` declarations.

Loaded as ``repro.util.declared_fixture``.  A declaration covers its
whole scope: a store after it in the same body reaches outside the
frame, however the walk orders the two.  A nested scope keeps its own
declarations, and a name never declared is a plain local.
"""

COUNTER = 0


def bump_global():
    global COUNTER
    COUNTER = COUNTER + 1  # MUTATES


def bump_global_aug():
    global COUNTER
    COUNTER += 1  # MUTATES


def bump_in_branch(flag):
    global COUNTER
    if flag:
        COUNTER = 0  # MUTATES


def make_adder():
    total = 0

    def add(n):
        nonlocal total
        total = total + n  # MUTATES
        return total

    return add


def shadowing_local():
    COUNTER = 5  # clean: a local of the same name
    return COUNTER


def inner_scope_keeps_its_own():
    global COUNTER

    def inner():
        COUNTER = 1  # clean: inner's own local
        return COUNTER

    return inner()


def calls_mutator():
    bump_global()  # inherits mutates-nonlocal
