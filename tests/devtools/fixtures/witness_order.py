"""Fixture for deterministic witness chains.

Loaded as ``repro.serve.witness_fixture``.  The handler blocks through
``combined``, which reaches the one blocking helper through two equal
callees; the finding's chain must name the same one on every run,
whatever the hash seed.
"""


def load(path):
    with open(path, "rb") as fh:
        return fh.read()


def via_beta(path):
    return load(path)


def via_alpha(path):
    return load(path)


def combined(path):
    return via_beta(path) + via_alpha(path)


class WitnessServer:
    async def handle(self, path):
        return combined(path)  # VIOLATION: blocks-io, chain via_alpha
