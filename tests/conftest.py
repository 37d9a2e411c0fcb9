"""Shared test settings.

Property tests run under one derandomized hypothesis profile with a bounded
example count, so every run of the suite, at any thread count, checks the
same examples in about the same time.  The ``fail_replicates`` fixture makes
chosen lab replicates fail to build.
"""

import math

import pytest
from hypothesis import HealthCheck, settings

from cdkit.errors import DegenerateSampleError
from cdkit.simlab import CdGenerator

settings.register_profile(
    "cdkit", derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("cdkit")


@pytest.fixture()
def fail_replicates(monkeypatch):
    """fail_replicates(indices) makes those replicates fail to build, in a
    block or alone: every draw's rows for them turn NaN, which the family
    blocks refuse, and their one-row build_cd raises DegenerateSampleError
    naming the replicate."""
    draw, build = CdGenerator.draw_block, CdGenerator.build_cd

    def fail(indices):
        def draw_block(gen, block):
            data = draw(gen, block)
            data[[k for k, i in enumerate(block) if i in indices]] = math.nan
            return data

        def build_cd(gen, data, index):
            if index in indices:
                raise DegenerateSampleError(f"replicate {index}")
            return build(gen, data, index)

        monkeypatch.setattr(CdGenerator, "draw_block", draw_block)
        monkeypatch.setattr(CdGenerator, "build_cd", build_cd)
    return fail
