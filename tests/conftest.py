"""Test-wide Hypothesis settings.

The default profile minus the explain phase, which re-runs a failing
example under a line tracer to say which lines it covered: on the numpy
loops of these tests that took minutes and about 1 GB before a failure
was reported, against seconds for generate and shrink alone. Each test
keeps its own max_examples and deadline.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "no-explain", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no-explain")
