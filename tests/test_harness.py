"""Samplers give up with a message that says how many draws failed and why."""

import numpy as np
import pytest

from sunflows import harness, liecore
from sunflows.errors import RegularityViolation, SamplingFailure, SunflowsError


def test_sample_regular_returns_first_accepted_draw():
    draws = iter(range(10))

    def check(x):
        if x < 3:
            raise RegularityViolation(f"draw {x} rejected")

    assert harness.sample_regular("test", 5, lambda: next(draws), check) == 3
    assert next(draws) == 4


def test_sample_regular_names_draws_and_last_rejection():
    draws = iter(range(10))

    def check(x):
        raise RegularityViolation(f"draw {x} rejected")

    with pytest.raises(SamplingFailure) as err:
        harness.sample_regular("test", 4, lambda: next(draws), check)
    assert str(err.value) == ("could not sample a regular test point in 4 draws; "
                              "last: draw 3 rejected")
    assert isinstance(err.value, SunflowsError)


def test_sample_regular_lets_other_errors_through():
    def check(x):
        raise ZeroDivisionError("a bug, not a rejection")

    with pytest.raises(ZeroDivisionError):
        harness.sample_regular("test", 4, lambda: 0, check)


def test_heisenberg_sampler_failure_at_n6_says_why():
    # the Borel exponent of random_sl_element shrinks like 1/n^2, so no draw
    # clears the sampling margin at n = 6 (acceptance rate 0.00)
    h = harness.HeisenbergHarness(6, liecore.build_root_datum(6))
    with pytest.raises(SamplingFailure,
                       match=r"regular Heisenberg point in 64 draws; last: eigenvalue gap "
                             r"\S+ below margin 8\.0e-02"):
        h.sample(np.random.default_rng(42))


def test_gradient_oracles_at_n7_abort_with_a_named_sampling_failure():
    # almost no Borel draw clears the 0.05 chamber margin at n = 7; the bounded
    # draw ends the check with a reason instead of looping forever
    from sunflows import scenario
    report = scenario.run_scenario(scenario.ScenarioConfig(
        space="cotangent", n=7, seed=42, checks=["gradient-oracles"]))
    check, = report.checks
    assert not check.passed
    assert check.detail["error"].startswith(
        f"SamplingFailure: could not sample a regular Borel point in "
        f"{scenario.BOREL_DRAWS} draws; last: eigenvalue gap")
