from fractions import Fraction

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def fractions_made(monkeypatch):
    """A list that gets one entry for every Fraction made while the test
    runs, by a constructor call or by Fraction arithmetic (which in some
    Python versions skips __new__)."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        from_ints = Fraction._from_coprime_ints

        def counting_from_ints(cls, numerator, denominator):
            made.append(cls)
            return from_ints(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_ints))
    return made
