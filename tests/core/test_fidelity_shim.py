"""Fidelity resolution: named rungs in, anything else rejected.

The pre-1.4 raw scale-multiplier floats were deprecated in 1.4 and
removed in 2.0; a float is now a ``TypeError`` like any other
non-rung value.
"""

import warnings

import pytest

from repro.fidelity import (ANALYTIC, FIDELITIES, FULL, REDUCED,
                            resolve_fidelity)


class TestNamedResolution:
    def test_none_returns_default(self):
        assert resolve_fidelity(None) is FULL
        assert resolve_fidelity(None, default=ANALYTIC) is ANALYTIC

    def test_fidelity_passes_through(self):
        for fid in FIDELITIES.values():
            assert resolve_fidelity(fid) is fid

    def test_names_case_insensitive(self):
        assert resolve_fidelity("analytic") is ANALYTIC
        assert resolve_fidelity("Reduced") is REDUCED
        assert resolve_fidelity("FULL") is FULL

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            resolve_fidelity("ultra")


class TestFloatShim:
    """What stays of the float-multiplier shim after its removal in
    2.0: floats, bools and other non-rung values all fail loudly with
    the same ``TypeError``, and none of them deprecation-warns."""

    def test_nonpositive_multiplier_rejected_without_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for value in (0.0, -1.0):
                with pytest.raises(TypeError,
                                   match="Fidelity or a rung name"):
                    resolve_fidelity(value)
        assert not caught  # rejects never deprecation-warn

    def test_bool_is_not_a_multiplier(self):
        """``True`` is an ``int`` subclass but means nothing as a
        fidelity; it must hit the TypeError arm, not map to full."""
        for value in (True, False):
            with pytest.raises(TypeError, match="got bool"):
                resolve_fidelity(value)

    def test_other_types_rejected(self):
        for value in (0.5, 1.0, 2, ["full"]):
            with pytest.raises(TypeError, match="Fidelity or a rung name"):
                resolve_fidelity(value)
