"""Shared fixtures for the test suite.

Expensive objects (netlists, characterizations) are session scoped: the
characterization of an adder over the full 43-triad grid is reused by the
core, analysis and integration tests instead of being recomputed per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core.characterization import AdderCharacterization, CharacterizationFlow
from repro.simulation import timing_sim
from repro.simulation.patterns import PatternConfig
from repro.simulation.testbench import AdderTestbench


@pytest.fixture(scope="session")
def rca8():
    """8-bit ripple-carry adder circuit."""
    return build_adder("rca", 8)


@pytest.fixture(scope="session")
def bka8():
    """8-bit Brent-Kung adder circuit."""
    return build_adder("bka", 8)


@pytest.fixture(scope="session")
def rca16():
    """16-bit ripple-carry adder circuit."""
    return build_adder("rca", 16)


@pytest.fixture(scope="session")
def bka16():
    """16-bit Brent-Kung adder circuit."""
    return build_adder("bka", 16)


@pytest.fixture(scope="session")
def rca8_testbench(rca8):
    """Testbench bound to the 8-bit RCA."""
    return AdderTestbench(rca8)


@pytest.fixture(scope="session")
def rca8_characterization(rca8) -> AdderCharacterization:
    """8-bit RCA characterized over the matched 43-triad grid (small stimulus)."""
    flow = CharacterizationFlow(rca8)
    return flow.run(pattern=PatternConfig(n_vectors=1200, width=8, seed=42))


@pytest.fixture(scope="session")
def bka8_characterization(bka8) -> AdderCharacterization:
    """8-bit BKA characterized over the matched 43-triad grid (small stimulus)."""
    flow = CharacterizationFlow(bka8)
    return flow.run(pattern=PatternConfig(n_vectors=1200, width=8, seed=42))


@pytest.fixture(scope="session")
def faulty_rca8_entry(rca8_characterization):
    """A characterization entry of the 8-bit RCA with a moderate, non-zero BER."""
    candidates = [
        entry for entry in rca8_characterization.results if 0.01 <= entry.ber <= 0.30
    ]
    assert candidates, "expected at least one moderately faulty triad"
    return candidates[len(candidates) // 2]


@pytest.fixture(scope="session")
def random_operand_batch():
    """Reusable batch of random 8-bit operand pairs."""
    rng = np.random.default_rng(123)
    return rng.integers(0, 256, 2000), rng.integers(0, 256, 2000)


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Records each stimulus fingerprint the timing simulator computes.

    A fingerprint is taken every time a stimulus is bound, so the length of
    the returned list counts binds.
    """
    calls = []
    original = timing_sim._pattern_fingerprint

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(timing_sim, "_pattern_fingerprint", counting)
    return calls
