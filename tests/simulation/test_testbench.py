"""Tests of the per-triad adder testbench."""

import numpy as np
import pytest

from repro.core.triad import matched_triad_grid
from repro.simulation.testbench import AdderTestbench


class TestAdderTestbench:
    def test_measurement_fields_consistent(self, rca8_testbench, random_operand_batch):
        in1, in2 = random_operand_batch
        measurement = rca8_testbench.run_triad(in1, in2, tclk=0.5e-9, vdd=1.0, vbb=0.0)
        assert measurement.adder_name == "rca8"
        assert measurement.n_vectors == in1.size
        assert measurement.output_width == 9
        assert measurement.error_bits.shape == (in1.size, 9)
        assert np.array_equal(measurement.exact_words, in1 + in2)
        assert measurement.energy_per_operation == pytest.approx(
            measurement.dynamic_energy_per_operation
            + measurement.static_energy_per_operation
        )

    def test_error_free_at_relaxed_triad(self, rca8_testbench, random_operand_batch):
        in1, in2 = random_operand_batch
        tclk = rca8_testbench.nominal_critical_path() * 1.1
        measurement = rca8_testbench.run_triad(in1, in2, tclk=tclk, vdd=1.0)
        assert measurement.error_bits.sum() == 0
        assert measurement.faulty_vector_fraction == 0.0

    def test_faulty_under_aggressive_scaling(self, rca8_testbench, random_operand_batch):
        in1, in2 = random_operand_batch
        tclk = rca8_testbench.nominal_critical_path()
        measurement = rca8_testbench.run_triad(in1, in2, tclk=tclk, vdd=0.5)
        assert measurement.error_bits.mean() > 0.02
        assert 0.0 < measurement.faulty_vector_fraction <= 1.0

    def test_operand_shape_mismatch_rejected(self, rca8_testbench):
        with pytest.raises(ValueError, match="same shape"):
            rca8_testbench.run_triad(np.array([1, 2]), np.array([1]), tclk=1e-9, vdd=1.0)

    def test_nominal_critical_path_positive_and_bias_sensitive(self, rca8_testbench):
        nominal = rca8_testbench.nominal_critical_path()
        forward = rca8_testbench.nominal_critical_path(vdd=1.0, vbb=2.0)
        assert nominal > 0
        assert forward < nominal

    def test_adder_and_simulator_exposed(self, rca8_testbench, rca8):
        assert rca8_testbench.adder is rca8
        assert rca8_testbench.simulator.netlist is rca8.netlist

    def test_sweep_binds_its_stimulus_once(
        self, rca8, random_operand_batch, fingerprint_calls
    ):
        testbench = AdderTestbench(rca8)
        grid = matched_triad_grid("rca8", testbench.nominal_critical_path())
        measurements = testbench.run_sweep(*random_operand_batch, grid)
        assert len(measurements) == len(grid) == 43
        assert len(fingerprint_calls) == 1
