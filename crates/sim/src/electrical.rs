//! Electrical characterization of in-array (multi-output) gates — the
//! Appendix of the paper and Fig. 9.
//!
//! A gate is realized as a resistive voltage divider: the input cells sit
//! between the bias line and the output cell(s), and the output switches
//! when the current through it exceeds the device's critical current `I_C`
//! (MRAM) or its voltage drop crosses `V_OFF` (ReRAM). The bias voltage must
//! be chosen inside a window:
//!
//! * **lower bound** — in the *marginally switching* input combination
//!   (all NOR inputs at `R_low`) the output current must still reach the
//!   switching threshold;
//! * **upper bound** — in the *marginally non-switching* combination (one
//!   input at `R_high`) it must stay below the threshold.
//!
//! The *noise margin* `(V_high − V_low) / ((V_high + V_low)/2)` measures how
//! tolerant the gate is to device variation; the paper requires at least 5 %.
//! Multi-output gates place `N` output devices either in **parallel**
//! (total current `N·I_C`, output resistance `R_P/N`) or in **series**
//! (current `I_C`, resistance `N·R_P`); the Appendix concludes the parallel
//! arrangement is the feasible one, which [`noise_margin`] reproduces.
//!
//! Matching the NOR and THR bias windows requires adding `D` dummy inputs to
//! the NOR gate (Eqs. 4–7); [`min_dummy_inputs`] searches for the smallest
//! `D` that creates an overlapping window.

use serde::{Deserialize, Serialize};

use crate::technology::{Technology, TechnologyParams};

/// How the output devices of a multi-output gate are connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutputPlacement {
    /// Output devices in parallel: drive current `N·I_C`, resistance `R_P/N`.
    Parallel,
    /// Output devices in series: drive current `I_C`, resistance `N·R_P`.
    Series,
}

/// A bias-voltage operating window `[low, high]` in volts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasWindow {
    /// Minimum bias voltage that guarantees switching in the must-switch case.
    pub low_v: f64,
    /// Maximum bias voltage that avoids switching in the must-not-switch case.
    pub high_v: f64,
}

impl BiasWindow {
    /// Whether the window is non-empty (a valid bias voltage exists).
    pub fn is_feasible(&self) -> bool {
        self.high_v > self.low_v
    }

    /// The noise margin `(high − low) / ((high + low)/2)`, as a fraction.
    pub fn noise_margin(&self) -> f64 {
        if self.low_v + self.high_v == 0.0 {
            return 0.0;
        }
        (self.high_v - self.low_v) / ((self.high_v + self.low_v) / 2.0)
    }

    /// Intersection with another window.
    pub fn intersect(&self, other: &BiasWindow) -> BiasWindow {
        BiasWindow {
            low_v: self.low_v.max(other.low_v),
            high_v: self.high_v.min(other.high_v),
        }
    }
}

/// Parallel combination of resistances (kΩ).
fn parallel(rs: &[f64]) -> f64 {
    1.0 / rs.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// The minimum noise margin the paper assumes for feasible gate operation.
pub const MIN_NOISE_MARGIN: f64 = 0.05;

/// Electrical model for one technology.
#[derive(Debug, Clone)]
pub struct ElectricalModel {
    params: TechnologyParams,
}

impl ElectricalModel {
    /// Builds the model from a technology's Table III parameters.
    pub fn new(technology: Technology) -> Self {
        Self {
            params: technology.parameters(),
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &TechnologyParams {
        &self.params
    }

    fn drive_scale(&self) -> (f64, f64) {
        // Returns (threshold current in mA, low resistance in kΩ) — the
        // product is volts. For ReRAM the switching condition is expressed
        // through V_OFF / R_ON, which reduces to an equivalent current.
        match self.params.technology {
            Technology::SttMram | Technology::SotSheMram => (
                self.params.critical_current_ua.unwrap_or(50.0) * 1e-3,
                self.params.r_low_kohm,
            ),
            Technology::ReRam | Technology::ReramCrossbar => (
                self.params.v_off.unwrap_or(0.3).abs() / self.params.r_low_kohm,
                self.params.r_low_kohm,
            ),
        }
    }

    /// Effective output-path resistance (kΩ) for `n_outputs` devices. For
    /// SOT/SHE-MRAM the write path goes through the SHE channel, so the
    /// channel resistance replaces the MTJ resistance (Appendix).
    fn output_resistance(&self, n_outputs: usize, placement: OutputPlacement) -> f64 {
        let r_out_device = match self.params.technology {
            Technology::SotSheMram => self.params.r_she_kohm.unwrap_or(self.params.r_low_kohm),
            _ => self.params.r_low_kohm,
        };
        match placement {
            OutputPlacement::Parallel => r_out_device / n_outputs as f64,
            OutputPlacement::Series => r_out_device * n_outputs as f64,
        }
    }

    /// Total drive current required to switch `n_outputs` devices.
    fn required_current_ma(&self, n_outputs: usize, placement: OutputPlacement) -> f64 {
        let (ic_ma, _) = self.drive_scale();
        match placement {
            OutputPlacement::Parallel => ic_ma * n_outputs as f64,
            OutputPlacement::Series => ic_ma,
        }
    }

    /// Bias window of an `n_inputs`-input NOR gate with `n_outputs` output
    /// devices in the given placement and `dummy_inputs` low-resistance
    /// dummy devices added in parallel with the inputs (Eq. 5 / Eq. 7).
    pub fn nor_bias_window(
        &self,
        n_inputs: usize,
        n_outputs: usize,
        placement: OutputPlacement,
        dummy_inputs: usize,
    ) -> BiasWindow {
        assert!(n_inputs >= 1, "NOR needs at least one input");
        assert!(n_outputs >= 1, "NOR needs at least one output");
        let rp = self.params.r_low_kohm;
        let rap = self.params.r_high_kohm;
        let i_req = self.required_current_ma(n_outputs, placement);
        let r_out = self.output_resistance(n_outputs, placement);
        // Must-switch case: every input at R_low (plus dummies).
        let mut rs_switch = vec![rp; n_inputs];
        // Must-not-switch case: exactly one input at R_high.
        let mut rs_hold = vec![rp; n_inputs - 1];
        rs_hold.push(rap);
        if dummy_inputs > 0 {
            rs_switch.push(rp / dummy_inputs as f64);
            rs_hold.push(rp / dummy_inputs as f64);
        }
        let low = i_req * (parallel(&rs_switch) + r_out);
        let high = i_req * (parallel(&rs_hold) + r_out);
        BiasWindow {
            low_v: low,
            high_v: high,
        }
    }

    /// Bias window of the 4-input THR gate (threshold = 3 zero inputs),
    /// per Eq. 4 / Eq. 6: must switch with three `R_low` inputs, must not
    /// switch with only two.
    pub fn thr_bias_window(&self) -> BiasWindow {
        let rp = self.params.r_low_kohm;
        let rap = self.params.r_high_kohm;
        let (ic_ma, _) = self.drive_scale();
        let r_out = self.output_resistance(1, OutputPlacement::Parallel);
        let switch = parallel(&[rp, rp, rp, rap]);
        let hold = parallel(&[rp, rp, rap, rap]);
        BiasWindow {
            low_v: ic_ma * (switch + r_out),
            high_v: ic_ma * (hold + r_out),
        }
    }

    /// Noise margin (fraction) of an `n_outputs`-output 2-input NOR gate.
    pub fn noise_margin(&self, n_outputs: usize, placement: OutputPlacement) -> f64 {
        self.nor_bias_window(2, n_outputs, placement, 0)
            .noise_margin()
    }

    /// Whether an `n_outputs`-output NOR is feasible (noise margin at least
    /// [`MIN_NOISE_MARGIN`]).
    pub fn multi_output_feasible(&self, n_outputs: usize, placement: OutputPlacement) -> bool {
        self.noise_margin(n_outputs, placement) >= MIN_NOISE_MARGIN
    }

    /// Largest number of output devices that keeps the noise margin above
    /// the minimum, searching up to `max_outputs`.
    pub fn max_feasible_outputs(&self, placement: OutputPlacement, max_outputs: usize) -> usize {
        (1..=max_outputs)
            .take_while(|&n| self.multi_output_feasible(n, placement))
            .last()
            .unwrap_or(0)
    }

    /// Smallest number of dummy inputs `D` that makes the `n_outputs`-output
    /// NOR window overlap the THR window (so both gates can share the same
    /// column control-line bias), searching `0..=max_d`. Returns `None` when
    /// no such `D` exists in the range.
    pub fn min_dummy_inputs(
        &self,
        n_outputs: usize,
        placement: OutputPlacement,
        max_d: usize,
    ) -> Option<usize> {
        let thr = self.thr_bias_window();
        (0..=max_d).find(|&d| {
            let nor = self.nor_bias_window(2, n_outputs, placement, d);
            nor.intersect(&thr).is_feasible() && nor.is_feasible()
        })
    }

    /// Generates the Fig. 9 data: for `n = 1..=max_outputs`, the noise margin
    /// (a) and bias window (b) for both output placements.
    pub fn figure9_sweep(&self, max_outputs: usize) -> Vec<Figure9Point> {
        (1..=max_outputs)
            .map(|n| Figure9Point {
                n_outputs: n,
                parallel_margin: self.noise_margin(n, OutputPlacement::Parallel),
                series_margin: self.noise_margin(n, OutputPlacement::Series),
                parallel_window: self.nor_bias_window(2, n, OutputPlacement::Parallel, 0),
                series_window: self.nor_bias_window(2, n, OutputPlacement::Series, 0),
            })
            .collect()
    }
}

/// One point of the Fig. 9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure9Point {
    /// Number of output cells.
    pub n_outputs: usize,
    /// Noise margin with parallel-connected outputs.
    pub parallel_margin: f64,
    /// Noise margin with series-connected outputs.
    pub series_margin: f64,
    /// Bias window with parallel-connected outputs.
    pub parallel_window: BiasWindow,
    /// Bias window with series-connected outputs.
    pub series_window: BiasWindow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_output_nor_window_is_feasible_for_all_technologies() {
        for tech in Technology::ALL {
            let m = ElectricalModel::new(tech);
            let w = m.nor_bias_window(2, 1, OutputPlacement::Parallel, 0);
            assert!(w.is_feasible(), "{tech}: window {w:?}");
            assert!(w.noise_margin() > MIN_NOISE_MARGIN, "{tech}");
        }
    }

    #[test]
    fn series_margin_degrades_faster_than_parallel() {
        let m = ElectricalModel::new(Technology::SttMram);
        for n in 2..=10 {
            let par = m.noise_margin(n, OutputPlacement::Parallel);
            let ser = m.noise_margin(n, OutputPlacement::Series);
            assert!(
                par > ser,
                "parallel margin must exceed series margin at N={n} ({par} vs {ser})"
            );
        }
        // Series placement falls below the 5% minimum within a handful of
        // outputs; parallel stays feasible through N=10 (Fig. 9a).
        assert!(m.max_feasible_outputs(OutputPlacement::Series, 10) < 10);
        assert!(m.max_feasible_outputs(OutputPlacement::Parallel, 10) >= 3);
    }

    #[test]
    fn series_margin_monotonically_decreases() {
        let m = ElectricalModel::new(Technology::SttMram);
        let sweep = m.figure9_sweep(10);
        for pair in sweep.windows(2) {
            assert!(pair[1].series_margin <= pair[0].series_margin + 1e-12);
        }
    }

    #[test]
    fn bias_voltages_grow_with_output_count() {
        // Fig. 9b: required voltages increase with N for both placements.
        let m = ElectricalModel::new(Technology::SttMram);
        let sweep = m.figure9_sweep(10);
        for pair in sweep.windows(2) {
            assert!(pair[1].parallel_window.low_v > pair[0].parallel_window.low_v);
            assert!(pair[1].series_window.low_v > pair[0].series_window.low_v);
        }
        // Voltages stay in a physically sensible range (sub ~5 V).
        assert!(sweep.last().unwrap().series_window.high_v < 5.0);
    }

    #[test]
    fn thr_window_feasible_and_dummy_inputs_align_nor() {
        for tech in Technology::ALL {
            let m = ElectricalModel::new(tech);
            assert!(m.thr_bias_window().is_feasible(), "{tech}");
            // Some modest number of dummy inputs aligns the 2-output NOR
            // window with the THR window (Appendix: D = 2..5 depending on
            // technology; we only require existence within D <= 8).
            let d = m.min_dummy_inputs(2, OutputPlacement::Parallel, 8);
            assert!(
                d.is_some(),
                "{tech}: no dummy-input count aligns NOR with THR"
            );
        }
    }

    #[test]
    fn two_and_three_output_gates_are_feasible_in_parallel_placement() {
        // ECiM needs NOR22 and TRiM needs 3-output NOR.
        for tech in Technology::ALL {
            let m = ElectricalModel::new(tech);
            assert!(
                m.multi_output_feasible(2, OutputPlacement::Parallel),
                "{tech}: NOR22 infeasible"
            );
            assert!(
                m.multi_output_feasible(3, OutputPlacement::Parallel),
                "{tech}: 3-output NOR infeasible"
            );
        }
    }

    #[test]
    fn crossbar_gates_are_electrically_feasible() {
        // `Technology::ALL` iterations above deliberately exclude the
        // crossbar (plan-byte compatibility); give it the same coverage.
        let m = ElectricalModel::new(Technology::ReramCrossbar);
        let w = m.nor_bias_window(2, 1, OutputPlacement::Parallel, 0);
        assert!(w.is_feasible());
        assert!(w.noise_margin() > MIN_NOISE_MARGIN);
        assert!(m.thr_bias_window().is_feasible());
        assert!(m.multi_output_feasible(2, OutputPlacement::Parallel));
        assert!(m.multi_output_feasible(3, OutputPlacement::Parallel));
        assert!(m
            .min_dummy_inputs(2, OutputPlacement::Parallel, 8)
            .is_some());
    }

    #[test]
    fn window_intersection() {
        let a = BiasWindow {
            low_v: 1.0,
            high_v: 2.0,
        };
        let b = BiasWindow {
            low_v: 1.5,
            high_v: 3.0,
        };
        let i = a.intersect(&b);
        assert_eq!(i.low_v, 1.5);
        assert_eq!(i.high_v, 2.0);
        assert!(i.is_feasible());
        let c = BiasWindow {
            low_v: 2.5,
            high_v: 3.0,
        };
        assert!(!a.intersect(&c).is_feasible());
    }

    #[test]
    fn zero_window_noise_margin_is_zero() {
        let w = BiasWindow {
            low_v: 0.0,
            high_v: 0.0,
        };
        assert_eq!(w.noise_margin(), 0.0);
    }
}
