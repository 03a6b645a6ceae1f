//! Design-point configuration for protected PiM execution (§IV-B and §IV-F).

use nvpim_compiler::layout::RowLayout;
use nvpim_ecc::hamming::HammingCode;
use nvpim_sim::technology::Technology;
use serde::{Deserialize, Serialize, Value};

use crate::scheme::{registry, SchemeRuntime};

/// The protection scheme applied to in-memory computation: a copyable
/// handle to one entry of the compile-time scheme registry
/// (see [`crate::scheme`]).
///
/// The built-in handles keep their historical variant-style names
/// ([`ProtectionScheme::Unprotected`], [`ProtectionScheme::Ecim`],
/// [`ProtectionScheme::Trim`], plus the detection-only
/// [`ProtectionScheme::ParityDetect`]), so existing call sites read
/// unchanged — but every behaviour (geometry, run paths, cost model,
/// parsing, serialization) dispatches through the scheme's
/// [`SchemeRuntime`], never through a `match`.
#[derive(Clone, Copy)]
pub struct ProtectionScheme {
    runtime: &'static dyn SchemeRuntime,
}

#[allow(non_upper_case_globals)]
impl ProtectionScheme {
    /// No protection (the iso-area baseline).
    pub const Unprotected: ProtectionScheme = ProtectionScheme {
        runtime: &crate::schemes::unprotected::UnprotectedScheme,
    };
    /// Hamming-code parity maintained in memory, checked by an external
    /// Checker at logic-level granularity (the paper's ECiM).
    pub const Ecim: ProtectionScheme = ProtectionScheme {
        runtime: &crate::schemes::ecim::EcimScheme,
    };
    /// Triple redundant computation in memory, majority-voted by an external
    /// Checker at logic-level granularity (the paper's TRiM).
    pub const Trim: ProtectionScheme = ProtectionScheme {
        runtime: &crate::schemes::trim::TrimScheme,
    };
    /// Detection-only even parity with detect-and-retry accounting (the
    /// SECDED-style regime; see [`crate::schemes::parity_detect`]).
    pub const ParityDetect: ProtectionScheme = ProtectionScheme {
        runtime: &crate::schemes::parity_detect::ParityDetectScheme,
    };
    /// Parity detection with bounded software recompute of the affected
    /// logic level and verified write-back (see
    /// [`crate::schemes::detect_recompute`]).
    pub const DetectRecompute: ProtectionScheme = ProtectionScheme {
        runtime: &crate::schemes::detect_recompute::DetectRecomputeScheme,
    };

    /// The scheme's runtime — the single dispatch point for everything that
    /// was once a `match scheme` arm.
    pub fn runtime(&self) -> &'static dyn SchemeRuntime {
        self.runtime
    }

    /// Stable serialized name (`"Ecim"`, what plan JSON carries).
    pub fn wire_name(&self) -> &'static str {
        self.runtime.wire_name()
    }

    /// Human-readable display label (`"ECiM"`), allocation-free.
    pub fn name(&self) -> &'static str {
        self.runtime.display_name()
    }

    /// Every registered scheme, in stable registry (wire) order.
    pub fn all() -> impl Iterator<Item = ProtectionScheme> {
        registry()
            .iter()
            .map(|&runtime| ProtectionScheme { runtime })
    }
}

impl PartialEq for ProtectionScheme {
    fn eq(&self, other: &Self) -> bool {
        // Wire names are unique per registry entry (asserted by the
        // registry-completeness tests), so identity is name identity.
        self.wire_name() == other.wire_name()
    }
}

impl Eq for ProtectionScheme {}

impl std::hash::Hash for ProtectionScheme {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.wire_name().hash(state);
    }
}

impl std::fmt::Debug for ProtectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl std::fmt::Display for ProtectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Serializes as the bare wire name (`"Ecim"`), byte-identical to the
/// closed enum this handle replaced.
impl Serialize for ProtectionScheme {
    fn to_json(&self) -> Value {
        Value::Str(self.wire_name().to_string())
    }
}

impl Deserialize for ProtectionScheme {}

/// Accepts the wire name (`"Ecim"`), the display label (`"ECiM"`) and any
/// registered alias — for every scheme in the registry, including ones
/// added after this crate shipped.
impl std::str::FromStr for ProtectionScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::scheme::lookup(s)
            .map(|runtime| ProtectionScheme { runtime })
            .ok_or_else(|| {
                let known: Vec<&str> = registry().iter().map(|r| r.wire_name()).collect();
                format!(
                    "unknown protection scheme `{s}` (expected one of {})",
                    known.join(", ")
                )
            })
    }
}

/// Whether redundant outputs (parity copies, redundant computation results)
/// are produced by multi-output gates in one shot or by separate
/// single-output gate operations (Table V's `m-o` vs `s-o` columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateStyle {
    /// Multi-output gates (NOR22 / 3-output NOR).
    MultiOutput,
    /// Single-output gates only; copies are produced by extra operations.
    SingleOutput,
}

impl std::fmt::Display for GateStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateStyle::MultiOutput => write!(f, "m-o"),
            GateStyle::SingleOutput => write!(f, "s-o"),
        }
    }
}

/// Accepts the serialized variant name (`"MultiOutput"`, the JSON wire
/// format) and the display label (`"m-o"`).
impl std::str::FromStr for GateStyle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "MultiOutput" | "m-o" => Ok(GateStyle::MultiOutput),
            "SingleOutput" | "s-o" => Ok(GateStyle::SingleOutput),
            other => Err(format!(
                "unknown gate style `{other}` (expected MultiOutput or SingleOutput)"
            )),
        }
    }
}

/// A complete design point: scheme, gate style, technology, code parameters
/// and the array organization of §V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignConfig {
    /// Protection scheme.
    pub scheme: ProtectionScheme,
    /// Multi- or single-output metadata generation.
    pub gate_style: GateStyle,
    /// PiM technology.
    pub technology: Technology,
    /// Hamming code parity bits `r` (the code is `Hamming(2^r − 1, 2^r − 1 − r)`;
    /// the paper uses `r = 8`, i.e. Hamming(255, 247)).
    pub hamming_r: usize,
    /// When non-zero, shorten the Hamming code to exactly this many data
    /// bits (the code becomes `Hamming(k + r, k)` with the minimum `r`
    /// covering `k`). `0` selects the full-length code from `hamming_r`.
    /// Example: `64` gives Hamming(71, 64), the word-oriented design point
    /// benchmarked by `trial_throughput`.
    pub hamming_k: usize,
    /// Columns per PiM array row (256 in the paper).
    pub array_columns: usize,
    /// Number of independent parity blocks per side (left/right) available
    /// for pipelining ECiM parity updates (§IV-C).
    pub parity_blocks_per_side: usize,
    /// Number of partitions that can preset recycled cells concurrently
    /// during an area reclaim.
    pub reclaim_parallelism: usize,
}

impl DesignConfig {
    /// The unprotected iso-area baseline for `technology`.
    pub fn unprotected(technology: Technology) -> Self {
        Self {
            scheme: ProtectionScheme::Unprotected,
            gate_style: GateStyle::MultiOutput,
            technology,
            hamming_r: 8,
            hamming_k: 0,
            array_columns: 256,
            parity_blocks_per_side: 4,
            reclaim_parallelism: 16,
        }
    }

    /// ECiM with multi-output gates (the paper's primary design point).
    pub fn ecim(technology: Technology) -> Self {
        Self {
            scheme: ProtectionScheme::Ecim,
            ..Self::unprotected(technology)
        }
    }

    /// TRiM with multi-output gates.
    pub fn trim(technology: Technology) -> Self {
        Self {
            scheme: ProtectionScheme::Trim,
            ..Self::unprotected(technology)
        }
    }

    /// The paper's standard design point under an arbitrary registered
    /// scheme — the open-ended constructor behind the sweep planner and the
    /// facade builder (no per-scheme constructor needed to run a new
    /// scheme).
    pub fn for_scheme(scheme: ProtectionScheme, technology: Technology) -> Self {
        Self {
            scheme,
            ..Self::unprotected(technology)
        }
    }

    /// Returns a copy using single-output gates.
    pub fn with_single_output_gates(mut self) -> Self {
        self.gate_style = GateStyle::SingleOutput;
        self
    }

    /// Returns a copy using a shortened Hamming code with exactly `k` data
    /// bits and the minimum covering number of parity bits (e.g. `k = 64`
    /// gives Hamming(71, 64)).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_hamming_data_bits(mut self, k: usize) -> Self {
        assert!(k > 0, "a Hamming code needs at least one data bit");
        let mut r = 2usize;
        while (1usize << r) - 1 - r < k {
            r += 1;
        }
        self.hamming_r = r;
        self.hamming_k = k;
        self
    }

    /// Number of Hamming parity bits (`n − k`).
    pub fn parity_bits(&self) -> usize {
        self.hamming_r
    }

    /// Number of data bits `k` of the configured Hamming code.
    pub fn data_bits(&self) -> usize {
        if self.hamming_k != 0 {
            self.hamming_k
        } else {
            (1usize << self.hamming_r) - 1 - self.hamming_r
        }
    }

    /// Constructs the Hamming code this design point maintains in memory.
    pub fn hamming_code(&self) -> HammingCode {
        if self.hamming_k != 0 {
            HammingCode::with_data_bits(self.hamming_k)
                .expect("hamming_k validated at construction")
        } else {
            HammingCode::new_standard(self.hamming_r)
        }
    }

    /// Columns reserved in every row for the scheme's metadata under this
    /// design (running parity cells, working cells, redundant copies) —
    /// delegated to the scheme runtime.
    pub fn metadata_columns(&self) -> usize {
        self.scheme.runtime().metadata_columns(self)
    }

    /// Cells each computed value occupies in the scratch region — delegated
    /// to the scheme runtime (3 for triple-redundant TRiM).
    pub fn cells_per_value(&self) -> usize {
        self.scheme.runtime().cells_per_value()
    }

    /// The row layout induced by this design under the iso-area constraint.
    pub fn row_layout(&self) -> RowLayout {
        RowLayout {
            total_columns: self.array_columns,
            metadata_columns: self.metadata_columns(),
            cells_per_value: self.cells_per_value(),
        }
    }

    /// The scheme's display name (`"ECiM"`) without allocating.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Short human-readable label, e.g. `"ECiM/m-o/STT-MRAM"`. Allocates;
    /// per-point paths should build the label once and cache it (the sweep
    /// engine's `PointContext` does).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.scheme_name(),
            self.gate_style,
            self.technology
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_matches_paper_setup() {
        let c = DesignConfig::ecim(Technology::SttMram);
        assert_eq!(c.array_columns, 256);
        assert_eq!(c.hamming_r, 8);
        assert_eq!(c.data_bits(), 247);
        assert_eq!(c.parity_bits(), 8);
    }

    #[test]
    fn layouts_reflect_scheme_metadata() {
        let unprot = DesignConfig::unprotected(Technology::ReRam).row_layout();
        assert_eq!(unprot.metadata_columns, 0);
        assert_eq!(unprot.cells_per_value, 1);

        let ecim = DesignConfig::ecim(Technology::ReRam).row_layout();
        assert!(ecim.metadata_columns > 0);
        assert_eq!(ecim.cells_per_value, 1);
        assert!(ecim.value_capacity() < unprot.value_capacity());

        let trim = DesignConfig::trim(Technology::ReRam).row_layout();
        assert_eq!(trim.metadata_columns, 0);
        assert_eq!(trim.cells_per_value, 3);
        // TRiM's metadata pressure is larger than ECiM's (Table IV).
        assert!(trim.value_capacity() < ecim.value_capacity());
    }

    #[test]
    fn builder_style_modifiers() {
        let c = DesignConfig::trim(Technology::SotSheMram)
            .with_single_output_gates()
            .with_hamming_data_bits(11);
        assert_eq!(c.gate_style, GateStyle::SingleOutput);
        assert_eq!(c.data_bits(), 11);
        assert_eq!(c.label(), "TRiM/s-o/SOT-MRAM");
    }
}
