//! The survey classification of approximate-computing techniques
//! (Tables I and II of the paper), encoded as queryable data.
//!
//! The paper classifies published approximation schemes along two axes:
//! the **stack layer** a technique operates at ([`Layer`]) and the **kind**
//! of approximation it applies ([`ApproximationKind`]). [`SURVEYED`] holds
//! the populated Table I so tooling (and doc tests) can query the survey
//! programmatically instead of re-reading prose.
//!
//! # Example
//!
//! ```
//! use xlac_core::taxonomy::{techniques_at, Layer, ApproximationKind};
//!
//! // Which functional-approximation techniques does the survey list at the
//! // hardware/circuit layer?
//! let hw: Vec<_> = techniques_at(Layer::HwCircuit)
//!     .filter(|t| t.kind == ApproximationKind::Functional)
//!     .collect();
//! assert!(!hw.is_empty());
//! ```

use std::fmt;

/// Stack layer at which an approximation technique operates (Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Application / system software.
    Software,
    /// Micro-architecture and ISA.
    Architectural,
    /// Hardware circuits and logic.
    HwCircuit,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Software => "software",
            Layer::Architectural => "architectural",
            Layer::HwCircuit => "hardware/circuit",
        })
    }
}

/// Kinds of approximation (the five categories of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ApproximationKind {
    /// Analysis of code/instructions to suggest an accuracy mode for a part
    /// of the computation (code perforation, approximate-mode execution).
    Selective,
    /// Relaxing synchronization, timing and handshaking constraints
    /// (voltage over-scaling, relaxed parallel synchronization).
    TimingRelaxation,
    /// An approximate alternative of an algorithm or circuit that improves
    /// area/power/performance (approximate adders, NPU transformations).
    Functional,
    /// Leveraging domain-specific knowledge (scalable-effort classifiers,
    /// application-specific accelerators).
    DomainSpecific,
    /// Approximations on the data path: unreliable memories, load-value
    /// approximation, data truncation/decimation.
    Data,
}

impl fmt::Display for ApproximationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ApproximationKind::Selective => "selective approximation",
            ApproximationKind::TimingRelaxation => "timing relaxation",
            ApproximationKind::Functional => "functional approximation",
            ApproximationKind::DomainSpecific => "domain-specific approximation",
            ApproximationKind::Data => "data/information approximation",
        })
    }
}

/// Primary optimization goal a technique targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Performance / throughput improvement.
    Performance,
    /// Power or energy reduction.
    Power,
    /// Thermal-profile improvement.
    Thermal,
    /// Memory footprint / bandwidth reduction.
    Memory,
}

/// One surveyed technique (a row of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technique {
    /// Short name for the technique family.
    pub name: &'static str,
    /// Stack layer.
    pub layer: Layer,
    /// Approximation category.
    pub kind: ApproximationKind,
    /// Primary goal.
    pub goal: Goal,
    /// Representative case study from the survey.
    pub case_study: &'static str,
    /// Whether the technique depends on other stack layers cooperating.
    pub cross_layer_dependency: bool,
}

/// The populated Table I of the paper.
pub const SURVEYED: &[Technique] = &[
    Technique {
        name: "adaptive function skipping (video)",
        layer: Layer::Software,
        kind: ApproximationKind::Selective,
        goal: Goal::Thermal,
        case_study: "HEVC video encoder",
        cross_layer_dependency: false,
    },
    Technique {
        name: "code perforation",
        layer: Layer::Software,
        kind: ApproximationKind::Selective,
        goal: Goal::Performance,
        case_study: "recognition, mining and synthesis (RMS)",
        cross_layer_dependency: false,
    },
    Technique {
        name: "relaxed parallel synchronization",
        layer: Layer::Software,
        kind: ApproximationKind::TimingRelaxation,
        goal: Goal::Performance,
        case_study: "recognition and mining",
        cross_layer_dependency: false,
    },
    Technique {
        name: "scalable-effort algorithms",
        layer: Layer::Software,
        kind: ApproximationKind::DomainSpecific,
        goal: Goal::Performance,
        case_study: "machine learning",
        cross_layer_dependency: false,
    },
    Technique {
        name: "neural acceleration (parrot transformation)",
        layer: Layer::Software,
        kind: ApproximationKind::Functional,
        goal: Goal::Performance,
        case_study: "fft, inversek2j, jmeint, jpeg, kmeans, sobel",
        cross_layer_dependency: true,
    },
    Technique {
        name: "approximate MLC-STTRAM cache",
        layer: Layer::Software,
        kind: ApproximationKind::Data,
        goal: Goal::Power,
        case_study: "HEVC video encoder",
        cross_layer_dependency: true,
    },
    Technique {
        name: "unequal error protection storage",
        layer: Layer::Software,
        kind: ApproximationKind::Data,
        goal: Goal::Memory,
        case_study: "video processing / vision",
        cross_layer_dependency: true,
    },
    Technique {
        name: "approximate-mode instruction execution",
        layer: Layer::Architectural,
        kind: ApproximationKind::Selective,
        goal: Goal::Performance,
        case_study: "fft, sor, mc, smm, lu, zxing, jmeint, imagefill, raytracer, RMS",
        cross_layer_dependency: true,
    },
    Technique {
        name: "application-specific approximate accelerators",
        layer: Layer::Architectural,
        kind: ApproximationKind::DomainSpecific,
        goal: Goal::Power,
        case_study: "RMS and vision applications",
        cross_layer_dependency: false,
    },
    Technique {
        name: "critical-path truncation (approximate adders/multipliers)",
        layer: Layer::Architectural,
        kind: ApproximationKind::Functional,
        goal: Goal::Performance,
        case_study: "DSP, vision/image processing, RMS",
        cross_layer_dependency: false,
    },
    Technique {
        name: "voltage over-scaling",
        layer: Layer::HwCircuit,
        kind: ApproximationKind::TimingRelaxation,
        goal: Goal::Power,
        case_study: "RMS and vision applications",
        cross_layer_dependency: false,
    },
    Technique {
        name: "transistor-count reduction (IMPACT adders)",
        layer: Layer::HwCircuit,
        kind: ApproximationKind::Functional,
        goal: Goal::Power,
        case_study: "RMS and vision applications",
        cross_layer_dependency: false,
    },
];

/// Iterates the surveyed techniques at a given layer.
pub fn techniques_at(layer: Layer) -> impl Iterator<Item = &'static Technique> {
    SURVEYED.iter().filter(move |t| t.layer == layer)
}

/// Iterates the surveyed techniques of a given kind across all layers.
pub fn techniques_of_kind(kind: ApproximationKind) -> impl Iterator<Item = &'static Technique> {
    SURVEYED.iter().filter(move |t| t.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn survey_covers_all_layers() {
        let layers: BTreeSet<_> = SURVEYED.iter().map(|t| t.layer).collect();
        assert_eq!(layers.len(), 3);
    }

    #[test]
    fn survey_covers_all_kinds() {
        let kinds: BTreeSet<_> = SURVEYED.iter().map(|t| t.kind).collect();
        assert_eq!(kinds.len(), 5, "all five Table II categories present");
    }

    #[test]
    fn functional_approximation_appears_at_multiple_layers() {
        // The paper's key observation: most schemes apply at several layers.
        let layers: BTreeSet<_> =
            techniques_of_kind(ApproximationKind::Functional).map(|t| t.layer).collect();
        assert!(layers.len() >= 2);
    }

    #[test]
    fn cross_layer_dependencies_exist() {
        assert!(SURVEYED.iter().any(|t| t.cross_layer_dependency));
        assert!(SURVEYED.iter().any(|t| !t.cross_layer_dependency));
    }

    #[test]
    fn display_strings_are_lowercase() {
        for layer in [Layer::Software, Layer::Architectural, Layer::HwCircuit] {
            assert_eq!(layer.to_string(), layer.to_string().to_lowercase());
        }
        assert_eq!(ApproximationKind::Data.to_string(), "data/information approximation");
    }

    #[test]
    fn layer_filter_returns_only_that_layer() {
        for t in techniques_at(Layer::Software) {
            assert_eq!(t.layer, Layer::Software);
        }
    }
}
