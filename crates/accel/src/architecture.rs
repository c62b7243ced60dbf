//! The multi-accelerator approximate computing architecture (§6).
//!
//! "A wide-range of diverse approximate accelerators in a multi-
//! accelerator approximate computing architecture enables a high degree
//! of flexibility and adaptivity." This module is that architecture: a
//! registry of heterogeneous accelerator slots (SAD, low-pass filter,
//! DCT), each holding a *family* of pre-instantiated variants selected at
//! run time by a packed [`ConfigWord`] — the paper's "configuration word
//! \[that\] can set the control bits of different approximate logic blocks".
//! Power accounting reflects the currently selected modes, and the
//! [`crate::ApproximationManager`] plugs in directly for selection.
//!
//! # Example
//!
//! ```
//! use xlac_accel::architecture::{AcceleratorSlot, MultiAcceleratorArchitecture};
//! use xlac_accel::config::{ApproxMode, ConfigWord};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let mut arch = MultiAcceleratorArchitecture::new();
//! arch.add_slot("me", AcceleratorSlot::sad(64)?);
//! arch.add_slot("smooth", AcceleratorSlot::filter()?);
//! arch.configure(ConfigWord::pack(&[ApproxMode::Medium, ApproxMode::Accurate])?)?;
//! assert_eq!(arch.mode_of("me"), Some(ApproxMode::Medium));
//! assert!(arch.total_power_nw() > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::config::{ApproxMode, ConfigWord};
use crate::dct::DctAccelerator;
use crate::filter::FilterAccelerator;
use crate::sad::{SadAccelerator, SadVariant};
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

fn sad_variant_for(mode: ApproxMode) -> SadVariant {
    match mode {
        ApproxMode::Accurate => SadVariant::Accurate,
        ApproxMode::Mild => SadVariant::ApxSad1,
        ApproxMode::Medium => SadVariant::ApxSad3,
        ApproxMode::Aggressive => SadVariant::ApxSad5,
    }
}

/// One accelerator slot: a family of variants (one per [`ApproxMode`])
/// with a currently selected mode.
#[derive(Debug, Clone)]
pub enum AcceleratorSlot {
    /// A SAD accelerator family.
    Sad {
        /// Variants indexed by the [`ApproxMode::ALL`] ladder.
        variants: Vec<SadAccelerator>,
        /// Currently selected ladder index.
        selected: usize,
    },
    /// A 3×3 low-pass filter family.
    Filter {
        /// Variants indexed by the [`ApproxMode::ALL`] ladder.
        variants: Vec<FilterAccelerator>,
        /// Currently selected ladder index.
        selected: usize,
    },
    /// A 4×4 integer-DCT family.
    Dct {
        /// Variants indexed by the [`ApproxMode::ALL`] ladder.
        variants: Vec<DctAccelerator>,
        /// Currently selected ladder index.
        selected: usize,
    },
}

impl AcceleratorSlot {
    /// Builds a SAD slot with all four mode variants over `lanes` pixels.
    ///
    /// # Errors
    ///
    /// Propagates accelerator construction errors.
    pub fn sad(lanes: usize) -> Result<Self> {
        let variants = ApproxMode::ALL
            .iter()
            .map(|&m| SadAccelerator::new(lanes, sad_variant_for(m), m.approx_lsbs()))
            .collect::<Result<Vec<_>>>()?;
        Ok(AcceleratorSlot::Sad { variants, selected: 0 })
    }

    /// Builds a low-pass filter slot with all four mode variants.
    ///
    /// # Errors
    ///
    /// Propagates accelerator construction errors.
    pub fn filter() -> Result<Self> {
        let variants = ApproxMode::ALL
            .iter()
            .map(|&m| FilterAccelerator::new(m.cell(), m.approx_lsbs()))
            .collect::<Result<Vec<_>>>()?;
        Ok(AcceleratorSlot::Filter { variants, selected: 0 })
    }

    /// Builds a DCT slot with all four mode variants.
    ///
    /// # Errors
    ///
    /// Propagates accelerator construction errors.
    pub fn dct() -> Result<Self> {
        let variants = ApproxMode::ALL
            .iter()
            .map(|&m| DctAccelerator::new(m.cell(), m.approx_lsbs().min(6)))
            .collect::<Result<Vec<_>>>()?;
        Ok(AcceleratorSlot::Dct { variants, selected: 0 })
    }

    fn select(&mut self, mode: ApproxMode) {
        let idx = ApproxMode::ALL.iter().position(|&m| m == mode).expect("mode on ladder");
        match self {
            AcceleratorSlot::Sad { selected, .. }
            | AcceleratorSlot::Filter { selected, .. }
            | AcceleratorSlot::Dct { selected, .. } => *selected = idx,
        }
    }

    fn mode(&self) -> ApproxMode {
        let idx = match self {
            AcceleratorSlot::Sad { selected, .. }
            | AcceleratorSlot::Filter { selected, .. }
            | AcceleratorSlot::Dct { selected, .. } => *selected,
        };
        ApproxMode::ALL[idx]
    }

    fn hw_cost(&self) -> HwCost {
        match self {
            AcceleratorSlot::Sad { variants, selected } => variants[*selected].hw_cost(),
            AcceleratorSlot::Filter { variants, selected } => variants[*selected].hw_cost(),
            AcceleratorSlot::Dct { variants, selected } => variants[*selected].hw_cost(),
        }
    }
}

/// The architecture: named slots plus the active configuration word.
#[derive(Debug, Clone, Default)]
pub struct MultiAcceleratorArchitecture {
    slots: Vec<(String, AcceleratorSlot)>,
}

impl MultiAcceleratorArchitecture {
    /// Creates an empty architecture.
    #[must_use]
    pub fn new() -> Self {
        MultiAcceleratorArchitecture::default()
    }

    /// Adds a named slot (order defines the configuration-word nibble
    /// index).
    pub fn add_slot(&mut self, name: impl Into<String>, slot: AcceleratorSlot) {
        self.slots.push((name.into(), slot));
    }

    /// Number of slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Applies a configuration word: nibble `i` selects slot `i`'s mode.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when the word decodes
    /// to an invalid mode or the slot count exceeds the word capacity.
    pub fn configure(&mut self, word: ConfigWord) -> Result<()> {
        let modes = word.unpack(self.slots.len())?;
        for ((_, slot), mode) in self.slots.iter_mut().zip(modes) {
            slot.select(mode);
        }
        Ok(())
    }

    /// The currently selected mode of a named slot.
    #[must_use]
    pub fn mode_of(&self, name: &str) -> Option<ApproxMode> {
        self.slots.iter().find(|(n, _)| n == name).map(|(_, s)| s.mode())
    }

    /// Total power of the architecture under the current configuration.
    #[must_use]
    pub fn total_power_nw(&self) -> f64 {
        self.slots.iter().map(|(_, s)| s.hw_cost().power_nw).sum()
    }

    /// Total area (all variants of a slot share the configurable
    /// datapath, so the *selected* variant's area is counted — matching
    /// the paper's configurable-block model where one block morphs).
    #[must_use]
    pub fn total_area_ge(&self) -> f64 {
        self.slots.iter().map(|(_, s)| s.hw_cost().area_ge).sum()
    }

    /// Runs a SAD task on the named slot.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when the slot is
    /// missing or of the wrong type; propagates accelerator errors.
    pub fn run_sad(&self, name: &str, current: &[u64], reference: &[u64]) -> Result<u64> {
        match self.find(name)? {
            AcceleratorSlot::Sad { variants, selected } => {
                variants[*selected].sad(current, reference)
            }
            _ => Err(XlacError::InvalidConfiguration(format!("slot '{name}' is not a SAD"))),
        }
    }

    /// Runs a low-pass filter task on the named slot.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiAcceleratorArchitecture::run_sad`].
    pub fn run_filter(&self, name: &str, image: &Grid<u64>) -> Result<Grid<u64>> {
        match self.find(name)? {
            AcceleratorSlot::Filter { variants, selected } => variants[*selected].apply(image),
            _ => Err(XlacError::InvalidConfiguration(format!("slot '{name}' is not a filter"))),
        }
    }

    /// Runs a 4×4 DCT task on the named slot.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiAcceleratorArchitecture::run_sad`].
    pub fn run_dct(&self, name: &str, block: &[[i64; 4]; 4]) -> Result<[[i64; 4]; 4]> {
        match self.find(name)? {
            AcceleratorSlot::Dct { variants, selected } => Ok(variants[*selected].forward(block)),
            _ => Err(XlacError::InvalidConfiguration(format!("slot '{name}' is not a DCT"))),
        }
    }

    fn find(&self, name: &str) -> Result<&AcceleratorSlot> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| XlacError::InvalidConfiguration(format!("unknown slot '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> MultiAcceleratorArchitecture {
        let mut a = MultiAcceleratorArchitecture::new();
        a.add_slot("me", AcceleratorSlot::sad(16).unwrap());
        a.add_slot("smooth", AcceleratorSlot::filter().unwrap());
        a.add_slot("xfrm", AcceleratorSlot::dct().unwrap());
        a
    }

    #[test]
    fn default_configuration_is_accurate() {
        let a = arch();
        for name in ["me", "smooth", "xfrm"] {
            assert_eq!(a.mode_of(name), Some(ApproxMode::Accurate));
        }
        assert_eq!(a.mode_of("nope"), None);
    }

    #[test]
    fn config_word_selects_per_slot_modes() {
        let mut a = arch();
        let word =
            ConfigWord::pack(&[ApproxMode::Aggressive, ApproxMode::Accurate, ApproxMode::Medium])
                .unwrap();
        a.configure(word).unwrap();
        assert_eq!(a.mode_of("me"), Some(ApproxMode::Aggressive));
        assert_eq!(a.mode_of("smooth"), Some(ApproxMode::Accurate));
        assert_eq!(a.mode_of("xfrm"), Some(ApproxMode::Medium));
    }

    #[test]
    fn reconfiguration_changes_power() {
        let mut a = arch();
        let accurate_power = a.total_power_nw();
        a.configure(
            ConfigWord::pack(&[
                ApproxMode::Aggressive,
                ApproxMode::Aggressive,
                ApproxMode::Aggressive,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(a.total_power_nw() < accurate_power);
        // Back to accurate restores the original figure.
        a.configure(
            ConfigWord::pack(&[ApproxMode::Accurate, ApproxMode::Accurate, ApproxMode::Accurate])
                .unwrap(),
        )
        .unwrap();
        assert!((a.total_power_nw() - accurate_power).abs() < 1e-9);
    }

    #[test]
    fn tasks_dispatch_to_the_selected_variant() {
        let mut a = arch();
        let cur = [10u64; 16];
        let refb = [14u64; 16];
        // Accurate mode: exact SAD.
        assert_eq!(a.run_sad("me", &cur, &refb).unwrap(), 64);
        // Aggressive mode: possibly approximate, still plausible.
        a.configure(
            ConfigWord::pack(&[ApproxMode::Aggressive, ApproxMode::Accurate, ApproxMode::Accurate])
                .unwrap(),
        )
        .unwrap();
        let approx = a.run_sad("me", &cur, &refb).unwrap();
        assert!(approx.abs_diff(64) < 256);
    }

    #[test]
    fn wrong_slot_type_is_rejected() {
        let a = arch();
        assert!(a.run_sad("smooth", &[0; 16], &[0; 16]).is_err());
        assert!(a.run_filter("me", &Grid::new(8, 8, 0u64)).is_err());
        assert!(a.run_dct("smooth", &[[0; 4]; 4]).is_err());
        assert!(a.run_sad("ghost", &[0; 16], &[0; 16]).is_err());
    }

    #[test]
    fn filter_and_dct_dispatch() {
        let a = arch();
        let img = Grid::new(8, 8, 100u64);
        let out = a.run_filter("smooth", &img).unwrap();
        assert!(out.iter().all(|&v| v == 100));
        let y = a.run_dct("xfrm", &[[1i64; 4]; 4]).unwrap();
        assert_eq!(y[0][0], 16);
    }

    #[test]
    fn manager_integration() {
        use crate::manager::{AcceleratorOption, AppRequest, ApproximationManager};
        // Build the manager's options from the architecture's own power
        // figures (the Fig.7 loop closed).
        let mut a = arch();
        let mut options = Vec::new();
        for &mode in &ApproxMode::ALL {
            a.configure(
                ConfigWord::pack(&[mode, ApproxMode::Accurate, ApproxMode::Accurate]).unwrap(),
            )
            .unwrap();
            options.push(AcceleratorOption {
                mode,
                power_nw: a.total_power_nw(),
                quality_loss: match mode {
                    ApproxMode::Accurate => 0.0,
                    ApproxMode::Mild => 0.01,
                    ApproxMode::Medium => 0.04,
                    ApproxMode::Aggressive => 0.2,
                },
            });
        }
        let picks = ApproximationManager::select_min_power(&[AppRequest {
            app: "me-app".into(),
            max_quality_loss: 0.05,
            options,
        }])
        .unwrap();
        assert_eq!(picks[0].option.mode, ApproxMode::Medium);
        // Apply the manager's pick back to the architecture.
        a.configure(
            ConfigWord::pack(&[picks[0].option.mode, ApproxMode::Accurate, ApproxMode::Accurate])
                .unwrap(),
        )
        .unwrap();
        assert_eq!(a.mode_of("me"), Some(ApproxMode::Medium));
    }
}
