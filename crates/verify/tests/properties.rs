//! Property tests of the verification campaign.

use aix_aging::AgingModel;
use aix_cells::Library;
use aix_core::{characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind};
use aix_verify::{verify_library, Perturbation, VerifyConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A zero-sigma campaign re-measures exactly what characterization
    /// measured, so characterization-produced entries always pass —
    /// regardless of seed, sample count or component width.
    #[test]
    fn zero_sigma_campaign_passes_characterized_entries(
        seed in any::<u64>(),
        samples in 1usize..4,
        width in 10usize..=14,
    ) {
        let cells = cells();
        let mut library = ApproxLibrary::new();
        library.insert(
            characterize_component(
                &cells,
                &CharacterizationConfig::quick(ComponentKind::Adder, width),
            )
            .expect("characterize"),
        );
        let config = VerifyConfig {
            samples: NonZeroUsize::new(samples).unwrap(),
            perturbation: Perturbation::NONE,
            seed,
            margin_target_ps: 0.0,
            sim_vectors: 0,
            ..VerifyConfig::default()
        };
        let report = verify_library(&cells, &library, &AgingModel::calibrated(), &config)
            .expect("campaign");
        prop_assert!(!report.entries.is_empty());
        prop_assert!(report.all_passed(), "{}", report.render());
        // And every margin is genuinely non-negative, not merely above
        // some sample-dependent threshold.
        for entry in &report.entries {
            if let Some(stats) = entry.stats {
                prop_assert!(stats.min_ps >= 0.0, "margin {}", stats.min_ps);
            }
        }
    }
}
