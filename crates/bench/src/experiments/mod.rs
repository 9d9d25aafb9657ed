//! One module per paper figure, plus the headline summary.
//!
//! Every module exposes `run(&Options) -> String`: a self-contained report
//! with the measured series and the paper's reference values side by side.

pub mod ablation;
pub mod explore;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8a;
pub mod fig8b;
pub mod fig8c;
pub mod headline;
pub mod schedule;

use aix_aging::{AgingScenario, Lifetime};

/// The four aging scenarios of the motivational study (Fig. 1/Fig. 2).
pub fn motivational_scenarios() -> [(&'static str, AgingScenario); 4] {
    [
        ("1y balance", AgingScenario::balanced(Lifetime::YEARS_1)),
        ("10y balance", AgingScenario::balanced(Lifetime::YEARS_10)),
        ("1y worst", AgingScenario::worst_case(Lifetime::YEARS_1)),
        ("10y worst", AgingScenario::worst_case(Lifetime::YEARS_10)),
    ]
}
