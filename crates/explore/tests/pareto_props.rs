//! Property tests for the Pareto front: for *any* set of scores, the front
//! returns no dominated point, and its contents (and order) are invariant
//! under the insertion order. Together with the search's own byte-identity
//! test (jobs=1 vs N) this pins the determinism contract the CLI and CI
//! rely on.

use aix_core::ComponentKind;
use aix_explore::{Candidate, FrontPoint, ParetoFront, Score};
use proptest::prelude::*;

/// Builds a labelled point from a raw (error, delay, gates) triple; the
/// precision index keeps candidate labels distinct.
fn point(index: usize, err: f64, delay: f64, gates: usize) -> FrontPoint {
    FrontPoint {
        candidate: Candidate::truncated(ComponentKind::Adder, 16, (index % 15) + 1)
            .expect("in-range precision"),
        score: Score {
            mean_abs_error: err,
            max_abs_error: err * 2.0,
            error_rate: 0.1,
            aged_delay_ps: delay,
            slack_ps: 1000.0 - delay,
            gate_count: gates,
        },
    }
}

fn front_labels(points: &[FrontPoint]) -> Vec<(String, u64)> {
    // Pair the label with the error bits so identical labels with different
    // scores (same precision index) stay distinguishable.
    points
        .iter()
        .map(|p| (p.candidate.label(), p.score.mean_abs_error.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No returned point is dominated by another returned point.
    #[test]
    fn front_never_returns_a_dominated_point(
        raw in proptest::collection::vec((0.0f64..1e6, 0.0f64..1e4, 1usize..5000), 1..24)
    ) {
        let mut front = ParetoFront::new();
        for (i, &(err, delay, gates)) in raw.iter().enumerate() {
            front.insert(point(i, err, delay, gates));
        }
        for a in front.points() {
            for b in front.points() {
                prop_assert!(
                    !a.score.dominates(&b.score),
                    "front returned a dominated pair"
                );
            }
        }
        prop_assert!(!front.is_empty(), "at least one point always survives");
    }

    /// The front's contents and order are a pure function of the inserted
    /// *set*: any rotation of the insertion order yields the same front.
    #[test]
    fn front_is_insertion_order_invariant(
        raw in proptest::collection::vec((0.0f64..1e6, 0.0f64..1e4, 1usize..5000), 1..16),
        rotation in 0usize..16,
    ) {
        let points: Vec<FrontPoint> = raw
            .iter()
            .enumerate()
            .map(|(i, &(err, delay, gates))| point(i, err, delay, gates))
            .collect();
        let mut in_order = ParetoFront::new();
        for p in &points {
            in_order.insert(p.clone());
        }
        let mut rotated = ParetoFront::new();
        for i in 0..points.len() {
            rotated.insert(points[(i + rotation) % points.len()].clone());
        }
        let mut reversed = ParetoFront::new();
        for p in points.iter().rev() {
            reversed.insert(p.clone());
        }
        prop_assert_eq!(front_labels(in_order.points()), front_labels(rotated.points()));
        prop_assert_eq!(front_labels(in_order.points()), front_labels(reversed.points()));
    }

    /// The front is kept in exactly the order a stable sort by (error,
    /// delay, gates, label) gives its points. Narrow ranges make ties on
    /// all three scores common, so the label tie-break is exercised.
    #[test]
    fn front_order_is_the_canonical_sort(
        raw in proptest::collection::vec((0u8..4, 0u8..4, 1usize..4, 0.0f64..1.0), 1..24)
    ) {
        let mut front = ParetoFront::new();
        for (i, &(err, delay, gates, rate)) in raw.iter().enumerate() {
            let mut p = point(i, f64::from(err), f64::from(delay), gates);
            p.score.error_rate = rate;
            front.insert(p);
        }
        let mut sorted = front.points().to_vec();
        sorted.sort_by(|x, y| {
            x.score
                .mean_abs_error
                .total_cmp(&y.score.mean_abs_error)
                .then(x.score.aged_delay_ps.total_cmp(&y.score.aged_delay_ps))
                .then(x.score.gate_count.cmp(&y.score.gate_count))
                .then(x.candidate.label().cmp(&y.candidate.label()))
        });
        prop_assert_eq!(front_labels(front.points()), front_labels(&sorted));
    }

    /// Every insertion report is honest: `true` means the point is now on
    /// the front, `false` means it is dominated by (or identical to) a
    /// surviving point.
    #[test]
    fn insertion_reports_match_membership(
        raw in proptest::collection::vec((0.0f64..1e3, 0.0f64..1e3, 1usize..100), 1..12)
    ) {
        let mut front = ParetoFront::new();
        for (i, &(err, delay, gates)) in raw.iter().enumerate() {
            let p = point(i, err, delay, gates);
            let joined = front.insert(p.clone());
            let present = front
                .points()
                .iter()
                .any(|q| q.score == p.score && q.candidate.label() == p.candidate.label());
            if joined {
                prop_assert!(present, "accepted point must be on the front");
            } else {
                let covered = front
                    .points()
                    .iter()
                    .any(|q| q.score.dominates(&p.score) || q.score == p.score);
                prop_assert!(covered, "rejected point must be dominated or duplicate");
            }
        }
    }
}
