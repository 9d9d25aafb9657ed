//! The Pareto front over (error, aged delay, gate count).
//!
//! All three objectives are minimized; aged *slack* (reported alongside) is
//! the clock minus the aged delay, so minimizing delay maximizes slack. The
//! front keeps a canonical sort order, which makes its contents a pure
//! function of the *set* of inserted points — invariant under insertion
//! order and job count.

use crate::candidate::Candidate;
use std::cmp::Ordering;

/// A candidate's full evaluation: error statistics from functional
/// simulation, aged timing, and post-optimization size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Mean absolute output error against the exact arithmetic reference.
    pub mean_abs_error: f64,
    /// Largest absolute output error observed.
    pub max_abs_error: f64,
    /// Fraction of stimulus vectors with any output error.
    pub error_rate: f64,
    /// Critical-path delay under the scenario's aged gate delays, ps.
    pub aged_delay_ps: f64,
    /// `clock_ps − aged_delay_ps`; the clock is the exact component's own
    /// aged delay, so the exact baseline sits at zero slack.
    pub slack_ps: f64,
    /// Gate count after synthesis optimization.
    pub gate_count: usize,
}

impl Score {
    /// Whether this score dominates `other`: no objective worse, at least
    /// one strictly better.
    pub fn dominates(&self, other: &Score) -> bool {
        let no_worse = self.mean_abs_error <= other.mean_abs_error
            && self.aged_delay_ps <= other.aged_delay_ps
            && self.gate_count <= other.gate_count;
        let strictly_better = self.mean_abs_error < other.mean_abs_error
            || self.aged_delay_ps < other.aged_delay_ps
            || self.gate_count < other.gate_count;
        no_worse && strictly_better
    }
}

/// The front's canonical order: error, then delay, then gate count, then
/// label. Labels are formatted only to break a tie on all three scores.
fn canonical_order(x: &FrontPoint, y: &FrontPoint) -> Ordering {
    x.score
        .mean_abs_error
        .total_cmp(&y.score.mean_abs_error)
        .then(x.score.aged_delay_ps.total_cmp(&y.score.aged_delay_ps))
        .then(x.score.gate_count.cmp(&y.score.gate_count))
        .then_with(|| x.candidate.label().cmp(&y.candidate.label()))
}

/// A non-dominated candidate with its score.
#[derive(Debug, Clone)]
pub struct FrontPoint {
    /// The variant configuration; rebuildable for export.
    pub candidate: Candidate,
    /// Its evaluation.
    pub score: Score,
}

/// The set of non-dominated points, kept in canonical order
/// (error, then delay, then gate count, then label).
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Offers a point. Returns `true` if it joined the front (evicting any
    /// points it dominates); `false` if an existing point dominates it or
    /// scores identically.
    pub fn insert(&mut self, point: FrontPoint) -> bool {
        for existing in &self.points {
            if existing.score.dominates(&point.score) || existing.score == point.score {
                return false;
            }
        }
        self.points.retain(|p| !point.score.dominates(&p.score));
        // The survivors stay sorted, so the new point goes after every
        // point ordered at or before it — where a stable re-sort would
        // put it.
        let position = self
            .points
            .partition_point(|p| canonical_order(p, &point).is_le());
        self.points.insert(position, point);
        true
    }

    /// The non-dominated points in canonical order.
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_core::ComponentKind;

    fn point(err: f64, delay: f64, gates: usize, precision: usize) -> FrontPoint {
        FrontPoint {
            candidate: Candidate::truncated(ComponentKind::Adder, 16, precision).unwrap(),
            score: Score {
                mean_abs_error: err,
                max_abs_error: err * 2.0,
                error_rate: 0.5,
                aged_delay_ps: delay,
                slack_ps: 100.0 - delay,
                gate_count: gates,
            },
        }
    }

    #[test]
    fn dominated_points_are_rejected_and_evicted() {
        let mut front = ParetoFront::new();
        assert!(front.insert(point(1.0, 10.0, 100, 8)));
        // Worse on every axis: rejected.
        assert!(!front.insert(point(2.0, 11.0, 120, 7)));
        // Better on every axis: evicts the original.
        assert!(front.insert(point(0.5, 9.0, 90, 6)));
        assert_eq!(front.len(), 1);
        // Trade-off point: coexists.
        assert!(front.insert(point(0.1, 20.0, 80, 5)));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn front_is_invariant_under_insertion_order() {
        let points = [
            point(1.0, 10.0, 100, 8),
            point(0.5, 12.0, 110, 9),
            point(2.0, 8.0, 95, 10),
            point(3.0, 30.0, 300, 11),
            point(0.5, 12.0, 105, 12),
        ];
        let mut orders = Vec::new();
        for rotation in 0..points.len() {
            let mut front = ParetoFront::new();
            for i in 0..points.len() {
                front.insert(points[(i + rotation) % points.len()].clone());
            }
            let labels: Vec<String> = front.points().iter().map(|p| p.candidate.label()).collect();
            orders.push(labels);
        }
        for order in &orders[1..] {
            assert_eq!(order, &orders[0]);
        }
    }

    #[test]
    fn no_point_dominates_another_on_the_front() {
        let mut front = ParetoFront::new();
        for (i, err) in [5.0, 1.0, 3.0, 0.5, 4.0].iter().enumerate() {
            front.insert(point(*err, 20.0 - *err, 100 + i, (i % 15) + 1));
        }
        for a in front.points() {
            for b in front.points() {
                assert!(!a.score.dominates(&b.score) || std::ptr::eq(a, b));
            }
        }
    }
}
