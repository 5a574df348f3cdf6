//! HyFD: hybrid FD discovery [13].
//!
//! HyFD interleaves two discovery principles that are individually
//! incomplete but complementary (paper Section 7.1):
//!
//! 1. **Sampling** (row-based): compare *promising* record pairs —
//!    neighbors within PLI clusters under a similarity sort — to harvest
//!    agree sets cheaply. Each agree set contributes non-FDs to the
//!    negative cover. Sampling windows grow progressively and an
//!    attribute is abandoned when its efficiency (new non-FDs per
//!    comparison) drops below a threshold.
//! 2. **Validation** (column-based): induce the positive cover from the
//!    negative cover, then validate it level-wise against the PLIs.
//!    Violations yield new agree sets that refine both covers. If more
//!    than 10 % of a level turns out invalid, the traversal is deemed
//!    inefficient and HyFD switches back to sampling.
//!
//! DynFD bootstraps from this implementation (positive cover + the
//! shared PLI/compressed-record structures) and competes against its
//! repeated re-execution in the Figure 7 experiment.

mod sampler;
mod validator;

use sampler::Sampler;

use dynfd_lattice::{induce_from_negative_cover, FdTree};
use dynfd_relation::DynamicRelation;

/// Tuning knobs for HyFD. The defaults follow the paper ([13] and the
/// DynFD paper's hard-coded 10 % switching threshold).
#[derive(Clone, Copy, Debug)]
pub struct HyFdConfig {
    /// Sampling stops when the best attribute's efficiency (new non-FDs
    /// per comparison in its last round) falls below this.
    pub sampling_efficiency_threshold: f64,
    /// The lattice traversal switches back to sampling when the fraction
    /// of invalid FDs in a level exceeds this (0.1 in the papers).
    pub invalid_ratio_switch: f64,
}

impl Default for HyFdConfig {
    fn default() -> Self {
        HyFdConfig {
            sampling_efficiency_threshold: 0.01,
            invalid_ratio_switch: 0.1,
        }
    }
}

/// Work counters for one HyFD run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HyFdStats {
    /// Record-pair comparisons performed by the sampler.
    pub comparisons: usize,
    /// Candidate (lhs, rhs-set) validations performed.
    pub validations: usize,
    /// Sampling rounds executed (initial phase + switch-backs).
    pub sampling_rounds: usize,
    /// Times the validator switched back to sampling.
    pub switches: usize,
}

/// Result of [`discover_with`].
#[derive(Clone, Debug)]
pub struct HyFdOutput {
    /// The complete positive cover: all minimal, non-trivial FDs.
    pub fds: FdTree,
    /// Work counters.
    pub stats: HyFdStats,
}

/// Discovers all minimal, non-trivial FDs of `rel` with default tuning.
pub fn discover(rel: &DynamicRelation) -> FdTree {
    discover_with(rel, &HyFdConfig::default()).fds
}

/// Discovers all minimal, non-trivial FDs of `rel`.
pub fn discover_with(rel: &DynamicRelation, cfg: &HyFdConfig) -> HyFdOutput {
    let mut stats = HyFdStats::default();
    if rel.len() < 2 {
        return HyFdOutput {
            fds: crate::trivial_cover(rel),
            stats,
        };
    }

    // Phase 1: initial sampling builds a first negative cover.
    let mut neg = FdTree::new();
    let mut sampler = Sampler::new(rel);
    sampler.run(&mut neg, cfg.sampling_efficiency_threshold, &mut stats);

    // Phase 2: induce candidates and validate level-wise, switching back
    // to sampling when the traversal becomes inefficient.
    let mut fds = induce_from_negative_cover(&neg, rel.arity());
    validator::validate_cover(rel, &mut fds, &mut neg, &mut sampler, cfg, &mut stats);

    HyFdOutput { fds, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{paper_relation, random_relation, rel};
    use dynfd_common::{AttrSet, Fd};

    fn s(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn paper_example() {
        let fds = discover(&paper_relation());
        let expect: FdTree = [
            (s(&[1]), 0),
            (s(&[2]), 0),
            (s(&[2]), 3),
            (s(&[0, 3]), 2),
            (s(&[1, 3]), 2),
        ]
        .into_iter()
        .map(|(l, r)| Fd::new(l, r))
        .collect();
        assert_eq!(fds, expect);
    }

    #[test]
    fn agrees_with_tane_and_fdep_on_random_relations() {
        for seed in 0..10u64 {
            let r = random_relation(seed, 50, 6, 4);
            let h = discover(&r);
            let t = crate::tane::discover(&r);
            assert_eq!(h, t, "HyFD and TANE disagree on seed {seed}");
        }
    }

    #[test]
    fn degenerate_relations() {
        assert_eq!(discover(&rel(&[])).len(), 2);
        assert_eq!(discover(&rel(&[&["a", "b", "c"]])).len(), 3);
        // All-identical rows.
        let dup = rel(&[&["x", "y"], &["x", "y"], &["x", "y"]]);
        let fds = discover(&dup);
        assert!(fds.contains(AttrSet::empty(), 0));
        assert!(fds.contains(AttrSet::empty(), 1));
        // All-distinct single column.
        let key = rel(&[&["a"], &["b"], &["c"]]);
        assert!(discover(&key).is_empty());
    }

    #[test]
    fn stats_reflect_work() {
        let out = discover_with(&paper_relation(), &HyFdConfig::default());
        assert!(out.stats.comparisons > 0, "sampler must compare something");
        assert!(
            out.stats.validations > 0,
            "validator must validate something"
        );
        assert!(out.stats.sampling_rounds > 0);
    }

    #[test]
    fn sampling_disabled_still_correct() {
        // With an impossible efficiency threshold the sampler gives up
        // immediately and validation has to do all the work.
        let cfg = HyFdConfig {
            sampling_efficiency_threshold: f64::INFINITY,
            invalid_ratio_switch: 2.0,
        };
        for seed in 0..5u64 {
            let r = random_relation(seed + 7, 40, 5, 3);
            let out = discover_with(&r, &cfg);
            assert_eq!(out.fds, crate::tane::discover(&r), "seed {seed}");
        }
    }
}
