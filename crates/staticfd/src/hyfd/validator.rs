//! HyFD's level-wise validation phase.
//!
//! The positive cover induced from the (incomplete) negative cover is a
//! set of *candidates*: every true minimal FD has a generalization among
//! them, but some candidates are still too general. The validator walks
//! the cover bottom-up; violations discovered by the PLI validator yield
//! full agree sets that refine both covers (dependency induction), and
//! when a level's invalid ratio exceeds the switching threshold the
//! sampler is resumed — the hybrid "back to row-based" move.

use super::{HyFdConfig, HyFdStats, Sampler};
use dynfd_common::AttrSet;
use dynfd_lattice::{specialize_into, FdTree};
use dynfd_relation::{agree_set, validate, DynamicRelation, ValidationOptions};
use std::collections::BTreeMap;

/// Incorporates the witnessed agree set `agree` into both covers: every
/// `agree -> y` with `y ∉ agree` is a non-FD; the negative cover gains
/// the maximal ones and the positive cover specializes accordingly.
pub(super) fn apply_non_fd_witness(
    arity: usize,
    agree: AttrSet,
    fds: &mut FdTree,
    neg: &mut FdTree,
) {
    for y in 0..arity {
        if !agree.contains(y) {
            neg.add_maximal_evicting(agree, y);
            specialize_into(fds, agree, y, arity);
        }
    }
}

/// Validates the candidate cover `fds` level by level until every entry
/// is confirmed against `rel`, refining `neg` along the way.
pub(super) fn validate_cover(
    rel: &DynamicRelation,
    fds: &mut FdTree,
    neg: &mut FdTree,
    sampler: &mut Sampler<'_>,
    cfg: &HyFdConfig,
    stats: &mut HyFdStats,
) {
    let arity = rel.arity();
    let full = ValidationOptions::full();
    let mut level = 0usize;

    while fds.max_level().is_some_and(|max| level <= max) {
        let snapshot = fds.get_level(level);
        // Validate all RHSs sharing an LHS in one pass.
        let mut groups: BTreeMap<AttrSet, AttrSet> = BTreeMap::new();
        for fd in &snapshot {
            groups
                .entry(fd.lhs)
                .or_insert_with(AttrSet::empty)
                .insert(fd.rhs);
        }

        let mut total = 0usize;
        let mut invalid = 0usize;
        for (lhs, rhs_set) in groups {
            // Induction triggered by earlier groups may have evicted
            // some candidates of this snapshot already.
            let live: AttrSet = rhs_set.iter().filter(|&r| fds.contains(lhs, r)).collect();
            if live.is_empty() {
                continue;
            }
            stats.validations += 1;
            total += live.len();
            let result = validate(rel, lhs, live, &full);
            for (_, a, b) in result.violations() {
                invalid += 1;
                let agree = agree_set(rel, a, b).expect("live witnesses");
                apply_non_fd_witness(arity, agree, fds, neg);
            }
        }

        // Hybrid switch: a noisy level means the negative cover is still
        // far from complete — cheap sampling will likely find many more
        // violations than per-candidate validation.
        if total > 0 && invalid as f64 / total as f64 > cfg.invalid_ratio_switch {
            stats.switches += 1;
            let fresh = sampler.run(neg, cfg.sampling_efficiency_threshold, stats);
            for agree in fresh {
                for y in 0..arity {
                    if !agree.contains(y) {
                        specialize_into(fds, agree, y, arity);
                    }
                }
            }
        }
        level += 1;
    }
}
