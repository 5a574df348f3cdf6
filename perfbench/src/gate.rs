//! The correctness gate run after every replay, outside the timed region.

use dynfd_core::DynFd;
use dynfd_lattice::invert_positive_cover;

/// Proves the engine's covers exact for its current relation: every
/// positive-cover FD holds and is minimal, every negative-cover non-FD
/// fails and is maximal ([`DynFd::verify_consistency`]), and the negative
/// cover is exactly the inversion of the positive one. Together these
/// pin both covers down without a static re-profiling run.
pub fn check(engine: &DynFd) -> Result<(), String> {
    engine.verify_consistency()?;
    let inverted = invert_positive_cover(engine.positive_cover(), engine.relation().arity());
    if &inverted != engine.negative_cover() {
        return Err("negative cover is not the inversion of the positive cover".into());
    }
    Ok(())
}
