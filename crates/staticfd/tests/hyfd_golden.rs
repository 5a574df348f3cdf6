//! Golden values pinning HyFD's work and output on the six Table-3
//! shapes.
//!
//! Each case generates a profile's table at a size that runs in seconds
//! in a debug build, optionally replays a prefix of its change history
//! (so arena slots are reused and no longer follow record-id order), and
//! runs HyFD with default tuning. The expected work counters and cover
//! hash were captured from a sampler that folded every compared pair's
//! agree set into the negative cover. A faster sampler must reproduce
//! them exactly: it may skip redundant tree walks, but never change which
//! non-FDs are found or how the efficiency schedule runs. Four cases
//! switch back to sampling, so the sampler's state across runs is pinned
//! too.

use dynfd_common::Fd;
use dynfd_datagen::{DatasetProfile, GeneratedDataset, PAPER_PROFILES};
use dynfd_static::hyfd::{discover_with, HyFdConfig, HyFdStats};

/// One pinned run: profile, initial rows, replayed changes, expected
/// counters, minimal-FD count and cover hash.
struct Golden {
    profile: &'static str,
    rows: usize,
    changes: usize,
    stats: HyFdStats,
    fds: usize,
    hash: u64,
}

const fn stats(
    comparisons: usize,
    validations: usize,
    sampling_rounds: usize,
    switches: usize,
) -> HyFdStats {
    HyFdStats {
        comparisons,
        validations,
        sampling_rounds,
        switches,
    }
}

const GOLDEN: &[Golden] = &[
    Golden {
        profile: "cpu",
        rows: 62,
        changes: 0,
        stats: stats(1082, 30, 20, 0),
        fds: 118,
        hash: 0xcbee07ef3ad1e58d,
    },
    Golden {
        profile: "cpu",
        rows: 62,
        changes: 300,
        stats: stats(1532, 32, 22, 0),
        fds: 122,
        hash: 0x2febe1fc6e9fb1b6,
    },
    Golden {
        profile: "disease",
        rows: 800,
        changes: 700,
        stats: stats(11486, 48, 16, 0),
        fds: 228,
        hash: 0xc258db6627101892,
    },
    Golden {
        profile: "disease",
        rows: 1600,
        changes: 1500,
        stats: stats(21943, 50, 15, 1),
        fds: 217,
        hash: 0xa4cf7882fc8547f3,
    },
    Golden {
        profile: "actor",
        rows: 120,
        changes: 0,
        stats: stats(10429, 83, 90, 1),
        fds: 5938,
        hash: 0x2254487be02d0d8a,
    },
    Golden {
        profile: "single",
        rows: 800,
        changes: 0,
        stats: stats(22895, 50, 30, 2),
        fds: 449,
        hash: 0xf99db578772bf639,
    },
    Golden {
        profile: "artist",
        rows: 1000,
        changes: 400,
        stats: stats(25291, 99, 22, 1),
        fds: 366,
        hash: 0x96eb47f4b2f8efd8,
    },
    Golden {
        profile: "claims",
        rows: 1054,
        changes: 500,
        stats: stats(10658, 7, 8, 0),
        fds: 20,
        hash: 0x62f831b7bce9f813,
    },
];

/// FNV-1a over the sorted cover: each FD as its LHS attributes, a
/// separator, then its RHS. Stable across platforms and toolchains.
fn cover_hash(fds: &[Fd]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut feed = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for fd in fds {
        for a in fd.lhs.iter() {
            feed(a as u64);
        }
        feed(u64::MAX);
        feed(fd.rhs as u64);
    }
    h
}

#[test]
fn hyfd_work_and_cover_match_golden_values() {
    for g in GOLDEN {
        let base = PAPER_PROFILES
            .iter()
            .find(|p| p.name == g.profile)
            .expect("paper profile");
        let profile = DatasetProfile {
            initial_rows: g.rows,
            changes: g.changes,
            bursts: 0,
            ..base.clone()
        };
        let ds = GeneratedDataset::generate(&profile);
        let mut rel = ds.to_relation();
        for batch in ds.batches(50, None) {
            rel.apply_batch(&batch).expect("generated batch applies");
        }
        let out = discover_with(&rel, &HyFdConfig::default());
        let fds = out.fds.all_fds();
        let case = format!("{}@{} rows + {} changes", g.profile, g.rows, g.changes);
        assert_eq!(out.stats, g.stats, "{case}: work counters");
        assert_eq!(fds.len(), g.fds, "{case}: cover size");
        assert_eq!(cover_hash(&fds), g.hash, "{case}: cover hash");
    }
}
