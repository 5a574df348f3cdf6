//! End-to-end workflows over the full stack: generated paper-shaped
//! datasets streamed through DynFD with monitoring, cover persistence
//! across process "restarts", and the extension prunings running on
//! realistic change mixes.

use dynfd::common::Fd;
use dynfd::core::{DynFd, DynFdConfig, FdMonitor};
use dynfd::datagen::{DatasetProfile, GeneratedDataset, PAPER_PROFILES};
use dynfd::lattice::io::{read_cover, write_cover};

fn small_profile(name: &'static str, cols: usize, mix: (f64, f64, f64)) -> DatasetProfile {
    DatasetProfile {
        name,
        columns: cols,
        initial_rows: 60,
        changes: 400,
        insert_pct: mix.0,
        delete_pct: mix.1,
        update_pct: mix.2,
        update_columns: 2,
        seed: 0xE2E,
        bursts: 0,
        burst_len: 0,
    }
}

/// Replays a generated dataset through DynFD, asserting oracle equality
/// after every batch and returning the final instance.
fn replay(data: &GeneratedDataset, config: DynFdConfig, batch: usize) -> DynFd {
    let mut dynfd = DynFd::new(data.to_relation(), config);
    for b in data.batches(batch, None) {
        dynfd.apply_batch(&b).unwrap();
        if dynfd.relation().len() <= 120 && dynfd.relation().arity() <= 8 {
            let oracle = dynfd::staticfd::tane::discover(dynfd.relation());
            assert_eq!(dynfd.positive_cover(), &oracle, "{}", data.profile.name);
        }
    }
    dynfd
}

#[test]
fn insert_heavy_stream_like_claims() {
    let data = GeneratedDataset::generate(&small_profile("mini-claims", 6, (100.0, 0.0, 0.0)));
    let dynfd = replay(&data, DynFdConfig::default(), 40);
    assert_eq!(dynfd.relation().len(), 60 + 400);
}

#[test]
fn update_heavy_stream_like_cpu() {
    let data = GeneratedDataset::generate(&small_profile("mini-cpu", 7, (4.0, 1.0, 95.0)));
    let dynfd = replay(&data, DynFdConfig::default(), 50);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn mixed_stream_with_update_pruning_extension() {
    let data = GeneratedDataset::generate(&small_profile("mini-mixed", 6, (30.0, 10.0, 60.0)));
    let with_ext = replay(
        &data,
        DynFdConfig {
            update_pruning: true,
            ..DynFdConfig::default()
        },
        25,
    );
    let without = replay(&data, DynFdConfig::default(), 25);
    assert_eq!(with_ext.positive_cover(), without.positive_cover());
    assert_eq!(with_ext.negative_cover(), without.negative_cover());
}

#[test]
fn monitor_over_a_generated_stream() {
    let data = GeneratedDataset::generate(&small_profile("mini-monitor", 6, (20.0, 20.0, 60.0)));
    let mut dynfd = DynFd::new(data.to_relation(), DynFdConfig::default());
    let mut monitor = FdMonitor::new(&dynfd.minimal_fds());
    let batches = data.batches(25, None);
    let n_batches = batches.len() as u64;
    for b in &batches {
        let result = dynfd.apply_batch(b).unwrap();
        let report = monitor.observe(&result);
        // Report contents mirror the batch delta exactly.
        assert_eq!(report.broken.len(), result.removed.len());
        assert_eq!(report.appeared.len(), result.added.len());
    }
    assert_eq!(monitor.batches_observed(), n_batches);
    // Every currently-held FD must be visible to the age query, and the
    // robust set must be a subset of the current cover.
    let current: Vec<Fd> = dynfd.minimal_fds();
    for fd in &current {
        assert!(monitor.age(fd).is_some(), "{fd:?} held but not tracked");
        assert!((0.0..=1.0).contains(&monitor.stability(fd)));
    }
    for fd in monitor.robust_fds(n_batches) {
        assert!(
            current.contains(&fd),
            "robust FD {fd:?} must currently hold"
        );
    }
}

#[test]
fn cover_persistence_roundtrip_across_restart() {
    // Process A: profile statically, persist the cover.
    let data = GeneratedDataset::generate(&small_profile("mini-persist", 6, (50.0, 10.0, 40.0)));
    let rel_a = data.to_relation();
    let fds = dynfd::staticfd::hyfd::discover(&rel_a);
    let persisted = write_cover(&fds, &data.schema);

    // Process B: bootstrap DynFD from the persisted cover (no
    // re-profiling) and maintain.
    let restored = read_cover(&persisted, &data.schema).unwrap();
    assert_eq!(restored, fds);
    let mut dynfd = DynFd::with_cover(data.to_relation(), restored, DynFdConfig::default());
    for b in data.batches(50, Some(200)) {
        dynfd.apply_batch(&b).unwrap();
    }
    dynfd.verify_consistency().unwrap();
    let oracle = dynfd::staticfd::tane::discover(dynfd.relation());
    assert_eq!(dynfd.positive_cover(), &oracle);
}

#[test]
fn paper_profiles_smoke_end_to_end() {
    // Every Table 3 profile, heavily scaled down, streamed end to end
    // with internal invariants checked at the end.
    for p in PAPER_PROFILES {
        let mut small = p.scaled(0.01);
        small.initial_rows = small.initial_rows.min(150);
        small.changes = small.changes.min(300);
        let data = GeneratedDataset::generate(&small);
        let mut dynfd = DynFd::new(data.to_relation(), DynFdConfig::default());
        let mut total_changes = 0usize;
        for b in data.batches(60, None) {
            total_changes += b.len();
            dynfd
                .apply_batch(&b)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        assert_eq!(total_changes, small.changes, "{}", p.name);
        // Invariant check is exponential in arity; skip the 83-column actor.
        if small.columns <= 20 {
            dynfd
                .verify_consistency()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}

#[test]
fn throughput_metrics_accumulate_sensibly() {
    let data = GeneratedDataset::generate(&small_profile("mini-metrics", 6, (40.0, 20.0, 40.0)));
    let mut dynfd = DynFd::new(data.to_relation(), DynFdConfig::default());
    let mut inserts = 0usize;
    let mut deletes = 0usize;
    for b in data.batches(40, None) {
        let r = dynfd.apply_batch(&b).unwrap();
        inserts += r.metrics.inserts;
        deletes += r.metrics.deletes;
        assert_eq!(
            r.metrics.kernel_lanes,
            dynfd::relation::kernel::detected_kernel().lanes(),
            "every batch reports the detected kernel"
        );
    }
    let (ins_pct, del_pct, upd_pct) = data.change_mix();
    let n = data.changes.len() as f64;
    // Updates count once as insert and once as delete; rows inserted and
    // then deleted/updated *within the same batch* net out of both
    // counters, so the mix only bounds them from above.
    let max_inserts = (ins_pct + upd_pct) / 100.0 * n + 1.0;
    let max_deletes = (del_pct + upd_pct) / 100.0 * n + 1.0;
    assert!(inserts as f64 <= max_inserts, "{inserts} > {max_inserts}");
    assert!(deletes as f64 <= max_deletes, "{deletes} > {max_deletes}");
    assert!(inserts > 0 && deletes > 0);
    // The exact identity: net insertions equal the relation's growth.
    assert_eq!(
        inserts as i64 - deletes as i64,
        dynfd.relation().len() as i64 - data.initial_rows.len() as i64
    );
}
