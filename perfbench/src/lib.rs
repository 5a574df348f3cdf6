//! End-to-end and per-layer benchmark of the DynFD engine.
//!
//! Two workloads on the paper's Table-3 shapes, each loading some
//! layers heavily and bypassing others (see `README.md` for why each
//! exists and which end-to-end metric each layer metric should move):
//!
//! * `artist-tall` — 120,000 rows × 18 columns, in-process;
//! * `disease-serve` — two `disease` tenants on an in-process
//!   `ServeEngine` behind the unix-socket transport.
//!
//! A run repeats whole passes (set-up, replay, correctness gate) until
//! its replays have taken the requested time. The untraced run reports
//! the end-to-end metrics; the traced run records spans around the calls
//! into each crate, replays shadows of the individual layers outside the
//! timed region, and reports the per-layer metrics.

pub mod data;
pub mod gate;
mod inproc;
mod serve;
pub mod stats;
pub mod trace;

use dynfd_core::{BatchMetrics, DynFdConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics (name, unit), printed by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("changes_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("batch_success_ratio", "ratio"),
];

/// Per-layer metrics (name, unit), printed by the traced run. A layer a
/// workload bypasses does no work there and reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("staticfd.hyfd_s", "s"),
    ("lattice.invert_ms", "ms"),
    ("relation.build_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.insert_phase_ms", "ms"),
    ("core.delete_phase_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.fd_validations", "count"),
    ("core.non_fd_validations", "count"),
    ("core.added_fds", "count"),
    ("core.removed_fds", "count"),
    ("core.pruning_skip_ratio", "ratio"),
    ("core.sampling_skip_ratio", "ratio"),
    ("lattice.pos_fds", "count"),
    ("lattice.neg_fds", "count"),
    ("relation.apply_ms", "ms"),
    ("relation.resident_mb", "MB"),
    ("relation.cluster_prune_ratio", "ratio"),
    ("relation.cache_hit_ratio", "ratio"),
    ("relation.cache_evictions", "count"),
    ("relation.cache_mb", "MB"),
    ("persist.apply_ms", "ms"),
    ("persist.self_ms", "ms"),
    ("persist.wal_append_ms", "ms"),
    ("persist.fsync_ms", "ms"),
    ("persist.snapshot_ms", "ms"),
    ("persist.wal_bytes_per_change", "B"),
    ("persist.fsyncs_per_batch", "count"),
    ("serve.wire_us_per_frame", "us"),
    ("serve.server_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.replays", "count"),
    ("serve.shed", "count"),
    ("trace.batch_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The engine configuration of every workload: the defaults, with one
/// validation thread per engine instead of one per available core.
///
/// A fixed thread count keeps the workload the same on every machine.
/// One thread keeps it steady on a shared machine: on a two-vCPU virtual
/// machine, interleaved replays of `actor` varied by 0.90 (p90 batch
/// latency, interquartile range over median) with two threads against
/// 0.09 with one, because a level barrier waits for whichever thread the
/// host descheduled. Thread scaling is not what these workloads measure.
pub fn engine_config() -> DynFdConfig {
    DynFdConfig {
        parallelism: 1,
        ..DynFdConfig::default()
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `artist` at 120,000 rows, in-process.
    ArtistTall,
    /// Two `disease` tenants over the socket transport.
    DiseaseServe,
}

/// Input size: the benchmark's own, or a tiny one for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The workload as defined.
    Full,
    /// Same shape, a few hundred changes.
    Tiny,
}

/// The fixed definition of a workload at a scale.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Table-3 profile.
    pub profile: &'static str,
    /// Initial rows, when not the profile's own.
    pub rows: Option<usize>,
    /// Replayed prefix of the change history.
    pub changes: usize,
    /// Changes per batch.
    pub batch_size: usize,
    /// Concurrent tenants, one closed-loop client each (serve only).
    pub tenants: usize,
    /// Replays of the history per run, at least; more while the replays
    /// have not yet taken `--seconds`.
    pub min_passes: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ArtistTall, Workload::DiseaseServe];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArtistTall => "artist-tall",
            Workload::DiseaseServe => "disease-serve",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's definition. Tiny runs keep each shape's width and
    /// enough batches for its percentiles.
    pub fn spec(self, scale: Scale) -> Spec {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::ArtistTall => Spec {
                profile: "artist",
                rows: tiny.then_some(1_000),
                changes: if tiny { 330 } else { 10_000 },
                batch_size: if tiny { 3 } else { 100 },
                tenants: 1,
                min_passes: if tiny { 1 } else { 2 },
            },
            // 2 × 2,000 round trips: p99 has 40 samples beyond it.
            Workload::DiseaseServe => Spec {
                profile: "disease",
                rows: tiny.then_some(100),
                changes: if tiny { 5_010 } else { 20_000 },
                batch_size: 10,
                tenants: 2,
                min_passes: if tiny { 1 } else { 4 },
            },
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: permutes each relation's initial rows.
    pub seed: u64,
    /// Replay time to reach before the last pass ends (0 = one pass).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where temporary state (WAL directories, the socket) lives.
    pub out_dir: PathBuf,
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One replay of the workload's history (every tenant's, on `disease-serve`).
#[derive(Default)]
pub(crate) struct Pass {
    latencies_ms: Vec<f64>,
    replay_s: f64,
    changes: u64,
}

/// What a workload runner measured, before it becomes metrics.
#[derive(Default)]
pub(crate) struct Outcome {
    setup_s: Vec<f64>,
    passes: Vec<Pass>,
    /// Replay time summed over the passes.
    replay_s: f64,
    attempted: u64,
    failed: u64,
    batch_errors: Vec<String>,
    gate_errors: Vec<String>,
    covers_start: (usize, usize),
    covers_end: (usize, usize),
    relation_bytes: usize,
    /// Engine counters summed over `core_passes` replays of every
    /// tenant's history, `core_batches` batches in all (on `disease-serve`
    /// only the traced run's bare-engine shadow reports them).
    core: BatchMetrics,
    core_passes: usize,
    core_batches: u64,
    layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.batch_errors.len() < 5 {
            self.batch_errors.push(error);
        }
    }
}

/// Engine and relation metrics from the outcome's `BatchMetrics`, with
/// the measured mean `core.apply` and `relation.apply` span times.
pub(crate) fn core_layers(
    out: &Outcome,
    apply_ms: f64,
    relation_ms: f64,
) -> Vec<(&'static str, f64)> {
    let (m, batches, passes) = (&out.core, out.core_batches, out.core_passes);
    let per_batch = |d: std::time::Duration| stats::ratio(d.as_secs_f64() * 1e3, batches as f64);
    let per_pass = |n: usize| stats::ratio(n as f64, passes as f64);
    let insert = per_batch(m.insert_phase_time);
    let delete = per_batch(m.delete_phase_time);
    vec![
        ("core.apply_ms", apply_ms),
        ("core.insert_phase_ms", insert),
        ("core.delete_phase_ms", delete),
        ("core.other_ms", apply_ms - insert - delete - relation_ms),
        ("core.fd_validations", per_pass(m.fd_validations)),
        ("core.non_fd_validations", per_pass(m.non_fd_validations)),
        ("core.added_fds", per_pass(m.added_fds)),
        ("core.removed_fds", per_pass(m.removed_fds)),
        (
            "core.pruning_skip_ratio",
            stats::ratio(
                m.validations_skipped as f64,
                (m.validations_skipped + m.non_fd_validations) as f64,
            ),
        ),
        (
            "core.sampling_skip_ratio",
            stats::ratio(m.sampling_skipped as f64, m.sampling_probes as f64),
        ),
        ("relation.apply_ms", relation_ms),
        (
            "relation.cluster_prune_ratio",
            stats::ratio(
                m.clusters_pruned as f64,
                (m.clusters_pruned + m.clusters_visited) as f64,
            ),
        ),
        (
            "relation.cache_hit_ratio",
            stats::ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
        ),
        ("relation.cache_evictions", per_pass(m.cache_evictions)),
        ("relation.cache_mb", m.cache_bytes as f64 / 1e6),
    ]
}

/// Bootstrap metrics from the traced set-up spans.
pub(crate) fn setup_layers(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    vec![
        ("staticfd.hyfd_s", tracer.mean_ms("staticfd.hyfd") / 1e3),
        ("lattice.invert_ms", tracer.mean_ms("lattice.invert")),
        ("relation.build_ms", tracer.mean_ms("relation.build")),
    ]
}

/// Tracing overhead on the timed replay, in percent of the traced
/// batches' time: the measured cost of recording one span times the
/// spans named `timed`, over their total duration.
pub(crate) fn overhead_pct(tracer: &Tracer, timed: &str) -> f64 {
    let spans = tracer.named(timed).count() as f64;
    100.0 * stats::ratio(trace::span_cost_ms(100_000) * spans, tracer.total_ms(timed))
}

/// The process's peak resident set in MB (`VmHWM`), 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The result of one run.
pub struct Report {
    /// Every batch applied and every gate passed.
    pub correct: bool,
    /// Batches attempted.
    pub attempted: u64,
    /// Batches that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The workload's character, as (key, JSON value) pairs.
    pub character: Vec<(&'static str, String)>,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
    /// The traced run's spans.
    pub tracer: Tracer,
}

impl Report {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The workload's character as one JSON object.
    pub fn character_line(&self) -> String {
        let fields: Vec<String> = self
            .character
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"character\": {{{}}}}}", fields.join(", "))
    }
}

/// Runs one benchmark invocation. `Err` means the run cannot report a
/// metric it promises (a percentile without enough samples).
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = opts.workload.spec(opts.scale);
    let mut profile = data::profile(spec.profile);
    if let Some(rows) = spec.rows {
        profile = profile.scaled_to_rows(rows);
        profile.changes = spec.changes;
    }
    let generated = data::generate_prefix(&profile, spec.changes);
    let inputs: Vec<data::Inputs> = (0..spec.tenants as u64)
        .map(|t| {
            let seed = opts.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            data::permuted(&generated, spec.batch_size, seed)
        })
        .collect();
    drop(generated);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;

    let mut tracer = Tracer::new(opts.trace, Instant::now());
    let out = match opts.workload {
        Workload::DiseaseServe => serve::run(
            &inputs,
            &opts.out_dir,
            spec.min_passes,
            opts.seconds,
            &mut tracer,
        ),
        Workload::ArtistTall => inproc::run(&inputs[0], spec.min_passes, opts.seconds, &mut tracer),
    };

    // Each latency and throughput metric is taken per pass, and the run
    // reports its median over the passes: a pass the host slowed down
    // moves it less than it would move statistics pooled over the run.
    let over_passes = |f: &dyn Fn(&Pass) -> Result<f64, String>| {
        let values = out
            .passes
            .iter()
            .map(f)
            .collect::<Result<Vec<f64>, String>>()?;
        Ok::<f64, String>(stats::median(&values))
    };
    let sorted = |p: &Pass| {
        let mut v = p.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    let changes_per_s = over_passes(&|p| Ok(stats::ratio(p.changes as f64, p.replay_s)))?;
    let p50 = over_passes(&|p| Ok(stats::median(&p.latencies_ms)))?;
    let p90 = over_passes(&|p| stats::percentile(&sorted(p), 0.90))?;
    // p99 is reported where it has ten samples beyond it (on
    // `disease-serve`), as part of the character: under load drift on a
    // shared machine it moves too much to carry a run-to-run bound.
    let p99 = over_passes(&|p| stats::percentile(&sorted(p), 0.99))
        .map_or("null".to_string(), |v| v.to_string());

    let metrics: Vec<Metric> = if opts.trace {
        let mut values = out.layers.clone();
        values.extend([
            ("lattice.pos_fds", out.covers_end.0 as f64),
            ("lattice.neg_fds", out.covers_end.1 as f64),
            ("relation.resident_mb", out.relation_bytes as f64 / 1e6),
            ("trace.spans", tracer.spans().len() as f64),
        ]);
        collect(PER_LAYER, &values)?
    } else {
        let values = [
            ("setup_s", stats::median(&out.setup_s)),
            ("changes_per_s", changes_per_s),
            ("batch_p50_ms", p50),
            ("batch_p90_ms", p90),
            ("peak_rss_mb", peak_rss_mb()),
            (
                "batch_success_ratio",
                stats::ratio((out.attempted - out.failed) as f64, out.attempted as f64),
            ),
        ];
        collect(END_TO_END, &values)?
    };

    let first = &inputs[0];
    let validations = |n: usize| {
        if out.core_passes == 0 {
            "null".to_string()
        } else {
            stats::ratio(n as f64, out.core_passes as f64).to_string()
        }
    };
    let mut errors = out.batch_errors.clone();
    errors.extend(out.gate_errors.iter().cloned());
    let character = vec![
        ("workload", format!("\"{}\"", opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        ("profile", format!("\"{}\"", spec.profile)),
        ("profile_seed", profile.seed.to_string()),
        ("tenants", spec.tenants.to_string()),
        ("rows", first.rows.len().to_string()),
        ("columns", first.schema.columns().len().to_string()),
        ("changes", first.changes.to_string()),
        ("batches", first.batches.len().to_string()),
        ("batch_size", first.batch_size.to_string()),
        ("passes", out.passes.len().to_string()),
        ("pos_fds_start", out.covers_start.0.to_string()),
        ("neg_fds_start", out.covers_start.1.to_string()),
        ("pos_fds_end", out.covers_end.0.to_string()),
        ("neg_fds_end", out.covers_end.1.to_string()),
        (
            "fd_validations_per_pass",
            validations(out.core.fd_validations),
        ),
        (
            "non_fd_validations_per_pass",
            validations(out.core.non_fd_validations),
        ),
        (
            "latency_samples_per_pass",
            out.passes
                .first()
                .map_or(0, |p| p.latencies_ms.len())
                .to_string(),
        ),
        ("batch_p99_ms", p99),
        ("setup_samples", out.setup_s.len().to_string()),
        ("replay_s", out.replay_s.to_string()),
        ("changes_per_s", changes_per_s.to_string()),
        (
            "pass_changes_per_s",
            format!(
                "[{}]",
                out.passes
                    .iter()
                    .map(|p| format!("{:.1}", stats::ratio(p.changes as f64, p.replay_s)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "error_rate",
            stats::ratio(out.failed as f64, out.attempted as f64).to_string(),
        ),
        ("parallelism", engine_config().parallelism.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("gate_passed", out.gate_errors.is_empty().to_string()),
    ];
    Ok(Report {
        correct: out.failed == 0 && out.gate_errors.is_empty() && out.attempted > 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        character,
        errors,
        tracer,
    })
}

/// Orders `values` as `table` lists them. A listed metric the run did
/// not measure (a layer the workload bypasses) reads 0; every value must
/// be finite, and nothing unlisted may appear.
fn collect(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {name} is not listed"));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            if value.is_finite() {
                Ok(Metric { name, value, unit })
            } else {
                Err(format!("metric {name} is not finite: {value}"))
            }
        })
        .collect()
}
