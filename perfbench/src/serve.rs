//! The `disease-serve` workload: an in-process `ServeEngine` behind the
//! unix-socket transport, driven by closed-loop `SessionClient`s that
//! each own one tenant.
//!
//! The served tenants keep their state in memory. With a durable root,
//! every batch waits for an fsync on whatever disk backs the run, and on
//! a shared disk that wait varied so much between back-to-back runs
//! (8,257 against 20,135 changes/s) that no run-to-run bound could hold.
//! The write-ahead log is measured per layer instead: the traced run
//! replays every tenant through a durable `FdEngine` and a scratch `Wal`
//! outside the timed region.

use crate::data::Inputs;
use crate::inproc::{bootstrap, relation_shadow};
use crate::trace::{Tracer, NO_BATCH};
use crate::{gate, stats, Outcome, Pass};
use dynfd_core::BatchMetrics;
use dynfd_persist::{FdEngine, Wal};
use dynfd_relation::DynamicRelation;
use dynfd_serve::wire::{self, Request, Response};
use dynfd_serve::{
    serve_listener, ListenAddr, MetricsSnapshot, RetryPolicy, ServeConfig, ServeEngine,
    SessionClient, TransportConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant names. With two workers, FNV-1a pins `t0` and `t1` to
/// different shards, so the two clients never queue behind each other.
const TENANTS: [&str; 2] = ["t0", "t1"];

/// Spans a batch id: tenant in the high bits, batch index below.
fn batch_id(tenant: usize, i: usize) -> u64 {
    ((tenant as u64) << 32) | i as u64
}

/// What one client thread saw.
struct ClientRun {
    latencies_ms: Vec<f64>,
    errors: Vec<String>,
    retries: u64,
    tracer: Tracer,
}

/// Replays `inputs` for `tenant` through `client`, one batch in flight.
fn replay_client(
    mut client: SessionClient,
    tenant: usize,
    inputs: &Inputs,
    mut tracer: Tracer,
) -> ClientRun {
    let name = TENANTS[tenant];
    let replay = tracer.open();
    let r0 = Instant::now();
    let mut latencies_ms = Vec::with_capacity(inputs.batches.len());
    let mut errors = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let span = tracer.open();
        let s = Instant::now();
        let res = client.apply(name, batch, 0);
        let e = Instant::now();
        tracer.record(span, replay, "serve.round_trip", batch_id(tenant, i), s, e);
        latencies_ms.push((e - s).as_secs_f64() * 1e3);
        match res {
            Ok(r) if r.code == 0 && r.seq == i as u64 + 1 => {}
            Ok(r) => errors.push(format!(
                "{name} batch {i}: code {} seq {} ({})",
                r.code, r.seq, r.detail
            )),
            Err(e) => errors.push(format!("{name} batch {i}: {e}")),
        }
    }
    tracer.record(replay, 0, "replay", NO_BATCH, r0, Instant::now());
    let report = client.report();
    client.disconnect();
    ClientRun {
        latencies_ms,
        errors,
        retries: report.retries + report.resends,
        tracer,
    }
}

/// Server-side counters summed over tenants and passes.
#[derive(Default)]
struct ServerTotals {
    applied: u64,
    latency: Duration,
    replays: u64,
    shed: u64,
    retries: u64,
}

impl ServerTotals {
    fn add(&mut self, m: &MetricsSnapshot) {
        self.applied += m.applied;
        self.latency += m.latency_total;
        self.replays += m.session_replays;
        self.shed += m.shed;
    }
}

/// One pass: start the engine and listener, open both tenants (the
/// set-up), replay both histories concurrently, gate every tenant, and
/// shut everything down.
fn pass(
    tenants: &[Inputs],
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
    totals: &mut ServerTotals,
) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the pass directory");
    let sock = dir.join("s.sock");
    let addr = ListenAddr::Unix(sock.clone());

    let setup = tracer.open();
    let t0 = Instant::now();
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers: TENANTS.len(),
        engine: crate::engine_config(),
        ..ServeConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let listener = {
        let (engine, stop, addr) = (Arc::clone(&engine), Arc::clone(&stop), addr.clone());
        std::thread::spawn(move || {
            serve_listener(&engine, &addr, TransportConfig::default(), || {
                stop.load(Ordering::SeqCst)
            })
        })
    };
    while !sock.exists() && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut clients = Vec::new();
    for (t, inputs) in tenants.iter().enumerate() {
        let mut client = SessionClient::new(
            addr.clone(),
            format!("perfbench-{t}"),
            RetryPolicy::default(),
        );
        match client.open(TENANTS[t], inputs.schema.columns(), &inputs.rows) {
            Ok(r) if r.code == 0 => {}
            Ok(r) => out.gate_errors.push(format!(
                "open {}: code {} ({})",
                TENANTS[t], r.code, r.detail
            )),
            Err(e) => out.gate_errors.push(format!("open {}: {e}", TENANTS[t])),
        }
        clients.push(client);
    }
    let t1 = Instant::now();
    tracer.record(setup, 0, "setup", NO_BATCH, t0, t1);
    out.setup_s.push((t1 - t0).as_secs_f64());
    out.covers_start = covers(&engine);

    let r0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, client)| {
                let lane = tracer.lane(t as u64 + 1);
                let inputs = &tenants[t];
                s.spawn(move || replay_client(client, t, inputs, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut measured = Pass {
        replay_s: r0.elapsed().as_secs_f64(),
        changes: tenants.iter().map(|t| t.changes as u64).sum(),
        ..Pass::default()
    };
    out.replay_s += measured.replay_s;
    for run in runs {
        out.attempted += run.latencies_ms.len() as u64;
        measured.latencies_ms.extend(run.latencies_ms);
        for e in run.errors {
            out.fail(e);
        }
        totals.retries += run.retries;
        tracer.merge(run.tracer);
    }
    out.passes.push(measured);

    for name in TENANTS {
        match engine.metrics(name) {
            Ok(m) => totals.add(&m),
            Err(e) => out.gate_errors.push(format!("metrics {name}: {e}")),
        }
        match tracer.time("gate", 0, NO_BATCH, || {
            engine.with_tenant(name, gate::check)
        }) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.gate_errors.push(format!("{name}: {e}")),
            Err(e) => out.gate_errors.push(format!("{name}: {e}")),
        }
    }
    out.covers_end = covers(&engine);
    out.relation_bytes = TENANTS
        .iter()
        .filter_map(|n| engine.with_tenant(n, |d| d.relation().approx_bytes()).ok())
        .sum();

    stop.store(true, Ordering::SeqCst);
    match listener.join().expect("listener thread panicked") {
        Ok(_) => {}
        Err(e) => out.gate_errors.push(format!("listener: {e}")),
    }
    match Arc::try_unwrap(engine) {
        Ok(engine) => {
            let report = engine.shutdown();
            if !report.sync_errors.is_empty() {
                out.gate_errors
                    .push(format!("shutdown sync: {:?}", report.sync_errors));
            }
        }
        Err(_) => out
            .gate_errors
            .push("engine still shared after the listener stopped".into()),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Positive and negative cover sizes summed over tenants.
fn covers(engine: &ServeEngine) -> (usize, usize) {
    TENANTS
        .iter()
        .filter_map(|n| {
            engine
                .with_tenant(n, |d| (d.positive_cover().len(), d.negative_cover().len()))
                .ok()
        })
        .fold((0, 0), |(p, n), (a, b)| (p + a, n + b))
}

/// Durability counters of the persist shadow replay.
#[derive(Default)]
struct PersistTotals {
    wall_ms: f64,
    wal_bytes: u64,
    fsyncs: u64,
    snapshots: u64,
    snapshot_ms: f64,
}

/// The traced run's shadow replays of one tenant, outside the timed
/// region: the bare engine, the bare relation, the durable engine, a
/// scratch WAL, and the wire codec, each fed the same batches.
fn shadows(
    tenant: usize,
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
    core: &mut BatchMetrics,
    persist: &mut PersistTotals,
) -> Vec<String> {
    let mut errors = Vec::new();
    let base = batch_id(tenant, 0);

    let shadow = tracer.open();
    let start = Instant::now();
    let mut engine = bootstrap(inputs, tracer, shadow);
    for (i, batch) in inputs.batches.iter().enumerate() {
        match tracer.time("core.apply", shadow, base + i as u64, || {
            engine.apply_batch(batch)
        }) {
            Ok(r) => core.absorb(&r.metrics),
            Err(e) => errors.push(format!("core shadow batch {i}: {e}")),
        }
    }
    tracer.record(shadow, 0, "shadow.core", NO_BATCH, start, Instant::now());
    drop(engine);

    let failed = relation_shadow(inputs, tracer, base);
    if failed > 0 {
        errors.push(format!("relation shadow rejected {failed} batches"));
    }

    let pdir = dir.join(format!("persist-{tenant}"));
    let rel = DynamicRelation::from_rows(inputs.schema.clone(), &inputs.rows)
        .expect("generated rows match their schema");
    let shadow = tracer.open();
    let start = Instant::now();
    match FdEngine::create(&pdir, rel, crate::engine_config()) {
        Ok(mut durable) => {
            for (i, batch) in inputs.batches.iter().enumerate() {
                match tracer.time("persist.apply", shadow, base + i as u64, || {
                    durable.apply_batch(batch)
                }) {
                    Ok(r) => {
                        let m = r.metrics;
                        persist.wall_ms += m.wall_time.as_secs_f64() * 1e3;
                        persist.wal_bytes += m.wal_bytes as u64;
                        persist.fsyncs += m.fsyncs as u64;
                        if !m.snapshot_time.is_zero() {
                            persist.snapshots += 1;
                            persist.snapshot_ms += m.snapshot_time.as_secs_f64() * 1e3;
                        }
                    }
                    Err(e) => errors.push(format!("persist shadow batch {i}: {e}")),
                }
            }
        }
        Err(e) => errors.push(format!("persist shadow create: {e}")),
    }
    tracer.record(shadow, 0, "shadow.persist", NO_BATCH, start, Instant::now());

    let shadow = tracer.open();
    let start = Instant::now();
    match Wal::create(&dir.join(format!("scratch-{tenant}.wal"))) {
        Ok(mut wal) => {
            for (i, batch) in inputs.batches.iter().enumerate() {
                let id = base + i as u64;
                let appended = tracer.time("persist.wal_append", shadow, id, || {
                    wal.append(i as u64 + 1, batch, None)
                });
                let synced = tracer.time("persist.fsync", shadow, id, || wal.sync());
                if let Err(e) = appended.and(synced) {
                    errors.push(format!("scratch WAL batch {i}: {e}"));
                }
            }
        }
        Err(e) => errors.push(format!("scratch WAL create: {e}")),
    }
    tracer.record(shadow, 0, "shadow.wal", NO_BATCH, start, Instant::now());

    let shadow = tracer.open();
    let start = Instant::now();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let id = base + i as u64;
        let request = Request::Apply {
            request_id: i as u64 + 1,
            tenant: TENANTS[tenant].to_string(),
            deadline_ms: 0,
            session_seq: i as u64 + 1,
            batch: batch.clone(),
        };
        let frame = tracer.time("serve.encode_request", shadow, id, || {
            wire::encode_request(&request)
        });
        let decoded = tracer.time("serve.decode_request", shadow, id, || {
            wire::decode_request(&frame)
        });
        let response = Response::ok(i as u64 + 1, TENANTS[tenant], i as u64 + 1, 0, 0);
        let frame = tracer.time("serve.encode_response", shadow, id, || {
            wire::encode_response(&response)
        });
        let back = tracer.time("serve.decode_response", shadow, id, || {
            wire::decode_response(&frame)
        });
        if decoded.ok().as_ref() != Some(&request) || back.ok().as_ref() != Some(&response) {
            errors.push(format!("wire codec round trip of batch {i} differs"));
        }
    }
    tracer.record(shadow, 0, "shadow.wire", NO_BATCH, start, Instant::now());
    errors
}

/// Runs whole passes until `min_passes` are done and the replays have
/// taken `seconds`; traced, they are followed by the shadow replays.
pub(crate) fn run(
    tenants: &[Inputs],
    out_dir: &Path,
    min_passes: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let mut totals = ServerTotals::default();
    let dir: PathBuf = out_dir.join(format!("serve-{}", std::process::id()));
    loop {
        pass(tenants, &dir, tracer, &mut out, &mut totals);
        if out.passes.len() >= min_passes && out.replay_s >= seconds {
            break;
        }
    }
    if !tracer.enabled() {
        return out;
    }

    let mut core = BatchMetrics::default();
    let mut persist = PersistTotals::default();
    std::fs::create_dir_all(&dir).expect("create the shadow directory");
    for (t, inputs) in tenants.iter().enumerate() {
        let errors = shadows(t, inputs, &dir, tracer, &mut core, &mut persist);
        out.gate_errors.extend(errors);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.core = core;
    out.core_passes = 1;
    out.core_batches = tenants.iter().map(|t| t.batches.len() as u64).sum();

    let batches = out.core_batches as f64;
    let rtt = tracer.mean_ms("serve.round_trip");
    let apply = tracer.mean_ms("core.apply");
    let relation = tracer.mean_ms("relation.apply");
    let persist_apply = tracer.mean_ms("persist.apply");
    let persist_self = persist_apply - stats::ratio(persist.wall_ms, batches);
    let server = stats::ratio(totals.latency.as_secs_f64() * 1e3, totals.applied as f64);
    let queue = server - apply;
    let transport = rtt - server;
    let codec_ms: f64 = [
        "serve.encode_request",
        "serve.decode_request",
        "serve.encode_response",
        "serve.decode_response",
    ]
    .iter()
    .map(|n| tracer.total_ms(n))
    .sum();

    let mut v = crate::core_layers(&out, apply, relation);
    v.extend(crate::setup_layers(tracer));
    v.extend([
        ("persist.apply_ms", persist_apply),
        ("persist.self_ms", persist_self),
        (
            "persist.wal_append_ms",
            tracer.mean_ms("persist.wal_append"),
        ),
        ("persist.fsync_ms", tracer.mean_ms("persist.fsync")),
        (
            "persist.snapshot_ms",
            stats::ratio(persist.snapshot_ms, persist.snapshots as f64),
        ),
        (
            "persist.wal_bytes_per_change",
            stats::ratio(
                persist.wal_bytes as f64,
                tenants.iter().map(|t| t.changes).sum::<usize>() as f64,
            ),
        ),
        (
            "persist.fsyncs_per_batch",
            stats::ratio(persist.fsyncs as f64, batches),
        ),
        (
            "serve.wire_us_per_frame",
            stats::ratio(codec_ms * 1e3, 2.0 * batches),
        ),
        ("serve.server_ms", server),
        ("serve.queue_ms", queue),
        ("serve.transport_ms", transport),
        ("serve.retries", totals.retries as f64),
        ("serve.replays", totals.replays as f64),
        ("serve.shed", totals.shed as f64),
        ("trace.batch_ms", rtt),
        ("trace.remainder_ms", rtt - (transport + queue + apply)),
        (
            "trace.overhead_pct",
            crate::overhead_pct(tracer, "serve.round_trip"),
        ),
    ]);
    out.layers = v;
    out
}
