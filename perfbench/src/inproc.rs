//! The in-process workload (`artist-tall`): one caller thread replays a
//! profile's history through `DynFd::apply_batch`.

use crate::data::Inputs;
use crate::trace::{Tracer, NO_BATCH};
use crate::{gate, stats, Outcome, Pass};
use dynfd_core::{BatchMetrics, DynFd};
use dynfd_relation::DynamicRelation;
use std::time::Instant;

/// Builds the relation and bootstraps the engine, as `DynFd::new` does.
/// Traced, the three public calls behind it get their own spans under
/// `parent`.
pub(crate) fn bootstrap(inputs: &Inputs, tracer: &mut Tracer, parent: u64) -> DynFd {
    let build = || {
        DynamicRelation::from_rows(inputs.schema.clone(), &inputs.rows)
            .expect("generated rows match their schema")
    };
    if !tracer.enabled() {
        return DynFd::new(build(), crate::engine_config());
    }
    let rel = tracer.time("relation.build", parent, NO_BATCH, build);
    let fds = tracer.time("staticfd.hyfd", parent, NO_BATCH, || {
        dynfd_static::hyfd::discover(&rel)
    });
    tracer.time("lattice.invert", parent, NO_BATCH, || {
        DynFd::with_cover(rel, fds, crate::engine_config())
    })
}

/// Replays the batches through a bare `DynamicRelation` — the structure
/// maintenance the engine performs before either phase — so the traced
/// run can attribute it. Returns the failed batches.
pub(crate) fn relation_shadow(inputs: &Inputs, tracer: &mut Tracer, batch_base: u64) -> u64 {
    let mut rel = DynamicRelation::from_rows(inputs.schema.clone(), &inputs.rows)
        .expect("generated rows match their schema");
    let shadow = tracer.open();
    let start = Instant::now();
    let mut failed = 0;
    for (i, batch) in inputs.batches.iter().enumerate() {
        let res = tracer.time("relation.apply", shadow, batch_base + i as u64, || {
            rel.apply_batch(batch)
        });
        failed += u64::from(res.is_err());
    }
    tracer.record(
        shadow,
        0,
        "shadow.relation",
        NO_BATCH,
        start,
        Instant::now(),
    );
    failed
}

/// Bootstraps per run, so `setup_s` is a median of more than one sample.
/// Each costs a HyFD run (~11 s on `artist-tall`), so a third would take
/// replay time from the run.
const SETUPS: usize = 2;

/// Replays the history on a fresh copy of a bootstrapped engine and gates
/// it, pass after pass, until `min_passes` passes are done, the replays
/// have taken `seconds` and the engine has been bootstrapped [`SETUPS`]
/// times. The bootstraps are spread over the run: a new one starts once
/// the replays have taken their share of `seconds`, so one slow stretch
/// of a shared host does not set every set-up sample.
pub(crate) fn run(
    inputs: &Inputs,
    min_passes: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let mut metrics = BatchMetrics::default();
    let mut bootstrapped: Option<DynFd> = None;
    loop {
        let done = out.setup_s.len();
        if done < SETUPS && out.replay_s >= seconds * done as f64 / SETUPS as f64 {
            // Drop the previous engine first, so two never coexist.
            drop(bootstrapped.take());
            let setup = tracer.open();
            let t0 = Instant::now();
            let engine = bootstrap(inputs, tracer, setup);
            let t1 = Instant::now();
            tracer.record(setup, 0, "setup", NO_BATCH, t0, t1);
            out.setup_s.push((t1 - t0).as_secs_f64());
            if done == 0 {
                out.covers_start = (engine.positive_cover().len(), engine.negative_cover().len());
            }
            bootstrapped = Some(engine);
        }
        let bootstrapped = bootstrapped
            .as_ref()
            .expect("bootstrapped before the first pass");
        let pass = out.passes.len() as u64;
        let mut engine = bootstrapped.clone();
        let mut measured = Pass::default();
        let batch_base = pass * inputs.batches.len() as u64;
        let replay = tracer.open();
        let r0 = Instant::now();
        for (i, batch) in inputs.batches.iter().enumerate() {
            let span = tracer.open();
            let s = Instant::now();
            let res = engine.apply_batch(batch);
            let e = Instant::now();
            tracer.record(span, replay, "core.apply", batch_base + i as u64, s, e);
            measured.latencies_ms.push((e - s).as_secs_f64() * 1e3);
            match res {
                Ok(r) => metrics.absorb(&r.metrics),
                Err(err) => out.fail(format!("batch {i}: {err}")),
            }
        }
        let r1 = Instant::now();
        tracer.record(replay, 0, "replay", NO_BATCH, r0, r1);
        measured.replay_s = (r1 - r0).as_secs_f64();
        measured.changes = inputs.changes as u64;
        out.replay_s += measured.replay_s;
        out.attempted += inputs.batches.len() as u64;

        if let Err(e) = tracer.time("gate", 0, NO_BATCH, || gate::check(&engine)) {
            out.gate_errors.push(e);
        }
        out.covers_end = (engine.positive_cover().len(), engine.negative_cover().len());
        out.relation_bytes = engine.relation().approx_bytes();
        drop(engine);
        if tracer.enabled() && pass == 0 {
            let failed = relation_shadow(inputs, tracer, batch_base);
            if failed > 0 {
                out.gate_errors
                    .push(format!("relation shadow rejected {failed} batches"));
            }
        }
        out.passes.push(measured);
        if out.passes.len() >= min_passes && out.replay_s >= seconds && out.setup_s.len() >= SETUPS
        {
            break;
        }
    }
    out.core = metrics;
    out.core_passes = out.passes.len();
    out.core_batches = out.attempted;
    if tracer.enabled() {
        out.layers = layers(&out, tracer);
    }
    out
}

/// Per-layer metrics of a traced in-process run.
fn layers(out: &Outcome, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let batches = out.attempted as f64;
    let apply = tracer.mean_ms("core.apply");
    let batch_ms = stats::ratio(tracer.total_ms("replay"), batches);
    let relation = tracer.mean_ms("relation.apply");
    let mut v = crate::core_layers(out, apply, relation);
    v.extend(crate::setup_layers(tracer));
    v.push(("trace.batch_ms", batch_ms));
    v.push(("trace.remainder_ms", batch_ms - apply));
    v.push((
        "trace.overhead_pct",
        crate::overhead_pct(tracer, "core.apply"),
    ));
    v
}
