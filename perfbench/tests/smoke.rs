//! Tiny-scale smoke tests of the benchmark: every metric `BENCHMARK.json`
//! names is printed with its unit, the percentile helper refuses thin
//! tails, the traced per-layer times add up to the end-to-end batch time,
//! and the correctness gate is not vacuous.

use dynfd_core::{DynFd, DynFdConfig, FailAction, FailPhase, FailPoint};
use dynfd_perfbench::{data, gate, stats, Workload, END_TO_END, PER_LAYER};
use dynfd_relation::{Batch, DynamicRelation};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// read with plain string scanning (the file keeps one metric per line).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let rest = &line[at..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// Runs the benchmark binary at tiny scale in a fresh directory and
/// returns (stdout lines, run directory).
fn run_tiny(workload: Workload, trace: bool) -> (Vec<String>, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dynfd-perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{} failed: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    (stdout.lines().map(str::to_string).collect(), dir)
}

/// The value of metric `name` in a result line, checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let (number, rest) = rest.split_at(rest.find(',').unwrap());
    assert!(
        rest.starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} printed without unit {unit}"
    );
    number
        .parse()
        .unwrap_or_else(|_| panic!("{name} value {number} is not a number"))
}

#[test]
fn tables_match_benchmark_json() {
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
}

#[test]
fn every_metric_is_printed_and_layers_add_up() {
    for workload in Workload::ALL {
        let (lines, _) = run_tiny(workload, false);
        let result = lines.last().unwrap();
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{result}"
        );
        assert!(lines[lines.len() - 2].contains(&format!("\"workload\": \"{}\"", workload.name())));
        for (name, unit) in listed("end_to_end") {
            let v = value(result, &name, &unit);
            assert!(v > 0.0, "{} {name} = {v}", workload.name());
        }

        let (lines, dir) = run_tiny(workload, true);
        let result = lines.last().unwrap();
        assert!(result.starts_with("{\"correct\": true"), "{result}");
        let m = |name: &str| {
            let unit = PER_LAYER.iter().find(|(n, _)| *n == name).unwrap().1;
            value(result, name, unit)
        };
        for (name, unit) in listed("per_layer") {
            value(result, &name, &unit);
        }
        let spans = dir.join(format!(
            ".bench_out/{}-seed3-trace1.spans.jsonl",
            workload.name()
        ));
        assert!(std::fs::metadata(&spans).unwrap().len() > 0, "no span file");

        // The layers the batch time splits into; serve adds the layers in
        // front of the engine. Whatever they leave is the reported remainder.
        let mut layers = vec![
            m("core.insert_phase_ms"),
            m("core.delete_phase_ms"),
            m("relation.apply_ms"),
            m("core.other_ms"),
        ];
        if workload == Workload::DiseaseServe {
            layers.extend([m("serve.transport_ms"), m("serve.queue_ms")]);
            assert!(m("persist.apply_ms") > 0.0, "the durable shadow ran");
        } else {
            assert_eq!(m("persist.apply_ms"), 0.0, "persist is bypassed");
            assert_eq!(m("serve.server_ms"), 0.0, "serve is bypassed");
        }
        let batch = m("trace.batch_ms");
        let remainder = m("trace.remainder_ms");
        let attributed: f64 = layers.iter().sum();
        assert!(
            (batch - attributed).abs() <= remainder.abs() + 1e-9 * batch,
            "{}: layers {attributed} ms vs batch {batch} ms, remainder {remainder} ms",
            workload.name()
        );
        assert!(m("core.apply_ms") > 0.0 && m("staticfd.hyfd_s") > 0.0);
        assert!(m("trace.overhead_pct") >= 0.0);
    }
}

#[test]
fn percentile_refuses_thin_tails() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(stats::percentile(&samples(100), 0.90), Ok(90.0));
    assert!(stats::percentile(&samples(99), 0.90).is_err());
    assert_eq!(stats::percentile(&samples(1000), 0.99), Ok(990.0));
    assert!(stats::percentile(&samples(999), 0.99).is_err());
    assert!(stats::percentile(&samples(113), 0.99).is_err());
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn gate_rejects_a_dropped_cover_fd() {
    let mut profile = data::profile("artist").scaled_to_rows(300);
    profile.changes = 200;
    let inputs = data::permuted(&data::generate_prefix(&profile, 200), 20, 7);
    let rel = DynamicRelation::from_rows(inputs.schema.clone(), &inputs.rows).unwrap();
    let mut engine = DynFd::new(rel, DynFdConfig::default());
    for batch in &inputs.batches {
        engine.apply_batch(batch).unwrap();
    }
    gate::check(&engine).expect("an uncorrupted engine passes the gate");

    // A delete-only batch runs no insert phase that could legitimately
    // specialize the planted FD after the fact.
    engine.arm_failpoint(FailPoint {
        phase: FailPhase::DeletePhase,
        after_validations: 0,
        action: FailAction::DropCoverFd,
    });
    let mut deletes = Batch::new();
    for rid in engine
        .relation()
        .record_ids()
        .step_by(3)
        .collect::<Vec<_>>()
    {
        deletes.delete(rid);
    }
    engine.apply_batch(&deletes).unwrap();
    assert_eq!(engine.armed_failpoint(), None, "the failpoint tripped");
    assert!(
        gate::check(&engine).is_err(),
        "the gate rejects the corrupted cover"
    );
}

#[test]
fn permutation_keeps_the_relation_and_remaps_ids() {
    let mut profile = data::profile("disease").scaled_to_rows(50);
    profile.changes = 60;
    let generated = data::generate_prefix(&profile, 60);
    let a = data::permuted(&generated, 10, 1);
    let b = data::permuted(&generated, 10, 2);
    assert_ne!(a.rows, b.rows, "seeds permute differently");
    let mut x = DynamicRelation::from_rows(a.schema.clone(), &a.rows).unwrap();
    let mut y = DynamicRelation::from_rows(b.schema.clone(), &b.rows).unwrap();
    for (p, q) in a.batches.iter().zip(&b.batches) {
        x.apply_batch(p).unwrap();
        y.apply_batch(q).unwrap();
    }
    let mut rx: Vec<_> = x.record_ids().map(|r| x.materialize(r).unwrap()).collect();
    let mut ry: Vec<_> = y.record_ids().map(|r| y.materialize(r).unwrap()).collect();
    rx.sort();
    ry.sort();
    assert_eq!(
        rx, ry,
        "both permutations replay to the same multiset of rows"
    );
}

#[test]
fn prefix_generation_matches_the_full_history() {
    let profile = data::profile("disease").scaled(0.05);
    let full = dynfd_datagen::GeneratedDataset::generate(&profile);
    let first_burst = profile.changes / (profile.bursts + 1);
    let prefix = data::generate_prefix(&profile, first_burst);
    assert_eq!(prefix.initial_rows, full.initial_rows);
    assert_eq!(prefix.changes, full.changes[..first_burst]);
    let past_burst = data::generate_prefix(&profile, first_burst + 5);
    assert_eq!(past_burst.changes, full.changes[..first_burst + 5]);
}
