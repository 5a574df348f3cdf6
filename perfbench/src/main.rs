//! Command line of the DynFD benchmark.
//!
//! ```text
//! dynfd-perfbench --workload <artist-tall|disease-serve>
//!                 --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! Prints the workload's character as one JSON line, then the result
//! object as the last line of standard output; a human-readable table
//! goes to standard error. Run files land in `.bench_out/` under the
//! working directory: the report, and the span file of a traced run.

use dynfd_perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dynfd-perfbench --workload <artist-tall|disease-serve> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ArtistTall,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dynfd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dynfd-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    for m in &report.metrics {
        eprintln!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let character = report.character_line();
    let result = report.result_line();
    let saved = std::fs::write(
        opts.out_dir.join(format!("{stem}.json")),
        format!("{character}\n{result}\n"),
    );
    if let Err(e) = saved {
        eprintln!("dynfd-perfbench: writing the report: {e}");
        return ExitCode::FAILURE;
    }
    if opts.trace {
        let spans = opts.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = report.tracer.write(&spans) {
            eprintln!("dynfd-perfbench: writing {}: {e}", spans.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{character}");
    println!("{result}");
    ExitCode::SUCCESS
}
