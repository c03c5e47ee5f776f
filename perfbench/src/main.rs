//! The DLPT benchmark binary: runs one workload for a fixed time and
//! prints every metric it measured, with its unit and whether it is a
//! deterministic count or a timing, as one JSON object on the last line
//! of standard output. `perfbench/run.py` builds this binary, runs it
//! and selects the end-to-end or per-layer metrics.
//!
//! ```text
//! dlpt-perfbench --workload <lookup_zipf|gather_latency|churn_sec4>
//!                --seed <n> --seconds <s> [--trace 0|1] [--spans <file>]
//!                [--tiny] [--corrupt]
//! ```
//!
//! The process exits with status 1 when any result disagrees with its
//! oracle or the engine's audit is not clean.

mod churn;
mod common;
mod gather;
mod lookup;

use common::{Opts, Out};

fn main() {
    let mut workload = String::new();
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
        spans: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => opts.trace = value() == "1",
            "--spans" => opts.spans = Some(value()),
            "--tiny" => opts.tiny = true,
            "--corrupt" => opts.corrupt = true,
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    let mut out = Out::default();
    match workload.as_str() {
        "lookup_zipf" => lookup::run(&opts, &mut out),
        "gather_latency" => gather::run(&opts, &mut out),
        "churn_sec4" => churn::run(&opts, &mut out),
        _ => usage(&format!("unknown workload {workload:?}")),
    }
    let correct = 100.0 * (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    out.det("correct_pct", correct, "%");
    println!("{}", out.to_json(&workload));
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("dlpt-perfbench: {msg}");
    eprintln!(
        "usage: dlpt-perfbench --workload <name> --seed <n> --seconds <s> \
         [--trace 0|1] [--spans <file>] [--tiny] [--corrupt]"
    );
    std::process::exit(2)
}
