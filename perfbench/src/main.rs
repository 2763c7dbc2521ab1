//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <products-restart|design-sweep|serve-closed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around calls into each layer and reports
//! per-layer metrics instead. Either way the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See `NOTES.md` next to this crate for what each workload and metric
//! means.

mod points;
mod restart;
mod run;
mod serving;
mod sys;
mod trace;

use points::Workload;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn main() {
    // Values in the caller's environment must not change what is measured:
    // every GNNERATOR_* knob (cache root, memory budget, grid residency,
    // failpoints, serving overrides) is cleared before anything reads it, and
    // restart children inherit the cleared environment. Nothing else runs yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GNNERATOR_") {
            std::env::remove_var(&key);
        }
    }

    let mut args = std::env::args().skip(1);
    let mut child = false;
    let (mut workload, mut seed, mut seconds, mut trace, mut cache) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == restart::CHILD_FLAG {
            child = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--cache" => cache = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(trace)) = (workload, seed, trace) else {
        usage()
    };

    if child {
        let cache = cache.unwrap_or_else(|| usage());
        std::process::exit(restart::child_main(workload, seed, &cache, trace));
    }

    let args = run::Args {
        workload,
        seed,
        seconds: seconds.unwrap_or_else(|| usage()),
        trace,
    };
    match run::run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
