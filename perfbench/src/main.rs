//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <local_join|service_mix|dist_join> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench worker --rows <n> --dup <d>      # dist_join worker process
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- …`.
//! The last line of standard output is the JSON result; everything else
//! goes to standard error. Traced runs write their spans under
//! `.perfbench/` in the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{nproc, run, serve_worker, RunConfig, Workload, ENGINE_ENV};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

/// The value after flag `name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = args
        .iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .ok_or_else(|| format!("missing {name}\n{}", usage()))?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}\n{}", usage()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("worker") {
        flag(&args, "--rows")
            .and_then(|rows| Ok((rows, flag(&args, "--dup")?)))
            .and_then(|(rows, dup)| serve_worker(rows, dup))
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let name: String = flag(args, "--workload")?;
    let workload =
        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
    let seed: u64 = flag(args, "--seed")?;
    let seconds: f64 = flag(args, "--seconds")?;
    let traced = match flag::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }

    // Every thread budget and batch size is set through the API; clearing
    // the variables the engine would otherwise default from keeps anything
    // left unset from inheriting them. No thread exists yet.
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let worker_exe: PathBuf = std::env::current_exe().map_err(|e| e.to_string())?;

    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        scratch,
        worker_exe,
    };
    eprintln!(
        "perfbench: workload={} seed={seed} seconds={seconds} trace={} nproc={}",
        workload.name(),
        u8::from(traced),
        nproc()
    );
    let outcome = run(&cfg, traced)?;
    eprint!("{}", outcome.metrics.table());
    eprintln!(
        "perfbench: attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.to_json());
    Ok(())
}
