//! The ca-factor benchmark: one workload per process, end-to-end metrics
//! by default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload square|tall_skinny|serve|ooc --seed N --seconds S --trace 0|1
//! ```
//!
//! The run prints a provenance block, every metric it measured with its
//! unit, its consistency checks and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod batch;
mod host;
mod layers;
mod ooc;
mod ops;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use ops::Ctx;
use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// Where the traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is neither 0 nor 1")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans under [`OUT_DIR`].
pub fn write_spans(workload: &str, seed: u64, tracer: &trace::Tracer) {
    let path = Path::new(OUT_DIR).join(format!("spans-{workload}-{seed}.json"));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload square|tall_skinny|serve|ooc --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.seconds as f64, args.trace, host::nproc());
    let mut r = Report::default();
    let params = match args.workload.as_str() {
        "square" => batch::SQUARE.params(),
        "tall_skinny" => batch::TALL_SKINNY.params(),
        "serve" => serve::params(ctx.threads),
        "ooc" => ooc::params(),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    println!(
        "provenance: {}",
        host::provenance(&args.workload, args.seed, args.seconds, args.trace, &params)
    );
    match args.workload.as_str() {
        "square" => batch::SQUARE.run(&mut ctx, &mut r),
        "tall_skinny" => batch::TALL_SKINNY.run(&mut ctx, &mut r),
        "serve" => serve::run(&mut ctx, &mut r),
        _ => ooc::run(&mut ctx, &mut r),
    }
    r.put_opt("peak_rss_mib", host::peak_rss_mib(), "MiB");
    r.finish(if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    });
    ExitCode::SUCCESS
}
