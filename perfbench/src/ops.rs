//! What the batch workloads share: the run context, timed samples of LU
//! and QR operations, set-up repetitions and the end-to-end summary.

use crate::report::Report;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The command line of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    next_op: u64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, threads: usize) -> Self {
        Self {
            seed,
            seconds,
            trace,
            threads,
            next_op: 0,
        }
    }

    /// A fresh operation id for spans.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lu,
    Qr,
}

/// One timed factorization and its verification.
pub struct Sample {
    pub kind: Kind,
    pub op: u64,
    /// Wall time of the factor call alone.
    pub factor_s: f64,
    /// Wall time of the verification.
    pub verify_s: f64,
    /// Wall time of the whole operation, input copy or import included.
    pub wall_s: f64,
    pub traced: bool,
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each state before the next
/// set-up starts, and returns the last state with the median set-up time.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut state = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        state.expect("at least one set-up"),
        median(&times).expect("at least one set-up"),
    )
}

/// Runs LU/QR pairs for `ctx.seconds` (at least one pair; two in a traced
/// run, whose pairs alternate between traced and untraced). Returns the
/// samples and the loop's wall time.
pub fn timed_pairs(
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    mut op: impl FnMut(Kind, u64, &mut Tracer) -> Sample,
) -> (Vec<Sample>, f64) {
    let mut off = Tracer::new(false);
    let min_pairs = if ctx.trace { 2 } else { 1 };
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    while pair < min_pairs || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && pair % 2 == 0;
        for kind in [Kind::Lu, Kind::Qr] {
            let id = ctx.op_id();
            samples.push(op(kind, id, if traced { &mut *tracer } else { &mut off }));
        }
        pair += 1;
    }
    (samples, start.elapsed().as_secs_f64())
}

fn factor_times(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.factor_s)
        .collect()
}

/// `lu_gflops`, `qr_gflops`, `ops_per_s` and `core.verify_s` from the
/// timed samples; in a traced run also `trace.overhead_ratio` and the
/// check that span self times add up to each traced operation's wall time.
pub fn summarize(
    samples: &[Sample],
    elapsed: f64,
    flops: [f64; 2],
    tracer: &Tracer,
    r: &mut Report,
) {
    for (kind, name, fl) in [
        (Kind::Lu, "lu_gflops", flops[0]),
        (Kind::Qr, "qr_gflops", flops[1]),
    ] {
        let times = factor_times(samples, kind);
        let (lo, hi) = times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
        println!(
            "{kind:?} factor: {} timed calls, {lo:.4} .. {hi:.4} s",
            times.len()
        );
        r.put_opt(name, median(&times).map(|t| fl / t / 1e9), "GF/s");
    }
    r.put("ops_per_s", samples.len() as f64 / elapsed, "1/s");
    let verify: Vec<f64> = samples.iter().map(|s| s.verify_s).collect();
    r.put_opt("core.verify_s", median(&verify), "s");
    if tracer.enabled() {
        let ratios: Vec<f64> = [Kind::Lu, Kind::Qr]
            .into_iter()
            .filter_map(|kind| {
                let walls = |traced: bool| -> Vec<f64> {
                    samples
                        .iter()
                        .filter(|s| s.kind == kind && s.traced == traced)
                        .map(|s| s.wall_s)
                        .collect()
                };
                Some(median(&walls(true))? / median(&walls(false))?)
            })
            .collect();
        r.put_opt("trace.overhead_ratio", geomean(&ratios), "ratio");
        check_span_sums(
            samples
                .iter()
                .filter(|s| s.traced)
                .map(|s| (s.op, s.wall_s)),
            tracer,
            r,
        );
    }
}

/// Checks that no span has a negative self time and that the self times of
/// each listed operation's spans add up to its wall time as measured for
/// the metrics (within 0.1% plus 50 µs: the two clocks are read apart).
pub fn check_span_sums(ops: impl Iterator<Item = (u64, f64)>, tracer: &Tracer, r: &mut Report) {
    let sums = tracer.op_self_sums();
    let mut worst: f64 = 0.0;
    let mut bad = Vec::new();
    for (op, wall) in ops {
        let sum = sums.get(&op).copied().unwrap_or(0.0);
        let diff = (sum - wall).abs();
        worst = worst.max(diff / wall);
        if diff > 1e-3 * wall + 50e-6 {
            bad.push(format!("op {op}: spans {sum:.6} s, wall {wall:.6} s"));
        }
    }
    let st = tracer.self_times();
    if st.min_self_s < -1e-6 {
        bad.push(format!(
            "a span has negative self time {:.3e} s",
            st.min_self_s
        ));
    }
    for (name, count, own, total) in &st.by_name {
        println!("span {name:<10} count {count:>6}  self {own:>10.4} s  total {total:>10.4} s");
    }
    r.put("trace.spans", tracer.len() as f64, "count");
    r.put("check.span_sum_max_rel_diff", worst, "ratio");
    let outcome = if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    };
    r.check("span self times add up to each op's wall time", outcome);
}
