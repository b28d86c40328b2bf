//! `serve`: a closed loop of K = 2·nproc virtual clients on one `Service`.
//!
//! One generator thread keeps K jobs outstanding and waits on the oldest.
//! The jobs come from a pool generated in set-up: kinds LU 40%, QR 30%,
//! solve 15% and least squares 15% (`2n × n`), sizes `n` spread evenly
//! over [32, 384] within each kind, so that every seed runs the same mix;
//! the seed draws the matrices and the order of every pass over the pool.

use crate::layers::{self, Shapes};
use crate::ops::{self, Ctx};
use crate::report::Report;
use crate::stats::{geomean, median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::verify::{self, Problem};
use ca_core::{CaParams, LuFactors, QrFactors};
use ca_kernels::flops;
use ca_matrix::{random_uniform, seeded_rng, Matrix};
use ca_serve::{BatchConfig, JobHandle, Service, ServiceConfig, SubmitOptions, TelemetryConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::time::Instant;

const MIN_N: usize = 32;
const MAX_N: usize = 384;
/// Jobs per kind in the pool: LU 40%, QR 30%, solve 15%, lstsq 15%.
const MIX: [(JobKind, usize); 4] = [
    (JobKind::Lu, 48),
    (JobKind::Qr, 36),
    (JobKind::Solve, 18),
    (JobKind::Lstsq, 18),
];
const BATCH_MAX_DIM: usize = 64;
const B: usize = 128;
const TR: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobKind {
    Lu,
    Qr,
    Solve,
    Lstsq,
}

impl JobKind {
    fn name(self) -> &'static str {
        match self {
            JobKind::Lu => "lu",
            JobKind::Qr => "qr",
            JobKind::Solve => "solve",
            JobKind::Lstsq => "lstsq",
        }
    }
}

struct Job {
    kind: JobKind,
    n: usize,
    prob: Problem,
}

enum Pending {
    Lu(JobHandle<LuFactors>),
    Qr(JobHandle<QrFactors>),
    Solution(JobHandle<Matrix>),
}

struct JobSample {
    kind: JobKind,
    n: usize,
    op: u64,
    latency_s: f64,
    submit_s: f64,
    wait_s: f64,
    verify_s: f64,
    traced: bool,
    ok: bool,
}

/// Outstanding jobs: `2 · nproc`.
fn clients(threads: usize) -> usize {
    2 * threads
}

pub fn params(threads: usize) -> Vec<(&'static str, String)> {
    vec![
        ("workers", threads.to_string()),
        ("clients", clients(threads).to_string()),
        ("loop", "\"closed\"".into()),
        ("n_range", format!("[{MIN_N},{MAX_N}]")),
        (
            "mix",
            "{\"lu\":0.4,\"qr\":0.3,\"solve\":0.15,\"lstsq\":0.15}".into(),
        ),
        (
            "pool_jobs",
            MIX.iter().map(|m| m.1).sum::<usize>().to_string(),
        ),
        ("batch_max_dim", BATCH_MAX_DIM.to_string()),
        ("b", B.to_string()),
        ("tr", TR.to_string()),
        ("telemetry", "\"in-memory\"".into()),
    ]
}

/// The job pool and the seconds spent generating its matrices.
fn pool(rng: &mut StdRng) -> (Vec<Job>, f64) {
    let mut specs = Vec::new();
    for (kind, count) in MIX {
        for i in 0..count {
            let n = MIN_N + ((i as f64 + 0.5) / count as f64 * (MAX_N - MIN_N + 1) as f64) as usize;
            specs.push((kind, n));
        }
    }
    let t0 = Instant::now();
    let mats: Vec<Matrix> = specs
        .iter()
        .map(|&(kind, n)| random_uniform(if kind == JobKind::Lstsq { 2 * n } else { n }, n, rng))
        .collect();
    let generate_s = t0.elapsed().as_secs_f64();
    let jobs = specs
        .into_iter()
        .zip(mats)
        .map(|((kind, n), a)| Job {
            kind,
            n,
            prob: Problem::from_matrix(a, rng),
        })
        .collect();
    (jobs, generate_s)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

fn start_service(threads: usize) -> Service {
    Service::new(
        ServiceConfig::new(threads)
            .with_params(CaParams::new(B, TR, threads))
            .with_batching(BatchConfig::up_to(BATCH_MAX_DIM))
            .with_telemetry(TelemetryConfig::default()),
    )
}

fn submit(svc: &Service, kind: JobKind, a: Matrix, rhs: Option<Matrix>) -> Result<Pending, String> {
    let opts = SubmitOptions::default();
    let rhs = || rhs.ok_or_else(|| "missing right-hand side".to_string());
    let pending = match kind {
        JobKind::Lu => svc.submit_lu(a, opts).map(Pending::Lu),
        JobKind::Qr => svc.submit_qr(a, opts).map(Pending::Qr),
        JobKind::Solve => svc.submit_solve(a, rhs()?, opts).map(Pending::Solution),
        JobKind::Lstsq => svc.submit_lstsq(a, rhs()?, opts).map(Pending::Solution),
    };
    pending.map_err(|e| format!("submit {}: {e}", kind.name()))
}

enum Output {
    Lu(LuFactors),
    Qr(QrFactors),
    Solution(Matrix),
}

fn wait(pending: Pending) -> Result<Output, String> {
    let out = match pending {
        Pending::Lu(h) => h.wait().map(Output::Lu),
        Pending::Qr(h) => h.wait().map(Output::Qr),
        Pending::Solution(h) => h.wait().map(Output::Solution),
    };
    out.map_err(|e| format!("wait: {e}"))
}

fn check(job: &Job, out: &Output) -> Result<(), String> {
    match out {
        Output::Lu(f) => verify::check_lu(&job.prob, f),
        Output::Qr(f) => verify::check_qr(&job.prob, f),
        Output::Solution(x) => verify::check_solution(&job.prob, x.as_slice()),
    }
}

/// The job's inputs, copied before its clock starts.
fn inputs(job: &Job) -> (Matrix, Option<Matrix>) {
    let rhs = matches!(job.kind, JobKind::Solve | JobKind::Lstsq).then(|| job.prob.rhs());
    (job.prob.a.clone(), rhs)
}

struct InFlight {
    job: usize,
    op: u64,
    t0: Instant,
    root: SpanId,
    submit_s: f64,
    traced: bool,
    pending: Result<Pending, String>,
}

/// Waits for and verifies one outstanding job.
fn complete(f: InFlight, jobs: &[Job], tr: &mut Tracer, r: &mut Report) -> JobSample {
    let job = &jobs[f.job];
    let tw = Instant::now();
    let wid = tr.open("wait", f.op, Some(f.root));
    let out = f.pending.and_then(wait);
    tr.close(wid);
    let wait_s = tw.elapsed().as_secs_f64();
    let tv = Instant::now();
    let vid = tr.open("verify", f.op, Some(f.root));
    let outcome = out.and_then(|o| check(job, &o));
    tr.close(vid);
    let verify_s = tv.elapsed().as_secs_f64();
    tr.close(f.root);
    let latency_s = f.t0.elapsed().as_secs_f64();
    let ok = outcome.is_ok();
    r.op(outcome.map_err(|e| format!("{} n={}: {e}", job.kind.name(), job.n)));
    JobSample {
        ok,
        kind: job.kind,
        n: job.n,
        op: f.op,
        latency_s,
        submit_s: f.submit_s,
        wait_s,
        verify_s,
        traced: f.traced,
    }
}

/// Submits one job from the pool.
fn launch(
    svc: &Service,
    jobs: &[Job],
    idx: usize,
    op: u64,
    traced: bool,
    tr: &mut Tracer,
) -> InFlight {
    let (a, rhs) = inputs(&jobs[idx]);
    let t0 = Instant::now();
    let root = tr.open("job", op, None);
    let sid = tr.open("submit", op, Some(root));
    let pending = submit(svc, jobs[idx].kind, a, rhs);
    tr.close(sid);
    InFlight {
        job: idx,
        op,
        t0,
        root,
        submit_s: t0.elapsed().as_secs_f64(),
        traced,
        pending,
    }
}

pub fn run(ctx: &mut Ctx, r: &mut Report) {
    let mut tracer = Tracer::new(ctx.trace);
    let mut off = Tracer::new(false);
    let mut generate = Vec::new();

    let ((jobs, svc, mut rng), setup_s) = ops::repeat_setup(|| {
        let op = ctx.op_id();
        let root = tracer.open("setup", op, None);
        let gid = tracer.open("generate", op, Some(root));
        let mut rng = seeded_rng(ctx.seed);
        let (jobs, generate_s) = pool(&mut rng);
        tracer.close(gid);
        generate.push(generate_s);
        let svc = start_service(ctx.threads);
        // Warm up on the largest job of each kind.
        for kind in [JobKind::Lu, JobKind::Qr, JobKind::Solve, JobKind::Lstsq] {
            let idx = (0..jobs.len())
                .filter(|&i| jobs[i].kind == kind)
                .max_by_key(|&i| jobs[i].n);
            let f = launch(
                &svc,
                &jobs,
                idx.expect("every kind is in the pool"),
                op,
                true,
                &mut tracer,
            );
            complete(f, &jobs, &mut tracer, r);
        }
        tracer.close(root);
        (jobs, svc, rng)
    });
    r.put("setup_s", setup_s, "s");
    r.put_opt("matrix.generate_s", median(&generate), "s");

    let k = clients(ctx.threads);
    let mut samples = Vec::new();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0usize;
    let mut order = Vec::new();
    let start = Instant::now();
    loop {
        while inflight.len() < k && start.elapsed().as_secs_f64() < ctx.seconds {
            if next.is_multiple_of(jobs.len()) {
                order = shuffled(jobs.len(), &mut rng);
            }
            let traced = ctx.trace && next.is_multiple_of(2);
            let op = ctx.op_id();
            let tr = if traced { &mut tracer } else { &mut off };
            inflight.push_back(launch(
                &svc,
                &jobs,
                order[next % jobs.len()],
                op,
                traced,
                tr,
            ));
            next += 1;
        }
        let Some(f) = inflight.pop_front() else { break };
        let tr = if f.traced { &mut tracer } else { &mut off };
        samples.push(complete(f, &jobs, tr, r));
    }
    let elapsed = start.elapsed().as_secs_f64();
    summarize(&samples, elapsed, &svc, &tracer, r);
    drop(svc);
    drop(jobs);

    if ctx.trace {
        crate::write_spans("serve", ctx.seed, &tracer);
        let shapes = Shapes {
            lu: (MAX_N, MAX_N),
            qr: (MAX_N, MAX_N),
            b: B,
            tr: TR,
            threads: ctx.threads,
        };
        layers::measure(&shapes, ctx.seed, r);
    }
}

fn summarize(samples: &[JobSample], elapsed: f64, svc: &Service, tracer: &Tracer, r: &mut Report) {
    let latencies = |kind: JobKind, traced: Option<bool>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.kind == kind && traced.is_none_or(|t| s.traced == t))
            .map(|s| s.latency_s)
            .collect()
    };
    // The rate a client of one kind sees: the kind's flops over the time
    // its jobs took from submit to verified result, summed over the run.
    let rate = |kind: JobKind, fl: fn(usize, usize) -> f64| -> Option<f64> {
        let (work, time) = samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .fold((0.0, 0.0), |(w, t), s| (w + fl(s.n, s.n), t + s.latency_s));
        (time > 0.0).then(|| work / time / 1e9)
    };
    r.put_opt("lu_gflops", rate(JobKind::Lu, flops::getrf), "GF/s");
    r.put_opt("qr_gflops", rate(JobKind::Qr, flops::geqrf), "GF/s");
    r.put(
        "ops_per_s",
        samples.iter().filter(|s| s.ok).count() as f64 / elapsed,
        "1/s",
    );
    let all: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    r.put("serve.jobs", all.len() as f64, "count");
    r.put_opt("p50_ms", percentile(&all, 0.5, 10), "ms");
    r.put_opt("p99_ms", percentile(&all, 0.99, 10), "ms");
    for kind in [JobKind::Lu, JobKind::Qr, JobKind::Solve, JobKind::Lstsq] {
        let ms: Vec<f64> = latencies(kind, None).iter().map(|s| s * 1e3).collect();
        r.put_opt(
            &format!("serve.{}.p50_ms", kind.name()),
            percentile(&ms, 0.5, 10),
            "ms",
        );
    }
    let submit: Vec<f64> = samples.iter().map(|s| s.submit_s * 1e6).collect();
    r.put_opt("serve.submit_us", median(&submit), "us");
    let wait: Vec<f64> = samples.iter().map(|s| s.wait_s * 1e3).collect();
    r.put_opt("serve.wait_ms", median(&wait), "ms");
    let verify: Vec<f64> = samples.iter().map(|s| s.verify_s).collect();
    r.put_opt("core.verify_s", median(&verify), "s");

    let stats = svc.stats();
    r.put(
        "serve.batched_share",
        stats.batched_jobs as f64 / stats.submitted.max(1) as f64,
        "ratio",
    );
    r.put("serve.failed", stats.failed as f64, "count");
    r.put("serve.rejected", stats.rejected as f64, "count");
    r.put("serve.cancelled", stats.cancelled as f64, "count");
    let mut snap = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let s = svc.metrics_snapshot();
        snap.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(s);
    }
    r.put_opt("telemetry.snapshot_ms", median(&snap), "ms");

    if tracer.enabled() {
        let ratios: Vec<f64> = [JobKind::Lu, JobKind::Qr, JobKind::Solve, JobKind::Lstsq]
            .into_iter()
            .filter_map(|kind| {
                Some(median(&latencies(kind, Some(true)))? / median(&latencies(kind, Some(false)))?)
            })
            .collect();
        r.put_opt("trace.overhead_ratio", geomean(&ratios), "ratio");
        ops::check_span_sums(
            samples
                .iter()
                .filter(|s| s.traced)
                .map(|s| (s.op, s.latency_s)),
            tracer,
            r,
        );
    }
}
