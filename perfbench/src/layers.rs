//! Per-layer measurements at a workload's own shapes, for the traced run.
//!
//! Every figure here is taken from outside the crates: the benchmark times
//! its own calls into each layer's public functions and reads the
//! counters those functions return (`Profile::metrics()`).

use crate::report::Report;
use crate::verify::{self, Problem};
use ca_core::{CaParams, LuFactors, LuStats};
use ca_kernels::{flops, traffic, Trans};
use ca_matrix::{random_uniform, seeded_rng, Matrix, PivotSeq};
use ca_sched::SchedMetrics;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Largest excess of the flops a profile attributes to its kernel classes
/// over the LAPACK count, per unit of `b / min(m, n)`. CALU's tournament
/// refactors `2b × b` candidate blocks and CAQR's reduction tree factors
/// and applies stacked `2b × b` blocks, one panel in every `b` columns, so
/// the redundancy is of order `b / n`; the attributed total must lie in
/// `[0.99, 1 + CLASS_FLOPS_EXCESS · b / min(m, n)]` times the LAPACK count.
pub const CLASS_FLOPS_EXCESS: f64 = 6.0;

/// The shapes one workload factors.
pub struct Shapes {
    pub lu: (usize, usize),
    pub qr: (usize, usize),
    pub b: usize,
    pub tr: usize,
    pub threads: usize,
}

/// Median wall time of `f` over at least 3 calls and at least 0.2 s of
/// calls (at most 50). `prep` builds each call's input, untimed.
fn time_median<S>(mut prep: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < 3 || (total < 0.2 && times.len() < 50) {
        let s = prep();
        let t0 = Instant::now();
        f(s);
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        times.push(dt);
    }
    crate::stats::median(&times).expect("at least three samples")
}

/// Direct single-thread kernel calls (and `par_gemm` on every worker) at
/// the shapes of the workload's first panel step.
fn kernels(s: &Shapes, seed: u64, r: &mut Report) {
    let mut rng = seeded_rng(seed ^ 0x6b65_726e);
    let b = s.b;
    let (m, n) = s.lu;
    let (mu, nu) = (m - b.min(m), n - b.min(n));

    let a = random_uniform(mu, b, &mut rng);
    let bm = random_uniform(b, nu, &mut rng);
    let mut c = random_uniform(mu, nu, &mut rng);
    let fl = flops::gemm(mu, nu, b);
    let t = time_median(
        || (),
        |_| {
            ca_kernels::gemm(
                Trans::No,
                Trans::No,
                -1.0,
                a.view(),
                bm.view(),
                1.0,
                black_box(c.view_mut()),
            )
        },
    );
    let gemm = fl / t / 1e9;
    r.put("kernels.gemm_gflops", gemm, "GF/s");
    let t = time_median(
        || (),
        |_| {
            ca_kernels::par_gemm(
                s.threads,
                Trans::No,
                Trans::No,
                -1.0,
                a.view(),
                bm.view(),
                1.0,
                black_box(c.view_mut()),
            )
        },
    );
    r.put("kernels.par_gemm_gflops", fl / t / 1e9, "GF/s");
    drop((a, c));

    // U block row: unit-lower b × b solve against the trailing columns, with
    // L from a pivoted panel factorization so that |l_ij| ≤ 1 as in CALU.
    let mut panel = random_uniform(2 * b, b, &mut rng);
    ca_kernels::rgetf2(panel.view_mut());
    let t = time_median(
        || bm.clone(),
        |mut x| ca_kernels::trsm_left_lower_unit(panel.block(0, 0, b, b), black_box(x.view_mut())),
    );
    let trsm = flops::trsm_left(b, nu) / t / 1e9;
    r.put("kernels.trsm_gflops", trsm, "GF/s");
    r.put("kernels.trsm_frac_gemm", trsm / gemm, "ratio");

    // Row interchanges of one panel across the trailing columns.
    let mut swaps = PivotSeq::new(0);
    for k in 0..b.min(m) {
        swaps.push(rng.gen_range(k..m));
    }
    let mut trailing = random_uniform(m, nu, &mut rng);
    let t = time_median(|| (), |_| swaps.apply(black_box(trailing.view_mut())));
    r.put(
        "kernels.swap_gbps",
        traffic::laswp(b.min(m), nu) / t / 1e9,
        "GB/s",
    );
    drop(trailing);

    // Panel leaves: one of the Tr row blocks of the first panel.
    let leaf = random_uniform((m / s.tr).max(b), b, &mut rng);
    let t = time_median(
        || leaf.clone(),
        |mut x| {
            black_box(ca_kernels::rgetf2(x.view_mut()));
        },
    );
    r.put(
        "kernels.rgetf2_gflops",
        flops::getrf(leaf.nrows(), b) / t / 1e9,
        "GF/s",
    );

    let (mq, nq) = s.qr;
    let leaf = random_uniform((mq / s.tr).max(b), b, &mut rng);
    let mut tt = Matrix::zeros(b, b);
    let t = time_median(
        || leaf.clone(),
        |mut x| ca_kernels::geqr3(black_box(x.view_mut()), tt.view_mut()),
    );
    r.put(
        "kernels.geqr3_gflops",
        flops::geqrf(leaf.nrows(), b) / t / 1e9,
        "GF/s",
    );

    // QR trailing update: Qᵀ of the first panel applied to the rest.
    let mut v = random_uniform(mq, b, &mut rng);
    ca_kernels::geqr3(v.view_mut(), tt.view_mut());
    let nqu = nq - b.min(nq);
    let mut cq = random_uniform(mq, nqu, &mut rng);
    let t = time_median(
        || (),
        |_| ca_kernels::larfb_left(Trans::Yes, v.view(), tt.view(), black_box(cq.view_mut())),
    );
    let larfb = flops::larfb(mq, nqu, b) / t / 1e9;
    r.put("kernels.larfb_gflops", larfb, "GF/s");
    r.put("kernels.larfb_frac_gemm", larfb / gemm, "ratio");
}

/// Kernel-class and scheduler figures of one profiled factorization.
fn profile_metrics(kind: &str, m: &SchedMetrics, classes: &[&str], r: &mut Report) {
    for &class in classes {
        let c = m.by_class.iter().find(|c| c.class == class);
        let share = c.map_or(0.0, |c| {
            c.busy_seconds / m.busy_seconds.max(f64::MIN_POSITIVE)
        });
        // Row interchanges do no arithmetic: their rate is in bytes.
        if class == "Memory" {
            r.put(
                &format!("kernels.{kind}.{class}.gbps"),
                c.map_or(0.0, |c| c.gbytes_per_sec),
                "GB/s",
            );
        } else {
            r.put(
                &format!("kernels.{kind}.{class}.gflops"),
                c.map_or(0.0, |c| c.gflops),
                "GF/s",
            );
        }
        r.put(
            &format!("kernels.{kind}.{class}.busy_share"),
            share,
            "ratio",
        );
    }
    r.put(&format!("sched.{kind}.makespan_s"), m.makespan, "s");
    r.put(&format!("sched.{kind}.utilization"), m.utilization, "ratio");
    r.put(&format!("sched.{kind}.efficiency"), m.efficiency, "ratio");
    r.put(
        &format!("sched.{kind}.critical_path_s"),
        m.critical_path_seconds,
        "s",
    );
    r.put(
        &format!("sched.{kind}.dispatch_p50_us"),
        m.dispatch_latency.p50 * 1e6,
        "us",
    );
    r.put(
        &format!("sched.{kind}.lookahead_wait_s"),
        m.lookahead.total_wait,
        "s",
    );
    r.put(&format!("sched.{kind}.tasks"), m.tasks as f64, "count");
}

/// Checks that the flops the profile attributes to kernel classes equal
/// the flops of the task graph (every task recorded once) and lie within
/// the CA redundancy band around the LAPACK count (see
/// [`CLASS_FLOPS_EXCESS`]).
fn check_class_flops(
    kind: &str,
    m: &SchedMetrics,
    graph: f64,
    lapack: f64,
    s: &Shapes,
    r: &mut Report,
) {
    let total: f64 = m.by_class.iter().map(|c| c.flops).sum();
    let ratio = total / lapack;
    r.put(&format!("check.{kind}_class_flops_ratio"), ratio, "ratio");
    let (rows, cols) = if kind == "lu" { s.lu } else { s.qr };
    let hi = 1.0 + CLASS_FLOPS_EXCESS * s.b as f64 / rows.min(cols) as f64;
    let outcome = if (total - graph).abs() > 1e-9 * graph {
        Err(format!(
            "classes hold {total:.6e} flops, the task graph {graph:.6e}"
        ))
    } else if !(0.99..=hi).contains(&ratio) {
        Err(format!(
            "{ratio:.4} times the LAPACK count, outside [0.99, {hi:.4}]"
        ))
    } else {
        Ok(())
    };
    r.check(
        &format!("{kind} profile class flops sum to the LAPACK count"),
        outcome,
    );
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Profiled, sequential and baseline factorizations at the workload's
/// shapes: ca-sched and per-class kernel figures, ca-core's DAG build and
/// speed-up over one thread, and the ca-baselines reference rates. Every
/// factorization made here is verified like the workload's own.
fn factorizations(s: &Shapes, seed: u64, r: &mut Report) {
    let p = CaParams::new(s.b, s.tr, s.threads);
    let p1 = CaParams::new(s.b, s.tr, 1);
    let mut rng = seeded_rng(seed ^ 0x6c61_7965);

    let (m, n) = s.lu;
    let lu = Problem::generate(m, n, &mut rng);
    let fl = flops::getrf(m, n);
    let a = lu.a.clone();
    let (res, par_s) = timed(|| ca_core::try_calu_profiled(a, &p));
    match res {
        Ok((f, prof)) => {
            r.op(verify::check_lu(&lu, &f));
            let sm = prof.metrics();
            profile_metrics("lu", &sm, &["Gemm", "Trsm", "LuRecursive", "Memory"], r);
            check_class_flops(
                "lu",
                &sm,
                ca_core::calu_task_graph(m, n, &p).total_flops(),
                fl,
                s,
                r,
            );
        }
        Err(e) => r.op(Err(format!("profiled LU: {e}"))),
    }
    let t = time_median(
        || (),
        |_| drop(black_box(ca_core::calu_task_graph(m, n, &p))),
    );
    r.put("core.lu_dag_build_s", t, "s");
    let a = lu.a.clone();
    let (f, seq_s) = timed(|| ca_core::calu_seq_factor(a, &p1));
    r.op(verify::check_lu(&lu, &f));
    drop(f);
    r.put("core.lu_seq_gflops", fl / seq_s / 1e9, "GF/s");
    r.put("core.lu_speedup", seq_s / par_s, "ratio");
    let mut a = lu.a.clone();
    let (bl, t) = timed(|| ca_baselines::getrf_blocked(&mut a, s.b, s.threads));
    r.put("baselines.getrf_gflops", fl / t / 1e9, "GF/s");
    let f = LuFactors {
        lu: a,
        pivots: bl.pivots,
        breakdown: bl.breakdown,
        stats: LuStats::default(),
    };
    r.op(verify::check_lu(&lu, &f));
    drop((f, lu));

    let (m, n) = s.qr;
    let qr = Problem::generate(m, n, &mut rng);
    let fl = flops::geqrf(m, n);
    let a = qr.a.clone();
    let (res, par_s) = timed(|| ca_core::try_caqr_profiled(a, &p));
    match res {
        Ok((f, prof)) => {
            r.op(verify::check_qr(&qr, &f));
            let sm = prof.metrics();
            profile_metrics("qr", &sm, &["Larfb", "QrRecursive"], r);
            check_class_flops(
                "qr",
                &sm,
                ca_core::caqr_task_graph(m, n, &p).total_flops(),
                fl,
                s,
                r,
            );
        }
        Err(e) => r.op(Err(format!("profiled QR: {e}"))),
    }
    let t = time_median(
        || (),
        |_| drop(black_box(ca_core::caqr_task_graph(m, n, &p))),
    );
    r.put("core.qr_dag_build_s", t, "s");
    let a = qr.a.clone();
    let (f, seq_s) = timed(|| ca_core::caqr_seq(a, &p1));
    r.op(verify::check_qr(&qr, &f));
    drop(f);
    r.put("core.qr_seq_gflops", fl / seq_s / 1e9, "GF/s");
    r.put("core.qr_speedup", seq_s / par_s, "ratio");
    let mut a = qr.a.clone();
    let (bq, t) = timed(|| ca_baselines::geqrf_blocked(&mut a, s.b, s.threads));
    r.put("baselines.geqrf_gflops", fl / t / 1e9, "GF/s");
    let mut qtb = qr.rhs();
    bq.apply_qt(&a, &mut qtb);
    r.op(verify::check_solution(
        &qr,
        &verify::back_substitute(&a, qtb.as_slice()),
    ));
}

/// All per-layer figures shared by every workload.
pub fn measure(s: &Shapes, seed: u64, r: &mut Report) {
    kernels(s, seed, r);
    factorizations(s, seed, r);
}
