//! Metrics, op outcomes and consistency checks of one run, and the result
//! line the run ends with.

/// End-to-end metrics: what a caller of the library or the service sees.
/// Every workload reports every one of them.
pub const END_TO_END: [&str; 5] = [
    "lu_gflops",
    "qr_gflops",
    "ops_per_s",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics of the traced run that every workload reports. Each
/// workload prints further layer figures of its own above the result line.
pub const PER_LAYER: [&str; 47] = [
    "matrix.generate_s",
    "kernels.gemm_gflops",
    "kernels.trsm_gflops",
    "kernels.trsm_frac_gemm",
    "kernels.larfb_gflops",
    "kernels.larfb_frac_gemm",
    "kernels.swap_gbps",
    "kernels.rgetf2_gflops",
    "kernels.geqr3_gflops",
    "kernels.par_gemm_gflops",
    "kernels.lu.Gemm.gflops",
    "kernels.lu.Gemm.busy_share",
    "kernels.lu.Trsm.gflops",
    "kernels.lu.Trsm.busy_share",
    "kernels.lu.LuRecursive.gflops",
    "kernels.lu.LuRecursive.busy_share",
    "kernels.lu.Memory.gbps",
    "kernels.lu.Memory.busy_share",
    "kernels.qr.Larfb.gflops",
    "kernels.qr.Larfb.busy_share",
    "kernels.qr.QrRecursive.gflops",
    "kernels.qr.QrRecursive.busy_share",
    "sched.lu.makespan_s",
    "sched.lu.utilization",
    "sched.lu.efficiency",
    "sched.lu.critical_path_s",
    "sched.lu.dispatch_p50_us",
    "sched.lu.lookahead_wait_s",
    "sched.lu.tasks",
    "sched.qr.makespan_s",
    "sched.qr.utilization",
    "sched.qr.efficiency",
    "sched.qr.critical_path_s",
    "sched.qr.dispatch_p50_us",
    "sched.qr.lookahead_wait_s",
    "sched.qr.tasks",
    "core.lu_dag_build_s",
    "core.qr_dag_build_s",
    "core.lu_seq_gflops",
    "core.qr_seq_gflops",
    "core.lu_speedup",
    "core.qr_speedup",
    "core.verify_s",
    "baselines.getrf_gflops",
    "baselines.geqrf_gflops",
    "trace.overhead_ratio",
    "trace.spans",
];

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, Result<(), String>)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric; a later value under the same name replaces it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metric when there is a value.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    /// Counts one verified operation and its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("op failed: {e}");
        }
    }

    /// Records one of the benchmark's own consistency checks.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.checks.push((name.to_string(), outcome));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// Prints every metric and check, then the result line with the listed
    /// metrics. A listed metric the run could not measure, a value that is
    /// not finite, a failed op or a failed check makes the run incorrect.
    pub fn finish(&self, listed: &[&str]) {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>14.6} {unit}");
        }
        println!(
            "{:<36} {failed_ratio:>14.6} ratio ({} of {} ops failed)",
            "failed_ratio", self.failed, self.attempted
        );
        let mut correct = self.failed == 0 && self.attempted > 0;
        for (name, outcome) in &self.checks {
            match outcome {
                Ok(()) => println!("check ok: {name}"),
                Err(e) => {
                    correct = false;
                    println!("check FAILED: {name}: {e}");
                }
            }
        }
        let mut fields = Vec::new();
        for &name in listed {
            let (value, unit) = match self.get(name) {
                Some((v, u)) if v.is_finite() => (v, u),
                other => {
                    eprintln!("metric {name} not measured ({other:?})");
                    correct = false;
                    (0.0, "none")
                }
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
    }
}
