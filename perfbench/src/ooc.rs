//! `ooc`: out-of-core CALU and CAQR through a `TileStore` on disk.
//!
//! A 3072² matrix (72 MiB) is factored under an 18 MiB budget — the matrix
//! is four times the memory the factorization may hold — with b = 64 (at
//! b = 128 the QR plan's tree scratch alone outgrows the budget). Each
//! operation imports the matrix into the store, factors it in place and
//! verifies the factors with the streamed `ca_ooc::probe` functions
//! against `A·x` taken from the store in set-up.

use crate::layers::{self, Shapes};
use crate::ops::{self, Ctx, Kind, Sample};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use ca_core::{CaParams, PROBE_TOL};
use ca_kernels::flops;
use ca_kernels::traffic::{ooc_lu_lower_bound, ooc_qr_lower_bound};
use ca_matrix::{random_uniform, residual_threshold, seeded_rng, Matrix};
use ca_ooc::{probe, IoSnapshot, TileStore};
use std::path::PathBuf;
use std::time::Instant;

const N: usize = 3072;
const BUDGET: usize = 18 << 20;
const B: usize = 64;
const TR: usize = 2;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("shape", format!("[{N},{N}]")),
        ("matrix_bytes", (N * N * 8).to_string()),
        ("budget_bytes", BUDGET.to_string()),
        ("b", B.to_string()),
        ("tr", TR.to_string()),
        ("tree", "\"binary\"".into()),
        ("precision", "\"f64\"".into()),
    ]
}

/// The store and what verifying its factors needs. Dropping it removes the
/// store's directory.
struct State {
    dir: PathBuf,
    store: TileStore<f64>,
    /// The input, kept in memory to re-import before every factorization.
    a: Matrix,
    x: Vec<f64>,
    /// `A·x` and `‖A‖_F`, streamed from the store before any factorization.
    y0: Vec<f64>,
    a_fro: f64,
    generate_s: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-operation figures beyond the shared [`Sample`].
struct OocSample {
    kind: Kind,
    io: IoSnapshot,
    import_s: f64,
    factor_s: f64,
    warmup: bool,
}

enum Factored {
    Lu(ca_ooc::OocLu),
    Qr(ca_ooc::OocQr),
}

fn setup(seed: u64, tr: &mut Tracer, op: u64, root: SpanId) -> Result<State, String> {
    let mut rng = seeded_rng(seed);
    let t0 = Instant::now();
    let a = tr.span("generate", op, Some(root), || {
        random_uniform(N, N, &mut rng)
    });
    let generate_s = t0.elapsed().as_secs_f64();
    let x = random_uniform(N, 1, &mut rng).into_vec();
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = TileStore::<f64>::create(dir.join("matrix.castore"), N, N, B);
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!("create store: {e}"));
        }
    };
    let mut state = State {
        dir,
        store,
        a,
        x,
        y0: Vec::new(),
        a_fro: 0.0,
        generate_s,
    };
    tr.span("import", op, Some(root), || {
        state.store.import_matrix(&state.a)
    })
    .map_err(|e| e.to_string())?;
    let (y0, a_fro) = tr
        .span("probe", op, Some(root), || {
            probe::stream_matvec(&state.store, &state.x)
        })
        .map_err(|e| e.to_string())?;
    state.y0 = y0;
    state.a_fro = a_fro;
    Ok(state)
}

/// One verified out-of-core factorization: import, factor, probe.
fn factor_op(
    kind: Kind,
    s: &State,
    tr: &mut Tracer,
    op: u64,
    parent: Option<SpanId>,
    r: &mut Report,
) -> (Sample, OocSample) {
    let p = CaParams::new(B, TR, crate::host::nproc());
    let t0 = Instant::now();
    let root = tr.open("op", op, parent);
    let ti = Instant::now();
    let imported = tr.span("import", op, Some(root), || s.store.import_matrix(&s.a));
    let import_s = ti.elapsed().as_secs_f64();
    let tf = Instant::now();
    let fid = tr.open("factor", op, Some(root));
    let factored = imported.and_then(|()| match kind {
        Kind::Lu => ca_ooc::ooc_calu(&s.store, &p, BUDGET).map(Factored::Lu),
        Kind::Qr => ca_ooc::ooc_caqr(&s.store, &p, BUDGET).map(Factored::Qr),
    });
    tr.close(fid);
    let factor_s = tf.elapsed().as_secs_f64();
    let tv = Instant::now();
    let vid = tr.open("probe", op, Some(root));
    let (io, probed) = match factored {
        Ok(Factored::Lu(f)) => (f.io, probe::lu_probe_apply(&s.store, &f.pivots, &s.x)),
        Ok(Factored::Qr(f)) => (f.io, probe::qr_probe_apply(&s.store, &f.panels, &s.x)),
        Err(e) => (IoSnapshot::default(), Err(e)),
    };
    let outcome = probed.map_err(|e| e.to_string()).and_then(|got| {
        let res = probe::probe_residual(&got, &s.y0, s.a_fro, &s.x);
        let limit = residual_threshold(N, N, PROBE_TOL);
        if res.is_finite() && res < limit {
            Ok(())
        } else {
            Err(format!(
                "{kind:?} probe residual {res:.3e} exceeds {limit:.3e}"
            ))
        }
    });
    tr.close(vid);
    let verify_s = tv.elapsed().as_secs_f64();
    tr.close(root);
    r.op(outcome);
    let sample = Sample {
        kind,
        op,
        factor_s,
        verify_s,
        wall_s: t0.elapsed().as_secs_f64(),
        traced: tr.enabled(),
    };
    (
        sample,
        OocSample {
            kind,
            io,
            import_s,
            factor_s,
            warmup: parent.is_some(),
        },
    )
}

pub fn run(ctx: &mut Ctx, r: &mut Report) {
    let mut tracer = Tracer::new(ctx.trace);
    let mut extra = Vec::new();
    let mut generate = Vec::new();

    let (state, setup_s) = ops::repeat_setup(|| {
        let op = ctx.op_id();
        let root = tracer.open("setup", op, None);
        let state = setup(ctx.seed, &mut tracer, op, root);
        if let Ok(s) = &state {
            generate.push(s.generate_s);
            for kind in [Kind::Lu, Kind::Qr] {
                extra.push(factor_op(kind, s, &mut tracer, op, Some(root), r).1);
            }
        }
        tracer.close(root);
        state
    });
    let state = match state {
        Ok(s) => s,
        Err(e) => {
            r.op(Err(e));
            return;
        }
    };
    r.put("setup_s", setup_s, "s");
    r.put_opt("matrix.generate_s", median(&generate), "s");

    let (samples, elapsed) = ops::timed_pairs(ctx, &mut tracer, |kind, op, tr| {
        let (sample, more) = factor_op(kind, &state, tr, op, None, r);
        extra.push(more);
        sample
    });
    ops::summarize(
        &samples,
        elapsed,
        [flops::getrf(N, N), flops::geqrf(N, N)],
        &tracer,
        r,
    );
    drop(state);

    let per_kind = |kind: Kind| extra.iter().filter(move |e| e.kind == kind);
    for (kind, name, bound) in [
        (Kind::Lu, "lu", ooc_lu_lower_bound(N, N, BUDGET, 8)),
        (Kind::Qr, "qr", ooc_qr_lower_bound(N, N, BUDGET, 8)),
    ] {
        let Some(first) = per_kind(kind).next() else {
            continue;
        };
        let moved = (first.io.bytes_read + first.io.bytes_written) as f64;
        r.put(&format!("ooc.{name}_io_ratio"), moved / bound, "ratio");
        r.put(
            &format!("ooc.{name}_panel_loads"),
            first.io.panel_loads as f64,
            "count",
        );
        let shares: Vec<f64> = per_kind(kind)
            .filter(|e| !e.warmup)
            .map(|e| e.io.load_seconds / e.factor_s)
            .collect();
        r.put_opt(&format!("ooc.{name}_load_share"), median(&shares), "ratio");
        let same = |e: &&OocSample| {
            (e.io.bytes_read, e.io.bytes_written, e.io.panel_loads)
                == (
                    first.io.bytes_read,
                    first.io.bytes_written,
                    first.io.panel_loads,
                )
        };
        let differing = per_kind(kind).filter(|e| !same(e)).count();
        r.check(
            &format!("{name} byte counts identical across factorizations"),
            if differing == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{differing} factorizations moved other byte counts"
                ))
            },
        );
    }
    let imports: Vec<f64> = extra
        .iter()
        .filter(|e| !e.warmup)
        .map(|e| e.import_s)
        .collect();
    r.put_opt("ooc.import_s", median(&imports), "s");
    let probes: Vec<f64> = samples.iter().map(|s| s.verify_s).collect();
    r.put_opt("ooc.probe_s", median(&probes), "s");

    if ctx.trace {
        crate::write_spans("ooc", ctx.seed, &tracer);
        let shapes = Shapes {
            lu: (N, N),
            qr: (N, N),
            b: B,
            tr: TR,
            threads: ctx.threads,
        };
        layers::measure(&shapes, ctx.seed, r);
    }
}
