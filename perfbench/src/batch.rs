//! `square` and `tall_skinny`: one caller factoring LU and QR in turn
//! through the one-shot `try_calu` / `try_caqr`.

use crate::layers::{self, Shapes};
use crate::ops::{self, Ctx, Kind, Sample};
use crate::report::Report;
use crate::trace::{SpanId, Tracer};
use crate::verify::{self, Problem};
use ca_core::CaParams;
use ca_kernels::flops;
use ca_matrix::{random_uniform, seeded_rng};
use std::rc::Rc;
use std::time::Instant;

/// The LU and QR shapes of a batch workload.
pub struct Batch {
    pub name: &'static str,
    pub lu: (usize, usize),
    pub qr: (usize, usize),
}

/// Trailing-update bound: the ROADMAP baseline shapes, LU 4096² (128 MiB)
/// and QR 2048² (32 MiB).
pub const SQUARE: Batch = Batch {
    name: "square",
    lu: (4096, 4096),
    qr: (2048, 2048),
};

/// Panel bound: 196608 × 256 (384 MiB, more than the 300 MiB LLC of the
/// reference host), two panels of b = 128, for both LU and QR.
pub const TALL_SKINNY: Batch = Batch {
    name: "tall_skinny",
    lu: (196_608, 256),
    qr: (196_608, 256),
};

pub const B: usize = 128;
pub const TR: usize = 2;

struct Inputs {
    lu: Rc<Problem>,
    qr: Rc<Problem>,
    generate_s: f64,
}

impl Batch {
    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("lu_shape", format!("[{},{}]", self.lu.0, self.lu.1)),
            ("qr_shape", format!("[{},{}]", self.qr.0, self.qr.1)),
            ("b", B.to_string()),
            ("tr", TR.to_string()),
            ("tree", "\"binary\"".into()),
            ("precision", "\"f64\"".into()),
            ("callers", "1".into()),
        ]
    }

    /// Generates the inputs (one matrix when both shapes agree).
    fn generate(&self, seed: u64, tr: &mut Tracer, parent: SpanId, op: u64) -> Inputs {
        let mut rng = seeded_rng(seed);
        let t0 = Instant::now();
        let (a_lu, a_qr) = tr.span("generate", op, Some(parent), || {
            let a_lu = random_uniform(self.lu.0, self.lu.1, &mut rng);
            let a_qr = (self.qr != self.lu).then(|| random_uniform(self.qr.0, self.qr.1, &mut rng));
            (a_lu, a_qr)
        });
        let generate_s = t0.elapsed().as_secs_f64();
        let lu = Rc::new(Problem::from_matrix(a_lu, &mut rng));
        let qr = match a_qr {
            Some(a) => Rc::new(Problem::from_matrix(a, &mut rng)),
            None => Rc::clone(&lu),
        };
        Inputs { lu, qr, generate_s }
    }

    pub fn run(&self, ctx: &mut Ctx, r: &mut Report) {
        let p = CaParams::new(B, TR, ctx.threads);
        let mut tracer = Tracer::new(ctx.trace);
        let mut generate = Vec::new();

        let (inputs, setup_s) = ops::repeat_setup(|| {
            let op = ctx.op_id();
            let root = tracer.open("setup", op, None);
            let inputs = self.generate(ctx.seed, &mut tracer, root, op);
            generate.push(inputs.generate_s);
            for kind in [Kind::Lu, Kind::Qr] {
                factor_op(kind, &inputs, &p, &mut tracer, op, Some(root), r);
            }
            tracer.close(root);
            inputs
        });
        r.put("setup_s", setup_s, "s");
        r.put_opt("matrix.generate_s", crate::stats::median(&generate), "s");

        let (samples, elapsed) = ops::timed_pairs(ctx, &mut tracer, |kind, op, tr| {
            factor_op(kind, &inputs, &p, tr, op, None, r)
        });
        let fl = [
            flops::getrf(self.lu.0, self.lu.1),
            flops::geqrf(self.qr.0, self.qr.1),
        ];
        ops::summarize(&samples, elapsed, fl, &tracer, r);
        drop(inputs);

        if ctx.trace {
            crate::write_spans(self.name, ctx.seed, &tracer);
            let shapes = Shapes {
                lu: self.lu,
                qr: self.qr,
                b: B,
                tr: TR,
                threads: ctx.threads,
            };
            layers::measure(&shapes, ctx.seed, r);
        }
    }
}

/// One verified factorization: copy the input, factor, verify.
fn factor_op(
    kind: Kind,
    inputs: &Inputs,
    p: &CaParams,
    tr: &mut Tracer,
    op: u64,
    parent: Option<SpanId>,
    r: &mut Report,
) -> Sample {
    let t0 = Instant::now();
    let root = tr.open("op", op, parent);
    let prob = match kind {
        Kind::Lu => &inputs.lu,
        Kind::Qr => &inputs.qr,
    };
    let a = prob.a.clone();
    let tf = Instant::now();
    let fid = tr.open("factor", op, Some(root));
    let factors = match kind {
        Kind::Lu => ca_core::try_calu(a, p).map(Factors::Lu),
        Kind::Qr => ca_core::try_caqr(a, p).map(Factors::Qr),
    };
    tr.close(fid);
    let factor_s = tf.elapsed().as_secs_f64();
    let tv = Instant::now();
    let vid = tr.open("verify", op, Some(root));
    let outcome = match &factors {
        Ok(Factors::Lu(f)) => verify::check_lu(prob, f),
        Ok(Factors::Qr(f)) => verify::check_qr(prob, f),
        Err(e) => Err(format!("{kind:?}: {e}")),
    };
    tr.close(vid);
    let verify_s = tv.elapsed().as_secs_f64();
    drop(factors);
    tr.close(root);
    r.op(outcome);
    Sample {
        kind,
        op,
        factor_s,
        verify_s,
        wall_s: t0.elapsed().as_secs_f64(),
        traced: tr.enabled(),
    }
}

enum Factors {
    Lu(ca_core::LuFactors),
    Qr(ca_core::QrFactors),
}
