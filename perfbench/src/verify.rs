//! O(mn) verification of every factorization and solve the benchmark makes.
//!
//! Each problem carries a known solution `x₀` and the consistent
//! right-hand side `b = A·x₀`. An LU is checked by the random-vector probe
//! `Π·b = L·(U·x₀)` over all `m` rows and by solving with the leading
//! `n × n` factors and comparing the result with `x₀`; a QR by a least
//! squares solve on `b`, compared with `x₀` and checked by its residual.
//! Only matrix-vector work: never a matrix product or a full residual.

use ca_core::{LuFactors, QrFactors, PROBE_TOL};
use ca_matrix::{random_uniform, residual_threshold, Matrix};
use rand::rngs::StdRng;

/// Largest accepted forward error `‖x − x₀‖∞ / ‖x₀‖∞`. The random inputs
/// are well conditioned; a wrong factor misses this by orders of magnitude.
const FORWARD_TOL: f64 = 1e-6;

/// A matrix with a known solution.
pub struct Problem {
    pub a: Matrix,
    pub x0: Vec<f64>,
    pub b: Vec<f64>,
    pub anorm: f64,
}

impl Problem {
    /// Draws `A` (`m × n`, uniform in [-1, 1]) and `x₀` from `rng`, then
    /// forms `b = A·x₀` and `‖A‖∞`.
    pub fn generate(m: usize, n: usize, rng: &mut StdRng) -> Self {
        Self::from_matrix(random_uniform(m, n, rng), rng)
    }

    pub fn from_matrix(a: Matrix, rng: &mut StdRng) -> Self {
        let x0 = random_uniform(a.ncols(), 1, rng).into_vec();
        let b = matvec(&a, &x0);
        let anorm = norm_inf(&a);
        Self { a, x0, b, anorm }
    }

    pub fn rhs(&self) -> Matrix {
        Matrix::from_vec(self.b.clone(), self.b.len(), 1)
    }
}

/// `A·x` for column-major `A`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let m = a.nrows();
    let mut y = vec![0.0; m];
    for (j, &xj) in x.iter().enumerate() {
        let col = &a.as_slice()[j * m..(j + 1) * m];
        for (yi, &aij) in y.iter_mut().zip(col) {
            *yi += aij * xj;
        }
    }
    y
}

/// Largest absolute row sum.
pub fn norm_inf(a: &Matrix) -> f64 {
    let m = a.nrows();
    let mut rows = vec![0.0f64; m];
    for col in a.as_slice().chunks_exact(m.max(1)) {
        for (r, &v) in rows.iter_mut().zip(col) {
            *r += v.abs();
        }
    }
    rows.into_iter().fold(0.0, f64::max)
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, x| {
        if x.is_nan() {
            f64::NAN
        } else {
            acc.max(x.abs())
        }
    })
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0f64, |acc, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::NAN
        } else {
            acc.max(d)
        }
    })
}

/// `Ok` when `value` is finite and below `limit`.
fn within(what: &str, value: f64, limit: f64) -> Result<(), String> {
    if value.is_finite() && value < limit {
        Ok(())
    } else {
        Err(format!("{what} {value:.3e} exceeds {limit:.3e}"))
    }
}

/// Compares a computed solution with the known one, and its residual
/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞)` with the probe threshold.
pub fn check_solution(p: &Problem, x: &[f64]) -> Result<(), String> {
    if x.len() != p.x0.len() {
        return Err(format!(
            "solution has {} entries, expected {}",
            x.len(),
            p.x0.len()
        ));
    }
    let fwd = max_abs_diff(x, &p.x0) / max_abs(&p.x0);
    within("forward error", fwd, FORWARD_TOL)?;
    let r = max_abs_diff(&matvec(&p.a, x), &p.b) / (p.anorm * max_abs(x)).max(f64::MIN_POSITIVE);
    within(
        "residual",
        r,
        residual_threshold(p.a.nrows(), p.a.ncols(), PROBE_TOL),
    )
}

/// Checks `Π·A = L·U` for `m ≥ n` by the probe over all rows, then solves
/// with the leading `n × n` factors and compares with `x₀`.
pub fn check_lu(p: &Problem, f: &LuFactors) -> Result<(), String> {
    let (m, n) = (p.a.nrows(), p.a.ncols());
    let lu = &f.lu;
    if lu.nrows() != m || lu.ncols() != n || m < n {
        return Err(format!(
            "factors are {}x{}, input {m}x{n}",
            lu.nrows(),
            lu.ncols()
        ));
    }
    let at = |i: usize, j: usize| lu.as_slice()[i + j * m];

    // u = U·x₀, w = L·u.
    let mut u = vec![0.0; n];
    for (j, &xj) in p.x0.iter().enumerate() {
        for (i, ui) in u.iter_mut().enumerate().take(j + 1) {
            *ui += at(i, j) * xj;
        }
    }
    let mut w = vec![0.0; m];
    for (j, &uj) in u.iter().enumerate() {
        w[j] += uj;
        for (i, wi) in w.iter_mut().enumerate().skip(j + 1) {
            *wi += at(i, j) * uj;
        }
    }
    let mut pb = p.b.clone();
    f.pivots.apply_vec(&mut pb);
    let probe = max_abs_diff(&pb, &w) / (p.anorm * max_abs(&p.x0)).max(f64::MIN_POSITIVE);
    within(
        "LU probe residual",
        probe,
        residual_threshold(m, n, PROBE_TOL),
    )?;

    // x = U⁻¹·L₁₁⁻¹·(Π·b)[0..n].
    let mut x = pb[..n].to_vec();
    for j in 0..n {
        let xj = x[j];
        for (i, xi) in x.iter_mut().enumerate().skip(j + 1) {
            *xi -= at(i, j) * xj;
        }
    }
    let x = back_substitute(lu, &x);
    let fwd = max_abs_diff(&x, &p.x0) / max_abs(&p.x0);
    within("LU forward error", fwd, FORWARD_TOL)
}

/// `x = R⁻¹·y[0..n]` for `R` the upper triangle of the leading `n × n`
/// block of `r` (`m × n`, column-major).
pub fn back_substitute(r: &Matrix, y: &[f64]) -> Vec<f64> {
    let (m, n) = (r.nrows(), r.ncols());
    let at = |i: usize, j: usize| r.as_slice()[i + j * m];
    let mut x = y[..n].to_vec();
    for j in (0..n).rev() {
        x[j] /= at(j, j);
        let xj = x[j];
        for (i, xi) in x.iter_mut().enumerate().take(j) {
            *xi -= at(i, j) * xj;
        }
    }
    x
}

/// Solves the least-squares problem on the consistent `b` with the QR
/// factors and checks the solution.
pub fn check_qr(p: &Problem, f: &QrFactors) -> Result<(), String> {
    if f.a.nrows() != p.a.nrows() || f.a.ncols() != p.a.ncols() {
        return Err(format!(
            "factors are {}x{}, input {}x{}",
            f.a.nrows(),
            f.a.ncols(),
            p.a.nrows(),
            p.a.ncols()
        ));
    }
    let x = f.try_solve_ls(&p.rhs()).map_err(|e| e.to_string())?;
    check_solution(p, x.as_slice())
}
