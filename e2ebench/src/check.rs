//! The benchmark's own output check, independent of the program.
//!
//! It multiplies the raw COO triplets by B in compensated f64 (Dot2:
//! error-free products through `mul_add`, TwoSum-compensated sums) and
//! accepts an output entry when it satisfies the dot-product forward-error
//! bound `|c - exact| <= gamma_n * sum_k |a_ik * b_kj|`, where `n` is the
//! row's triplet count and `gamma_n = n*u / (1 - n*u)`. Every correct
//! kernel meets that bound whatever order it sums in, so the check needs
//! no stored copy of an earlier output. It reads only slices, never a
//! spmm-core or spmm-kernels routine.

use std::fmt;

const U: f64 = f64::EPSILON / 2.0;

/// The compensated reference product and the per-entry error budget.
pub struct Reference {
    rows: usize,
    k: usize,
    /// Compensated `A * B[:, :k]`, row-major.
    value: Vec<f64>,
    /// `gamma_n * sum |a*b|` plus the reference's own rounding, row-major.
    bound: Vec<f64>,
}

/// Why an output could not be checked, or failed the check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// Input or output dimensions that do not fit together.
    Shape(String),
    /// An entry outside its forward-error bound (the worst one).
    Bound {
        row: usize,
        col: usize,
        got: f64,
        want: f64,
        allowed: f64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            CheckError::Bound {
                row,
                col,
                got,
                want,
                allowed,
            } => write!(
                f,
                "C[{row},{col}] = {got:e} differs from {want:e} by more than {allowed:e}"
            ),
        }
    }
}

impl Reference {
    /// Build the reference for `A * B[:, :k]` from raw triplets
    /// (`rows[i], cols[i], vals[i]`), with `b` an `b_rows x b_cols`
    /// row-major matrix. Duplicate coordinates count as separate terms.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        a_rows: usize,
        a_cols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
        b: &[f64],
        b_rows: usize,
        b_cols: usize,
        k: usize,
    ) -> Result<Reference, CheckError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(CheckError::Shape(format!(
                "{} row indices, {} column indices, {} values",
                rows.len(),
                cols.len(),
                vals.len()
            )));
        }
        if b_rows != a_cols || b.len() != b_rows * b_cols || k > b_cols {
            return Err(CheckError::Shape(format!(
                "A is {a_rows}x{a_cols}, B is {b_rows}x{b_cols} ({} values), k = {k}",
                b.len()
            )));
        }
        if let Some(i) = (0..rows.len()).find(|&i| rows[i] >= a_rows || cols[i] >= a_cols) {
            return Err(CheckError::Shape(format!(
                "triplet ({}, {}) outside a {a_rows}x{a_cols} matrix",
                rows[i], cols[i]
            )));
        }

        // Group triplet indices by row (a counting sort), so each output
        // row is summed in one pass with row-sized scratch.
        let mut start = vec![0usize; a_rows + 1];
        for &r in rows {
            start[r + 1] += 1;
        }
        for i in 0..a_rows {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut order = vec![0usize; rows.len()];
        for (t, &r) in rows.iter().enumerate() {
            order[fill[r]] = t;
            fill[r] += 1;
        }

        let mut value = vec![0.0; a_rows * k];
        let mut bound = vec![0.0; a_rows * k];
        let (mut comp, mut abs) = (vec![0.0; k], vec![0.0; k]);
        for i in 0..a_rows {
            let terms = &order[start[i]..start[i + 1]];
            let sum = &mut value[i * k..(i + 1) * k];
            comp.fill(0.0);
            abs.fill(0.0);
            for &t in terms {
                let (c, v) = (cols[t], vals[t]);
                for (j, &bv) in b[c * b_cols..c * b_cols + k].iter().enumerate() {
                    let p = v * bv;
                    let p_err = v.mul_add(bv, -p);
                    let (s, e) = two_sum(sum[j], p);
                    sum[j] = s;
                    comp[j] += e + p_err;
                    abs[j] += p.abs();
                }
            }
            let g = gamma(terms.len());
            for j in 0..k {
                sum[j] += comp[j];
                // Forward-error budget of any correct kernel, widened by
                // the Dot2 reference's own error (u*|ref| + gamma_n^2 * S)
                // and by `abs` having been summed in plain f64.
                let s = abs[j] * (1.0 + g);
                bound[i * k + j] = g * s + U * sum[j].abs() + g * g * s;
            }
        }
        Ok(Reference {
            rows: a_rows,
            k,
            value,
            bound,
        })
    }

    /// Check a row-major `rows x k` output. `Ok` holds the largest share
    /// of its budget any entry used (0 = exact, 1 = at the bound).
    pub fn check(&self, c: &[f64], c_rows: usize, c_cols: usize) -> Result<f64, CheckError> {
        if c_rows != self.rows || c_cols != self.k || c.len() != self.rows * self.k {
            return Err(CheckError::Shape(format!(
                "C is {c_rows}x{c_cols} ({} values), expected {}x{}",
                c.len(),
                self.rows,
                self.k
            )));
        }
        let mut worst: Option<(usize, f64)> = None;
        let mut used = 0.0f64;
        for (at, ((&got, &want), &allowed)) in
            c.iter().zip(&self.value).zip(&self.bound).enumerate()
        {
            // A NaN output is as far off as an output can be.
            let diff = match (got - want).abs() {
                d if d.is_nan() => f64::INFINITY,
                d => d,
            };
            if diff > allowed {
                if worst.is_none_or(|(_, w)| diff > w) {
                    worst = Some((at, diff));
                }
            } else if allowed > 0.0 {
                used = used.max(diff / allowed);
            }
        }
        match worst {
            None => Ok(used),
            Some((at, _)) => Err(CheckError::Bound {
                row: at / self.k,
                col: at % self.k,
                got: c[at],
                want: self.value[at],
                allowed: self.bound[at],
            }),
        }
    }
}

/// Knuth's error-free sum: `a + b = s + e` exactly.
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

fn gamma(n: usize) -> f64 {
    let nu = n as f64 * U;
    nu / (1.0 - nu)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small matrix with cancelling terms and a skewed row, in raw
    /// triplets, and a B with values of mixed sign and magnitude.
    fn case() -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let (mut rows, mut cols, mut vals) = (vec![], vec![], vec![]);
        for i in 0..12usize {
            let deg = if i == 5 { 11 } else { i % 4 + 1 };
            for d in 0..deg {
                rows.push(i);
                cols.push((i * 7 + d * 3) % 11);
                vals.push(((i * 31 + d * 17) % 13) as f64 / 7.0 - 0.9 + 1e-3 * d as f64);
            }
        }
        let b = (0..11 * 6)
            .map(|x| ((x * 37 % 29) as f64 - 14.0) * 0.173 + 1e-9 * x as f64)
            .collect();
        (rows, cols, vals, b)
    }

    fn reference(k: usize) -> Reference {
        let (r, c, v, b) = case();
        Reference::new(12, 11, &r, &c, &v, &b, 11, 6, k).unwrap()
    }

    /// Plain f64 row sums over the triplets, forwards or backwards.
    fn naive(k: usize, reverse: bool) -> Vec<f64> {
        let (r, c, v, b) = case();
        let mut order: Vec<usize> = (0..r.len()).collect();
        if reverse {
            order.reverse();
        }
        let mut out = vec![0.0; 12 * k];
        for t in order {
            for j in 0..k {
                out[r[t] * k + j] += v[t] * b[c[t] * 6 + j];
            }
        }
        out
    }

    #[test]
    fn both_summation_orders_pass() {
        let rf = reference(5);
        assert!(rf.check(&naive(5, false), 12, 5).is_ok());
        assert!(rf.check(&naive(5, true), 12, 5).is_ok());
    }

    #[test]
    fn a_result_perturbed_beyond_the_bound_fails() {
        let rf = reference(6);
        let mut c = naive(6, false);
        let at = 5 * 6 + 2;
        c[at] = rf.value[at] + 2.0 * rf.bound[at];
        match rf.check(&c, 12, 6) {
            Err(CheckError::Bound { row, col, .. }) => assert_eq!((row, col), (5, 2)),
            other => panic!("expected a bound failure, got {other:?}"),
        }
        c[at] = f64::NAN;
        assert!(rf.check(&c, 12, 6).is_err());
    }

    #[test]
    fn a_perturbation_within_the_bound_passes() {
        let rf = reference(6);
        let mut c = rf.value.clone();
        let at = 5 * 6 + 2;
        c[at] += 0.5 * rf.bound[at];
        assert!(rf.check(&c, 12, 6).is_ok());
    }

    #[test]
    fn shape_mismatches_are_errors() {
        let rf = reference(4);
        let c = naive(4, false);
        assert!(matches!(rf.check(&c, 12, 5), Err(CheckError::Shape(_))));
        assert!(matches!(
            rf.check(&c[1..], 12, 4),
            Err(CheckError::Shape(_))
        ));
        let (r, c, v, b) = case();
        // B with the wrong row count, k beyond B, ragged triplets, and a
        // triplet outside A.
        assert!(Reference::new(12, 11, &r, &c, &v, &b[6..], 10, 6, 4).is_err());
        assert!(Reference::new(12, 11, &r, &c, &v, &b, 11, 6, 7).is_err());
        assert!(Reference::new(12, 11, &r, &c[1..], &v, &b, 11, 6, 4).is_err());
        assert!(Reference::new(5, 11, &r, &c, &v, &b, 11, 6, 4).is_err());
    }
}
