//! HYB: the classic ELL + COO hybrid.
//!
//! The format historical cuSPARSE made famous: store each row's first `w`
//! nonzeros in a regular ELL part (`w` chosen so the ELL part is mostly
//! full) and spill the remainder of overlong rows into a COO tail. This
//! directly repairs ELLPACK's failure mode on the paper's `torso1`: the
//! single 3263-nonzero row costs a 3263-slot tail, not 3263 slots on every
//! row of the matrix.

use crate::{
    CooMatrix, CsrMatrix, EllMatrix, Index, Scalar, SparseError, SparseFormat, SparseMatrix,
};

/// A sparse matrix in HYB (ELL + COO) format.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix<T, I = usize> {
    /// The regular part: at most `ell.width()` entries of every row.
    ell: EllMatrix<T, I>,
    /// The spill: entries of rows longer than the ELL width, sorted
    /// row-major.
    tail: CooMatrix<T, I>,
}

/// Pick the ELL width for a row-degree histogram: the smallest width that
/// fully holds `coverage` of the *rows* (the cuSPARSE-style heuristic —
/// the outlier rows spill, the bulk stays regular).
fn choose_width(row_counts: &[usize], coverage: f64) -> usize {
    if row_counts.is_empty() {
        return 0;
    }
    let max = row_counts.iter().copied().max().unwrap_or(0);
    let mut histogram = vec![0usize; max + 1];
    for &c in row_counts {
        histogram[c] += 1;
    }
    let need = (coverage * row_counts.len() as f64).ceil() as usize;
    let mut rows_within = 0usize;
    for (w, &count) in histogram.iter().enumerate() {
        rows_within += count;
        if rows_within >= need {
            return w;
        }
    }
    max
}

impl<T: Scalar, I: Index> HybMatrix<T, I> {
    /// Build from CSR with an automatically chosen ELL width (≥ 95% of
    /// the nonzeros in the regular part).
    pub fn from_csr(csr: &CsrMatrix<T, I>) -> Result<Self, SparseError> {
        let counts: Vec<usize> = (0..csr.rows()).map(|i| csr.row_nnz(i)).collect();
        Self::from_csr_with_width(csr, choose_width(&counts, 0.95))
    }

    /// Build from CSR with an explicit ELL width: each row's first
    /// `width` entries go to the ELL part, the rest to the tail.
    pub fn from_csr_with_width(csr: &CsrMatrix<T, I>, width: usize) -> Result<Self, SparseError> {
        let mut tail = CooMatrix::new(csr.rows(), csr.cols());
        for i in 0..csr.rows() {
            let (rcols, rvals) = csr.row(i);
            for (&c, &v) in rcols.iter().zip(rvals).skip(width) {
                tail.push(i, c.as_usize(), v)?;
            }
        }
        Ok(HybMatrix {
            ell: EllMatrix::build(csr, width),
            tail,
        })
    }

    /// Build from COO with the automatic width, routed through the
    /// conversion graph's CSR hub.
    pub fn from_coo(coo: &CooMatrix<T, I>) -> Result<Self, SparseError> {
        crate::ConversionGraph::shared()
            .convert_coo(coo, SparseFormat::Hyb, &crate::ConvertConfig::default())?
            .matrix
            .into_hyb()
    }

    /// The regular ELL part.
    #[inline(always)]
    pub fn ell(&self) -> &EllMatrix<T, I> {
        &self.ell
    }

    /// The COO spill tail.
    #[inline(always)]
    pub fn tail(&self) -> &CooMatrix<T, I> {
        &self.tail
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        SparseMatrix::rows(&self.ell)
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        SparseMatrix::cols(&self.ell)
    }

    /// Real nonzero count.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.tail.nnz()
    }

    /// Fraction of the nonzeros held by the regular (ELL) part.
    pub fn ell_fraction(&self) -> f64 {
        if self.nnz() == 0 {
            return 1.0;
        }
        self.ell.nnz() as f64 / self.nnz() as f64
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for HybMatrix<T, I> {
    fn rows(&self) -> usize {
        self.rows()
    }

    fn cols(&self) -> usize {
        self.cols()
    }

    fn stored_entries(&self) -> usize {
        self.ell.stored_entries() + self.tail.nnz()
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Hyb
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut coo = self.ell.to_coo();
        for (r, c, v) in self.tail.iter() {
            coo.push(r, c, v).expect("tail indices are in bounds");
        }
        coo.sort_and_sum_duplicates();
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A torso1-in-miniature: uniform rows plus one monster row.
    fn skewed() -> CooMatrix<f64> {
        let mut trips = Vec::new();
        for i in 0..20usize {
            trips.push((i, i, 1.0 + i as f64));
            trips.push((i, (i + 1) % 20, -1.0));
        }
        for j in 0..18 {
            trips.push((7, j, 0.5));
        }
        CooMatrix::from_triplets(20, 20, &trips).unwrap()
    }

    #[test]
    fn roundtrip_automatic_width() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo(&coo).unwrap();
        assert_eq!(hyb.to_dense(), coo.to_dense());
        assert_eq!(hyb.nnz(), coo.nnz());
    }

    #[test]
    fn monster_row_spills_to_the_tail() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo(&coo).unwrap();
        // The ELL width stays near the common degree, not the monster's.
        assert!(hyb.ell().width() <= 4, "width {}", hyb.ell().width());
        assert!(hyb.tail().nnz() > 10, "tail {}", hyb.tail().nnz());
        // HYB stores far fewer slots than plain ELL on this matrix.
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert!(hyb.stored_entries() < ell.stored_entries() / 2);
    }

    /// `ell()` holds exactly each row's first `width` entries and
    /// `tail()` the rest, in row order.
    fn assert_split(coo: &CooMatrix<f64>, width: usize) {
        let csr = CsrMatrix::from_coo(coo);
        let hyb = HybMatrix::from_csr_with_width(&csr, width).unwrap();
        assert_eq!(hyb.ell().width(), width);
        let mut tail = Vec::new();
        for i in 0..csr.rows() {
            let (cols, vals) = csr.row(i);
            let kept = cols.len().min(width);
            assert_eq!(&hyb.ell().row_cols(i)[..kept], &cols[..kept], "row {i}");
            assert_eq!(&hyb.ell().row_vals(i)[..kept], &vals[..kept], "row {i}");
            assert!(hyb.ell().row_vals(i)[kept..].iter().all(|&v| v == 0.0));
            tail.extend(
                cols[kept..]
                    .iter()
                    .zip(&vals[kept..])
                    .map(|(&c, &v)| (i, c, v)),
            );
        }
        assert_eq!(hyb.tail().iter().collect::<Vec<_>>(), tail);
        assert_eq!(hyb.ell().nnz() + hyb.tail().nnz(), coo.nnz());
        assert_eq!(hyb.to_dense(), coo.to_dense());
    }

    #[test]
    fn explicit_widths_split_each_row_at_width() {
        let coo = skewed();
        let fullest = coo.row_counts().into_iter().max().unwrap();
        // 0 sends everything to the tail; past the fullest row, none.
        for width in [0, 1, 2, fullest, fullest + 2] {
            assert_split(&coo, width);
        }
        let empty = CooMatrix::<f64>::new(4, 4);
        for width in [0, 1] {
            assert_split(&empty, width);
        }
    }

    #[test]
    fn regular_matrix_has_empty_tail() {
        let coo = CooMatrix::<f64>::from_triplets(
            8,
            8,
            &(0..8)
                .flat_map(|i| [(i, i, 1.0), (i, (i + 1) % 8, 2.0)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let hyb = HybMatrix::from_coo(&coo).unwrap();
        assert_eq!(hyb.tail().nnz(), 0);
        assert_eq!(hyb.ell_fraction(), 1.0);
    }

    #[test]
    fn width_chooser_covers_requested_row_fraction() {
        // 19 rows of degree 2 and one of degree 100: 95% of the rows fit
        // at width 2, the outlier spills.
        let mut counts = vec![2usize; 19];
        counts.push(100);
        assert_eq!(choose_width(&counts, 0.95), 2);
        // Asking for everything pushes the width to the max degree.
        assert_eq!(choose_width(&counts, 1.0), 100);
        assert_eq!(choose_width(&[], 0.95), 0);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::new(4, 4);
        let hyb = HybMatrix::from_coo(&coo).unwrap();
        assert_eq!(hyb.nnz(), 0);
        assert_eq!(hyb.ell_fraction(), 1.0);
    }
}
