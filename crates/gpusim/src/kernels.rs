//! "OpenMP offload"-style GPU SpMM kernels for the paper's four formats.
//!
//! These mirror what the thesis's `#pragma omp target teams distribute
//! parallel for` kernels compile to: straightforward one-thread-per-work-
//! item mappings with no shared-memory staging, plus the documented
//! overhead of the OpenMP offload runtime ([`OPENMP_OFFLOAD_PENALTY`]).
//! The cuSPARSE-style counterparts live in [`crate::vendor`].

use spmm_core::{BcsrMatrix, CooMatrix, CsrMatrix, DenseMatrix, EllMatrix, Index, Scalar};

use crate::device::DeviceProfile;
use crate::exec::{buf, launch, KernelCost, LaunchConfig, LaunchStats};

/// Time multiplier for the OpenMP target-offload runtime, which the paper
/// describes as "not known to do well" on the GPU (§5.9): covers missed
/// shared-memory staging, generic index arithmetic and runtime bookkeeping
/// relative to a tuned CUDA kernel.
pub const OPENMP_OFFLOAD_PENALTY: f64 = 2.5;

/// Threads per block used by every kernel (the OpenMP default team size).
pub const BLOCK: usize = 256;

/// Reusable per-launch scratch: the accumulator row the CSR/ELL/SELL
/// kernels keep per simulated thread. Simulated threads run sequentially,
/// so one row suffices; reusing it across timed iterations removes the
/// per-thread `vec![0; k]` the naive kernels would allocate. The scratch
/// counts its own growth ([`GpuScratch::alloc_bytes`]); growth and reuse
/// also feed the same `workspace.*` metrics the CPU arena reports.
#[derive(Debug, Default)]
pub struct GpuScratch<T> {
    acc: Vec<T>,
    alloc_bytes: u64,
}

impl<T: Scalar> GpuScratch<T> {
    /// An empty scratch; the accumulator grows on first use.
    pub fn new() -> Self {
        GpuScratch {
            acc: Vec::new(),
            alloc_bytes: 0,
        }
    }

    /// Bytes this scratch has grown by since it was made.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    fn acquire_acc(&mut self, k: usize) -> &mut Vec<T> {
        let grew = k > self.acc.capacity();
        if grew {
            self.alloc_bytes += (k * T::BYTES) as u64;
        }
        if spmm_trace::enabled() {
            if grew {
                spmm_trace::counter("workspace.alloc_count").inc();
                spmm_trace::counter("workspace.alloc_bytes").add((k * T::BYTES) as u64);
            } else {
                spmm_trace::counter("workspace.reuse_count").inc();
            }
        }
        self.acc.clear();
        self.acc.resize(k, T::ZERO);
        &mut self.acc
    }
}

/// Device bytes an SpMM launch needs: the formatted A payload plus B and C.
pub fn device_bytes_required<T: Scalar>(
    a_payload_bytes: usize,
    b: &DenseMatrix<T>,
    k: usize,
    rows: usize,
) -> usize {
    a_payload_bytes + b.rows() * b.cols() * T::BYTES + rows * k * T::BYTES
}

fn working_set<T: Scalar>(a_payload: usize, b_rows: usize, rows: usize, k: usize) -> usize {
    // A payload + the k columns of B actually read + C.
    a_payload + b_rows * k * T::BYTES + rows * k * T::BYTES
}

/// CSR SpMM, one thread per row (the natural offload mapping).
pub fn csr_spmm_gpu<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> LaunchStats {
    csr_spmm_gpu_in(device, a, b, k, c, &mut GpuScratch::new())
}

/// [`csr_spmm_gpu`] with caller-owned scratch (zero steady-state allocs).
pub fn csr_spmm_gpu_in<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
    scratch: &mut GpuScratch<T>,
) -> LaunchStats {
    crate::kernels::check_shapes(a.rows(), a.cols(), b, k, c);
    let rows = a.rows();
    let bcols = b.cols();
    let a_payload = (rows + 1 + a.nnz()) * I::BYTES + a.nnz() * T::BYTES;
    let cost = KernelCost {
        executed_flops: 2 * a.nnz() as u64 * k as u64,
        working_set_bytes: working_set::<T>(a_payload, b.rows(), rows, k),
        runtime_penalty: OPENMP_OFFLOAD_PENALTY,
    };
    let c_slice = c.as_mut_slice();
    let acc = scratch.acquire_acc(k);
    launch(device, LaunchConfig::cover(rows, BLOCK), cost, |tid, t| {
        if tid >= rows {
            return;
        }
        t.load(buf::A_PTR, tid * I::BYTES, 2 * I::BYTES);
        let lo = a.row_ptr()[tid].as_usize();
        let hi = a.row_ptr()[tid + 1].as_usize();
        acc.fill(T::ZERO);
        for e in lo..hi {
            t.load(buf::A_IDX, e * I::BYTES, I::BYTES);
            t.load(buf::A_VALS, e * T::BYTES, T::BYTES);
            let j = a.col_idx()[e].as_usize();
            let v = a.values()[e];
            t.load(buf::B, (j * bcols) * T::BYTES, k * T::BYTES);
            let b_row = &b.row(j)[..k];
            for (av, &bv) in acc.iter_mut().zip(b_row) {
                *av = v.mul_add(bv, *av);
            }
        }
        t.store(buf::C, tid * k * T::BYTES, k * T::BYTES);
        c_slice[tid * k..(tid + 1) * k].copy_from_slice(acc);
    })
}

/// COO SpMM, one thread per nonzero with atomic accumulation into C — the
/// only mapping COO's unstructured triplets admit.
pub fn coo_spmm_gpu<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &CooMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> LaunchStats {
    crate::kernels::check_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let nnz = a.nnz();
    let bcols = b.cols();
    let a_payload = nnz * (2 * I::BYTES + T::BYTES);
    let cost = KernelCost {
        executed_flops: 2 * nnz as u64 * k as u64,
        working_set_bytes: working_set::<T>(a_payload, b.rows(), a.rows(), k),
        runtime_penalty: OPENMP_OFFLOAD_PENALTY,
    };
    let c_slice = c.as_mut_slice();
    launch(device, LaunchConfig::cover(nnz, BLOCK), cost, |tid, t| {
        if tid >= nnz {
            return;
        }
        t.load(buf::A_IDX, tid * 2 * I::BYTES, 2 * I::BYTES);
        t.load(buf::A_VALS, tid * T::BYTES, T::BYTES);
        let r = a.row_indices()[tid].as_usize();
        let j = a.col_indices()[tid].as_usize();
        let v = a.values()[tid];
        t.load(buf::B, (j * bcols) * T::BYTES, k * T::BYTES);
        // Atomic adds: a read-modify-write of the whole C row per entry —
        // the scatter the trace prices as poor C coalescing.
        t.load(buf::C, r * k * T::BYTES, k * T::BYTES);
        t.store(buf::C, r * k * T::BYTES, k * T::BYTES);
        let b_row = &b.row(j)[..k];
        let c_row = &mut c_slice[r * k..(r + 1) * k];
        for (cv, &bv) in c_row.iter_mut().zip(b_row) {
            *cv = v.mul_add(bv, *cv);
        }
    })
}

/// ELLPACK SpMM, one thread per row over a column-major device layout.
///
/// ELL is the GPU-native format: slot `s` of consecutive rows sits in
/// consecutive addresses (`s * rows + i`), so adjacent lanes issue fully
/// coalesced loads. The host [`EllMatrix`] stores slots row-major; the
/// kernel reads it functionally as-is but traces the transposed addresses
/// a device copy would use.
pub fn ell_spmm_gpu<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> LaunchStats {
    ell_spmm_gpu_in(device, a, b, k, c, &mut GpuScratch::new())
}

/// [`ell_spmm_gpu`] with caller-owned scratch (zero steady-state allocs).
pub fn ell_spmm_gpu_in<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
    scratch: &mut GpuScratch<T>,
) -> LaunchStats {
    crate::kernels::check_shapes(a.rows(), a.cols(), b, k, c);
    let rows = a.rows();
    let width = a.width();
    let bcols = b.cols();
    let a_payload = a.padded_len() * (I::BYTES + T::BYTES);
    let cost = KernelCost {
        // Padding slots execute real FLOPs on the GPU.
        executed_flops: 2 * a.padded_len() as u64 * k as u64,
        working_set_bytes: working_set::<T>(a_payload, b.rows(), rows, k),
        runtime_penalty: OPENMP_OFFLOAD_PENALTY,
    };
    let c_slice = c.as_mut_slice();
    let acc = scratch.acquire_acc(k);
    launch(device, LaunchConfig::cover(rows, BLOCK), cost, |tid, t| {
        if tid >= rows {
            return;
        }
        acc.fill(T::ZERO);
        let cols = a.row_cols(tid);
        let vals = a.row_vals(tid);
        for s in 0..width {
            // Column-major device addresses: coalesced across lanes.
            t.load(buf::A_IDX, (s * rows + tid) * I::BYTES, I::BYTES);
            t.load(buf::A_VALS, (s * rows + tid) * T::BYTES, T::BYTES);
            let j = cols[s].as_usize();
            let v = vals[s];
            t.load(buf::B, (j * bcols) * T::BYTES, k * T::BYTES);
            let b_row = &b.row(j)[..k];
            for (av, &bv) in acc.iter_mut().zip(b_row) {
                *av = v.mul_add(bv, *av);
            }
        }
        t.store(buf::C, tid * k * T::BYTES, k * T::BYTES);
        c_slice[tid * k..(tid + 1) * k].copy_from_slice(acc);
    })
}

/// BCSR SpMM, one thread per block row (the offload mapping of the
/// thesis's block-row loop).
pub fn bcsr_spmm_gpu<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &BcsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> LaunchStats {
    crate::kernels::check_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let rows = a.rows();
    let cols = a.cols();
    let (r, bc_w) = (a.block_r(), a.block_c());
    let block_rows = a.block_rows();
    let bcols = b.cols();
    let area = r * bc_w;
    let a_payload = (block_rows + 1 + a.nblocks()) * I::BYTES + a.values().len() * T::BYTES;
    let cost = KernelCost {
        executed_flops: 2 * a.values().len() as u64 * k as u64,
        working_set_bytes: working_set::<T>(a_payload, b.rows(), rows, k),
        runtime_penalty: OPENMP_OFFLOAD_PENALTY,
    };
    let c_slice = c.as_mut_slice();
    launch(
        device,
        LaunchConfig::cover(block_rows, BLOCK),
        cost,
        |tid, t| {
            if tid >= block_rows {
                return;
            }
            t.load(buf::A_PTR, tid * I::BYTES, 2 * I::BYTES);
            let row_lo = tid * r;
            let row_hi = (row_lo + r).min(rows);
            let lo = a.row_ptr()[tid].as_usize();
            let hi = a.row_ptr()[tid + 1].as_usize();
            for bidx in lo..hi {
                t.load(buf::A_IDX, bidx * I::BYTES, I::BYTES);
                t.load(buf::A_VALS, bidx * area * T::BYTES, area * T::BYTES);
                let bcol = a.col_idx()[bidx].as_usize();
                let block = a.block_values(bidx);
                let col_lo = bcol * bc_w;
                for lc in 0..bc_w {
                    let j = col_lo + lc;
                    if j >= cols {
                        break;
                    }
                    t.load(buf::B, (j * bcols) * T::BYTES, k * T::BYTES);
                }
                for i in row_lo..row_hi {
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    let c_row = &mut c_slice[i * k..(i + 1) * k];
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        if j < cols && v != T::ZERO {
                            let b_row = &b.row(j)[..k];
                            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                                *cv = v.mul_add(bv, *cv);
                            }
                        }
                    }
                }
            }
            for i in row_lo..row_hi {
                t.store(buf::C, i * k * T::BYTES, k * T::BYTES);
            }
        },
    )
}

/// SELL-C-σ SpMM, one thread per padded row position — the format's home
/// mapping: a warp's 32 lanes walk one slice in lockstep, every A access
/// coalesced, with per-slice (not global) padding cost.
pub fn sell_spmm_gpu<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &spmm_core::SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> LaunchStats {
    sell_spmm_gpu_in(device, a, b, k, c, &mut GpuScratch::new())
}

/// [`sell_spmm_gpu`] with caller-owned scratch (zero steady-state allocs).
pub fn sell_spmm_gpu_in<T: Scalar, I: Index>(
    device: &DeviceProfile,
    a: &spmm_core::SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
    scratch: &mut GpuScratch<T>,
) -> LaunchStats {
    crate::kernels::check_shapes(a.rows(), a.cols(), b, k, c);
    let rows = a.rows();
    let height = a.slice_height();
    let padded_rows = a.nslices() * height;
    let bcols = b.cols();
    let a_payload = a.padded_len() * (I::BYTES + T::BYTES);
    let cost = KernelCost {
        executed_flops: 2 * a.padded_len() as u64 * k as u64,
        working_set_bytes: working_set::<T>(a_payload, b.rows(), rows, k),
        runtime_penalty: OPENMP_OFFLOAD_PENALTY,
    };
    let c_slice = c.as_mut_slice();
    let acc = scratch.acquire_acc(k);
    launch(
        device,
        LaunchConfig::cover(padded_rows, BLOCK),
        cost,
        |tid, t| {
            if tid >= padded_rows {
                return;
            }
            let s = tid / height;
            let lane = tid % height;
            let p = s * height + lane;
            if p >= rows {
                return; // ghost lane of the ragged last slice
            }
            let (base, width) = a.slice(s);
            let row = a.row_at(p);
            acc.fill(T::ZERO);
            for slot in 0..width {
                let at = base + slot * height + lane;
                // Lane-major storage: adjacent lanes read adjacent addresses.
                t.load(buf::A_IDX, at * I::BYTES, I::BYTES);
                t.load(buf::A_VALS, at * T::BYTES, T::BYTES);
                let v = a.values()[at];
                if v != T::ZERO {
                    let j = a.col_idx()[at].as_usize();
                    t.load(buf::B, (j * bcols) * T::BYTES, k * T::BYTES);
                    let b_row = &b.row(j)[..k];
                    for (av, &bv) in acc.iter_mut().zip(b_row) {
                        *av = v.mul_add(bv, *av);
                    }
                }
            }
            t.store(buf::C, row * k * T::BYTES, k * T::BYTES);
            c_slice[row * k..(row + 1) * k].copy_from_slice(acc);
        },
    )
}

pub(crate) fn check_shapes<T: Scalar>(
    a_rows: usize,
    a_cols: usize,
    b: &DenseMatrix<T>,
    k: usize,
    c: &DenseMatrix<T>,
) {
    assert_eq!(
        a_cols,
        b.rows(),
        "A has {a_cols} cols but B has {} rows",
        b.rows()
    );
    assert!(k <= b.cols(), "k = {k} exceeds B's {} columns", b.cols());
    assert_eq!(
        c.rows(),
        a_rows,
        "C has {} rows but A has {a_rows}",
        c.rows()
    );
    assert_eq!(c.cols(), k, "C has {} cols but k = {k}", c.cols());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut trips = Vec::new();
        for i in 0..200usize {
            for d in 0..(i % 6 + 1) {
                trips.push((i, (i * 5 + d * 13) % 150, ((i + d) % 9) as f64 * 0.5 - 2.0));
            }
        }
        (
            CooMatrix::from_triplets(200, 150, &trips).unwrap(),
            DenseMatrix::from_fn(150, 16, |i, j| ((i * 3 + j) % 7) as f64 - 3.0),
        )
    }

    #[test]
    fn gpu_kernels_are_functionally_correct() {
        let dev = DeviceProfile::h100();
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 4).unwrap();
        for k in [1, 8, 16] {
            let expected = coo.spmm_reference_k(&b, k);
            let mut c = DenseMatrix::zeros(200, k);
            csr_spmm_gpu(&dev, &csr, &b, k, &mut c);
            assert_eq!(c, expected, "csr k={k}");
            coo_spmm_gpu(&dev, &coo, &b, k, &mut c);
            assert_eq!(c, expected, "coo k={k}");
            ell_spmm_gpu(&dev, &ell, &b, k, &mut c);
            assert_eq!(c, expected, "ell k={k}");
            bcsr_spmm_gpu(&dev, &bcsr, &b, k, &mut c);
            assert_eq!(c, expected, "bcsr k={k}");
        }
    }

    #[test]
    fn sell_gpu_kernel_is_correct_and_stores_less_than_ell() {
        let dev = DeviceProfile::h100();
        let (coo, b) = fixture();
        let sell = spmm_core::SellMatrix::from_coo(&coo, 8, 64).unwrap();
        let expected = coo.spmm_reference_k(&b, 16);
        let mut c = DenseMatrix::zeros(200, 16);
        let sell_stats = sell_spmm_gpu(&dev, &sell, &b, 16, &mut c);
        assert_eq!(c, expected);
        // The skewed fixture pads ELL hard; SELL's per-slice padding
        // executes fewer wasted flops, so its simulated time is no worse.
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let ell_stats = ell_spmm_gpu(&dev, &ell, &b, 16, &mut c);
        assert!(sell.padded_len() < ell.padded_len());
        assert!(sell_stats.time_s <= ell_stats.time_s * 1.05);
    }

    #[test]
    fn stats_are_plausible() {
        let dev = DeviceProfile::h100();
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let mut c = DenseMatrix::zeros(200, 16);
        let stats = csr_spmm_gpu(&dev, &csr, &b, 16, &mut c);
        assert!(stats.time_s > 0.0);
        assert!(stats.dram_bytes > 0.0);
        assert!(stats.mflops(2 * coo.nnz() as u64 * 16) > 0.0);
        assert!(stats.sampled_warps > 0);
    }

    #[test]
    fn coo_atomics_generate_more_c_traffic_than_ell() {
        // COO's atomic accumulation reads and writes a C row per *entry*;
        // ELL writes each C row once. Use a perfectly regular matrix so
        // ELL has zero padding and the comparison isolates the C traffic.
        let dev = DeviceProfile::h100();
        let mut trips = Vec::new();
        for i in 0..200usize {
            for d in 0..4 {
                trips.push((i, (i * 5 + d * 13) % 150, (d + 1) as f64));
            }
        }
        let coo = CooMatrix::<f64>::from_triplets(200, 150, &trips).unwrap();
        let b = DenseMatrix::from_fn(150, 16, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.padding_fraction(), 0.0);
        let mut c = DenseMatrix::zeros(200, 8);
        let ell_stats = ell_spmm_gpu(&dev, &ell, &b, 8, &mut c);
        let coo_stats = coo_spmm_gpu(&dev, &coo, &b, 8, &mut c);
        assert!(
            coo_stats.total_sectors > ell_stats.total_sectors,
            "coo {} vs ell {}",
            coo_stats.total_sectors,
            ell_stats.total_sectors
        );
    }

    #[test]
    fn h100_is_simulated_faster_than_a100() {
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let mut c = DenseMatrix::zeros(200, 16);
        // Use a large enough matrix that bandwidth, not launch overhead,
        // differentiates: scale the fixture by replicating flops.
        let h = csr_spmm_gpu(&DeviceProfile::h100(), &csr, &b, 16, &mut c);
        let a = csr_spmm_gpu(&DeviceProfile::a100(), &csr, &b, 16, &mut c);
        assert!(h.time_s <= a.time_s);
    }

    #[test]
    fn device_bytes_accounting() {
        let (_, b) = fixture();
        let need = device_bytes_required::<f64>(1000, &b, 16, 200);
        assert_eq!(need, 1000 + 150 * 16 * 8 + 200 * 16 * 8);
    }
}
