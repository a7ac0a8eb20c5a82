//! Dense, row-major `f32` matrix with Rayon-parallel kernels.
//!
//! This is the storage type behind the autograd tape ([`crate::Tape`]) and
//! everything the Interaction GNN computes on. Kernels switch to parallel
//! execution above a size threshold so that small per-subgraph matrices do
//! not pay thread-pool overhead; the matmul family is a packed, blocked
//! GEMM with MR×NR register-tile micro-kernels (see the *Blocked GEMM*
//! section below) whose per-element summation order is fixed regardless
//! of blocking or thread count, because the golden-curve and
//! fused/unfused-parity tests pin results bit-for-bit.
//!
//! Every dense kernel has an accumulate-into (`*_acc`) variant writing
//! `out += result` into a caller-provided buffer — the autograd backward
//! pass uses these to accumulate gradients in place with no per-op
//! allocation (buffers come from [`crate::BufferPool`]).

use crate::plan::EdgePlan;
use rand::Rng;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Default element count above which elementwise kernels use Rayon.
const DEFAULT_PAR_THRESHOLD: usize = 1 << 14;
/// Default output element count above which matmul uses Rayon.
const DEFAULT_PAR_MATMUL_THRESHOLD: usize = 1 << 10;

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// Element count above which elementwise kernels use Rayon
/// (override: `TRKX_PAR_THRESHOLD`).
pub fn par_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| env_usize("TRKX_PAR_THRESHOLD").unwrap_or(DEFAULT_PAR_THRESHOLD))
}

/// Output element count above which matmul kernels use Rayon
/// (override: `TRKX_PAR_MATMUL_THRESHOLD`).
pub fn par_matmul_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| {
        env_usize("TRKX_PAR_MATMUL_THRESHOLD").unwrap_or(DEFAULT_PAR_MATMUL_THRESHOLD)
    })
}

// ---------------------------------------------------------------------
// Blocked GEMM.
//
// `matmul` and `matmul_tn` funnel into one packed, cache-blocked core:
// B is packed once per call into NR-wide column panels, then row blocks
// of A (MC rows, full reduction depth) are packed into per-thread
// scratch and swept with an MR×NR register-tile micro-kernel. The
// parallel split is over row blocks of the output's m axis — every
// output element is produced by exactly one block with a single
// sequential accumulator over the reduction index, so results are
// bit-identical at any thread count or block size. `matmul_nt` keeps
// its own layout (both operands are already k-contiguous) but shares
// the same ordering contract via the `dot8` lane structure.

/// Micro-kernel tile width: each packed-B panel is NR columns, and the
/// accumulator tile holds NR partial sums per row — one 512-bit, two
/// 256-bit, or four 128-bit SIMD registers per row depending on
/// `target-cpu`, resident for the whole reduction loop.
const NR: usize = 16;

/// Micro-kernel tile height: rows of packed A per tile. All MR rows
/// share each NR-wide panel load, so the kernel performs MR×NR useful
/// multiply-adds per B load instead of 1×NR.
const MR: usize = 8;

/// Row-block size: rows of A packed per scratch block (a whole number of
/// MR tiles). 128 rows at the model's reduction depths keeps a block's
/// packed panel in L2 while the B panels stay L1-resident.
const MC: usize = 128;

/// Row-block size for an `m`-row product: [`MC`], shrunk when `m` is
/// small so the pool still sees several blocks (the `matmul_tn` backward
/// has m = hidden width, not edge count). Block geometry never affects
/// results, only the parallel split.
fn mc_for(m: usize) -> usize {
    let target = m.div_ceil(4 * rayon::current_num_threads().max(1));
    target.next_multiple_of(MR).clamp(MR, MC)
}

thread_local! {
    /// Packed-B column panels for the current GEMM call (caller thread).
    static PACK_B: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Packed-A row-block scratch (one per pool thread).
    static PACK_A: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrow a thread-local scratch buffer for the duration of `f`.
///
/// Each slot is a small stack of buffers: `f` pops one (or starts fresh)
/// and pushes it back after. Re-entrant use — a thread help-draining the
/// pool runs another GEMM's block while its own call has a buffer checked
/// out — simply pops a second buffer, so nesting depth d parks at most d
/// buffers per thread and the steady-state training loop performs no
/// scratch allocation at any thread count.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<Vec<f32>>>>,
    f: impl FnOnce(&mut Vec<f32>) -> R,
) -> R {
    let mut buf = cell.with(|c| c.borrow_mut().pop().unwrap_or_default());
    let r = f(&mut buf);
    cell.with(|c| c.borrow_mut().push(buf));
    r
}

/// Grow `buf` to at least `len` elements (never shrinks, keeps capacity).
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Pack `b` (`k x n` row-major) into NR-wide column panels: panel `p`
/// holds columns `p*NR..`, laid out reduction-major —
/// `bp[p*k*NR + kk*NR + t] = b[kk, p*NR + t]` — zero-padded to NR on the
/// ragged right edge so the micro-kernel never branches on width.
fn pack_b(b: &[f32], k: usize, n: usize, bp: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    ensure_len(bp, panels * k * NR);
    for p in 0..panels {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &mut bp[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            let dst = &mut panel[kk * NR..(kk + 1) * NR];
            dst[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            dst[w..].fill(0.0);
        }
    }
}

/// Pack `rows` rows of `a` (`.. x k` row-major) starting at `r0` into
/// MR-row tiles: `ap[t*k*MR + kk*MR + r] = a[r0 + t*MR + r, kk]`,
/// zero-padded on the ragged bottom edge.
fn pack_a_block(a: &[f32], k: usize, r0: usize, rows: usize, ap: &mut Vec<f32>) {
    let tiles = rows.div_ceil(MR);
    ensure_len(ap, tiles * k * MR);
    for t in 0..tiles {
        let tile = &mut ap[t * k * MR..(t + 1) * k * MR];
        let tr = (rows - t * MR).min(MR);
        if tr < MR {
            tile.fill(0.0);
        }
        for r in 0..tr {
            let row = &a[(r0 + t * MR + r) * k..(r0 + t * MR + r + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                tile[kk * MR + r] = v;
            }
        }
    }
}

/// Pack columns `c0..c0+cols` of `a` (`k x m` row-major) into MR-row
/// tiles of `aᵀ`: produces exactly the layout [`pack_a_block`] would on
/// the materialised transpose — `ap[t*k*MR + kk*MR + r] = a[kk, c0 +
/// t*MR + r]` — but reads each of `a`'s rows once, contiguously, instead
/// of paying a strided transpose pass first.
fn pack_a_block_tn(a: &[f32], k: usize, m: usize, c0: usize, cols: usize, ap: &mut Vec<f32>) {
    let tiles = cols.div_ceil(MR);
    ensure_len(ap, tiles * k * MR);
    if !cols.is_multiple_of(MR) {
        // Zero the ragged last tile's pad lanes once up front.
        ap[(tiles - 1) * k * MR..tiles * k * MR].fill(0.0);
    }
    for kk in 0..k {
        let src = &a[kk * m + c0..kk * m + c0 + cols];
        for t in 0..tiles {
            let w = (cols - t * MR).min(MR);
            let dst = &mut ap[t * k * MR + kk * MR..t * k * MR + kk * MR + w];
            dst.copy_from_slice(&src[t * MR..t * MR + w]);
        }
    }
}

/// Which operand layout a GEMM row block packs its A tiles from.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// `a` is `m x k` row-major; blocks cover row ranges.
    Rows(&'a [f32]),
    /// `a` is `k x m` row-major (the TN operand); blocks cover column
    /// ranges, packed transposed on the fly.
    TnCols(&'a [f32], usize),
}

/// One MR×NR accumulator tile over the full reduction depth. Per output
/// element this is a single sequential accumulator over `kk` ascending —
/// the summation order every variant pins, independent of blocking.
#[inline]
fn gemm_tile(ap: &[f32], bp: &[f32], k: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in ap[..k * MR]
        .chunks_exact(MR)
        .zip(bp[..k * NR].chunks_exact(NR))
    {
        for r in 0..MR {
            let a_rk = av[r];
            let row = &mut acc[r];
            for t in 0..NR {
                row[t] += a_rk * bv[t];
            }
        }
    }
    acc
}

/// One packed row block of the GEMM: pack rows `r0..r0+rows` of `a` into
/// this thread's scratch, then sweep packed-B panels × MR-row tiles.
/// `OVERWRITE` selects `out = A·B` (skips the caller's zero pass) versus
/// `out += A·B`; both add the identical accumulator to the same start
/// value, so they are bit-compatible.
fn gemm_block<const OVERWRITE: bool>(
    a: ASource<'_>,
    k: usize,
    r0: usize,
    rows: usize,
    bp: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    with_scratch(&PACK_A, |apack| {
        match a {
            ASource::Rows(a) => pack_a_block(a, k, r0, rows, apack),
            ASource::TnCols(a, m) => pack_a_block_tn(a, k, m, r0, rows, apack),
        }
        let tiles = rows.div_ceil(MR);
        let panels = n.div_ceil(NR);
        for p in 0..panels {
            let j0 = p * NR;
            let w = (n - j0).min(NR);
            let bpanel = &bp[p * k * NR..(p + 1) * k * NR];
            for t in 0..tiles {
                let acc = gemm_tile(&apack[t * k * MR..(t + 1) * k * MR], bpanel, k);
                let tr = (rows - t * MR).min(MR);
                for (r, acc_row) in acc.iter().enumerate().take(tr) {
                    let o0 = (t * MR + r) * n + j0;
                    let dst = &mut out_block[o0..o0 + w];
                    for (o, &v) in dst.iter_mut().zip(&acc_row[..w]) {
                        if OVERWRITE {
                            *o = v;
                        } else {
                            *o += v;
                        }
                    }
                }
            }
        }
    });
}

/// Blocked-GEMM driver shared by `matmul` and `matmul_tn`:
/// `out (+)= a · b` with `a` `m x k` row-major. Packs B once, then
/// parallelises over MC-row blocks of the m axis.
fn gemm_dispatch<const OVERWRITE: bool>(
    a: ASource<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    with_scratch(&PACK_B, |bp| {
        pack_b(b, k, n, bp);
        let bp = &bp[..n.div_ceil(NR) * k * NR];
        let mc = mc_for(m);
        let body = |(ci, chunk): (usize, &mut [f32])| {
            gemm_block::<OVERWRITE>(a, k, ci * mc, chunk.len() / n, bp, n, chunk);
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.par_chunks_mut(mc * n).enumerate().for_each(body);
        } else {
            out.chunks_mut(mc * n).enumerate().for_each(body);
        }
    });
}

/// Eight-lane dot product: breaks the float add dependency chain so LLVM
/// vectorizes the reduction (a plain `zip().sum()` must stay scalar).
/// This lane structure is the pinned summation order of `matmul_nt`.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let ac = &a[c * 8..c * 8 + 8];
        let bc = &b[c * 8..c * 8 + 8];
        for t in 0..8 {
            lanes[t] += ac[t] * bc[t];
        }
    }
    let mut tail = 0.0f32;
    for t in chunks * 8..a.len() {
        tail += a[t] * b[t];
    }
    lanes.iter().sum::<f32>() + tail
}

/// Blocked transpose of `src` (`rows x cols`) into `dst` (`cols x rows`),
/// overwriting. Parallel over blocks of output rows; tiled so the
/// strided source reads stay cache-resident.
fn transpose_buf(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    // Tile edge: 32x32 f32 tiles = two 4 KiB pages of source touched
    // per tile, well inside L1.
    const TB: usize = 32;
    if rows == 0 || cols == 0 {
        return;
    }
    debug_assert!(src.len() == rows * cols && dst.len() == rows * cols);
    // Each chunk covers up to TB output rows (= TB source columns).
    let body = |(chunk_idx, out_chunk): (usize, &mut [f32])| {
        let c0 = chunk_idx * TB;
        let cw = out_chunk.len() / rows;
        for r0 in (0..rows).step_by(TB) {
            let rw = (rows - r0).min(TB);
            for dc in 0..cw {
                let out_seg = &mut out_chunk[dc * rows + r0..dc * rows + r0 + rw];
                let c = c0 + dc;
                for (dr, o) in out_seg.iter_mut().enumerate() {
                    *o = src[(r0 + dr) * cols + c];
                }
            }
        }
    };
    if rows * cols >= par_threshold() && cols > 1 {
        dst.par_chunks_mut(TB * rows).enumerate().for_each(body);
    } else {
        dst.chunks_mut(TB * rows).enumerate().for_each(body);
    }
}

/// A dense row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `rows x cols` matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major buffer. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from a per-element function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Standard-normal entries scaled by `std` (Box-Muller via `rand`).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        // Box-Muller; generates pairs, drops the spare on odd counts.
        let n = rows * cols;
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Uniform entries in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// A 1x1 matrix holding `v` (scalar results such as losses).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// The single element of a 1x1 matrix. Panics otherwise.
    pub fn as_scalar(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "as_scalar on {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Overwrite every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Copy `other`'s contents into `self` (shapes must match).
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Dense matrix product `self * b`. Parallel over row blocks of the
    /// output.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut out);
        out
    }

    /// `out = self * b`, overwriting a caller-provided buffer.
    ///
    /// Bit-identical to zeroing `out` and calling [`Matrix::matmul_acc`]
    /// (the register accumulators start from zero either way), but skips
    /// the zero-fill pass, so pooled buffers need no clearing first.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        gemm_dispatch::<true>(ASource::Rows(&self.data), m, k, &b.data, n, &mut out.data);
    }

    /// `out += self * b`, accumulating into a caller-provided buffer.
    pub fn matmul_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        gemm_dispatch::<false>(ASource::Rows(&self.data), m, k, &b.data, n, &mut out.data);
    }

    /// `selfᵀ * b` without materialising the transpose in the caller.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, b.cols);
        self.matmul_tn_acc(b, &mut out);
        out
    }

    /// `out += selfᵀ * b` without materialising the transpose.
    ///
    /// Runs the same blocked GEMM core as [`Matrix::matmul_acc`], with A
    /// tiles packed transposed on the fly (`pack_a_block_tn`): per
    /// element the same products are added by one accumulator in the same
    /// ascending-reduction order as the historical strided column walk,
    /// so results are bit-identical — but every stream is contiguous, and
    /// the parallel split is over output row blocks (the m axis) instead
    /// of fighting the reduction layout.
    pub fn matmul_tn_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, b.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.cols, self.rows, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        gemm_dispatch::<false>(
            ASource::TnCols(&self.data, m),
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `self * bᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.rows);
        self.matmul_nt_acc(b, &mut out);
        out
    }

    /// `out += self * bᵀ` without materialising the transpose: both
    /// operands are already contiguous along the reduction axis, so no
    /// packing is needed — each output element is one `dot8` of
    /// `self`'s row against a B row. (A 4-rows-at-once variant was
    /// tried and measured ~2x *slower*: four lane arrays exceed the
    /// baseline SSE register file and spill, while this single-dot
    /// loop vectorizes cleanly.)
    pub fn matmul_nt_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        let a = &self.data;
        let bd = &b.data;
        let body = |(r, out_row): (usize, &mut [f32])| {
            let a_row = &a[r * k..(r + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += dot8(a_row, &bd[j * k..(j + 1) * k]);
            }
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.data.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(n).enumerate().for_each(body);
        }
    }

    /// Materialised transpose. Parallel over blocks of output rows, with
    /// tiled traversal so the strided source reads stay cache-resident.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided `cols x rows` buffer (overwrites).
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        transpose_buf(&self.data, self.rows, self.cols, &mut out.data);
    }

    fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut out = self.clone();
        if out.data.len() >= par_threshold() {
            out.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a = f(*a, b));
        } else {
            for (a, &b) in out.data.iter_mut().zip(&other.data) {
                *a = f(*a, b);
            }
        }
        out
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        if self.data.len() >= par_threshold() {
            self.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a += b);
        } else {
            for (a, &b) in self.data.iter_mut().zip(&other.data) {
                *a += b;
            }
        }
    }

    /// In-place `self ⊙= other`.
    pub fn mul_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "mul_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// In-place fused multiply-accumulate `self += a ⊙ b`.
    pub fn hadamard_acc(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape(), "hadamard_acc operand mismatch");
        assert_eq!(self.shape(), a.shape(), "hadamard_acc shape mismatch");
        for ((o, &av), &bv) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o += av * bv;
        }
    }

    /// In-place `self += k * other` (axpy).
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(|v| v * k)
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.apply(f);
        out
    }

    /// Apply `f` to every element in place.
    pub fn apply(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() >= par_threshold() {
            self.data.par_iter_mut().for_each(|v| *v = f(*v));
        } else {
            self.data.iter_mut().for_each(|v| *v = f(*v));
        }
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        Self::concat_cols_into(parts, &mut out);
        out
    }

    /// Horizontal concatenation into a caller-provided buffer (overwrites).
    pub fn concat_cols_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(
            out.shape(),
            (rows, cols),
            "concat_cols output shape mismatch"
        );
        if cols == 0 {
            return;
        }
        let body = |(r, dst): (usize, &mut [f32])| {
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        };
        if rows * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows col mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Copy the column range `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, end - start);
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// Copy the column range `[start, end)` into `out` (overwrites).
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        assert_eq!(
            out.shape(),
            (self.rows, end - start),
            "slice_cols output shape mismatch"
        );
        let w = end - start;
        if w == 0 {
            return;
        }
        let body = |(r, dst): (usize, &mut [f32])| {
            dst.copy_from_slice(&self.row(r)[start..end]);
        };
        if self.rows * w >= par_threshold() {
            out.data.par_chunks_mut(w).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(w).enumerate().for_each(body);
        }
    }

    /// `out[i, :] = self[idx[i], :]` — row gather.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// One-shot validation that every index addresses a row below
    /// `bound`. Indices come from event data, not internal invariants, so
    /// the kernels check them with a real `assert!` — but only once, at
    /// the kernel boundary, never inside the (possibly parallel) inner
    /// loop.
    #[inline]
    fn assert_row_indices(idx: &[u32], bound: usize, what: &str) {
        if let Some(&max) = idx.iter().max() {
            assert!(
                (max as usize) < bound,
                "{what} index {max} out of range for {bound} rows"
            );
        }
    }

    /// Row gather into a caller-provided buffer (overwrites).
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather output shape mismatch"
        );
        Self::assert_row_indices(idx, self.rows, "gather_rows");
        let cols = self.cols;
        let src = &self.data;
        let body = |(i, dst): (usize, &mut [f32])| {
            let r = idx[i] as usize;
            dst.copy_from_slice(&src[r * cols..(r + 1) * cols]);
        };
        if idx.len() * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// `out[i, :] += self[idx[i], :]` — accumulating row gather (the
    /// adjoint of scatter-add, used by its backward pass). Parallel over
    /// output rows: each is written by exactly one task, so the result is
    /// thread-count independent.
    pub fn gather_rows_acc(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather output shape mismatch"
        );
        Self::assert_row_indices(idx, self.rows, "gather_rows");
        let cols = self.cols;
        let src = &self.data;
        let body = |(i, dst): (usize, &mut [f32])| {
            let r = idx[i] as usize;
            for (d, &s) in dst.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                *d += s;
            }
        };
        if cols == 0 {
            return;
        }
        if idx.len() * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// `out[idx[i], :] += self[i, :]` into a fresh `out_rows x cols` matrix —
    /// the row scatter-add used by GNN message aggregation.
    pub fn scatter_add_rows(&self, idx: &[u32], out_rows: usize) -> Matrix {
        let mut out = Matrix::zeros(out_rows, self.cols);
        self.scatter_rows_acc(idx, &mut out);
        out
    }

    /// `out[idx[i], :] += self[i, :]`, accumulating into an existing
    /// buffer. Serial reference kernel: output rows collide by
    /// construction, and each receives its contributions in ascending
    /// edge order. [`Matrix::scatter_rows_planned_acc`] is the parallel
    /// version; it reproduces this kernel's per-row accumulation order
    /// exactly.
    pub fn scatter_rows_acc(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            idx.len(),
            self.rows,
            "scatter_add_rows index length mismatch"
        );
        assert_eq!(out.cols, self.cols, "scatter_add_rows col mismatch");
        Self::assert_row_indices(idx, out.rows, "scatter_rows");
        for (i, &r) in idx.iter().enumerate() {
            let r = r as usize;
            let src = self.row(i);
            let dst = out.row_mut(r);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Plan-driven deterministic parallel scatter-add:
    /// `out[r, :] += Σ self[e, :]` over the plan's edges incident to `r`,
    /// summed in ascending edge order. Parallel over **output** rows —
    /// each row is reduced by exactly one task in a fixed order, so the
    /// result is bit-identical to [`Matrix::scatter_rows_acc`] at any
    /// thread count, with no atomics. Indices were validated when the
    /// plan was built; the inner loop is check-free.
    pub fn scatter_rows_planned_acc(&self, plan: &EdgePlan, out: &mut Matrix) {
        assert_eq!(
            plan.num_edges(),
            self.rows,
            "scatter plan edge count mismatch"
        );
        assert_eq!(out.cols, self.cols, "scatter_add_rows col mismatch");
        assert_eq!(out.rows, plan.nodes(), "scatter plan node count mismatch");
        let cols = self.cols;
        if cols == 0 || out.rows == 0 {
            return;
        }
        let src = &self.data;
        let body = |(r, dst): (usize, &mut [f32])| {
            for &e in plan.incident(r) {
                let e = e as usize;
                for (d, &s) in dst.iter_mut().zip(&src[e * cols..(e + 1) * cols]) {
                    *d += s;
                }
            }
        };
        if self.rows * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// Column sums as a `1 x cols` matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sums_acc(&mut out);
        out
    }

    /// `out += column sums` into an existing `1 x cols` buffer.
    pub fn col_sums_acc(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "col_sums output shape mismatch"
        );
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Row sums as a `rows x 1` matrix. Parallel over rows above the
    /// size threshold; each row reduces serially left-to-right, so the
    /// result is thread-count independent.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        self.row_sums_into(&mut out);
        out
    }

    /// Row sums into an existing `rows x 1` buffer (overwrites).
    pub fn row_sums_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.rows, 1), "row_sums shape mismatch");
        let data = &self.data;
        let cols = self.cols;
        let body = |(r, o): (usize, &mut f32)| {
            *o = data[r * cols..(r + 1) * cols].iter().sum();
        };
        if self.rows * cols >= par_threshold() {
            out.data.par_iter_mut().enumerate().for_each(body);
        } else {
            out.data.iter_mut().enumerate().for_each(body);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if self.data.len() >= par_threshold() {
            self.data.par_iter().sum()
        } else {
            self.data.iter().sum()
        }
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Approximate equality within `tol` on every element.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        let mut m2 = m.clone();
        m2.set(0, 0, 9.0);
        assert_eq!(m2.get(0, 0), 9.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(5, 5, 1.0, &mut rng);
        let i = Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_variants_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(7, 4, 1.0, &mut rng);
        let b = Matrix::randn(4, 6, 1.0, &mut rng);
        let c = a.matmul(&b);
        assert!(a.transpose().matmul_tn(&b).approx_eq(&c, 1e-4));
        assert!(a.matmul_nt(&b.transpose()).approx_eq(&c, 1e-4));
    }

    #[test]
    fn matmul_wide_shapes_match_naive() {
        // Wide enough to exercise full NR tiles plus a ragged remainder.
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k, n) in [(5usize, 7usize, 37usize), (3, 33, 16), (4, 16, 48)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let c = a.matmul(&b);
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    naive.set(i, j, acc);
                }
            }
            assert!(c.approx_eq(&naive, 1e-3), "matmul {m}x{k}x{n}");
            assert!(
                a.transpose().matmul_tn(&b).approx_eq(&naive, 1e-3),
                "tn {m}x{k}x{n}"
            );
            assert!(
                a.matmul_nt(&b.transpose()).approx_eq(&naive, 1e-3),
                "nt {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::randn(3, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let base = Matrix::randn(3, 4, 1.0, &mut rng);
        let mut out = base.clone();
        a.matmul_acc(&b, &mut out);
        let expect = base.add(&a.matmul(&b));
        assert!(out.approx_eq(&expect, 1e-5));
        // tn / nt accumulate variants.
        let mut out_tn = base.clone();
        a.transpose().matmul_tn_acc(&b, &mut out_tn);
        assert!(out_tn.approx_eq(&expect, 1e-4));
        let mut out_nt = base.clone();
        a.matmul_nt_acc(&b.transpose(), &mut out_nt);
        assert!(out_nt.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to cross the parallel matmul threshold.
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::randn(64, 32, 1.0, &mut rng);
        let b = Matrix::randn(32, 48, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Naive reference.
        let mut r = Matrix::zeros(64, 48);
        for i in 0..64 {
            for j in 0..48 {
                let mut acc = 0.0;
                for k in 0..32 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                r.set(i, j, acc);
            }
        }
        assert!(c.approx_eq(&r, 1e-3));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::randn(3, 8, 1.0, &mut rng);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_blocked_matches_pointwise() {
        // Larger than one 32x32 tile in both directions, ragged edges.
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::randn(70, 45, 1.0, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), (45, 70));
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        assert_eq!(a.add(&b).data(), &[6., 8., 10., 12.]);
        assert_eq!(b.sub(&a).data(), &[4., 4., 4., 4.]);
        assert_eq!(a.hadamard(&b).data(), &[5., 12., 21., 32.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[6., 8., 10., 12.]);
        let mut d = a.clone();
        d.axpy(0.5, &b);
        assert_eq!(d.data(), &[3.5, 5., 6.5, 8.]);
        let mut e = a.clone();
        e.mul_assign(&b);
        assert_eq!(e.data(), &[5., 12., 21., 32.]);
        let mut f = a.clone();
        f.hadamard_acc(&a, &b);
        assert_eq!(f.data(), &[6., 14., 24., 36.]);
    }

    #[test]
    fn concat_and_slice() {
        let a = Matrix::from_vec(2, 1, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 3., 4.]);
        assert_eq!(c.row(1), &[2., 5., 6.]);
        assert!(c.slice_cols(1, 3).approx_eq(&b, 0.0));
        assert!(c.slice_cols(0, 1).approx_eq(&a, 0.0));
        let v = Matrix::concat_rows(&[&b, &b]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[5., 6.]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let idx = vec![3u32, 0, 3];
        let g = a.gather_rows(&idx);
        assert_eq!(g.row(0), a.row(3));
        assert_eq!(g.row(1), a.row(0));
        // Scatter the gathered rows back: row 3 got contributions from i=0 and i=2.
        let s = g.scatter_add_rows(&idx, 4);
        assert_eq!(s.row(0), a.row(0));
        assert_eq!(s.row(1), &[0., 0.]);
        assert_eq!(s.row(3), &[12., 14.]); // 2 * row 3

        // Accumulating gather matches gather-then-add.
        let mut acc = Matrix::ones(3, 2);
        a.gather_rows_acc(&idx, &mut acc);
        let expect = g.map(|v| v + 1.0);
        assert!(acc.approx_eq(&expect, 0.0));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
        assert_eq!(a.row_sums().data(), &[6., 15.]);
        assert!((a.frobenius_norm() - 91.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::randn(200, 200, 2.0, &mut rng);
        let mean = m.mean();
        let var = m
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / (m.len() as f32 - 1.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(Matrix::scalar(3.5).as_scalar(), 3.5);
    }

    #[test]
    fn thresholds_have_sane_defaults() {
        // Env overrides are read once per process; absent overrides the
        // defaults apply (dedicated override test lives in tests/ where it
        // can own the process environment).
        assert!(par_threshold() > 0);
        assert!(par_matmul_threshold() > 0);
    }
}
