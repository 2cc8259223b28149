//! Step 2N — non-local means denoising.
//!
//! A blockwise non-local means filter over a 3-D sliding window (Coupé et
//! al. 2008, the paper's \[7]): each voxel is replaced by a weighted average
//! of voxels in a search window, weighted by the similarity of the small
//! patches around them. The brain mask restricts computation to ~2/3 of the
//! volume — the optimization TensorFlow cannot express (no masked
//! element-wise assignment), which the dataflow engine reproduces.
//!
//! The kernel runs offset-major (Darbon et al. 2008). For each search
//! offset δ it fills one zero-padded scratch with the squared-difference
//! image `D(q) = (I(q) − I(q+δ))²`. A voxel's patch distance to its
//! candidate `p+δ` is then the sum of `D` over the voxel's patch. Each
//! squared difference is computed once per offset, not once for each of
//! the patches that contain it. The patch sums run along each row's
//! selected z-run in blocks of consecutive voxels, with no per-element
//! bounds checks.
//!
//! Every voxel's arithmetic is a fixed function of its coordinates, the
//! same as a direct voxel-by-voxel evaluation (`tests/nlm_digest.rs` pins
//! the output bits):
//! - **Operands.** Each term is center minus candidate, squared, with no
//!   fused multiply-add.
//! - **Per-voxel order.** Candidates are visited in lexicographic offset
//!   order, and patch terms are summed in lexicographic `(dx, dy, dz)`
//!   order. A voxel whose every candidate patch lies inside the volume
//!   sums term `j` into lane `j % 4` and combines the lanes as
//!   `(a0 + a1) + (a2 + a3)`; every other voxel sums sequentially.
//! - **Exact zeros.** A border term whose center or candidate point falls
//!   outside the volume reads `+0.0` from the padding. Adding `+0.0` to a
//!   non-negative sum leaves it unchanged, so the sum equals one that
//!   skips the term. The divisor counts only the in-range terms.
//!
//! The parallel path hands out slabs of x-planes; each slab fills its own
//! scratch, with a `patch_radius` halo, from the read-only input.

use std::ops::Range;

use marray::{Mask, NdArray};
use parexec::{par_chunks_mut, Parallelism};

/// Non-local means parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NlmParams {
    /// Search window radius (voxels).
    pub search_radius: usize,
    /// Patch radius for similarity comparison (voxels).
    pub patch_radius: usize,
    /// Noise standard deviation; weights decay as exp(-d² / h²) with
    /// h = `h_factor · sigma`.
    pub sigma: f64,
    /// Smoothing strength multiplier.
    pub h_factor: f64,
}

impl Default for NlmParams {
    fn default() -> Self {
        NlmParams {
            search_radius: 2,
            patch_radius: 1,
            sigma: 1.0,
            h_factor: 1.0,
        }
    }
}

/// Denoise one 3-D volume with non-local means, computing only voxels where
/// `mask` is true (masked-out voxels pass through unchanged). Pass `None`
/// to denoise the full volume (the TensorFlow path).
///
/// Single-threaded reference path: identical to
/// [`nlmeans3d_par`] at [`Parallelism::Serial`].
pub fn nlmeans3d(volume: &NdArray<f64>, mask: Option<&Mask>, params: &NlmParams) -> NdArray<f64> {
    nlmeans3d_par(volume, mask, params, Parallelism::Serial)
}

/// [`nlmeans3d`] with explicit intra-node parallelism: slabs of axis-0
/// planes of the output are distributed across `par.workers()` threads.
/// Output is bit-identical at every worker count: a voxel's arithmetic
/// depends only on its coordinates (see the module doc), never on the slab
/// it falls in, and workers only write their own disjoint slabs.
// scilint: allow(F003, output starts as a handle clone (refcount bump) and unshares on first write via make_mut)
pub fn nlmeans3d_par(
    volume: &NdArray<f64>,
    mask: Option<&Mask>,
    params: &NlmParams,
    par: Parallelism,
) -> NdArray<f64> {
    assert_eq!(volume.shape().rank(), 3, "nlmeans3d expects a 3-D volume");
    if let Some(m) = mask {
        assert_eq!(m.dims(), volume.dims(), "mask shape must match volume");
    }
    let dims = [volume.dims()[0], volume.dims()[1], volume.dims()[2]];
    let mut out = volume.clone();
    let sy = dims[1] * dims[2];
    if sy == 0 {
        return out;
    }
    let kernel = Kernel {
        data: volume.data(),
        mask: mask.map(Mask::bits),
        dims,
        search_radius: params.search_radius,
        patch_radius: params.patch_radius,
        h2: (params.h_factor * params.sigma).powi(2).max(1e-12),
    };
    let planes = slab_planes(dims[0]);
    par_chunks_mut(out.data_mut(), planes * sy, par, |s, slab| {
        kernel.denoise_slab(s * planes, slab);
    });
    out
}

/// x-planes per slab. A slab's scratch carries a `patch_radius` halo plane
/// on each side, so thicker slabs amortise it; about eight slabs per
/// volume leave the pool room to balance. Depends on the volume shape only.
fn slab_planes(nx: usize) -> usize {
    nx.div_ceil(8).max(1)
}

/// `i + o` when it lies in `0..n`.
fn shift(i: usize, o: isize, n: usize) -> Option<usize> {
    i.checked_add_signed(o).filter(|&j| j < n)
}

/// The `i` in `0..n` with `i + o` also in `0..n`.
fn valid_range(o: isize, n: usize) -> Range<usize> {
    let d = o.unsigned_abs().min(n);
    if o < 0 {
        d..n
    } else {
        0..n - d
    }
}

/// How many patch terms `t` in `-pr..=pr` keep both `p + t` and
/// `p + o + t` inside `0..n`, for `p` and `p + o` inside it.
fn overlap(p: usize, o: isize, pr: usize, n: usize) -> usize {
    let q = p.wrapping_add_signed(o);
    let below = pr.min(p).min(q);
    let above = pr.min(n - 1 - p).min(n - 1 - q);
    below + above + 1
}

/// One denoising call's read-only inputs.
struct Kernel<'a> {
    data: &'a [f64],
    mask: Option<&'a [bool]>,
    dims: [usize; 3],
    search_radius: usize,
    patch_radius: usize,
    h2: f64,
}

/// Voxels per patch-sum block. A block walks its patch terms with its
/// accumulators in registers: four lanes of `BLOCK` voxels each.
const BLOCK: usize = 4;

/// One slab's scratch: the padded squared-difference image of the current
/// offset and the running weight sums of every voxel in the slab.
struct Slab {
    /// First x-plane of the slab and its plane count.
    x0: usize,
    planes: usize,
    /// Padded y and z extents of `sq`.
    py: usize,
    pz: usize,
    /// Offsets of a patch's terms from its corner in `sq`, in
    /// lexicographic `(dx, dy, dz)` order.
    terms: Vec<usize>,
    /// `D` over the slab's planes plus a `patch_radius` halo on every side,
    /// and `BLOCK` slack for a row's last block to read past its run.
    sq: Vec<f64>,
    /// Patch sums of the segment in flight, then their weight exponents.
    sums: Vec<f64>,
    /// The selected z-run of each slab row (`(x - x0) * ny + y`).
    runs: Vec<Range<usize>>,
    wsum: Vec<f64>,
    vsum: Vec<f64>,
}

impl Kernel<'_> {
    /// Denoise the slab of planes `x0..` that `out` holds.
    fn denoise_slab(&self, x0: usize, out: &mut [f64]) {
        let [_, ny, nz] = self.dims;
        let pr = self.patch_radius;
        let pw = 2 * pr + 1;
        let planes = out.len() / (ny * nz);
        let (py, pz) = (ny + 2 * pr, nz + 2 * pr);
        let runs: Vec<Range<usize>> = (0..planes * ny)
            .map(|row| self.selected_run(x0 * ny + row))
            .collect();
        if runs.iter().all(Range::is_empty) {
            return;
        }
        let mut s = Slab {
            x0,
            planes,
            py,
            pz,
            terms: (0..pw.pow(3))
                .map(|j| ((j / (pw * pw) * py) + j / pw % pw) * pz + j % pw)
                .collect(),
            sq: vec![0.0; (planes + 2 * pr) * py * pz + BLOCK],
            sums: vec![0.0; nz.next_multiple_of(BLOCK)],
            runs,
            wsum: vec![0.0; out.len()],
            vsum: vec![0.0; out.len()],
        };
        let r = self.search_radius as isize;
        for ox in -r..=r {
            for oy in -r..=r {
                for oz in -r..=r {
                    self.fill_sq_diff(&mut s, [ox, oy, oz]);
                    for row in 0..s.runs.len() {
                        self.accumulate_row(&mut s, row, [ox, oy, oz]);
                    }
                }
            }
        }
        for (row, run) in s.runs.iter().enumerate() {
            for z in run.clone() {
                let p = row * nz + z;
                if self.mask.is_none_or(|m| m[x0 * ny * nz + p]) {
                    out[p] = s.vsum[p] / s.wsum[p];
                }
            }
        }
    }

    /// The z-run from the first to the last selected voxel of row
    /// `x * ny + y` (empty when the row selects none).
    fn selected_run(&self, row: usize) -> Range<usize> {
        let nz = self.dims[2];
        let Some(m) = self.mask else { return 0..nz };
        let bits = &m[row * nz..][..nz];
        match (bits.iter().position(|&b| b), bits.iter().rposition(|&b| b)) {
            (Some(a), Some(b)) => a..b + 1,
            _ => 0..0,
        }
    }

    /// Fill the slab scratch with `D(q) = (I(q) − I(q+δ))²` for every `q`
    /// within `patch_radius` of the slab, zero where `q` or `q + δ` falls
    /// outside the volume.
    fn fill_sq_diff(&self, s: &mut Slab, [ox, oy, oz]: [isize; 3]) {
        let [nx, ny, nz] = self.dims;
        let pr = self.patch_radius;
        s.sq.fill(0.0);
        let zs = valid_range(oz, nz);
        if zs.is_empty() {
            return;
        }
        let len = zs.len();
        let qz = zs.start.wrapping_add_signed(oz);
        for xp in 0..s.planes + 2 * pr {
            let Some(x) = (s.x0 + xp).checked_sub(pr).filter(|&x| x < nx) else {
                continue;
            };
            let Some(qx) = shift(x, ox, nx) else { continue };
            for y in 0..ny {
                let Some(qy) = shift(y, oy, ny) else { continue };
                let dst = &mut s.sq[(xp * s.py + y + pr) * s.pz + pr + zs.start..][..len];
                let center = &self.data[(x * ny + y) * nz + zs.start..][..len];
                let cand = &self.data[(qx * ny + qy) * nz + qz..][..len];
                for ((d, &a), &b) in dst.iter_mut().zip(center).zip(cand) {
                    let t = a - b;
                    *d = t * t;
                }
            }
        }
    }

    /// Add candidate offset `δ`'s weight to every voxel of the selected run
    /// of slab row `row` whose candidate lies inside the volume, reading the
    /// patch distances from the scratch `fill_sq_diff` left for `δ`.
    fn accumulate_row(&self, s: &mut Slab, row: usize, [ox, oy, oz]: [isize; 3]) {
        let [nx, ny, nz] = self.dims;
        let pr = self.patch_radius;
        let (lx, y) = (row / ny, row % ny);
        let x = s.x0 + lx;
        let (Some(qx), Some(qy)) = (shift(x, ox, nx), shift(y, oy, ny)) else {
            return;
        };
        let zs = valid_range(oz, nz);
        let run = s.runs[row].start.max(zs.start)..s.runs[row].end.min(zs.end);
        if run.is_empty() {
            return;
        }
        // The run's interior voxels (every candidate patch inside the
        // volume) take the four-lane sum; the rest sum sequentially.
        let margin = self.search_radius + pr;
        let interior = |i: usize, n: usize| i >= margin && i + margin < n;
        let mut mid = run.end..run.end;
        if interior(x, nx) && interior(y, ny) {
            let m = run.start.max(margin)..run.end.min(nz.saturating_sub(margin));
            if !m.is_empty() {
                mid = m;
            }
        }
        let n_terms = s.terms.len() as f64;
        let cxy = overlap(x, ox, pr, nx) * overlap(y, oy, pr, ny);
        let corner = (lx * s.py + y) * s.pz;
        let cand = &self.data[(qx * ny + qy) * nz..][..nz];
        let segments = [
            (run.start..mid.start, false),
            (mid.clone(), true),
            (mid.end..run.end, false),
        ];
        for (seg, four_lanes) in segments {
            if seg.is_empty() {
                continue;
            }
            let sums = &mut s.sums[..seg.len().next_multiple_of(BLOCK)];
            patch_sums(&s.sq, corner + seg.start, &s.terms, four_lanes, sums);
            if four_lanes {
                for sum in sums.iter_mut() {
                    *sum = -(*sum / n_terms) / self.h2;
                }
            } else {
                for (z, sum) in seg.clone().zip(sums.iter_mut()) {
                    *sum = -(*sum / (cxy * overlap(z, oz, pr, nz)) as f64) / self.h2;
                }
            }
            let c0 = seg.start.wrapping_add_signed(oz);
            let voxels = s.wsum[row * nz..][seg.clone()]
                .iter_mut()
                .zip(&mut s.vsum[row * nz..][seg.clone()])
                .zip(&cand[c0..c0 + seg.len()])
                .zip(sums.iter());
            for (((wsum, vsum), &c), &arg) in voxels {
                let w = arg.exp();
                *wsum += w;
                *vsum += w * c;
            }
        }
    }
}

/// Patch sums of consecutive voxels, `out.len()` (a multiple of `BLOCK`)
/// of them, the first one's patch corner at `corner` in `sq`. Terms go in
/// `terms` order: into lane `j % 4`, combined as `(a0 + a1) + (a2 + a3)`,
/// when `four_lanes`; else into one sequential sum.
fn patch_sums(sq: &[f64], corner: usize, terms: &[usize], four_lanes: bool, out: &mut [f64]) {
    for (k, block) in out.chunks_exact_mut(BLOCK).enumerate() {
        let at = corner + k * BLOCK;
        let term = |off: usize| &sq[at + off..at + off + BLOCK];
        if four_lanes {
            let mut lanes = [[0.0f64; BLOCK]; 4];
            let mut quads = terms.chunks_exact(4);
            for q in &mut quads {
                add(&mut lanes[0], term(q[0]));
                add(&mut lanes[1], term(q[1]));
                add(&mut lanes[2], term(q[2]));
                add(&mut lanes[3], term(q[3]));
            }
            for (lane, &off) in lanes.iter_mut().zip(quads.remainder()) {
                add(lane, term(off));
            }
            for (i, sum) in block.iter_mut().enumerate() {
                *sum = (lanes[0][i] + lanes[1][i]) + (lanes[2][i] + lanes[3][i]);
            }
        } else {
            let mut acc = [0.0f64; BLOCK];
            for &off in terms {
                add(&mut acc, term(off));
            }
            block.copy_from_slice(&acc);
        }
    }
}

#[inline(always)]
fn add(acc: &mut [f64; BLOCK], terms: &[f64]) {
    for (a, &t) in acc.iter_mut().zip(terms) {
        *a += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKERS: [usize; 4] = [1, 2, 3, 8];

    fn noisy_constant(seed: u64, level: f64, noise: f64) -> NdArray<f64> {
        noisy(&[6, 6, 6], seed, level, noise)
    }

    fn noisy(dims: &[usize], seed: u64, level: f64, noise: f64) -> NdArray<f64> {
        let mut state = seed;
        NdArray::from_fn(dims, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            level + noise * u
        })
    }

    #[test]
    fn reduces_noise_on_constant_region() {
        let v = noisy_constant(7, 100.0, 5.0);
        let params = NlmParams {
            sigma: 5.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, None, &params);
        let noise_before = v.map(|x| x - 100.0).std();
        let noise_after = d.map(|x| x - 100.0).std();
        assert!(
            noise_after < 0.6 * noise_before,
            "noise {noise_after} not reduced from {noise_before}"
        );
    }

    #[test]
    fn preserves_strong_edges() {
        // Two constant halves with a large step; NLM should keep the step.
        let v = NdArray::from_fn(&[6, 6, 6], |ix| if ix[0] < 3 { 0.0 } else { 1000.0 });
        let params = NlmParams {
            sigma: 1.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, None, &params);
        assert!(d[&[0, 3, 3][..]] < 1.0);
        assert!(d[&[5, 3, 3][..]] > 999.0);
    }

    #[test]
    fn masked_voxels_pass_through() {
        let v = noisy_constant(13, 50.0, 5.0);
        let mask = Mask::from_vec(v.dims(), (0..v.len()).map(|i| i % 2 == 0).collect()).unwrap();
        let params = NlmParams {
            sigma: 5.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, Some(&mask), &params);
        for i in 0..v.len() {
            if !mask.get_flat(i) {
                assert_eq!(d.data()[i], v.data()[i], "masked-out voxel {i} changed");
            }
        }
    }

    #[test]
    fn masked_result_matches_unmasked_on_selected_voxels() {
        let v = noisy_constant(29, 10.0, 2.0);
        let full_mask = Mask::from_vec(v.dims(), vec![true; v.len()]).unwrap();
        let params = NlmParams {
            sigma: 2.0,
            ..Default::default()
        };
        let a = nlmeans3d(&v, None, &params);
        let b = nlmeans3d(&v, Some(&full_mask), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_volume_is_fixed_point() {
        let v = NdArray::<f64>::full(&[5, 5, 5], 42.0);
        let d = nlmeans3d(&v, None, &NlmParams::default());
        for &x in d.data() {
            assert!((x - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interior_fast_path_is_bit_identical_across_workers() {
        // Volume large enough that interior voxels take the four-lane sum
        // while border voxels keep the sequential one (margin =
        // search_radius + patch_radius = 3, so x in 3..7 etc.).
        let mut state = 99u64;
        let v = NdArray::from_fn(&[10, 9, 8], |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            60.0 + 8.0 * (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        });
        let params = NlmParams {
            sigma: 4.0,
            ..Default::default()
        };
        let serial = nlmeans3d_par(&v, None, &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = nlmeans3d_par(&v, None, &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn parallel_output_is_bit_identical() {
        let v = noisy_constant(41, 80.0, 6.0);
        let mask = Mask::from_vec(v.dims(), (0..v.len()).map(|i| i % 3 != 0).collect()).unwrap();
        let params = NlmParams {
            sigma: 6.0,
            ..Default::default()
        };
        let serial = nlmeans3d_par(&v, Some(&mask), &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = nlmeans3d_par(&v, Some(&mask), &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    /// The definition, voxel by voxel: every candidate of the clamped
    /// search window, its patch distance summed sequentially over the
    /// in-range terms in `(dx, dy, dz)` order. The kernel takes exactly
    /// this arithmetic on every voxel with no interior neighbourhood.
    fn sequential_reference(v: &NdArray<f64>, params: &NlmParams) -> Vec<f64> {
        let d = [v.dims()[0], v.dims()[1], v.dims()[2]];
        let at = |p: [usize; 3]| v.data()[(p[0] * d[1] + p[1]) * d[2] + p[2]];
        let h2 = (params.h_factor * params.sigma).powi(2).max(1e-12);
        let (sr, pr) = (params.search_radius as isize, params.patch_radius as isize);
        let offset = |p: [usize; 3], o: [isize; 3]| -> Option<[usize; 3]> {
            let mut q = [0; 3];
            for a in 0..3 {
                q[a] = shift(p[a], o[a], d[a])?;
            }
            Some(q)
        };
        let cube = |r: isize| {
            (-r..=r).flat_map(move |a| (-r..=r).flat_map(move |b| (-r..=r).map(move |c| [a, b, c])))
        };
        let mut out = Vec::with_capacity(v.len());
        for x in 0..d[0] {
            for y in 0..d[1] {
                for z in 0..d[2] {
                    let p = [x, y, z];
                    let (mut wsum, mut vsum) = (0.0, 0.0);
                    for n in cube(sr).filter_map(|o| offset(p, o)) {
                        let (mut sum, mut count) = (0.0, 0usize);
                        for o in cube(pr) {
                            if let (Some(a), Some(b)) = (offset(p, o), offset(n, o)) {
                                let t = at(a) - at(b);
                                sum += t * t;
                                count += 1;
                            }
                        }
                        let w = (-(sum / count as f64) / h2).exp();
                        wsum += w;
                        vsum += w * at(n);
                    }
                    out.push(vsum / wsum);
                }
            }
        }
        out
    }

    #[test]
    fn volume_thinner_than_the_margin_matches_the_sequential_definition() {
        // margin = 3 > what a 2-plane axis can hold, so no voxel is interior.
        let v = noisy(&[2, 9, 7], 5, 40.0, 9.0);
        let params = NlmParams {
            sigma: 6.0,
            ..Default::default()
        };
        let want = sequential_reference(&v, &params);
        assert_eq!(nlmeans3d(&v, None, &params).data(), &want[..]);
        for workers in WORKERS {
            let got = nlmeans3d_par(&v, None, &params, Parallelism::threads(workers));
            assert_eq!(got.data(), &want[..], "workers={workers}");
        }
    }

    #[test]
    fn zero_search_radius_returns_selected_voxels_bit_for_bit() {
        let v = noisy(&[7, 6, 9], 17, 25.0, 12.0);
        let mask = Mask::from_vec(v.dims(), (0..v.len()).map(|i| i % 4 != 1).collect()).unwrap();
        let params = NlmParams {
            search_radius: 0,
            ..Default::default()
        };
        for workers in WORKERS {
            let got = nlmeans3d_par(&v, Some(&mask), &params, Parallelism::threads(workers));
            let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            assert!(
                got.data().iter().zip(v.data()).all(same),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_mask_returns_the_input_unchanged() {
        let v = noisy(&[9, 5, 6], 23, 70.0, 10.0);
        let mask = Mask::from_vec(v.dims(), vec![false; v.len()]).unwrap();
        for workers in WORKERS {
            let got = nlmeans3d_par(
                &v,
                Some(&mask),
                &NlmParams::default(),
                Parallelism::threads(workers),
            );
            assert_eq!(got, v, "workers={workers}");
        }
    }
}
