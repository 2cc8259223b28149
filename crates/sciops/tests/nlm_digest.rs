//! Pins the exact output bits of the non-local means kernel.
//!
//! `nlmeans3d_par` is hashed (FNV-1a 64 over every output element's bit
//! pattern) across a fixed grid of shapes, parameters, masks and worker
//! counts, and the digest is compared against a recorded constant. Any
//! change to the kernel's operands or summation order — even one that
//! keeps results within a tolerance — moves the digest, so a rewrite of
//! the kernel must reproduce it unchanged.
//!
//! The grid covers volumes with no interior voxel at all (every voxel on
//! the guarded border path), `patch_radius: 0` and `search_radius: 0`, an
//! empty mask, and both the serial path and two parallel widths.

use marray::{Mask, NdArray};
use parexec::Parallelism;
use sciops::neuro::{median_otsu, nlmeans3d_par, NlmParams};

/// The digest the kernel produced when this grid was recorded.
const PINNED_DIGEST: u64 = 0xe714_8f59_ad6e_3e70;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A bright ellipsoid over a dim background plus LCG noise, so
/// `median_otsu` has a foreground to find and patch distances vary.
fn phantom(dims: [usize; 3], seed: u64) -> NdArray<f64> {
    let mut state = seed;
    NdArray::from_fn(&dims, |ix| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        let r2: f64 = (0..3)
            .map(|a| {
                let c = (dims[a] as f64 - 1.0) / 2.0;
                let s = (dims[a] as f64 / 2.0).max(1.0);
                ((ix[a] as f64 - c) / s).powi(2)
            })
            .sum();
        let level = if r2 < 0.5 { 120.0 } else { 30.0 };
        level + 15.0 * u
    })
}

fn params(search_radius: usize, patch_radius: usize, sigma: f64) -> NlmParams {
    NlmParams {
        search_radius,
        patch_radius,
        sigma,
        h_factor: 1.0,
    }
}

#[test]
fn nlm_output_bits_match_the_pinned_digest() {
    let shapes = [[24, 24, 20], [12, 12, 10], [3, 7, 5], [2, 9, 30], [1, 1, 1]];
    let param_sets = [
        params(1, 1, 20.0), // the pipelines' `nlm_params()`
        NlmParams::default(),
        params(2, 2, 10.0),
        params(1, 0, 15.0),
        params(0, 1, 20.0),
    ];
    let pars = [
        Parallelism::Serial,
        Parallelism::threads(2),
        Parallelism::threads(3),
    ];
    let mut digest = FNV_OFFSET;
    for (s, dims) in shapes.iter().enumerate() {
        let vol = phantom(*dims, 1000 + s as u64);
        let n = vol.len();
        let masks = [
            None,
            Some(median_otsu(&vol, 1)),
            Some(Mask::from_vec(vol.dims(), (0..n).map(|i| i % 3 == 0).collect()).unwrap()),
            Some(Mask::from_vec(vol.dims(), vec![false; n]).unwrap()),
        ];
        for p in &param_sets {
            for mask in &masks {
                for &par in &pars {
                    let out = nlmeans3d_par(&vol, mask.as_ref(), p, par);
                    for v in out.data() {
                        digest = fnv1a(digest, &v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(
        digest, PINNED_DIGEST,
        "nlmeans3d_par output bits moved: digest {digest:#018x}"
    );
}
