//! The versioned dataset catalog: every input the service can be queried
//! against, content-fingerprinted at registration.
//!
//! A dataset is addressed as `name@version`; its fingerprint is a digest
//! of the payload *content* (every voxel, pixel, gradient and mask bit),
//! not of the name — so the input half of a cache key
//! (`combine_fingerprints(plan, input)`) changes exactly when the bytes a
//! query would consume change. Registering the same content under two
//! versions is allowed and simply aliases the same cache entries, which
//! is sound for the same reason the cache itself is: the key covers the
//! content.

use std::collections::BTreeMap;
use std::sync::Arc;

use marray::NdArray;
use scibench_core::usecases::astro as astro_uc;
use scibench_core::usecases::neuro::Subject;
use sciops::synth::sky::{SkySpec, SkySurvey};

use crate::fp::Fingerprint;

/// The payload of one registered dataset.
#[derive(Clone)]
pub enum DatasetPayload {
    /// dMRI subjects for the neuroscience pipelines.
    Neuro(Arc<Vec<Subject>>),
    /// A synthetic sky survey for the astronomy pipeline.
    AstroSurvey(Arc<SkySurvey>),
    /// A `(visit, rows, cols)` patch cube for the SciDB-style coadd.
    AstroCube(Arc<NdArray<f64>>),
}

impl DatasetPayload {
    /// Payload kind name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetPayload::Neuro(_) => "neuro",
            DatasetPayload::AstroSurvey(_) => "astro-survey",
            DatasetPayload::AstroCube(_) => "astro-cube",
        }
    }

    /// Approximate payload bytes (the f64/bool/u8 planes it pins).
    pub fn nbytes(&self) -> u64 {
        match self {
            DatasetPayload::Neuro(subs) => subs
                .iter()
                .map(|s| s.data.nbytes() as u64 + 32 * s.gtab.bvals.len() as u64)
                .sum(),
            DatasetPayload::AstroSurvey(sv) => sv
                .visits
                .iter()
                .flatten()
                .map(|e| (e.flux.nbytes() + e.variance.nbytes() + e.mask.nbytes()) as u64)
                .sum(),
            DatasetPayload::AstroCube(c) => c.nbytes() as u64,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        match self {
            DatasetPayload::Neuro(subs) => {
                fp.push_usize(subs.len());
                for s in subs.iter() {
                    fp.push_u64(u64::from(s.id));
                    for &d in s.data.dims() {
                        fp.push_usize(d);
                    }
                    fp.push_f64_slice(s.data.data());
                    fp.push_f64_slice(&s.gtab.bvals);
                    for v in &s.gtab.bvecs {
                        fp.push_f64_slice(v);
                    }
                }
            }
            DatasetPayload::AstroSurvey(sv) => {
                fp.push_usize(sv.visits.len());
                for exposures in &sv.visits {
                    fp.push_usize(exposures.len());
                    for e in exposures {
                        fp.push_u64(u64::from(e.visit));
                        fp.push_u64(u64::from(e.sensor));
                        fp.push_i64(e.bbox.x0);
                        fp.push_i64(e.bbox.y0);
                        fp.push_u64(e.bbox.width);
                        fp.push_u64(e.bbox.height);
                        fp.push_f64_slice(e.flux.data());
                        fp.push_f64_slice(e.variance.data());
                        fp.push_usize(e.mask.data().len());
                        fp.push_bytes(e.mask.data());
                    }
                }
            }
            DatasetPayload::AstroCube(c) => {
                for &d in c.dims() {
                    fp.push_usize(d);
                }
                fp.push_f64_slice(c.data());
            }
        }
        fp.finish()
    }
}

/// One registered dataset.
#[derive(Clone)]
pub struct Dataset {
    /// Catalog name.
    pub name: String,
    /// Version within the name.
    pub version: u32,
    /// Content fingerprint, computed once at registration.
    pub fingerprint: u64,
    /// Approximate payload bytes.
    pub nbytes: u64,
    /// The shared payload (all handles are refcount bumps).
    pub payload: DatasetPayload,
}

/// The versioned dataset catalog.
#[derive(Default)]
pub struct Catalog {
    entries: BTreeMap<(String, u32), Dataset>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register `payload` as `name@version`, fingerprinting its content.
    /// Returns the content fingerprint. Re-registering an existing
    /// `name@version` replaces it (versions are the sanctioned way to
    /// evolve a dataset; replacement is for catalog rebuilds).
    pub fn register(&mut self, name: &str, version: u32, payload: DatasetPayload) -> u64 {
        let fingerprint = payload.fingerprint();
        let nbytes = payload.nbytes();
        self.entries.insert(
            (name.to_string(), version),
            Dataset {
                name: name.to_string(),
                version,
                fingerprint,
                nbytes,
                payload,
            },
        );
        fingerprint
    }

    /// Look up `name@version`.
    pub fn get(&self, name: &str, version: u32) -> Option<&Dataset> {
        self.entries.get(&(name.to_string(), version))
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All registered datasets in `(name, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Dataset> {
        self.entries.values()
    }
}

/// Build the `(visit, rows, cols)` cube of calibrated, merged exposures
/// for the first patch of `survey` — the SciDB-style coadd's ingest
/// input, suitable for [`DatasetPayload::AstroCube`].
pub fn cube_for_survey(survey: &SkySurvey) -> NdArray<f64> {
    let grid = survey.patch_grid();
    let (calib, _, _) = astro_uc::astro_params();
    let patch_box = grid.patch_box((0, 0));
    let visits = survey.visits.len();
    let rows = patch_box.height as usize;
    let cols = patch_box.width as usize;
    let mut cube = NdArray::<f64>::zeros(&[visits, rows, cols]);
    for (v, exposures) in survey.visits.iter().enumerate() {
        let calibrated: Vec<_> = exposures
            .iter()
            .map(|e| sciops::astro::calibrate_exposure(e, &calib))
            .collect();
        let pieces: Vec<_> = calibrated
            .iter()
            .filter_map(|e| e.crop_to(&patch_box))
            .collect();
        let merged = sciops::astro::pipeline::merge_visit_pieces(&patch_box, &pieces);
        let slice = merged
            .flux
            .clone()
            .reshape(&[1, rows, cols])
            .expect("merged patch flux is rows x cols by construction");
        cube.write_subarray(&[v, 0, 0], &slice)
            .expect("patch slice fits the cube by construction");
    }
    cube
}

/// `n` test-scale dMRI phantom subjects seeded `base`, `base + 1`, ...
pub fn demo_subjects(base: u64, n: usize) -> Vec<Subject> {
    use sciops::synth::dmri::{DmriPhantom, DmriSpec};
    let spec = DmriSpec::test_scale();
    (0..n)
        .map(|i| Subject::from_phantom(i as u32, &DmriPhantom::generate(base + i as u64, &spec)))
        .collect()
}

/// The demo catalog the serve bench (and the service's own tests) run
/// against: two versions of a dMRI dataset, a test-scale sky survey with
/// its first-patch cube, and a 24-visit survey whose full-pipeline
/// Myria-pipelined plan is the Figure 15 OOM configuration (registered so
/// admission control has something real to refuse).
///
/// All content is generated from fixed seeds, so every process computes
/// the same fingerprints. `quick` shrinks the subject counts for CI.
pub fn demo_catalog(quick: bool) -> Catalog {
    let subjects = |base, n| DatasetPayload::Neuro(Arc::new(demo_subjects(base, n)));

    let mut cat = Catalog::new();
    let n = if quick { 1 } else { 2 };
    cat.register("dmri", 1, subjects(7000, n));
    cat.register("dmri", 2, subjects(8000, n));

    let survey = Arc::new(SkySurvey::generate(99, &SkySpec::test_scale()));
    let cube = Arc::new(cube_for_survey(&survey));
    cat.register("hits", 1, DatasetPayload::AstroSurvey(survey));
    cat.register("hits-cube", 1, DatasetPayload::AstroCube(cube));

    // The paper's full visit count at test-scale geometry: cheap to hold,
    // and its pipelined Myria plan at 16 nodes overruns the memory budget
    // (Figure 15), which the admission gate must refuse.
    let deep_spec = SkySpec {
        n_visits: 24,
        ..SkySpec::test_scale()
    };
    cat.register(
        "hits-deep",
        1,
        DatasetPayload::AstroSurvey(Arc::new(SkySurvey::generate(99, &deep_spec))),
    );
    cat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_fingerprints_content_not_names() {
        let mut cat = Catalog::new();
        let quick = demo_catalog(true);
        let subs = match &quick.get("dmri", 1).unwrap().payload {
            DatasetPayload::Neuro(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        let a = cat.register("x", 1, DatasetPayload::Neuro(Arc::clone(&subs)));
        let b = cat.register("y", 9, DatasetPayload::Neuro(subs));
        assert_eq!(a, b, "same content, same fingerprint, any name/version");
    }

    #[test]
    fn versions_with_different_content_differ() {
        let cat = demo_catalog(true);
        let v1 = cat.get("dmri", 1).unwrap();
        let v2 = cat.get("dmri", 2).unwrap();
        assert_ne!(v1.fingerprint, v2.fingerprint);
        assert!(v1.nbytes > 0);
    }

    #[test]
    fn demo_catalog_registers_the_expected_sets() {
        let cat = demo_catalog(true);
        assert_eq!(cat.len(), 5);
        for (name, version) in [
            ("dmri", 1),
            ("dmri", 2),
            ("hits", 1),
            ("hits-cube", 1),
            ("hits-deep", 1),
        ] {
            assert!(cat.get(name, version).is_some(), "{name}@v{version}");
        }
        assert!(cat.get("dmri", 3).is_none());
        match &cat.get("hits-deep", 1).unwrap().payload {
            DatasetPayload::AstroSurvey(sv) => assert_eq!(sv.visits.len(), 24),
            _ => unreachable!(),
        }
    }
}
