//! The batch workloads: one client thread runs closed-loop rounds, each round
//! one pass on every engine analog plus the serial and parallel
//! reference rows, until the timed phase ends.
//!
//! - `neuro-batch`: two dMRI phantoms (24×24×20 voxels × 18 volumes,
//!   2 b0) on all five engine analogs. Dense and kernel-bound: NLM and
//!   the tensor fit dominate; codec, memo, spill and admission are not
//!   on the path.
//! - `astro-batch`: a survey of 96×96 sensors in a 2×2 grid over 6
//!   visits on the Spark and Myria analogs and the SciDB first-patch
//!   coadd. Many small kernels over runny mask and variance planes, so
//!   the codec and Myria's blob boundary are on the path.
//!
//! The reference rows are fed from encoded files (NIfTI volumes, FITS
//! exposures) and run stage by stage through the `sciops` kernels, so a
//! traced run can attribute their time to decode and to each kernel.

use std::collections::BTreeMap;
use std::time::Instant;

use marray::codec::Encoded;
use marray::{CodecCounter, CodecStats, CopyCounter, CopyStats, MemoryGovernor, NdArray};
use parexec::{par_map_slabs, MorselPool, Parallelism, PoolStats};
use scibench_core::costmodel::{govern_for_boundary, pack_for_boundary, PlaneKind};
use scibench_core::usecases::astro as astro_uc;
use scibench_core::usecases::ingest;
use scibench_core::usecases::neuro::{self as neuro_uc, Subject};
use sciops::astro::coadd::Coadd;
use sciops::astro::pipeline::{create_patches, merge_visit_pieces, reference_pipeline};
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip, coadd_sigma_clip_par, detect_sources_par, CalibParams,
    CoaddParams, DetectParams, Exposure, PatchGrid, PatchId, Source,
};
use sciops::neuro::pipeline::{denoise_all_par, segmentation};
use sciops::neuro::{fit_dtm_volume_par, nlmeans3d, NeuroOutput};
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciserve::Fingerprint;

use crate::host::mib;
use crate::metrics::{Values, ENGINES};
use crate::trace::{SpanId, Tracer};
use crate::util::{derive_seed, median, percentile, ratio, sorted, tail_quantile, Checks};
use crate::{Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Subjects in `neuro-batch`.
const NEURO_SUBJECTS: usize = 2;

/// The `neuro-batch` phantom geometry.
fn neuro_spec() -> DmriSpec {
    DmriSpec {
        dims: [24, 24, 20],
        n_volumes: 18,
        n_b0: 2,
        ..DmriSpec::test_scale()
    }
}

/// The `astro-batch` survey geometry: test-scale sky at twice the sensor
/// edge, with patches and sources scaled to match.
fn astro_spec() -> SkySpec {
    SkySpec {
        sensor_width: 96,
        sensor_height: 96,
        n_sources: 40,
        patch_size: 72,
        ..SkySpec::test_scale()
    }
}

/// Chunk edge of the SciDB coadd (the serve and e2e benches' value).
const SCIDB_CHUNK: usize = 8;

/// Span names of one reference row's stages.
struct Stages {
    segment: &'static str,
    denoise: &'static str,
    dtm: &'static str,
    calibrate: &'static str,
    patch: &'static str,
    coadd: &'static str,
    detect: &'static str,
}

const SERIAL: Stages = Stages {
    segment: "sciops.segment",
    denoise: "sciops.denoise",
    dtm: "sciops.dtm",
    calibrate: "sciops.calibrate",
    patch: "sciops.patch",
    coadd: "sciops.coadd",
    detect: "sciops.detect",
};

const PARALLEL: Stages = Stages {
    segment: "sciops.segment_par",
    denoise: "sciops.denoise_par",
    dtm: "sciops.dtm_par",
    calibrate: "sciops.calibrate_par",
    patch: "sciops.patch_par",
    coadd: "sciops.coadd_par",
    detect: "sciops.detect_par",
};

const KERNELS: [&str; 7] = [
    "segment",
    "denoise",
    "dtm",
    "calibrate",
    "patch",
    "coadd",
    "detect",
];

/// Computed bytes in + out of one reference row, per span name.
type KernelBytes = BTreeMap<&'static str, u64>;

/// What a batch workload supplies to the shared round loop.
trait Batch {
    /// Row span names in round order (`engine.<name>` rows first, then
    /// `reference` and `reference_par`).
    fn rows(&self) -> &'static [&'static str];
    /// Run row `row` once and check its output.
    fn run_row(
        &self,
        row: &str,
        tr: &Tracer,
        op: u64,
        span: Option<SpanId>,
        chk: &mut Checks,
    ) -> KernelBytes;
    /// Direct layer measurements that are not rows: ingest-boundary
    /// packing, codec decode, and a morsel-pool map with its stats.
    fn probe_layers(&self, values: &mut Values);
    /// Engine worker counts for the provenance block.
    fn provenance(&self) -> Vec<(&'static str, String)>;
}

/// The counters one row moved.
struct Ledger {
    copies: CopyStats,
    codec: CodecStats,
}

/// Run a batch workload: [`SETUPS`] set-ups, then rounds until the timed
/// phase ends. A traced run alternates recorded and unrecorded rounds so
/// `trace.overhead` compares like with like.
fn drive<B: Batch>(
    args: &Args,
    workers: usize,
    make: impl Fn(u64, usize, &mut Checks) -> B,
) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut batch = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first: only one is ever resident.
        drop(batch.take());
        let t = Instant::now();
        batch = Some(make(args.seed, workers, &mut checks));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let batch = batch.expect("at least one set-up");

    let tracer = Tracer::new(false);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut ledgers: BTreeMap<&str, Vec<Ledger>> = BTreeMap::new();
    let mut bytes = KernelBytes::new();
    let gov0 = MemoryGovernor::snapshot();
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed() < args.seconds {
        let traced = args.trace && op % 2 == 1;
        tracer.set_recording(traced);
        let (_, dt) = tracer.run("round", op, None, |round| {
            for &row in batch.rows() {
                let before = traced.then(|| (CopyCounter::snapshot(), CodecCounter::snapshot()));
                let (b, _) = tracer.run(row, op, round, |span| {
                    batch.run_row(row, &tracer, op, span, &mut checks)
                });
                bytes.extend(b);
                if let Some((c0, k0)) = before {
                    ledgers.entry(row).or_default().push(Ledger {
                        copies: CopyCounter::snapshot().since(&c0),
                        codec: CodecCounter::snapshot().since(&k0),
                    });
                }
            }
        });
        let ms = dt.as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
        op += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let gov = MemoryGovernor::snapshot().since(&gov0);

    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    if args.trace {
        layer_metrics(&batch, &tracer, &ledgers, &bytes, &mut values);
        values.set(
            "trace.overhead",
            ratio(median(&traced_ms), median(&plain_ms)) - 1.0,
        );
        values.set("marray.spill.spills", gov.spills as f64);
        values.set("marray.spill.reloads", gov.reloads as f64);
        values.set("marray.spill.spilled_mb", mib(gov.spilled_bytes));
        values.set("marray.spill.reloaded_mb", mib(gov.reloaded_bytes));
        values.set("marray.spill.peak_resident_mb", mib(gov.peak_resident));
        batch.probe_layers(&mut values);
        values.set("parexec.call_us", morsel_call_us(workers));
    } else {
        let rounds = sorted(plain_ms);
        values.set("ops_per_s", rounds.len() as f64 / wall);
        values.set("op_p50_ms", percentile(&rounds, 0.5));
        values.set(
            "op_tail_ms",
            percentile(&rounds, tail_quantile(rounds.len() as u64)),
        );
    }
    let mut provenance = batch.provenance();
    provenance.push(("rounds", op.to_string()));
    provenance.push(("setups", SETUPS.to_string()));
    provenance.push(("memory_budget", "none".to_string()));
    Outcome {
        checks,
        values,
        provenance,
        tracer,
    }
}

/// Per-layer metrics of a traced batch run, from its spans and ledgers.
fn layer_metrics<B: Batch>(
    batch: &B,
    tracer: &Tracer,
    ledgers: &BTreeMap<&str, Vec<Ledger>>,
    bytes: &KernelBytes,
    values: &mut Values,
) {
    let span_ms = |name: &str| median(&tracer.durations_ms(name));
    let reference = span_ms("reference");
    let reference_par = span_ms("reference_par");
    values.set("reference_ms", reference);
    values.set("reference_par_ms", reference_par);
    values.set("parexec.speedup", ratio(reference, reference_par));
    values.set("trace.coverage", tracer.coverage("reference"));

    let mut codec_dense = 0u64;
    let mut codec_encoded = 0u64;
    for engine in ENGINES {
        let row = batch
            .rows()
            .iter()
            .find(|r| r.strip_prefix("engine.") == Some(engine));
        let Some(row) = row else { continue };
        let ms = span_ms(row);
        values.set(&format!("{engine}_ms"), ms);
        values.set(&format!("engine.overhead_ms.{engine}"), ms - reference_par);
        let passes = ledgers.get(row).map_or(&[][..], Vec::as_slice);
        let med = |f: &dyn Fn(&Ledger) -> u64| {
            median(&passes.iter().map(|l| f(l) as f64).collect::<Vec<_>>())
        };
        values.set(
            &format!("marray.copies.{engine}"),
            med(&|l| l.copies.copies),
        );
        values.set(
            &format!("marray.copy_mb.{engine}"),
            med(&|l| l.copies.bytes) / crate::util::MIB,
        );
        let encodes = |l: &Ledger| l.codec.by_codec.values().map(|s| s.encodes).sum();
        let decodes = |l: &Ledger| l.codec.by_codec.values().map(|s| s.decodes).sum();
        values.set(&format!("marray.codec.encodes.{engine}"), med(&encodes));
        values.set(&format!("marray.codec.decodes.{engine}"), med(&decodes));
        for l in passes {
            codec_dense += l.codec.dense_bytes();
            codec_encoded += l.codec.encoded_bytes();
        }
    }
    values.set(
        "marray.codec.ratio",
        ratio(codec_dense as f64, codec_encoded as f64),
    );

    let decode_ms = span_ms("formats.decode");
    values.set("formats.decode_ms", decode_ms);
    values.set(
        "formats.decode_mb_s",
        ratio(
            mib(bytes.get("formats.decode").copied().unwrap_or(0)),
            decode_ms / 1e3,
        ),
    );
    for k in KERNELS {
        let serial = format!("sciops.{k}");
        if !bytes.contains_key(serial.as_str()) {
            continue;
        }
        values.set(&format!("{serial}_ms"), span_ms(&serial));
        values.set(
            &format!("{serial}_par_ms"),
            span_ms(&format!("{serial}_par")),
        );
        values.set(&format!("{serial}_mb"), mib(bytes[serial.as_str()]));
    }
}

/// Median wall time of one empty-body [`MorselPool::map`] over one item
/// per worker: the pool's fixed per-call cost.
pub fn morsel_call_us(workers: usize) -> f64 {
    let pool = MorselPool::new(Parallelism::threads(workers));
    let items = vec![0u8; workers];
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let out = pool.map(&items, |_, x| *x);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    median(&us)
}

fn pool_metrics(stats: &PoolStats, values: &mut Values) {
    values.set("parexec.pool.steals", stats.steals as f64);
    values.set("parexec.pool.imbalance", stats.imbalance());
}

/// Median over `reps` of `f`'s wall time in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Pack a plane for an engine boundary the way the engines' ingest does.
fn pack_plane<T: marray::Element>(a: &NdArray<T>, kind: PlaneKind) -> NdArray<T> {
    let packed = pack_for_boundary(a, kind).unwrap_or_else(|| a.clone());
    govern_for_boundary(&packed).unwrap_or(packed)
}

/// Time decoding every plane that a codec shrinks.
fn codec_decode_ms<T: marray::Element>(planes: &[&NdArray<T>]) -> f64 {
    let encoded: Vec<Encoded<T>> = planes
        .iter()
        .filter_map(|p| Encoded::encode(p.data()))
        .collect();
    time_ms(5, || {
        for e in &encoded {
            std::hint::black_box(e.decode());
        }
    })
}

// ---------------------------------------------------------------------------
// neuro-batch
// ---------------------------------------------------------------------------

struct Neuro {
    workers: usize,
    subjects: Vec<Subject>,
    /// One NIfTI buffer per volume, per subject.
    nifti: Vec<Vec<Vec<u8>>>,
    b0: Vec<usize>,
    /// The serial reference pipeline per subject: what every row is
    /// checked against.
    expected: Vec<NeuroOutput>,
}

/// Generate the phantoms, encode them as NIfTI and compute the reference
/// outputs the rows are checked against.
fn neuro_setup(seed: u64, workers: usize, _: &mut Checks) -> Neuro {
    let spec = neuro_spec();
    let phantoms: Vec<DmriPhantom> = (0..NEURO_SUBJECTS)
        .map(|i| DmriPhantom::generate(derive_seed(seed, i as u64), &spec))
        .collect();
    let subjects: Vec<Subject> = phantoms
        .iter()
        .enumerate()
        .map(|(i, p)| Subject::from_phantom(i as u32, p))
        .collect();
    let nifti = subjects
        .iter()
        .map(|s| ingest::encode_volumes_nifti(&s.data, spec.voxel_mm))
        .collect();
    let expected = subjects
        .iter()
        .map(|s| sciops::neuro::reference_pipeline(&s.data, &s.gtab, &neuro_uc::nlm_params()))
        .collect();
    Neuro {
        workers,
        b0: phantoms[0].gtab.b0_indices(),
        subjects,
        nifti,
        expected,
    }
}

impl Neuro {
    /// The reference pipeline from NIfTI buffers, stage by stage; each
    /// stage runs over every subject inside one span.
    fn staged(
        &self,
        par: Parallelism,
        st: &Stages,
        tr: &Tracer,
        op: u64,
        span: Option<SpanId>,
    ) -> (Vec<NdArray<f64>>, KernelBytes) {
        let nlm = neuro_uc::nlm_params();
        let (data, _) = tr.run("formats.decode", op, span, |_| {
            self.nifti
                .iter()
                .map(|bufs| ingest::neuro_ingest_nifti(bufs, &self.b0).data)
                .collect::<Vec<_>>()
        });
        let (seg, _) = tr.run(st.segment, op, span, |_| {
            data.iter()
                .zip(&self.subjects)
                .map(|(d, s)| segmentation(d, &s.gtab))
                .collect::<Vec<_>>()
        });
        let (den, _) = tr.run(st.denoise, op, span, |_| {
            data.iter()
                .zip(&seg)
                .map(|(d, (_, mask))| denoise_all_par(d, mask, &nlm, par))
                .collect::<Vec<_>>()
        });
        let (fas, _) = tr.run(st.dtm, op, span, |_| {
            den.iter()
                .zip(&seg)
                .zip(&self.subjects)
                .map(|((d, (_, mask)), s)| fit_dtm_volume_par(d, mask, &s.gtab, par))
                .collect::<Vec<_>>()
        });
        let data_b: usize = data.iter().map(NdArray::nbytes).sum();
        let vol_b: usize = seg.iter().map(|(mean, _)| mean.nbytes()).sum();
        let mask_b: usize = seg.iter().map(|(_, mask)| mask.bits().len()).sum();
        let encoded_b: usize = self.nifti.iter().flatten().map(Vec::len).sum();
        let bytes = KernelBytes::from([
            ("formats.decode", encoded_b as u64),
            (SERIAL.segment, (data_b + vol_b + mask_b) as u64),
            (SERIAL.denoise, (2 * data_b + mask_b) as u64),
            (SERIAL.dtm, (data_b + mask_b + vol_b) as u64),
        ]);
        (fas, bytes)
    }

    fn check_fa(&self, name: &str, out: &BTreeMap<u32, NdArray<f64>>, chk: &mut Checks) {
        for (s, want) in self.subjects.iter().zip(&self.expected) {
            let ok = out.get(&s.id).is_some_and(|fa| {
                fa.dims() == want.fa.dims()
                    && fa
                        .data()
                        .iter()
                        .zip(want.fa.data())
                        .all(|(a, b)| (a - b).abs() < 1e-9)
            });
            chk.check(ok, || {
                format!("{name}: FA of subject {} diverges from the reference", s.id)
            });
        }
    }
}

impl Batch for Neuro {
    fn rows(&self) -> &'static [&'static str] {
        &[
            "engine.spark",
            "engine.myria",
            "engine.dask",
            "engine.tensorflow",
            "engine.scidb",
            "reference",
            "reference_par",
        ]
    }

    fn run_row(
        &self,
        row: &str,
        tr: &Tracer,
        op: u64,
        span: Option<SpanId>,
        chk: &mut Checks,
    ) -> KernelBytes {
        let w = self.workers;
        let subs = &self.subjects;
        match row {
            "engine.spark" => self.check_fa(row, &neuro_uc::spark(subs, w), chk),
            "engine.myria" => self.check_fa(row, &neuro_uc::myria(subs, w, 1), chk),
            "engine.dask" => self.check_fa(row, &neuro_uc::dask(subs, w), chk),
            "engine.tensorflow" => {
                let out = neuro_uc::tensorflow(subs);
                for (s, want) in subs.iter().zip(&self.expected) {
                    let mean_ok = out.mean_b0.get(&s.id) == Some(&want.mean_b0);
                    chk.check(mean_ok, || {
                        format!("{row}: mean b0 of subject {} differs", s.id)
                    });
                    let agree = out.mask.get(&s.id).map_or(0.0, |m| {
                        let same = m
                            .bits()
                            .iter()
                            .zip(want.mask.bits())
                            .filter(|(a, b)| a == b);
                        same.count() as f64 / want.mask.len() as f64
                    });
                    chk.check(agree > 0.8, || {
                        format!(
                            "{row}: mask agreement {agree} of subject {} is not above 0.8",
                            s.id
                        )
                    });
                }
            }
            "engine.scidb" => {
                let out = neuro_uc::scidb(subs);
                for (s, want) in subs.iter().zip(&self.expected) {
                    let scale = want.denoised.max().abs().max(1.0);
                    let ok = out.denoised.get(&s.id).is_some_and(|d| {
                        d.dims() == want.denoised.dims()
                            && d.data()
                                .iter()
                                .zip(want.denoised.data())
                                .all(|(a, b)| (a - b).abs() < 2e-3 * scale)
                    });
                    chk.check(ok, || {
                        format!("{row}: denoised subject {} drifts past 2e-3", s.id)
                    });
                }
            }
            "reference" | "reference_par" => {
                let (par, st) = if row == "reference" {
                    (Parallelism::Serial, &SERIAL)
                } else {
                    (Parallelism::threads(w), &PARALLEL)
                };
                let (fas, bytes) = self.staged(par, st, tr, op, span);
                for ((s, want), fa) in subs.iter().zip(&self.expected).zip(&fas) {
                    chk.check(fa == &want.fa, || {
                        format!("{row}: FA of subject {} is not bit-identical", s.id)
                    });
                }
                return bytes;
            }
            other => unreachable!("unknown neuro row `{other}`"),
        }
        KernelBytes::new()
    }

    fn probe_layers(&self, values: &mut Values) {
        let volumes: Vec<NdArray<f64>> = self
            .subjects
            .iter()
            .flat_map(|s| (0..s.data.dims()[3]).map(move |v| s.volume(v)))
            .collect();
        values.set(
            "core.pack_ms",
            time_ms(5, || {
                for v in &volumes {
                    std::hint::black_box(pack_plane(v, PlaneKind::Other));
                }
            }),
        );
        let refs: Vec<&NdArray<f64>> = volumes.iter().collect();
        values.set("marray.codec.decode_ms", codec_decode_ms(&refs));
        // One NLM call per volume of the first subject, as morsels.
        let mask = &self.expected[0].mask;
        let nlm = neuro_uc::nlm_params();
        let pool = MorselPool::new(Parallelism::threads(self.workers));
        let n = self.subjects[0].data.dims()[3];
        let (_, stats) = pool.map_with_stats(&volumes[..n], |_, v| nlmeans3d(v, Some(mask), &nlm));
        pool_metrics(&stats, values);
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        let w = self.workers;
        vec![
            ("inputs", format!("{NEURO_SUBJECTS} dMRI phantoms, 24x24x20 voxels x 18 volumes (2 b0), NIfTI-encoded")),
            (
                "brain_mask_voxels",
                self.expected
                    .iter()
                    .map(|e| e.mask.bits().iter().filter(|&&b| b).count().to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            (
                "engine_workers",
                format!(
                    "spark partitions={w}; myria nodes={w} workers/node=1; dask workers={w}; \
                     tensorflow and scidb fixed by their analogs; reference_par threads={w}"
                ),
            ),
        ]
    }
}

/// Run `neuro-batch`.
pub fn run_neuro(args: &Args, workers: usize) -> Outcome {
    drive(args, workers, neuro_setup)
}

// ---------------------------------------------------------------------------
// astro-batch
// ---------------------------------------------------------------------------

struct Astro {
    workers: usize,
    survey: SkySurvey,
    grid: PatchGrid,
    params: (CalibParams, CoaddParams, DetectParams),
    /// One FITS buffer per sensor exposure, visit-major.
    fits: Vec<Vec<u8>>,
    /// The first patch's `(visit, rows, cols)` cube for the SciDB coadd.
    cube: NdArray<f64>,
    /// Reference catalogs over the in-memory survey (engine checks).
    catalogs: BTreeMap<PatchId, Vec<Source>>,
    /// Fingerprint of the program's own FITS-fed reference pipeline
    /// (reference-row checks: the FITS round trip quantizes to f32).
    fits_fp: u64,
    /// Per-pixel clipped mean of the cube (SciDB coadd check).
    cube_mean: Vec<f64>,
}

fn astro_fp(coadds: &BTreeMap<PatchId, Coadd>, catalogs: &BTreeMap<PatchId, Vec<Source>>) -> u64 {
    let mut fp = Fingerprint::new();
    for (patch, c) in coadds {
        fp.push_u64(u64::from(patch.0));
        fp.push_u64(u64::from(patch.1));
        fp.push_f64_slice(c.flux.data());
    }
    for sources in catalogs.values() {
        fp.push_usize(sources.len());
        for s in sources {
            fp.push_f64(s.centroid.0);
            fp.push_f64(s.centroid.1);
            fp.push_f64(s.flux);
            fp.push_usize(s.npix);
        }
    }
    fp.finish()
}

/// Generate the survey, encode it as FITS, build the SciDB cube and
/// compute everything the rows are checked against.
fn astro_setup(seed: u64, workers: usize, chk: &mut Checks) -> Astro {
    let survey = SkySurvey::generate(derive_seed(seed, 100), &astro_spec());
    let grid = survey.patch_grid();
    let params = astro_uc::astro_params();
    let (c, co, d) = &params;
    let fits: Vec<Vec<u8>> = survey
        .visits
        .iter()
        .flatten()
        .map(ingest::encode_exposure_fits)
        .collect();
    let cube = sciserve::cube_for_survey(&survey);
    let reference = reference_pipeline(&survey.visits, &grid, c, co, d);
    chk.check(reference.total_sources() > 0, || {
        "astro reference found no sources".to_string()
    });
    let from_fits = ingest::astro_pipeline_from_fits(&fits, &grid, c, co, d, Parallelism::Serial);
    let fits_fp = astro_fp(&from_fits.coadds, &from_fits.catalogs);
    let dims = cube.dims().to_vec();
    let cube_mean = (0..dims[1] * dims[2])
        .map(|px| {
            let samples: Vec<f64> = (0..dims[0])
                .map(|v| cube.data()[v * dims[1] * dims[2] + px])
                .collect();
            sciops::stats::sigma_clipped_mean(&samples, 3.0, 2)
        })
        .collect();
    Astro {
        workers,
        survey,
        grid,
        params,
        fits,
        cube,
        catalogs: reference.catalogs,
        fits_fp,
        cube_mean,
    }
}

/// Step 2A: group calibrated exposures by patch and merge each visit's
/// pieces, as `sciops::astro::reference_pipeline_calibrated_par` does.
fn merge_patches(calibrated: &[Exposure], grid: &PatchGrid) -> BTreeMap<PatchId, Vec<Exposure>> {
    create_patches(calibrated, grid)
        .into_iter()
        .map(|(patch, pieces)| {
            let patch_box = grid.patch_box(patch);
            let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
            for piece in pieces {
                by_visit.entry(piece.visit).or_default().push(piece);
            }
            let merged = by_visit
                .into_values()
                .map(|pieces| merge_visit_pieces(&patch_box, &pieces))
                .collect();
            (patch, merged)
        })
        .collect()
}

fn exposures_bytes<'a>(es: impl IntoIterator<Item = &'a Exposure>) -> usize {
    es.into_iter().map(Exposure::nbytes).sum()
}

impl Astro {
    /// The reference pipeline from FITS buffers, stage by stage.
    fn staged(
        &self,
        par: Parallelism,
        st: &Stages,
        tr: &Tracer,
        op: u64,
        span: Option<SpanId>,
    ) -> (Result<u64, String>, KernelBytes) {
        let (c, co, d) = &self.params;
        let mut bytes = KernelBytes::new();
        let (raw, _) = tr.run("formats.decode", op, span, |_| {
            self.fits
                .iter()
                .map(|b| ingest::decode_exposure_fits(b))
                .collect::<Result<Vec<Exposure>, String>>()
        });
        bytes.insert(
            "formats.decode",
            self.fits.iter().map(Vec::len).sum::<usize>() as u64,
        );
        let raw = match raw {
            Ok(r) => r,
            Err(e) => return (Err(e), bytes),
        };
        let raw_refs: Vec<&Exposure> = raw.iter().collect();
        let (cal, _) = tr.run(st.calibrate, op, span, |_| {
            par_map_slabs(&raw_refs, par, |_, e| calibrate_exposure(e, c))
        });
        let (merged, _) = tr.run(st.patch, op, span, |_| merge_patches(&cal, &self.grid));
        let (coadds, _) = tr.run(st.coadd, op, span, |_| {
            merged
                .iter()
                .map(|(p, ex)| (*p, coadd_sigma_clip_par(ex, co, par)))
                .collect::<BTreeMap<PatchId, Coadd>>()
        });
        let (catalogs, _) = tr.run(st.detect, op, span, |_| {
            coadds
                .iter()
                .map(|(p, cd)| (*p, detect_sources_par(cd, d, par)))
                .collect::<BTreeMap<PatchId, Vec<Source>>>()
        });
        let raw_b = exposures_bytes(&raw);
        let cal_b = exposures_bytes(&cal);
        let merged_b = exposures_bytes(merged.values().flatten());
        let coadd_b: usize = coadds
            .values()
            .map(|c| c.flux.nbytes() + c.variance.nbytes() + c.depth.nbytes())
            .sum();
        let flux_b: usize = coadds.values().map(|c| c.flux.nbytes()).sum();
        let src_b = catalogs.values().map(Vec::len).sum::<usize>() * std::mem::size_of::<Source>();
        bytes.insert(SERIAL.calibrate, (raw_b + cal_b) as u64);
        bytes.insert(SERIAL.patch, (cal_b + merged_b) as u64);
        bytes.insert(SERIAL.coadd, (merged_b + coadd_b) as u64);
        bytes.insert(SERIAL.detect, (flux_b + src_b) as u64);
        (Ok(astro_fp(&coadds, &catalogs)), bytes)
    }

    fn check_catalogs(&self, name: &str, out: &astro_uc::AstroResult, chk: &mut Checks) {
        chk.check(out.catalogs.len() == self.catalogs.len(), || {
            format!(
                "{name}: {} patches, reference has {}",
                out.catalogs.len(),
                self.catalogs.len()
            )
        });
        for (patch, want) in &self.catalogs {
            let ok = out.catalogs.get(patch).is_some_and(|got| {
                got.len() == want.len()
                    && got.iter().zip(want).all(|(g, w)| {
                        (g.centroid.0 - w.centroid.0).abs() < 1e-9
                            && (g.centroid.1 - w.centroid.1).abs() < 1e-9
                            && g.npix == w.npix
                    })
            });
            chk.check(ok, || {
                format!("{name}: catalog of patch {patch:?} differs from the reference")
            });
        }
    }
}

impl Batch for Astro {
    fn rows(&self) -> &'static [&'static str] {
        &[
            "engine.spark",
            "engine.myria",
            "engine.scidb",
            "reference",
            "reference_par",
        ]
    }

    fn run_row(
        &self,
        row: &str,
        tr: &Tracer,
        op: u64,
        span: Option<SpanId>,
        chk: &mut Checks,
    ) -> KernelBytes {
        let w = self.workers;
        match row {
            "engine.spark" => self.check_catalogs(row, &astro_uc::spark(&self.survey, w), chk),
            "engine.myria" => self.check_catalogs(row, &astro_uc::myria(&self.survey, w, 1), chk),
            "engine.scidb" => {
                let db = engine_array::ArrayDb::connect(w);
                match astro_uc::scidb_coadd_cube(&db, &self.cube, SCIDB_CHUNK) {
                    Ok(out) => {
                        let ok = out.len() == self.cube_mean.len()
                            && out
                                .data()
                                .iter()
                                .zip(&self.cube_mean)
                                .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0));
                        chk.check(ok, || {
                            format!("{row}: clipped coadd differs from the per-pixel reference")
                        });
                    }
                    Err(e) => chk.fail(format!("{row}: {e:?}")),
                }
            }
            "reference" | "reference_par" => {
                let (par, st) = if row == "reference" {
                    (Parallelism::Serial, &SERIAL)
                } else {
                    (Parallelism::threads(w), &PARALLEL)
                };
                let (fp, bytes) = self.staged(par, st, tr, op, span);
                match fp {
                    Ok(fp) => chk.check(fp == self.fits_fp, || {
                        format!("{row}: output differs from the FITS-fed reference pipeline")
                    }),
                    Err(e) => chk.fail(format!("{row}: {e}")),
                }
                return bytes;
            }
            other => unreachable!("unknown astro row `{other}`"),
        }
        KernelBytes::new()
    }

    fn probe_layers(&self, values: &mut Values) {
        let exposures: Vec<&Exposure> = self.survey.visits.iter().flatten().collect();
        values.set(
            "core.pack_ms",
            time_ms(5, || {
                for e in &exposures {
                    std::hint::black_box((
                        pack_plane(&e.flux, PlaneKind::Flux),
                        pack_plane(&e.variance, PlaneKind::Variance),
                        pack_plane(&e.mask, PlaneKind::Mask),
                    ));
                }
            }),
        );
        let variance: Vec<&NdArray<f64>> = exposures.iter().map(|e| &e.variance).collect();
        let masks: Vec<&NdArray<u8>> = exposures.iter().map(|e| &e.mask).collect();
        values.set(
            "marray.codec.decode_ms",
            codec_decode_ms(&variance) + codec_decode_ms(&masks),
        );
        // One clipped coadd per patch, as morsels.
        let (c, co, _) = &self.params;
        let calibrated: Vec<Exposure> =
            exposures.iter().map(|e| calibrate_exposure(e, c)).collect();
        let patches: Vec<Vec<Exposure>> = merge_patches(&calibrated, &self.grid)
            .into_values()
            .collect();
        let pool = MorselPool::new(Parallelism::threads(self.workers));
        let (_, stats) = pool.map_with_stats(&patches, |_, ex| coadd_sigma_clip(ex, co));
        pool_metrics(&stats, values);
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        let w = self.workers;
        vec![
            (
                "inputs",
                "sky survey, 96x96 sensors in a 2x2 grid, 6 visits, FITS-encoded".to_string(),
            ),
            (
                "engine_workers",
                format!(
                    "spark partitions={w}; myria nodes={w} workers/node=1; scidb instances={w} \
                     chunk={SCIDB_CHUNK}; reference_par threads={w}"
                ),
            ),
        ]
    }
}

/// Run `astro-batch`.
pub fn run_astro(args: &Args, workers: usize) -> Outcome {
    drive(args, workers, astro_setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let mut chk = Checks::default();
        let a = neuro_setup(3, 1, &mut chk);
        let b = neuro_setup(3, 1, &mut chk);
        let c = neuro_setup(4, 1, &mut chk);
        assert_eq!(a.nifti, b.nifti, "same seed, byte-identical NIfTI inputs");
        assert_ne!(a.nifti, c.nifti, "another seed, other inputs");
        assert_eq!(a.expected, b.expected, "same seed, identical check outputs");

        let x = astro_setup(3, 1, &mut chk);
        let y = astro_setup(3, 1, &mut chk);
        let z = astro_setup(4, 1, &mut chk);
        assert_eq!(x.fits, y.fits);
        assert_eq!(x.fits_fp, y.fits_fp);
        assert_ne!(x.fits, z.fits);
        assert_ne!(x.fits_fp, z.fits_fp);
        assert_eq!(chk.failed(), 0);
    }

    #[test]
    fn staged_reference_rows_match_the_program_pipelines() {
        let mut chk = Checks::default();
        let tr = Tracer::new(true);
        let n = neuro_setup(5, 2, &mut chk);
        let a = astro_setup(5, 2, &mut chk);
        for row in ["reference", "reference_par", "engine.spark"] {
            n.run_row(row, &tr, 0, None, &mut chk);
            a.run_row(row, &tr, 0, None, &mut chk);
        }
        a.run_row("engine.scidb", &tr, 0, None, &mut chk);
        assert_eq!(chk.failed(), 0, "{:?}", chk.failures().collect::<Vec<_>>());
        assert!(!tr.durations_ms("sciops.denoise_par").is_empty());
        assert!(!tr.durations_ms("sciops.detect").is_empty());
    }
}
