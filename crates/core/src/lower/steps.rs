//! Individual-step lowering for Figure 12 (filter, mean, denoise, coadd)
//! and the §5.3.1 TensorFlow assignment experiment.
//!
//! Each step runs in isolation with inputs already resident (as in §5.2,
//! which measures the operations on a loaded 16-node cluster).

use crate::costmodel::CostModel;
use crate::lower::{Engine, EngineProfiles};
use crate::workload::NeuroWorkload;
use simcluster::{ClusterSpec, TaskGraph, TaskSpec};

fn work_mem(bytes: u64) -> u64 {
    3 * bytes
}

/// Figure 12a — the b0 filter over all subjects.
pub fn filter_step(
    engine: Engine,
    w: &NeuroWorkload,
    cm: &CostModel,
    profiles: &EngineProfiles,
    cluster: &ClusterSpec,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let subj_bytes = NeuroWorkload::SUBJECT_BYTES;
    let vol_bytes = NeuroWorkload::volume_bytes();
    let b0_bytes = NeuroWorkload::B0_VOLUMES as u64 * vol_bytes;
    match engine {
        Engine::Myria => {
            // Selection pushdown: the local store returns only matching
            // records; the scan touches the b0 pages.
            for s in 0..w.subjects {
                for v in 0..NeuroWorkload::B0_VOLUMES {
                    g.add(
                        TaskSpec::compute("filter", vol_bytes as f64 / profiles.rel.pg_scan_bw)
                            .disk_read(vol_bytes)
                            .mem(work_mem(vol_bytes))
                            .on_node((s * 31 + v) % cluster.nodes),
                    );
                }
            }
        }
        Engine::Dask => {
            // Data already in worker memory; the filter is a metadata
            // operation per subject.
            for s in 0..w.subjects {
                g.add(
                    TaskSpec::compute("filter", cm.neuro_filter_per_subject)
                        .mem(work_mem(b0_bytes))
                        .on_node(s % cluster.nodes),
                );
            }
        }
        Engine::Spark => {
            // The filter closure runs in the Python worker: every record —
            // i.e. the whole dataset — crosses the serialization boundary.
            let p = 2 * cluster.total_slots();
            let part = subj_bytes * w.subjects as u64 / p as u64;
            for _ in 0..p {
                g.add(
                    TaskSpec::compute(
                        "filter",
                        profiles.rdd.crossing_time(part) + cm.neuro_filter_per_subject / p as f64,
                    )
                    .mem(work_mem(part)),
                );
            }
        }
        Engine::SciDb => {
            // Chunk-misaligned selection: every chunk (one per volume) is
            // read and reconstructed.
            let instances = cluster.nodes * profiles.arr.instances_per_node;
            for s in 0..w.subjects {
                for v in 0..NeuroWorkload::VOLUMES {
                    let c = s * NeuroWorkload::VOLUMES + v;
                    g.add(
                        TaskSpec::compute(
                            "filter",
                            profiles.arr.chunk_op_overhead
                                + vol_bytes as f64 * profiles.arr.reconstruct_per_byte,
                        )
                        .disk_read(vol_bytes)
                        .mem(work_mem(vol_bytes))
                        .on_node((c % instances) / profiles.arr.instances_per_node),
                    );
                }
            }
        }
        Engine::TensorFlow => {
            tf_filter_assignment(&mut g, w, profiles, cluster, 1);
        }
    }
    super::debug_verify(&g, cluster, profiles, engine);
    g
}

/// The TensorFlow filter with an explicit `volumes_per_assignment`
/// granularity — the §5.3.1 experiment that found a 2× spread between
/// assignments.
pub fn tf_filter_assignment(
    g: &mut TaskGraph,
    w: &NeuroWorkload,
    profiles: &EngineProfiles,
    cluster: &ClusterSpec,
    volumes_per_assignment: usize,
) {
    let prof = profiles.df;
    let vol_bytes = NeuroWorkload::volume_bytes();
    let batch = volumes_per_assignment.max(1);
    let batch_bytes = vol_bytes * batch as u64;
    let n_batches = (w.subjects * NeuroWorkload::VOLUMES).div_ceil(batch);
    // Whole-tensor reshape passes + conversions, one assignment at a time
    // per worker; results return through the master between rounds.
    let mut round_tasks: Vec<usize> = Vec::new();
    let mut prev_round: Option<usize> = None;
    for b in 0..n_batches {
        let node = b % cluster.nodes;
        let pass = prof.filter_reshape_passes as f64 * batch_bytes as f64 / 450e6;
        let convert = 2.0 * batch_bytes as f64 * prof.tensor_convert_per_byte;
        let mut t = TaskSpec::compute("filter", pass + convert + prof.step_dispatch_fixed)
            .output(batch_bytes / 16)
            .mem(work_mem(batch_bytes))
            .on_node(node);
        if let Some(barrier) = prev_round {
            t = t.after(&[barrier]);
        }
        round_tasks.push(g.add(t));
        // A global barrier after each full round of assignments (the
        // Figure 9 `run(...)` loop steps in batches of workers).
        if round_tasks.len() == cluster.nodes {
            let master = g.add(
                TaskSpec::compute("filter-gather", 0.2)
                    .on_node(0)
                    .after(&round_tasks.clone()),
            );
            prev_round = Some(master);
            round_tasks.clear();
        }
    }
}

/// Figure 12b — the per-subject mean of the b0 volumes.
pub fn mean_step(
    engine: Engine,
    w: &NeuroWorkload,
    cm: &CostModel,
    profiles: &EngineProfiles,
    cluster: &ClusterSpec,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let vol_bytes = NeuroWorkload::volume_bytes();
    let b0_bytes = NeuroWorkload::B0_VOLUMES as u64 * vol_bytes;
    match engine {
        Engine::SciDb => {
            // Native array aggregation — SciDB's specialty. Parallel over
            // chunk groups within each subject.
            let instances = cluster.nodes * profiles.arr.instances_per_node;
            for s in 0..w.subjects {
                for i in 0..NeuroWorkload::B0_VOLUMES {
                    let c = s * NeuroWorkload::B0_VOLUMES + i;
                    g.add(
                        TaskSpec::compute(
                            "mean",
                            cm.neuro_mean_per_subject / NeuroWorkload::B0_VOLUMES as f64 * 0.5
                                + profiles.arr.chunk_op_overhead,
                        )
                        .mem(work_mem(vol_bytes))
                        .on_node((c % instances) / profiles.arr.instances_per_node),
                    );
                }
            }
        }
        Engine::Spark | Engine::Myria => {
            // One group per subject: at small subject counts most of the
            // cluster idles (the paper's super-linear-scaling explanation).
            let crossing = match engine {
                Engine::Spark => profiles.rdd.crossing_time(b0_bytes),
                _ => profiles.rel.crossing_time(b0_bytes),
            };
            for s in 0..w.subjects {
                g.add(
                    TaskSpec::compute("mean", cm.neuro_mean_per_subject + crossing)
                        .mem(work_mem(b0_bytes))
                        .on_node(s % cluster.nodes),
                );
            }
        }
        Engine::Dask => {
            // Parallelized across voxel blocks, but with scheduler startup
            // and stealing overhead dominating at small scale.
            let startup = g.add(
                TaskSpec::compute("mean-startup", profiles.tg.scheduler_startup * 0.15).on_node(0),
            );
            let blocks = 8;
            for _s in 0..w.subjects {
                for _ in 0..blocks {
                    g.add(
                        TaskSpec::compute("mean", cm.neuro_mean_per_subject / blocks as f64)
                            .mem(work_mem(b0_bytes / blocks as u64))
                            .after(&[startup]),
                    );
                }
            }
        }
        Engine::TensorFlow => {
            // Conversion to/from tensors dwarfs the mean itself — and the
            // conversion covers the whole subject tensor, because the
            // volume-axis selection cannot happen before tensors exist.
            for s in 0..w.subjects {
                let convert =
                    2.0 * NeuroWorkload::SUBJECT_BYTES as f64 * profiles.df.tensor_convert_per_byte;
                g.add(
                    TaskSpec::compute("mean", cm.neuro_mean_per_subject + convert)
                        .mem(work_mem(b0_bytes))
                        .on_node(s % cluster.nodes),
                );
            }
            // Results return to the master.
            let deps: Vec<usize> = (0..g.len()).collect();
            let mut t = TaskSpec::compute(
                "mean-gather",
                w.subjects as f64 * vol_bytes as f64 * profiles.df.tensor_convert_per_byte,
            )
            .on_node(0);
            t.deps = deps;
            g.add(t);
        }
    }
    super::debug_verify(&g, cluster, profiles, engine);
    g
}

/// Figure 12c — denoising all volumes.
pub fn denoise_step(
    engine: Engine,
    w: &NeuroWorkload,
    cm: &CostModel,
    profiles: &EngineProfiles,
    cluster: &ClusterSpec,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let vol_bytes = NeuroWorkload::volume_bytes();
    let n_vols = w.subjects * NeuroWorkload::VOLUMES;
    match engine {
        Engine::Spark => {
            for _ in 0..n_vols {
                g.add(
                    TaskSpec::compute(
                        "denoise",
                        cm.neuro_denoise_per_volume + 2.0 * profiles.rdd.crossing_time(vol_bytes),
                    )
                    .mem(work_mem(vol_bytes)),
                );
            }
        }
        Engine::Myria => {
            for i in 0..n_vols {
                g.add(
                    TaskSpec::compute(
                        "denoise",
                        cm.neuro_denoise_per_volume + 2.0 * profiles.rel.crossing_time(vol_bytes),
                    )
                    .mem(work_mem(vol_bytes))
                    .on_node(i % cluster.nodes),
                );
            }
        }
        Engine::Dask => {
            let startup = g.add(
                TaskSpec::compute("denoise-startup", profiles.tg.scheduler_startup * 0.15)
                    .on_node(0),
            );
            for _ in 0..n_vols {
                g.add(
                    TaskSpec::compute("denoise", cm.neuro_denoise_per_volume)
                        .mem(work_mem(vol_bytes))
                        .after(&[startup]),
                );
            }
        }
        Engine::SciDb => {
            // stream(): the reference UDF per chunk, plus TSV both ways.
            let tsv = 2.0 * vol_bytes as f64 * profiles.arr.tsv_stream_per_byte;
            let instances = cluster.nodes * profiles.arr.instances_per_node;
            for i in 0..n_vols {
                g.add(
                    TaskSpec::compute(
                        "denoise",
                        cm.neuro_denoise_per_volume + tsv + profiles.arr.chunk_op_overhead,
                    )
                    .mem(work_mem(vol_bytes))
                    .on_node((i % instances) / profiles.arr.instances_per_node),
                );
            }
        }
        Engine::TensorFlow => {
            // Whole-volume convolution (no mask → 1.5×) + conversions.
            // Memory forces one volume per machine at a time (chained per
            // node), but the convolution's intra-op parallelism uses the
            // node's physical cores.
            let phys = cluster.node.physical_cores() as f64;
            let mut prev_on_node: Vec<Option<usize>> = vec![None; cluster.nodes];
            for i in 0..n_vols {
                let node = i % cluster.nodes;
                let convert = 2.0 * vol_bytes as f64 * profiles.df.tensor_convert_per_byte;
                let inflation = profiles.df.unmasked_inflation(2.0 / 3.0);
                let mut t = TaskSpec::compute(
                    "denoise",
                    cm.neuro_denoise_per_volume * inflation / phys + convert,
                )
                .mem(cluster.node.mem_bytes / 3)
                .on_node(node);
                if let Some(p) = prev_on_node[node] {
                    t = t.after(&[p]);
                }
                prev_on_node[node] = Some(g.add(t));
            }
        }
    }
    super::debug_verify(&g, cluster, profiles, engine);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::simulate;

    fn run(engine: Engine, g: &TaskGraph, cluster: &ClusterSpec, p: &EngineProfiles) -> f64 {
        simulate(g, cluster, p.policy(engine), false)
            .unwrap()
            .makespan
    }

    fn setup() -> (CostModel, EngineProfiles, ClusterSpec) {
        (
            CostModel::default(),
            EngineProfiles::default(),
            ClusterSpec::r3_2xlarge(16),
        )
    }

    type StepFn =
        fn(Engine, &NeuroWorkload, &CostModel, &EngineProfiles, &ClusterSpec) -> TaskGraph;

    /// Makespan of `step` on `engine` over `subjects` on 16 plain nodes.
    fn time(step: StepFn, engine: Engine, subjects: usize) -> f64 {
        let (cm, p, cluster) = setup();
        let g = step(engine, &NeuroWorkload { subjects }, &cm, &p, &cluster);
        run(engine, &g, &cluster, &p)
    }

    #[test]
    fn figure_12a_orderings() {
        let t_myria = time(filter_step, Engine::Myria, 25);
        let t_dask = time(filter_step, Engine::Dask, 25);
        let t_spark = time(filter_step, Engine::Spark, 25);
        let t_scidb = time(filter_step, Engine::SciDb, 25);
        let t_tf = time(filter_step, Engine::TensorFlow, 25);
        // Paper: Myria and Dask fastest; Spark an order of magnitude
        // slower than Dask; SciDB slower than the fast pair; TF slowest by
        // orders of magnitude.
        assert!(
            t_myria < t_spark && t_dask < t_spark,
            "{t_myria} {t_dask} {t_spark}"
        );
        assert!(
            t_spark > 5.0 * t_dask.min(t_myria),
            "spark {t_spark} vs {t_dask}/{t_myria}"
        );
        assert!(t_scidb > t_myria && t_scidb > t_dask, "scidb {t_scidb}");
        assert!(t_tf > 10.0 * t_spark, "tf {t_tf} vs spark {t_spark}");
    }

    #[test]
    fn figure_12b_scidb_fastest_small_scale() {
        let t_scidb = time(mean_step, Engine::SciDb, 1);
        let t_spark = time(mean_step, Engine::Spark, 1);
        let t_dask = time(mean_step, Engine::Dask, 1);
        let t_tf = time(mean_step, Engine::TensorFlow, 1);
        assert!(t_scidb < t_spark, "scidb {t_scidb} vs spark {t_spark}");
        assert!(t_scidb < t_dask, "scidb {t_scidb} vs dask {t_dask}");
        assert!(t_tf > 5.0 * t_scidb, "tf {t_tf}");
    }

    #[test]
    fn figure_12c_udf_engines_similar_tf_slower() {
        let t: Vec<f64> = [Engine::Spark, Engine::Myria, Engine::Dask, Engine::SciDb]
            .iter()
            .map(|&e| time(denoise_step, e, 25))
            .collect();
        let max = t.iter().cloned().fold(0.0, f64::max);
        let min = t.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.6, "UDF engines within 60%: {t:?}");
        let t_tf = time(denoise_step, Engine::TensorFlow, 25);
        assert!(t_tf > 1.25 * max, "tf {t_tf} vs max {max}");
    }

    #[test]
    fn tf_assignment_spread_is_about_2x() {
        let (_cm, p, cluster) = setup();
        let w = NeuroWorkload { subjects: 4 };
        let times: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&vpa| {
                let mut g = TaskGraph::new();
                tf_filter_assignment(&mut g, &w, &p, &cluster, vpa);
                simulate(&g, &cluster, p.policy(Engine::TensorFlow), false)
                    .unwrap()
                    .makespan
            })
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 1.5 && max / min < 4.0,
            "spread {}: {times:?}",
            max / min
        );
    }
}
