//! The `scimemo/v2` cacheability report.
//!
//! One report covers a whole sweep: the workspace purity summary, one
//! entry per shipped config (with per-plan certification rollups and
//! deduplicated rejection reasons), the deliberately-unsafe fixtures
//! that prove the gate rejects what it must, and — since v2 — the
//! [`StatsBlock`] surfacing the [`MemoStats`] traffic counters of a
//! [`crate::MemoTable`] actually exercised over the sweep's certified
//! fingerprints (the counters existed since v1 but were write-only:
//! nothing ever read them back out). The JSON is emitted with sorted keys
//! and stable ordering throughout, so a byte-level diff (and the
//! cross-process re-execution test) is meaningful: any schema or verdict
//! drift shows up as a diff, not silently.

use std::collections::BTreeMap;

use scilint::json::{arr, obj, Json};

use crate::{Certification, MemoStats};

/// Schema tag written into every report. Bumped v1 → v2 when the
/// `memo_stats` block was added (hit/miss/bypass/eviction counters were
/// previously recorded but never serialized anywhere).
pub const SCHEMA: &str = "scimemo/v2";

/// Certification of one shipped config.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Config name as `scibench lint` prints it.
    pub name: String,
    /// Pipeline family (`neuro`, `astro`, `ingest`, `steps`).
    pub family: String,
    /// Engine name.
    pub engine: String,
    /// The per-node decisions.
    pub cert: Certification,
}

/// Certification of one deliberately-unsafe fixture plan, expected to be
/// rejected.
#[derive(Debug, Clone)]
pub struct FixtureReport {
    /// Fixture name.
    pub name: String,
    /// The per-node decisions (at least one rejection expected).
    pub cert: Certification,
}

/// Traffic counters of a memo table exercised during the sweep, plus its
/// residency at the end — the observable half of cache efficacy.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsBlock {
    /// Hit/miss/bypass/eviction counters.
    pub stats: MemoStats,
    /// Entries resident when the sweep finished.
    pub resident_entries: usize,
    /// Declared bytes resident when the sweep finished.
    pub resident_bytes: u64,
}

/// A full sweep: purity summary + configs + fixtures + cache traffic.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workspace purity summary (level name → function count).
    pub purity: BTreeMap<String, usize>,
    /// One entry per swept config, in sweep order.
    pub configs: Vec<ConfigReport>,
    /// Unsafe fixtures, in sweep order.
    pub fixtures: Vec<FixtureReport>,
    /// Memo-table traffic over the sweep's fingerprints, when measured.
    pub memo_stats: Option<StatsBlock>,
}

/// One label's rollup within a config: `(class, tasks, certified)`.
type LabelRollup = (String, usize, usize);

fn rollup(cert: &Certification) -> BTreeMap<String, LabelRollup> {
    let mut out: BTreeMap<String, LabelRollup> = BTreeMap::new();
    for n in &cert.nodes {
        let e = out
            .entry(n.label.to_string())
            .or_insert_with(|| (n.class.name().to_string(), 0, 0));
        e.1 += 1;
        if n.certified {
            e.2 += 1;
        }
    }
    out
}

/// Rejections deduplicated by label (first occurrence wins; decisions are
/// in task order, so this is deterministic).
fn rejections(cert: &Certification) -> BTreeMap<String, (String, Vec<String>)> {
    let mut out = BTreeMap::new();
    for n in cert.rejections() {
        out.entry(n.label.to_string())
            .or_insert_with(|| (n.reason.clone(), n.witness.clone()));
    }
    out
}

impl Report {
    /// Tasks and certified-task counts per family, for acceptance checks:
    /// every family must certify at least one node set.
    pub fn family_certified(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for c in &self.configs {
            let e = out.entry(c.family.clone()).or_insert((0, 0));
            e.0 += c.cert.nodes.len();
            e.1 += c.cert.certified_count();
        }
        out
    }

    /// Render the report as deterministic `scimemo/v2` JSON.
    pub fn to_json(&self) -> String {
        let rejected = |cert: &Certification| {
            obj(rejections(cert)
                .into_iter()
                .map(|(label, (reason, witness))| {
                    (
                        label,
                        obj([("reason", reason.into()), ("witness", arr(witness))]),
                    )
                }))
        };
        let configs = self.configs.iter().map(|c| {
            let labels = rollup(&c.cert)
                .into_iter()
                .map(|(label, (class, n, cert))| {
                    let row = [
                        ("class", class.into()),
                        ("tasks", n.into()),
                        ("certified", cert.into()),
                    ];
                    (label, obj(row))
                });
            let mut members = vec![
                ("name", c.name.as_str().into()),
                ("family", c.family.as_str().into()),
                ("engine", c.engine.as_str().into()),
                (
                    "graph_fingerprint",
                    format!("{:016x}", c.cert.graph_fingerprint).into(),
                ),
                ("tasks", c.cert.nodes.len().into()),
                ("certified", c.cert.certified_count().into()),
                ("rejected", c.cert.rejections().count().into()),
                ("labels", obj(labels)),
            ];
            if c.cert.rejections().next().is_some() {
                members.push(("rejections", rejected(&c.cert)));
            }
            obj(members)
        });
        let fixtures = self.fixtures.iter().map(|f| {
            obj([
                ("name", f.name.as_str().into()),
                ("tasks", f.cert.nodes.len().into()),
                ("certified", f.cert.certified_count().into()),
                ("rejections", rejected(&f.cert)),
            ])
        });
        let purity = self
            .purity
            .iter()
            .map(|(k, v)| (k.as_str(), Json::from(*v)));
        let mut members = vec![
            ("schema", SCHEMA.into()),
            ("purity", obj(purity)),
            ("configs", arr(configs)),
            ("fixtures", arr(fixtures)),
        ];
        if let Some(m) = &self.memo_stats {
            let stats = [
                ("hits", m.stats.hits.into()),
                ("misses", m.stats.misses.into()),
                ("bypasses", m.stats.bypasses.into()),
                ("evictions", m.stats.evictions.into()),
                ("evicted_bytes", m.stats.evicted_bytes.into()),
                ("resident_entries", m.resident_entries.into()),
                ("resident_bytes", m.resident_bytes.into()),
            ];
            members.push(("memo_stats", obj(stats)));
        }
        let families = self
            .family_certified()
            .into_iter()
            .map(|(fam, (tasks, cert))| {
                (
                    fam,
                    obj([("tasks", tasks.into()), ("certified", cert.into())]),
                )
            });
        members.push(("families", obj(families)));
        obj(members).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeClass, NodeDecision};

    fn decision(label: &'static str, certified: bool, class: NodeClass) -> NodeDecision {
        NodeDecision {
            task: 0,
            label,
            fingerprint: 0xabcd,
            class,
            sound: certified,
            certified,
            reason: if certified {
                String::new()
            } else {
                "kernel `x` is ambient_read via env::var".into()
            },
            witness: if certified {
                Vec::new()
            } else {
                vec!["x (crates/x/src/lib.rs:1)".into()]
            },
        }
    }

    fn sample() -> Report {
        let mut purity = BTreeMap::new();
        purity.insert("pure".to_string(), 2);
        purity.insert("det_impure".to_string(), 1);
        Report {
            purity,
            configs: vec![ConfigReport {
                name: "neuro-spark-1".into(),
                family: "neuro".into(),
                engine: "Spark".into(),
                cert: Certification {
                    nodes: vec![
                        decision("spark:ingest", true, NodeClass::Source),
                        decision("spark:fit", true, NodeClass::Kernel),
                    ],
                    graph_fingerprint: 0x1234,
                },
            }],
            fixtures: vec![FixtureReport {
                name: "fixture-ambient".into(),
                cert: Certification {
                    nodes: vec![decision("fixture:dirty", false, NodeClass::Kernel)],
                    graph_fingerprint: 0x5678,
                },
            }],
            memo_stats: Some(StatsBlock {
                stats: MemoStats {
                    hits: 3,
                    misses: 2,
                    bypasses: 1,
                    evictions: 0,
                    evicted_bytes: 0,
                },
                resident_entries: 2,
                resident_bytes: 16,
            }),
        }
    }

    #[test]
    fn json_carries_schema_and_is_deterministic() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"scimemo/v2\""));
        assert!(a.contains("\"graph_fingerprint\": \"0000000000001234\""));
        assert!(a.contains("\"fixture:dirty\""));
        assert!(a.contains("ambient_read"));
        assert!(a.contains(
            "\"memo_stats\": {\"hits\": 3, \"misses\": 2, \"bypasses\": 1, \"evictions\": 0, \
             \"evicted_bytes\": 0, \"resident_entries\": 2, \"resident_bytes\": 16}"
        ));
    }

    #[test]
    fn memo_stats_block_is_optional() {
        let mut r = sample();
        r.memo_stats = None;
        assert!(!r.to_json().contains("\"memo_stats\""));
    }

    #[test]
    fn family_rollup_counts_tasks_and_certified() {
        let r = sample();
        let fams = r.family_certified();
        assert_eq!(fams.get("neuro"), Some(&(2, 2)));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = sample();
        r.configs[0].name = "a\"b\\c\nd".into();
        assert!(r.to_json().contains("\"name\": \"a\\\"b\\\\c\\nd\""));
    }
}
