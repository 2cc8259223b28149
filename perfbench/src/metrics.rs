//! The declared metrics and the result line.
//!
//! These tables are the single source of the metric names, units and
//! directions; `BENCHMARK.json` must declare exactly the same ones (the
//! tests below compare them). `README.md` gives each metric's definition
//! and the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use crate::util::Checks;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `better` is read only by the tests that compare
/// this table with `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them (`--trace 0`). An operation is one batch round
/// (every engine analog and both reference rows, once each) or one
/// serve request.
pub const END_TO_END: &[Metric] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "1/s"),
    lo("op_p50_ms", "ms"),
    lo("op_tail_ms", "ms"),
    lo("peak_rss_mb", "MiB"),
];

/// The five engine analogs, in the order the per-engine metrics use.
pub const ENGINES: [&str; 5] = ["spark", "myria", "dask", "tensorflow", "scidb"];

/// Per-layer metrics (`--trace 1`). A metric whose layer is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Engine analogs and the reference rows (batch workloads).
    lo("spark_ms", "ms"),
    lo("myria_ms", "ms"),
    lo("dask_ms", "ms"),
    lo("tensorflow_ms", "ms"),
    lo("scidb_ms", "ms"),
    lo("reference_ms", "ms"),
    lo("reference_par_ms", "ms"),
    lo("engine.overhead_ms.spark", "ms"),
    lo("engine.overhead_ms.myria", "ms"),
    lo("engine.overhead_ms.dask", "ms"),
    lo("engine.overhead_ms.tensorflow", "ms"),
    lo("engine.overhead_ms.scidb", "ms"),
    // Serve latency by cache outcome.
    lo("hit_p50_us", "us"),
    lo("miss_p50_us", "us"),
    lo("fail_ratio", "fraction"),
    // formats
    lo("formats.decode_ms", "ms"),
    hi("formats.decode_mb_s", "MiB/s"),
    // sciops kernels: serial, parallel, and computed bytes in + out.
    lo("sciops.segment_ms", "ms"),
    lo("sciops.segment_par_ms", "ms"),
    lo("sciops.segment_mb", "MiB"),
    lo("sciops.denoise_ms", "ms"),
    lo("sciops.denoise_par_ms", "ms"),
    lo("sciops.denoise_mb", "MiB"),
    lo("sciops.dtm_ms", "ms"),
    lo("sciops.dtm_par_ms", "ms"),
    lo("sciops.dtm_mb", "MiB"),
    lo("sciops.calibrate_ms", "ms"),
    lo("sciops.calibrate_par_ms", "ms"),
    lo("sciops.calibrate_mb", "MiB"),
    lo("sciops.patch_ms", "ms"),
    lo("sciops.patch_par_ms", "ms"),
    lo("sciops.patch_mb", "MiB"),
    lo("sciops.coadd_ms", "ms"),
    lo("sciops.coadd_par_ms", "ms"),
    lo("sciops.coadd_mb", "MiB"),
    lo("sciops.detect_ms", "ms"),
    lo("sciops.detect_par_ms", "ms"),
    lo("sciops.detect_mb", "MiB"),
    // parexec
    hi("parexec.speedup", "ratio"),
    lo("parexec.call_us", "us"),
    lo("parexec.pool.steals", "count"),
    lo("parexec.pool.imbalance", "ratio"),
    // marray chunkstore: deep copies per engine pass, and on serve hits.
    lo("marray.copies.spark", "count"),
    lo("marray.copies.myria", "count"),
    lo("marray.copies.dask", "count"),
    lo("marray.copies.tensorflow", "count"),
    lo("marray.copies.scidb", "count"),
    lo("marray.copies.serve_hit", "count"),
    lo("marray.copy_mb.spark", "MiB"),
    lo("marray.copy_mb.myria", "MiB"),
    lo("marray.copy_mb.dask", "MiB"),
    lo("marray.copy_mb.tensorflow", "MiB"),
    lo("marray.copy_mb.scidb", "MiB"),
    // marray codec: encode/decode calls per engine pass.
    lo("marray.codec.encodes.spark", "count"),
    lo("marray.codec.encodes.myria", "count"),
    lo("marray.codec.encodes.dask", "count"),
    lo("marray.codec.encodes.tensorflow", "count"),
    lo("marray.codec.encodes.scidb", "count"),
    lo("marray.codec.decodes.spark", "count"),
    lo("marray.codec.decodes.myria", "count"),
    lo("marray.codec.decodes.dask", "count"),
    lo("marray.codec.decodes.tensorflow", "count"),
    lo("marray.codec.decodes.scidb", "count"),
    hi("marray.codec.ratio", "ratio"),
    lo("marray.codec.decode_ms", "ms"),
    // marray spill tier (counted over the timed phase).
    lo("marray.spill.spills", "count"),
    lo("marray.spill.reloads", "count"),
    lo("marray.spill.spilled_mb", "MiB"),
    lo("marray.spill.reloaded_mb", "MiB"),
    lo("marray.spill.peak_resident_mb", "MiB"),
    hi("marray.spill.roundtrip_mb_s", "MiB/s"),
    // core ingest boundary
    lo("core.pack_ms", "ms"),
    // plancheck admission
    lo("plancheck.check_us", "us"),
    lo("plancheck.refused", "count"),
    // scimemo result cache (counted over the timed phase).
    lo("scimemo.probes", "count"),
    hi("scimemo.hits", "count"),
    lo("scimemo.misses", "count"),
    lo("scimemo.bypasses", "count"),
    lo("scimemo.evictions", "count"),
    lo("scimemo.evicted_mb", "MiB"),
    hi("scimemo.hit_ratio", "fraction"),
    lo("scimemo.probe_ns", "ns"),
    lo("scimemo.redundant_misses", "count"),
    // sciserve
    hi("serve.rps_1client", "1/s"),
    hi("serve.concurrency_gain", "ratio"),
    lo("serve.hit_self_us", "us"),
    lo("serve.resident_mb", "MiB"),
    // scilint
    lo("scilint.purity_s", "s"),
    // the recorder itself
    lo("trace.overhead", "fraction"),
    hi("trace.coverage", "fraction"),
];

/// Measured values by metric name. Only declared names may be set.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` for the declared metric `name`.
    ///
    /// # Panics
    /// When `name` is not declared: a bug in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.0.insert(m.name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The last line of the benchmark's output, and the end-to-end metrics
/// that were not measured (a run with any is not correct).
pub fn result_line(checks: &Checks, values: &Values, trace: bool) -> (String, Vec<&'static str>) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut body = Vec::with_capacity(table.len());
    for m in table {
        let v = match values.get(m.name) {
            Some(v) if v.is_finite() => v,
            _ if trace => 0.0,
            _ => {
                missing.push(m.name);
                0.0
            }
        };
        body.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = checks.failed() == 0 && missing.is_empty();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted().max(1),
        checks.failed(),
        body.join(", ")
    );
    (line, missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let doc = benchmark_json();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{section}`"))
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{section} entry lacks `{k}`"))
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(t: &[Metric]) -> Vec<(String, String, String)> {
        t.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_equal_the_declared_ones() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn names_units_and_directions_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(name_ok(m.name), "bad name `{}`", m.name);
            assert!(unit_ok(m.unit), "bad unit `{}` of `{}`", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_meets_its_shape_rules() {
        let doc = benchmark_json();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let mut largest = 0.0f64;
        let mut setup = 0.0;
        for m in doc.get("end_to_end").and_then(Json::as_array).expect("e2e") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
            largest = largest.max(bound);
            if m.get("name").and_then(Json::as_str) == Some("setup_s") {
                setup = bound;
            }
        }
        assert_eq!(setup, largest, "setup_s carries the largest bound");
        let secs = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn result_line_reports_every_metric_of_the_selected_table() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let mut v = Values::default();
        for m in END_TO_END {
            v.set(m.name, 1.5);
        }
        let (line, missing) = result_line(&checks, &v, false);
        assert!(missing.is_empty());
        let doc = json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        for m in END_TO_END {
            let e = metrics.get(m.name).expect("metric present");
            assert_eq!(e.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        // Per-layer metrics default to 0; a missing end-to-end metric
        // makes the run incorrect.
        let (line, _) = result_line(&checks, &Values::default(), true);
        assert!(json::parse(&line).is_some());
        let (line, missing) = result_line(&checks, &Values::default(), false);
        assert_eq!(missing.len(), END_TO_END.len());
        assert!(line.starts_with("{\"correct\": false"));
    }

    /// A minimal JSON reader for the tests (the workspace has no JSON
    /// dependency).
    mod json {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Json {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Arr(Vec<Json>),
            Obj(Vec<(String, Json)>),
        }

        impl Json {
            pub fn get(&self, key: &str) -> Option<&Json> {
                match self {
                    Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }
            pub fn as_array(&self) -> Option<&Vec<Json>> {
                match self {
                    Json::Arr(a) => Some(a),
                    _ => None,
                }
            }
            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Json::Str(s) => Some(s),
                    _ => None,
                }
            }
            pub fn as_f64(&self) -> Option<f64> {
                match self {
                    Json::Num(n) => Some(*n),
                    _ => None,
                }
            }
        }

        pub fn parse(s: &str) -> Option<Json> {
            let b = s.as_bytes();
            let mut i = 0;
            let v = value(b, &mut i)?;
            ws(b, &mut i);
            (i == b.len()).then_some(v)
        }

        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }

        fn lit(b: &[u8], i: &mut usize, word: &str, v: Json) -> Option<Json> {
            b[*i..].starts_with(word.as_bytes()).then(|| {
                *i += word.len();
                v
            })
        }

        fn value(b: &[u8], i: &mut usize) -> Option<Json> {
            ws(b, i);
            match *b.get(*i)? {
                b'n' => lit(b, i, "null", Json::Null),
                b't' => lit(b, i, "true", Json::Bool(true)),
                b'f' => lit(b, i, "false", Json::Bool(false)),
                b'"' => string(b, i).map(Json::Str),
                b'[' => {
                    *i += 1;
                    let mut out = Vec::new();
                    ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return Some(Json::Arr(out));
                    }
                    loop {
                        out.push(value(b, i)?);
                        ws(b, i);
                        match b.get(*i)? {
                            b',' => *i += 1,
                            b']' => {
                                *i += 1;
                                return Some(Json::Arr(out));
                            }
                            _ => return None,
                        }
                    }
                }
                b'{' => {
                    *i += 1;
                    let mut out = Vec::new();
                    ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Some(Json::Obj(out));
                    }
                    loop {
                        ws(b, i);
                        let k = string(b, i)?;
                        ws(b, i);
                        (b.get(*i)? == &b':').then_some(())?;
                        *i += 1;
                        out.push((k, value(b, i)?));
                        ws(b, i);
                        match b.get(*i)? {
                            b',' => *i += 1,
                            b'}' => {
                                *i += 1;
                                return Some(Json::Obj(out));
                            }
                            _ => return None,
                        }
                    }
                }
                _ => {
                    let start = *i;
                    while *i < b.len()
                        && (b[*i] == b'-'
                            || b[*i] == b'+'
                            || b[*i] == b'.'
                            || b[*i] == b'e'
                            || b[*i] == b'E'
                            || b[*i].is_ascii_digit())
                    {
                        *i += 1;
                    }
                    std::str::from_utf8(&b[start..*i])
                        .ok()?
                        .parse()
                        .ok()
                        .map(Json::Num)
                }
            }
        }

        fn string(b: &[u8], i: &mut usize) -> Option<String> {
            (b.get(*i)? == &b'"').then_some(())?;
            *i += 1;
            let mut out = String::new();
            loop {
                match *b.get(*i)? {
                    b'"' => {
                        *i += 1;
                        return Some(out);
                    }
                    b'\\' => {
                        *i += 1;
                        match *b.get(*i)? {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(b.get(*i + 1..*i + 5)?).ok()?;
                                out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                                *i += 4;
                            }
                            c => out.push(c as char),
                        }
                        *i += 1;
                    }
                    _ => {
                        let rest = std::str::from_utf8(&b[*i..]).ok()?;
                        let c = rest.chars().next()?;
                        out.push(c);
                        *i += c.len_utf8();
                    }
                }
            }
        }
    }
}
