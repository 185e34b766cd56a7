//! The result line the benchmark prints, and the fuller result file it
//! writes next to itself.

use crate::search::Probe;
use crate::stats::{self, Latencies};
use crate::trace::{self, Span};
use crate::workload::Spec;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Named metrics in print order, plus file-only notes.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.push((name.to_string(), value, unit));
    }

    /// A number recorded in the result file only.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), num(value)));
    }

    pub fn note_list(&mut self, name: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
        self.notes.push((name.to_string(), format!("[{}]", items.join(", "))));
    }

    /// The p50, p95 and p99 over all of an op's samples, in the result
    /// file, each only when at least ten samples lie beyond it; the
    /// sample count goes with them.
    pub fn latency(&mut self, op: &str, l: &mut Latencies) {
        let n = l.len();
        self.note(&format!("{op}_samples"), n as f64);
        for (q, tag) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let name = format!("{op}_{tag}_ms_all");
            match l.pct_ms(q) {
                Some(v) if stats::reportable(n, q) => self.note(&name, v),
                _ => self.note(&format!("{name}_omitted_for_samples"), n as f64),
            }
        }
    }

    /// Prints every metric and note, one per line, for a human reader.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.values {
            eprintln!("  {name:<40} {value:>14.4} {unit}");
        }
        for (name, value) in &self.notes {
            eprintln!("  {name:<40} {value:>14}");
        }
    }
}

/// JSON number: finite values as Rust prints them (shortest exact
/// form), anything else as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Everything one run produced.
pub struct ResultFile {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub rate: f64,
    pub metrics: Metrics,
    pub probes: Vec<Probe>,
    pub spans: Vec<Span>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl ResultFile {
    pub fn new(spec: &Spec, seed: u64, trace: bool) -> ResultFile {
        ResultFile {
            workload: spec.name,
            seed,
            trace,
            rate: spec.rate,
            metrics: Metrics::default(),
            probes: Vec::new(),
            spans: Vec::new(),
            correct: false,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn finish(&mut self, attempted: u64, failed: u64, correct: bool) {
        self.attempted = attempted.max(1);
        self.failed = failed;
        self.correct = correct;
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The one-line result the benchmark prints last.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn file_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"trace\": {},", u8::from(self.trace));
        let _ = writeln!(s, "  \"nproc\": {nproc},");
        let _ = writeln!(s, "  \"wedge_pool_threads\": {},", wedge_pool::threads_from_env());
        let _ = writeln!(s, "  \"offered_rate_ops_s\": {},", num(self.rate));
        let _ = writeln!(s, "  \"correct\": {},", self.correct);
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics_json());
        let notes: Vec<String> =
            self.metrics.notes.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
        let _ = writeln!(s, "  \"notes\": {{{}}},", notes.join(", "));
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|p| {
                format!(
                    "{{\"offered\": {}, \"achieved\": {}, \"put_p99_ms\": {}, \"get_p99_ms\": {}, \
                     \"put_samples\": {}, \"get_samples\": {}, \"failed\": {}, \"passed\": {}}}",
                    num(p.offered),
                    num(p.achieved),
                    p.put_p99_ms.map_or("null".into(), num),
                    p.get_p99_ms.map_or("null".into(), num),
                    p.samples.0,
                    p.samples.1,
                    p.failed,
                    p.passes()
                )
            })
            .collect();
        let _ = writeln!(s, "  \"rate_probes\": [{}],", probes.join(", "));
        let layers: Vec<String> = trace::totals(&self.spans)
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        let _ = writeln!(s, "  \"span_totals\": {{{}}}", layers.join(", "));
        s.push_str("}\n");
        s
    }

    /// Writes `out/<workload>-s<seed>-t<trace>.json` (and the spans as
    /// `.spans.tsv` for a traced run) in the benchmark's directory.
    pub fn write(&self) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-s{}-t{}", self.workload, self.seed, u8::from(self.trace));
        let path = dir.join(format!("{stem}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.file_json()))
            .and_then(|()| {
                if self.spans.is_empty() {
                    Ok(())
                } else {
                    trace::write_tsv(&dir.join(format!("{stem}.spans.tsv")), &self.spans)
                }
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        path
    }
}
