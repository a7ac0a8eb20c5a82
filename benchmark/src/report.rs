//! What a run prints and records: provenance, the metrics the last stdout
//! line carries, the same figures under their per-workload names, and
//! correctness failures (a run with any failure prints the failures, no
//! numbers).

use crate::Args;
use std::fmt::Write as _;

/// Where and how the numbers were taken.
#[derive(Debug, Default)]
pub struct Provenance {
    pub nproc: usize,
    /// Kernel-pool size in effect in this process (the pool reads it once).
    pub kernel_pool: usize,
    pub rev: String,
    pub seed: u64,
    pub profile: &'static str,
    /// Per workload: busy-thread split, ranks, workers, child pool size.
    pub threads: Vec<(String, String)>,
}

impl Provenance {
    pub fn new(args: &Args) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_pool: rayon::current_num_threads(),
            rev: args.rev.clone(),
            seed: args.seed,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            threads: Vec::new(),
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub provenance: Provenance,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Figures under their per-workload names (`epoch_s`,
    /// `reco_batch_p50_ms`, ...), for the human table and the record file.
    pub named: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub failures: Vec<String>,
    /// Raw JSON sections for the record file (series, per-phase counts).
    pub sections: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn section(&mut self, name: &str, json: String) {
        self.sections.push((name.to_string(), json));
    }

    /// Print the human-readable record and the final JSON line; write the
    /// record file. Returns whether every check passed.
    pub fn emit(mut self, args: &Args) -> bool {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.failures
                    .push(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
        let p = &self.provenance;
        println!(
            "# trkx-perf workload={} trace={} seed={} seconds={} rev={} profile={} nproc={} kernel_pool={}",
            args.workload,
            u8::from(args.trace),
            p.seed,
            args.seconds,
            p.rev,
            p.profile,
            p.nproc,
            p.kernel_pool
        );
        for (w, split) in &p.threads {
            println!("# threads {w}: {split}");
        }
        let ok = self.failures.is_empty();
        if ok {
            for (name, value, unit) in &self.named {
                println!("{name:<34} {value:>14.4} {unit}");
            }
            for n in &self.notes {
                println!("# note: {n}");
            }
        } else {
            for f in &self.failures {
                println!("CHECK FAILED: {f}");
            }
        }
        let record = self.record_json(args, ok);
        let path = args.out.join(format!(
            "record-{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::write(&path, record) {
            eprintln!("trkx-perf: could not write {path:?}: {e}");
        }
        let metrics = if ok {
            self.metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            String::new()
        };
        println!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        ok
    }

    fn record_json(&self, args: &Args, ok: bool) -> String {
        let p = &self.provenance;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{:?},\"trace\":{},\"seed\":{},\"seconds\":{},\"rev\":{:?},\"profile\":{:?},\
             \"nproc\":{},\"kernel_pool\":{},\"correct\":{ok},\"attempted\":{},\"failed\":{}",
            args.workload,
            args.trace,
            p.seed,
            args.seconds,
            p.rev,
            p.profile,
            p.nproc,
            p.kernel_pool,
            self.attempted,
            self.failed
        );
        let _ = write!(s, ",\"threads\":{{");
        for (i, (w, split)) in p.threads.iter().enumerate() {
            let _ = write!(s, "{}{w:?}:{split:?}", if i > 0 { "," } else { "" });
        }
        s.push('}');
        let finite = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        };
        let _ = write!(s, ",\"metrics\":{{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{:?}:{{\"value\":{},\"unit\":{:?}}}",
                if i > 0 { "," } else { "" },
                m.name,
                finite(m.value),
                m.unit
            );
        }
        let _ = write!(s, "}},\"named\":{{");
        for (i, (n, v, u)) in self.named.iter().enumerate() {
            let _ = write!(
                s,
                "{}{n:?}:{{\"value\":{},\"unit\":{u:?}}}",
                if i > 0 { "," } else { "" },
                finite(*v)
            );
        }
        let _ = write!(
            s,
            "}},\"notes\":{:?},\"failures\":{:?}",
            self.notes, self.failures
        );
        for (name, json) in &self.sections {
            let _ = write!(s, ",{name:?}:{json}");
        }
        s.push('}');
        s
    }
}
