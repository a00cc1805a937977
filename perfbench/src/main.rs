//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload merge_cold|service_fleet|lsp_edit --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up, measures for
//! `--seconds`, checks every output against a reference that does not
//! go through the layer under test, and prints a human-readable report
//! followed by one JSON line: the `end_to_end` metrics of
//! `BENCHMARK.json` with `--trace 0`, its `per_layer` metrics with
//! `--trace 1`. A traced run also writes its spans as a Chrome
//! trace-event file under `.bench_out/`.

mod gen;
mod layers;
mod lsp_edit;
mod merge_cold;
mod metrics;
mod service_fleet;
mod trace;

use metrics::{median, Metric, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{json_str, SpanStats, Tracer};

/// A seed never used while the benchmark or a change was tuned: claims
/// are re-checked on it.
pub const HELD_OUT_SEED: u64 = 9_104_729;

pub const WORKLOADS: &[&str] = &["merge_cold", "service_fleet", "lsp_edit"];

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single pass: the benchmark's own tests.
    pub smoke: bool,
    pub trace_dir: PathBuf,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            trace_dir: PathBuf::from(".bench_out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                cfg.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => cfg.workload.clone_from(value),
                "--seed" => cfg.seed = value.parse().map_err(|_| format!("--seed: `{value}`"))?,
                "--seconds" => {
                    cfg.seconds = value.parse().map_err(|_| format!("--seconds: `{value}`"))?;
                }
                "--trace" => cfg.trace = value == "1",
                "--trace-dir" => cfg.trace_dir = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got `{}`",
                WORKLOADS.join("|"),
                cfg.workload
            ));
        }
        Ok(cfg)
    }
}

/// Per-layer metrics of one traced run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct LayerSet(BTreeMap<&'static str, Metric>);

impl LayerSet {
    /// A span-measured layer: median span duration, summed self time.
    pub fn span(&mut self, name: &'static str, stats: Option<&SpanStats>) {
        if let Some(s) = stats {
            self.samples(name, &s.durations_ms, Some(s.self_ms));
        }
    }

    /// The median of per-operation samples.
    pub fn samples(&mut self, name: &'static str, values: &[f64], self_ms: Option<f64>) {
        if values.is_empty() {
            return;
        }
        let note = match self_ms {
            Some(s) => format!("median of {}; self {s:.3} ms total", values.len()),
            None => format!("median of {}", values.len()),
        };
        self.value(name, median(values), values.len(), &note);
    }

    pub fn value(&mut self, name: &'static str, value: f64, samples: usize, note: &str) {
        let unit = layers::layer_unit(name);
        self.0
            .insert(name, Metric::new(name, value, unit, samples).note(note));
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0.into_values().collect()
    }
}

fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn provenance(cfg: &Config) -> Vec<(&'static str, String)> {
    vec![
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("profile", env!("PERFBENCH_PROFILE").to_owned()),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("git_rev", git_rev()),
    ]
}

fn print_metric(kind: &str, m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("; {}", m.note)
    };
    println!(
        "{kind} {} = {} {} (n={}{note})",
        m.name, m.value, m.unit, m.samples
    );
}

fn run_workload(cfg: &Config, tr: &Tracer) -> Outcome {
    match cfg.workload.as_str() {
        "merge_cold" => merge_cold::run(cfg, tr),
        "service_fleet" => service_fleet::run(cfg, tr),
        "lsp_edit" => lsp_edit::run(cfg, tr),
        _ => unreachable!("validated in Config::parse"),
    }
}

/// The metrics object of the result line, or the reason it cannot be
/// produced.
fn result_metrics(cfg: &Config, out: &Outcome) -> Result<Vec<Metric>, String> {
    if cfg.trace {
        let by_name: BTreeMap<&str, &Metric> =
            out.layers.iter().map(|m| (m.name.as_str(), m)).collect();
        Ok(layers::LAYERS
            .iter()
            .map(|l| match by_name.get(l.name) {
                Some(m) => (*m).clone(),
                // A layer this workload does not exercise did no work.
                None => {
                    Metric::new(l.name, 0.0, l.unit, 0).note("layer not exercised by this workload")
                }
            })
            .collect())
    } else {
        for e in layers::E2E {
            if !out.e2e.iter().any(|m| m.name == e.name && m.unit == e.unit) {
                return Err(format!("end-to-end metric {} missing", e.name));
            }
        }
        Ok(out.e2e.clone())
    }
}

fn result_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    )
}

/// The metric catalogue as JSON: every end-to-end metric with its
/// meaning per workload, every per-layer metric with how it is measured
/// and the end-to-end metric it should move.
fn describe() -> String {
    let e2e: Vec<String> = layers::E2E
        .iter()
        .map(|e| {
            let meaning: Vec<String> = WORKLOADS
                .iter()
                .zip(e.meaning)
                .map(|(w, m)| format!("{}:{}", json_str(w), json_str(m)))
                .collect();
            format!(
                "{{\"name\":{},\"unit\":{},\"better\":{},\"meaning\":{{{}}}}}",
                json_str(e.name),
                json_str(e.unit),
                json_str(e.better),
                meaning.join(",")
            )
        })
        .collect();
    let per_layer: Vec<String> = layers::LAYERS
        .iter()
        .map(|l| {
            format!(
                "{{\"name\":{},\"unit\":{},\"better\":{},\"how\":{},\"moves\":{}}}",
                json_str(l.name),
                json_str(l.unit),
                json_str(l.better),
                json_str(l.how),
                json_str(l.moves)
            )
        })
        .collect();
    format!(
        "{{\"end_to_end\":[\n{}\n],\"per_layer\":[\n{}\n]}}",
        e2e.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&cfg);
    println!(
        "# {}",
        prov.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let tr = Tracer::new(cfg.trace);
    let out = run_workload(&cfg, &tr);
    for note in &out.notes {
        println!("note {note}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    for p in &out.problems {
        println!("CHECK FAILED {p}");
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let mut metrics = Vec::new();
    if correct {
        let idx = WORKLOADS
            .iter()
            .position(|w| *w == cfg.workload)
            .unwrap_or(0);
        for m in &out.e2e {
            let mut m = m.clone();
            if let Some(e) = layers::E2E.iter().find(|e| e.name == m.name) {
                if m.note.is_empty() {
                    m.note = e.meaning[idx].to_owned();
                }
            }
            print_metric(if cfg.trace { "traced-e2e" } else { "e2e" }, &m);
        }
        for m in &out.named {
            print_metric(if cfg.trace { "traced-metric" } else { "metric" }, m);
        }
        match result_metrics(&cfg, &out) {
            Ok(m) => metrics = m,
            Err(e) => {
                println!("CHECK FAILED {e}");
                println!("{}", result_line(false, &out, &[]));
                return ExitCode::FAILURE;
            }
        }
        if cfg.trace {
            for m in &metrics {
                print_metric("layer", m);
            }
            let file = cfg
                .trace_dir
                .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
            let written = std::fs::create_dir_all(&cfg.trace_dir)
                .and_then(|()| std::fs::write(&file, tr.chrome_json(&prov)));
            match written {
                Ok(()) => println!("trace {} ({} spans)", file.display(), tr.spans().len()),
                Err(e) => {
                    println!("CHECK FAILED cannot write {}: {e}", file.display());
                    println!("{}", result_line(false, &out, &[]));
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{}", result_line(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
