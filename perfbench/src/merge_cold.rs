//! `merge_cold`: the batch merge of `modemerge merge --json --threads 2
//! --lint off`, driven through the same library calls, repeated cold
//! (every merge parses, binds and analyses from text).

use crate::gen::{expected_merged, suite_text, SuiteText};
use crate::metrics::{median, ms, peak_rss_mib, quantiles, tail, Metric, Outcome};
use crate::trace::Tracer;
use crate::{Config, LayerSet};
use modemerge_core::lint::attach_parse_findings;
use modemerge_core::merge::{MergeAllOutcome, MergeOptions, MergeReport, ModeInput};
use modemerge_core::report::outcome_to_json;
use modemerge_core::{greedy_cliques, MergeSession, SessionInputs, StageTimings};
use modemerge_netlist::{text, Library};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The bytes a merge hands back to its user.
#[derive(Debug, PartialEq, Eq)]
struct MergeBytes {
    json: String,
    sdcs: Vec<String>,
}

struct MergeRun {
    bytes: MergeBytes,
    merged_modes: usize,
    all_validated: bool,
    /// Per-merge stage breakdown (traced runs only).
    stages: StageSums,
}

#[derive(Debug, Default, Clone, Copy)]
struct StageSums {
    timings: StageTimings,
    group_sum_ms: f64,
    group_max_ms: f64,
    refine_iterations: u64,
}

/// Suites per run: each run merges several seeded designs in rounds, so
/// one design's structure does not set the run's numbers alone.
const SUITES: u64 = 3;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: u64 = 7;

pub fn run(cfg: &Config, tr: &Tracer) -> Outcome {
    let (cells, modes) = if cfg.smoke { (1_500, 8) } else { (20_000, 16) };
    let mut out = Outcome::default();

    // Set-up: input generation, repeated so its median is steady.
    let mut setup = Vec::new();
    let mut suites = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        suites = tr.span("workload.generate", 0, rep, |_| {
            (0..SUITES)
                .map(|k| suite_text(cells, modes, cfg.seed.wrapping_mul(SUITES).wrapping_add(k)))
                .collect::<Vec<SuiteText>>()
        });
        setup.push(t0.elapsed().as_secs_f64());
        black_box(&suites);
    }
    out.notes.push(format!(
        "suites: SuiteSpec::scale({cells}, {modes}, {}..{}), {} input bytes each",
        cfg.seed.wrapping_mul(SUITES),
        cfg.seed.wrapping_mul(SUITES).wrapping_add(SUITES - 1),
        suites[0].bytes()
    ));

    // Check (and warm-up): every suite merged on one thread. Those bytes
    // are the reference every timed two-thread merge must reproduce.
    let mut serial_ms = Vec::new();
    let mut reference = Vec::new();
    for suite in &suites {
        let t0 = Instant::now();
        let serial = merge_once(suite, 1, &Tracer::new(false), 0);
        serial_ms.push(ms(t0.elapsed()));
        match serial {
            Ok(r) => {
                check_shape(&r, modes, "1-thread merge", &mut out);
                reference.push(r.bytes);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("1-thread merge failed: {e}"));
                return out;
            }
        }
    }

    // The window runs whole rounds (every suite once per round).
    let mut lat = Vec::new();
    let mut stages = Vec::new();
    let window = Instant::now();
    let mut op = 1;
    while op == 1 || window.elapsed() < Duration::from_secs_f64(cfg.seconds) {
        for (suite, reference) in suites.iter().zip(&reference) {
            out.attempted += 1;
            let t0 = Instant::now();
            let run = merge_once(suite, 2, tr, op);
            let dt = ms(t0.elapsed());
            op += 1;
            match run {
                Ok(r) => {
                    let before = out.problems.len();
                    check_shape(&r, modes, "2-thread merge", &mut out);
                    if r.bytes != *reference {
                        out.problem(
                            "2-thread merged SDC / JSON bytes differ from the 1-thread merge",
                        );
                    }
                    if out.problems.len() > before {
                        out.failed += 1;
                    }
                    lat.push(dt);
                    stages.push(r.stages);
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("merge failed: {e}"));
                }
            }
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    out.notes.push(format!("set-up s: {setup:.3?}"));
    out.notes.push(format!("merge ms: {}", quantiles(&lat)));
    out.notes
        .push(format!("serial merge ms: {}", quantiles(&serial_ms)));
    out.notes.push(format!(
        "checks: {} merges, each {} merged modes, all validated, bytes equal to the 1-thread merge",
        lat.len(),
        expected_merged(modes)
    ));

    let setup_s = median(&setup);
    let p50 = median(&lat);
    let serial = median(&serial_ms);
    let t = tail(&lat);
    let rss = peak_rss_mib();
    let n = lat.len();
    out.e2e = vec![
        Metric::new("setup_s", setup_s, "s", setup.len()),
        Metric::new("op_ms", p50, "ms", n),
        Metric::new("op2_ms", serial, "ms", serial_ms.len()),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ];
    out.named = vec![
        Metric::new(
            "failed_frac",
            out.failed as f64 / out.attempted as f64,
            "ratio",
            out.attempted as usize,
        ),
        Metric::new("merge_s", p50 / 1e3, "s", n),
        Metric::new("merge_tail_s", t.value / 1e3, "s", n).note(t.label(n)),
        Metric::new("merges_per_s", n as f64 / elapsed, "1/s", n),
        Metric::new("serial_merge_s", serial / 1e3, "s", serial_ms.len()),
    ];
    if tr.enabled() {
        out.layers = layers(tr, &stages);
    }
    out
}

fn check_shape(r: &MergeRun, modes: usize, what: &str, out: &mut Outcome) {
    let want = expected_merged(modes);
    if r.merged_modes != want {
        out.problem(format!(
            "{what}: {} merged modes, expected {want}",
            r.merged_modes
        ));
    }
    if !r.all_validated {
        out.problem(format!("{what}: a merge report is not validated"));
    }
}

/// One cold merge, text in to merged SDC text and JSON report bytes
/// out. Untraced, the merge runs through `MergeSession::merge_all`
/// exactly as the CLI calls it; traced, the same steps are issued one
/// public call at a time so each gets its own span.
fn merge_once(suite: &SuiteText, threads: usize, tr: &Tracer, op: u64) -> Result<MergeRun, String> {
    let options = MergeOptions {
        threads,
        ..MergeOptions::default()
    };
    tr.span("merge", 0, op, |root| {
        let netlist = tr
            .span("netlist.parse", root, op, |_| {
                text::parse(&suite.netlist, Library::standard())
            })
            .map_err(|e| e.to_string())?;
        let inputs: Vec<ModeInput> = tr.span("sdc.parse", root, op, |_| {
            suite
                .modes
                .iter()
                .map(|(name, sdc)| ModeInput::parse_lossy(name.clone(), sdc))
                .collect()
        });
        let bound = tr
            .span("sta.bind", root, op, |_| {
                SessionInputs::bind(&netlist, &inputs)
            })
            .map_err(|e| e.to_string())?;
        let session = MergeSession::new(&netlist, &bound, &options);
        tr.span("sta.analysis", root, op, |_| session.warm_up());
        let mut stages = StageSums::default();
        let mut outcome = if tr.enabled() {
            merge_all_spanned(&session, tr, root, op, &mut stages)
        } else {
            session.merge_all().map_err(|e| e.to_string())?
        };
        let bytes = tr.span("core.report", root, op, |_| {
            attach_parse_findings(&inputs, &mut outcome.reports);
            MergeBytes {
                json: outcome_to_json(&outcome, inputs.len()).to_string(),
                sdcs: outcome.merged.iter().map(|m| m.sdc.to_text()).collect(),
            }
        });
        stages.refine_iterations = outcome
            .reports
            .iter()
            .map(|r| r.refine_iterations as u64)
            .sum();
        let run = MergeRun {
            merged_modes: outcome.merged.len(),
            all_validated: outcome.reports.iter().all(|r| r.validated),
            bytes,
            stages,
        };
        let t0 = Instant::now();
        drop(outcome);
        drop(session);
        drop(bound);
        drop(inputs);
        drop(netlist);
        tr.record("merge.teardown", root, op, t0, Instant::now());
        Ok(run)
    })
}

/// `MergeSession::merge_all` issued step by step through its public
/// parts (mergeability, greedy cliques, one `merge_indices` per
/// clique, the same fall-back to individual modes), with a span and a
/// `stage_timings()` delta around each step.
fn merge_all_spanned(
    session: &MergeSession<'_>,
    tr: &Tracer,
    root: u64,
    op: u64,
    sums: &mut StageSums,
) -> MergeAllOutcome {
    let groups = tr.span("core.mergeability", root, op, |_| {
        greedy_cliques(&session.mergeability())
    });
    let mut merged = Vec::new();
    let mut reports = Vec::new();
    for group in &groups {
        let before = session.stage_timings();
        let t0 = Instant::now();
        let result = tr.span("core.merge_group", root, op, |_| {
            session.merge_indices(group)
        });
        let group_ms = ms(t0.elapsed());
        sums.group_sum_ms += group_ms;
        sums.group_max_ms = sums.group_max_ms.max(group_ms);
        let after = session.stage_timings();
        sums.timings.accumulate(&delta(&after, &before));
        match result {
            Ok(outcome) => {
                merged.push(outcome.merged);
                reports.push(outcome.report);
            }
            Err(_) => {
                for &i in group {
                    let input = session.input(i).clone();
                    reports.push(MergeReport {
                        mode_names: vec![input.name.clone()],
                        validated: true,
                        ..Default::default()
                    });
                    merged.push(input);
                }
            }
        }
    }
    MergeAllOutcome {
        merged,
        groups,
        reports,
    }
}

fn delta(a: &StageTimings, b: &StageTimings) -> StageTimings {
    StageTimings {
        analysis_ns: a.analysis_ns - b.analysis_ns,
        mergeability_ns: a.mergeability_ns - b.mergeability_ns,
        preliminary_ns: a.preliminary_ns - b.preliminary_ns,
        refine_ns: a.refine_ns - b.refine_ns,
        validate_ns: a.validate_ns - b.validate_ns,
        pass1_ns: a.pass1_ns - b.pass1_ns,
        pass2_ns: a.pass2_ns - b.pass2_ns,
        pass3_ns: a.pass3_ns - b.pass3_ns,
        propagations: a.propagations - b.propagations,
        propagation_cache_hits: a.propagation_cache_hits - b.propagation_cache_hits,
        memo_evictions: a.memo_evictions - b.memo_evictions,
    }
}

fn layers(tr: &Tracer, stages: &[StageSums]) -> Vec<Metric> {
    let stats = tr.stats();
    let mut set = LayerSet::default();
    for (span, metric) in [
        ("workload.generate", "workload.generate_ms"),
        ("netlist.parse", "netlist.parse_ms"),
        ("sdc.parse", "sdc.parse_ms"),
        ("sta.bind", "sta.bind_ms"),
        ("sta.analysis", "sta.analysis_ms"),
        ("core.mergeability", "core.mergeability_ms"),
        ("core.report", "core.report_ms"),
    ] {
        set.span(metric, stats.get(span));
    }
    let per = |f: &dyn Fn(&StageSums) -> f64| stages.iter().map(f).collect::<Vec<f64>>();
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    // Several groups per merge: the per-merge sum, and the slowest one.
    let group_self = stats.get("core.merge_group").map(|g| g.self_ms);
    set.samples("core.merge_group_ms", &per(&|s| s.group_sum_ms), group_self);
    set.samples("core.merge_group_max_ms", &per(&|s| s.group_max_ms), None);
    set.samples(
        "core.preliminary_ms",
        &per(&|s| ns_ms(s.timings.preliminary_ns)),
        None,
    );
    set.samples(
        "core.refine_ms",
        &per(&|s| ns_ms(s.timings.refine_ns)),
        None,
    );
    let three = |s: &StageSums| ns_ms(s.timings.pass1_ns + s.timings.pass2_ns + s.timings.pass3_ns);
    set.samples("core.three_pass_ms", &per(&three), None);
    set.samples(
        "core.refine_other_ms",
        &per(&|s| ns_ms(s.timings.refine_ns) - three(s)),
        None,
    );
    set.samples(
        "core.validate_ms",
        &per(&|s| ns_ms(s.timings.validate_ns)),
        None,
    );
    set.samples(
        "core.refine_iterations",
        &per(&|s| s.refine_iterations as f64),
        None,
    );
    set.samples(
        "sta.propagations",
        &per(&|s| s.timings.propagations as f64),
        None,
    );
    set.samples(
        "sta.propagation_hit_ratio",
        &per(&|s| {
            let t = &s.timings;
            crate::metrics::ratio(
                t.propagation_cache_hits as f64,
                (t.propagation_cache_hits + t.propagations) as f64,
            )
        }),
        None,
    );
    set.samples(
        "sta.memo_evictions",
        &per(&|s| s.timings.memo_evictions as f64),
        None,
    );
    if let Some(m) = stats.get("merge") {
        let roots = m.durations_ms.len().max(1) as f64;
        set.value(
            "merge.unattributed_ms",
            m.self_ms / roots,
            m.durations_ms.len(),
            "mean self time per merge",
        );
    }
    set.into_metrics()
}
