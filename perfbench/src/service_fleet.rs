//! `service_fleet`: a loopback `Server` with two workers, three
//! registered suites, and a closed loop of two client connections with
//! zero think time sending hash-referenced reads and register-then-merge
//! edits.

use crate::gen::{suite_text, value_lines, with_scaled_value, Rng, SuiteText};
use crate::metrics::{
    median, ms, peak_rss_mib, percentile, quantiles, ratio, reset_peak_rss, tail, Metric, Outcome,
};
use crate::trace::Tracer;
use crate::{Config, LayerSet};
use modemerge_core::json::Json;
use modemerge_core::lint::{attach_parse_findings, lint_modes};
use modemerge_core::merge::{MergeOptions, ModeInput};
use modemerge_core::report::{outcome_to_json, plan_to_json};
use modemerge_core::{greedy_cliques, MergeSession, SessionInputs};
use modemerge_netlist::{text, Library};
use modemerge_service::proto::{register_request, simple_request, suite_request};
use modemerge_service::server::{Server, ServiceConfig};
use modemerge_service::{Client, JobSpec, NetlistFormat, Request};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SUITES: usize = 3;
/// Closed-loop client connections. Each waits for its reply, so at most
/// two jobs are in flight, one per worker, on the two-processor hosts
/// the benchmark targets.
const CLIENTS: usize = 2;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: u64 = 3;
const KINDS: [&str; 3] = ["merge", "plan", "lint"];

/// The closed loop's request mix: each client alternates these two
/// cycles, each shuffled, so every five requests hold one edit and four
/// reads. Merges are most of the reads so the read median sits inside
/// one result size class; short cycles keep the mix of a fixed-length
/// window close to the nominal one.
const CYCLES: [[Step; 5]; 2] = [
    [
        Step::Read(0),
        Step::Read(0),
        Step::Read(0),
        Step::Read(1),
        Step::Edit,
    ],
    [
        Step::Read(0),
        Step::Read(0),
        Step::Read(0),
        Step::Read(2),
        Step::Edit,
    ],
];

#[derive(Debug, Clone, Copy)]
enum Step {
    Read(usize),
    Edit,
}

/// A running daemon and the thread serving it.
struct Daemon {
    addr: std::net::SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> std::io::Result<Daemon> {
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// Drains and stops the daemon, waiting for its accept loop.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let reply = c
            .request_raw(&simple_request("shutdown"))
            .map_err(|e| e.to_string())?;
        drop(c);
        match self.thread.join() {
            Ok(Ok(())) if reply.starts_with("{\"ok\":true") => Ok(()),
            Ok(Ok(())) => Err(format!("shutdown refused: {reply}")),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// A registered suite: its texts and the hash the daemon returned.
struct Registered {
    suite: SuiteText,
    hash: String,
}

/// Everything one set-up produced.
struct Setup {
    daemon: Daemon,
    suites: Vec<Registered>,
    /// `(suite, kind, result bytes)` of the first-touch replies.
    touched: Vec<(usize, usize, String)>,
}

fn options() -> MergeOptions {
    MergeOptions::default()
}

fn setup(cfg: &Config, cells: usize, modes: usize, tr: &Tracer, rep: u64) -> Result<Setup, String> {
    let texts: Vec<SuiteText> = tr.span("workload.generate", 0, rep, |_| {
        (0..SUITES as u64)
            .map(|k| {
                suite_text(
                    cells,
                    modes,
                    cfg.seed.wrapping_mul(SUITES as u64).wrapping_add(k),
                )
            })
            .collect()
    });
    let daemon = Daemon::start().map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let mut suites = Vec::new();
    for suite in texts {
        let line = register_request(&spec(&suite.netlist, suite.modes.clone()));
        let reply = client.request_raw(&line).map_err(|e| e.to_string())?;
        let hash =
            suite_hash(&reply).ok_or_else(|| format!("register refused: {}", head(&reply)))?;
        suites.push(Registered { suite, hash });
    }
    let mut touched = Vec::new();
    for (s, reg) in suites.iter().enumerate() {
        for (k, kind) in KINDS.iter().enumerate() {
            let reply = client
                .request_raw(&suite_request(kind, &reg.hash, &options()))
                .map_err(|e| e.to_string())?;
            let result =
                result_bytes(&reply).ok_or_else(|| format!("first {kind}: {}", head(&reply)))?;
            touched.push((s, k, result.to_owned()));
        }
    }
    Ok(Setup {
        daemon,
        suites,
        touched,
    })
}

fn spec(netlist: &str, modes: Vec<(String, String)>) -> JobSpec {
    JobSpec {
        netlist: netlist.to_owned(),
        format: NetlistFormat::Text,
        modes,
        options: options(),
    }
}

/// The `suite` hash of an ok `register` reply (string search, no parse).
fn suite_hash(reply: &str) -> Option<String> {
    if !reply.starts_with("{\"ok\":true") {
        return None;
    }
    let at = reply.find("\"suite\":\"")? + 9;
    reply.get(at..at + 16).map(str::to_owned)
}

/// The raw `result` bytes of an ok compute reply. Untagged replies end
/// with the result object, so this is a linear search, not a parse.
fn result_bytes(reply: &str) -> Option<&str> {
    if !reply.starts_with("{\"ok\":true") || !reply.ends_with('}') {
        return None;
    }
    let at = reply.find("\"result\":")? + 9;
    Some(&reply[at..reply.len() - 1])
}

fn head(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// The reference bytes of one job, computed in process straight from
/// the core library (untimed: it is the check, not the workload).
fn reference(suite: &SuiteText, kind: &str) -> Result<String, String> {
    let netlist = text::parse(&suite.netlist, Library::standard()).map_err(|e| e.to_string())?;
    let inputs: Vec<ModeInput> = suite
        .modes
        .iter()
        .map(|(n, s)| ModeInput::parse_lossy(n.clone(), s))
        .collect();
    if kind == "lint" {
        let report = lint_modes(&netlist, &inputs, 1).map_err(|e| e.to_string())?;
        return Ok(report.to_json().to_string());
    }
    let bound = SessionInputs::bind(&netlist, &inputs).map_err(|e| e.to_string())?;
    let session = MergeSession::new(&netlist, &bound, &options());
    if kind == "plan" {
        let graph = session.mergeability();
        let cliques = greedy_cliques(&graph);
        return Ok(plan_to_json(&bound.mode_names(), &graph, &cliques).to_string());
    }
    session.warm_up();
    let mut outcome = session.merge_all().map_err(|e| e.to_string())?;
    attach_parse_findings(bound.inputs(), &mut outcome.reports);
    Ok(outcome_to_json(&outcome, inputs.len()).to_string())
}

/// One completed closed-loop operation.
struct Op {
    /// `(suite, kind)` of a read; `None` for an edit.
    read: Option<(usize, usize)>,
    ms: f64,
    register_ms: f64,
    request_bytes: usize,
    reply_bytes: usize,
    failed: Option<String>,
    /// Request lines sent (shared for repeated reads).
    lines: Vec<Arc<String>>,
    /// Result bytes received, for edits (reads are checked inline).
    edit: Option<Edit>,
}

struct Edit {
    suite: usize,
    modes: Vec<(String, String)>,
    result: String,
}

/// What every client of the closed loop shares.
struct Fleet<'a> {
    addr: std::net::SocketAddr,
    suites: &'a [Registered],
    /// Reference result bytes, by suite and kind.
    refs: &'a [Vec<String>],
    /// The hash-referenced read request lines, by suite and kind.
    read_lines: &'a [Vec<Arc<String>>],
}

fn client_loop(
    fleet: &Fleet<'_>,
    id: usize,
    cfg: &Config,
    deadline: Instant,
    tr: &Tracer,
) -> Result<Vec<Op>, String> {
    let Fleet {
        addr,
        suites,
        refs,
        read_lines,
    } = *fleet;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(cfg.seed.wrapping_mul(31).wrapping_add(id as u64));
    let sign = if id == 0 { 1.0 } else { -1.0 };
    let mut ops = Vec::new();
    let mut edits = 0u32;
    let mut cycles = 0;
    let mut deck = CYCLES[0];
    let mut pos = deck.len();
    while Instant::now() < deadline || (cfg.smoke && ops.len() < 2 * deck.len()) {
        if pos == deck.len() {
            deck = CYCLES[cycles % CYCLES.len()];
            cycles += 1;
            rng.shuffle(&mut deck);
            pos = 0;
        }
        let step = deck[pos];
        pos += 1;
        let s = rng.below(suites.len());
        let op_id = ((id as u64) << 32) | ops.len() as u64;
        match step {
            Step::Read(k) => {
                let line = Arc::clone(&read_lines[s][k]);
                let t0 = Instant::now();
                let reply = tr.span("svc.read", 0, op_id, |_| {
                    client.send(&line).and_then(|()| client.recv_raw())
                });
                let dt = ms(t0.elapsed());
                let reply = reply.map_err(|e| e.to_string())?;
                let failed = match result_bytes(&reply) {
                    None => Some(format!("{} read refused: {}", KINDS[k], head(&reply))),
                    Some(r) if r != refs[s][k] => Some(format!(
                        "{} result for suite {s} differs from the in-process run",
                        KINDS[k]
                    )),
                    Some(_) => None,
                };
                ops.push(Op {
                    read: Some((s, k)),
                    ms: dt,
                    register_ms: 0.0,
                    request_bytes: line.len() + 1,
                    reply_bytes: reply.len() + 1,
                    failed,
                    lines: vec![line],
                    edit: None,
                });
            }
            Step::Edit => {
                // One constraint value changed in one mode; the change
                // grows with every edit so each variant is new content.
                edits += 1;
                let base = &suites[s].suite;
                let m = rng.below(base.modes.len());
                let candidates = value_lines(&base.modes[m].1);
                let line_idx = candidates[rng.below(candidates.len())];
                let mut modes = base.modes.clone();
                modes[m].1 =
                    with_scaled_value(&modes[m].1, line_idx, sign * f64::from(edits) * 2e-4);
                let register = Arc::new(register_request(&spec(&base.netlist, modes.clone())));
                let t0 = Instant::now();
                let (reg_reply, reg_ms, merge_line, reply) =
                    tr.span("svc.edit", 0, op_id, |root| {
                        let r0 = Instant::now();
                        let reg_reply = tr.span("service.register", root, op_id, |_| {
                            client.send(&register).and_then(|()| client.recv_raw())
                        });
                        let reg_ms = ms(r0.elapsed());
                        let Ok(reg_reply) = reg_reply else {
                            return (reg_reply, reg_ms, None, Ok(String::new()));
                        };
                        let Some(hash) = suite_hash(&reg_reply) else {
                            return (Ok(reg_reply), reg_ms, None, Ok(String::new()));
                        };
                        let merge_line = Arc::new(suite_request("merge", &hash, &options()));
                        let reply = tr.span("service.merge", root, op_id, |_| {
                            client.send(&merge_line).and_then(|()| client.recv_raw())
                        });
                        (Ok(reg_reply), reg_ms, Some(merge_line), reply)
                    });
                let dt = ms(t0.elapsed());
                let reg_reply = reg_reply.map_err(|e| e.to_string())?;
                let reply = reply.map_err(|e| e.to_string())?;
                let mut lines = vec![register];
                let (failed, edit) = match (&merge_line, result_bytes(&reply)) {
                    (None, _) => (
                        Some(format!("register refused: {}", head(&reg_reply))),
                        None,
                    ),
                    (Some(_), None) => {
                        (Some(format!("edit merge refused: {}", head(&reply))), None)
                    }
                    (Some(_), Some(r)) => (
                        None,
                        Some(Edit {
                            suite: s,
                            modes,
                            result: r.to_owned(),
                        }),
                    ),
                };
                let merge_len = merge_line.as_ref().map_or(0, |l| l.len() + 1);
                lines.extend(merge_line);
                ops.push(Op {
                    read: None,
                    ms: dt,
                    register_ms: reg_ms,
                    request_bytes: lines[0].len() + 1 + merge_len,
                    reply_bytes: reg_reply.len() + 1 + reply.len() + 1,
                    failed,
                    lines,
                    edit,
                });
            }
        }
    }
    Ok(ops)
}

/// A `stats` snapshot, decoded (small reply; read outside the window).
fn stats(addr: std::net::SocketAddr) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let raw = c
        .request_raw(&simple_request("stats"))
        .map_err(|e| e.to_string())?;
    Json::parse(&raw).map_err(|e| format!("stats reply: {e}"))
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

pub fn run(cfg: &Config, tr: &Tracer) -> Outcome {
    let (cells, modes) = if cfg.smoke { (800, 4) } else { (5_000, 8) };
    let mut out = Outcome::default();

    // Set-up, repeated: every repetition but the last is torn down.
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let s = match setup(cfg, cells, modes, tr, rep) {
            Ok(s) => s,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("set-up: {e}"));
                return out;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = live.replace(s) {
            let prev: Setup = prev;
            if let Err(e) = prev.daemon.stop() {
                out.problem(format!("stopping a set-up daemon: {e}"));
            }
        }
    }
    let Setup {
        daemon,
        suites,
        touched,
    } = live.expect("at least one set-up");
    let setup_rss = peak_rss_mib();

    // References: every (suite, kind) result computed in process.
    let refs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = suites
            .iter()
            .map(|r| {
                scope.spawn(|| {
                    KINDS
                        .iter()
                        .map(|k| reference(&r.suite, k).unwrap_or_else(|e| format!("error: {e}")))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for (s, k, result) in &touched {
        if *result != refs[*s][*k] {
            out.problem(format!(
                "first-touch {} of suite {s} differs from the in-process run",
                KINDS[*k]
            ));
        }
    }
    let read_lines: Vec<Vec<Arc<String>>> = suites
        .iter()
        .map(|r| {
            KINDS
                .iter()
                .map(|k| Arc::new(suite_request(k, &r.hash, &options())))
                .collect()
        })
        .collect();

    // Peak memory covers set-up and the measured traffic, not the
    // reference runs above or the edit checks below.
    reset_peak_rss();
    let before = stats(daemon.addr);
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(cfg.seconds);
    let fleet = Fleet {
        addr: daemon.addr,
        suites: &suites,
        refs: &refs,
        read_lines: &read_lines,
    };
    let results: Vec<Result<Vec<Op>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let fleet = &fleet;
                scope.spawn(move || client_loop(fleet, id, cfg, deadline, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = window.elapsed().as_secs_f64();
    let peak_rss = setup_rss.max(peak_rss_mib());
    let after = stats(daemon.addr);
    if let Err(e) = daemon.stop() {
        out.problem(format!("stopping the daemon: {e}"));
    }

    let mut ops = Vec::new();
    for r in results {
        match r {
            Ok(o) => ops.extend(o),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("client transport: {e}"));
            }
        }
    }
    out.attempted += ops.len() as u64;

    // Edits: every result against a cold in-process merge of the same
    // variant, on two threads.
    let edits: Vec<(usize, &Edit)> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.edit.as_ref().map(|e| (i, e)))
        .collect();
    let suites = &suites;
    let edit_failures: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = edits
            .chunks(edits.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|&(i, e)| {
                            let variant = SuiteText {
                                netlist: suites[e.suite].suite.netlist.clone(),
                                modes: e.modes.clone(),
                                registers: Vec::new(),
                            };
                            match reference(&variant, "merge") {
                                Ok(r) if r == e.result => None,
                                Ok(_) => Some((
                                    i,
                                    "edit merge result differs from the in-process run".into(),
                                )),
                                Err(err) => Some((i, format!("edit reference failed: {err}"))),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for (i, why) in edit_failures {
        ops[i].failed.get_or_insert(why);
    }
    for o in &ops {
        if let Some(why) = &o.failed {
            out.failed += 1;
            out.problem(why.clone());
        }
    }
    let reads: Vec<f64> = ops
        .iter()
        .filter(|o| o.read.is_some())
        .map(|o| o.ms)
        .collect();
    let edit_ms: Vec<f64> = ops
        .iter()
        .filter(|o| o.read.is_none())
        .map(|o| o.ms)
        .collect();
    out.notes.push(format!(
        "checks: {} reads and {} edits, every result byte-identical to an in-process run",
        reads.len(),
        edit_ms.len()
    ));
    out.notes.push(format!("set-up s: {setup_s:.3?}"));
    out.notes.push(format!("read ms: {}", quantiles(&reads)));
    out.notes.push(format!("edit ms: {}", quantiles(&edit_ms)));
    if reads.is_empty() || edit_ms.is_empty() {
        out.problem("the window completed no read or no edit");
        return out;
    }

    // The steady gate statistic is taken over the dominant read class,
    // the cached merge result; plan and lint reads are far smaller.
    let merge_reads: Vec<f64> = ops
        .iter()
        .filter(|o| matches!(o.read, Some((_, 0))))
        .map(|o| o.ms)
        .collect();
    let (rt, et) = (tail(&reads), tail(&edit_ms));
    let (rn, en) = (reads.len(), edit_ms.len());
    out.e2e = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new(
            "op_ms",
            percentile(&merge_reads, 25),
            "ms",
            merge_reads.len(),
        ),
        Metric::new("op2_ms", percentile(&edit_ms, 25), "ms", en),
        Metric::new("peak_rss_mb", peak_rss, "MiB", 1),
    ];
    out.named = vec![
        Metric::new(
            "failed_frac",
            out.failed as f64 / out.attempted as f64,
            "ratio",
            out.attempted as usize,
        ),
        Metric::new(
            "svc_jobs_per_s",
            ops.len() as f64 / elapsed,
            "jobs/s",
            ops.len(),
        ),
        Metric::new("svc_read_p50_ms", median(&reads), "ms", rn),
        Metric::new("svc_read_tail_ms", rt.value, "ms", rn).note(rt.label(rn)),
        Metric::new("svc_edit_p50_ms", median(&edit_ms), "ms", en),
        Metric::new("svc_edit_tail_ms", et.value, "ms", en).note(et.label(en)),
    ];
    if tr.enabled() {
        match (before, after) {
            (Ok(b), Ok(a)) => out.layers = layers(tr, &ops, &refs, &b, &a),
            (Err(e), _) | (_, Err(e)) => out.problem(format!("stats: {e}")),
        }
    }
    out
}

fn layers(tr: &Tracer, ops: &[Op], refs: &[Vec<String>], b: &Json, a: &Json) -> Vec<Metric> {
    let mut set = LayerSet::default();
    set.span("workload.generate_ms", tr.stats().get("workload.generate"));
    let register: Vec<f64> = ops
        .iter()
        .filter(|o| o.read.is_none())
        .map(|o| o.register_ms)
        .collect();
    set.samples("service.register_ms", &register, None);

    // Replays of the JSON parses the daemon performs, once per distinct
    // payload (repeated reads send and receive identical bytes).
    let mut line_ms: HashMap<*const String, f64> = HashMap::new();
    let mut request_parse = Vec::new();
    for o in ops {
        for line in &o.lines {
            let key = Arc::as_ptr(line);
            let t = *line_ms.entry(key).or_insert_with(|| {
                let t0 = Instant::now();
                let parsed = tr.span("json.request_parse", 0, 0, |_| Request::parse_tagged(line));
                std::hint::black_box(parsed.is_ok());
                ms(t0.elapsed())
            });
            request_parse.push(t);
        }
    }
    // Mean, not median: most lines are short reads, and the few long
    // `register` lines are where the parse time goes.
    let total: f64 = request_parse.iter().sum();
    set.value(
        "json.request_parse_ms",
        total / request_parse.len().max(1) as f64,
        request_parse.len(),
        &format!(
            "mean per request line (median {:.3} ms); self {total:.3} ms total",
            median(&request_parse)
        ),
    );
    let replay = |bytes: &str| {
        let t0 = Instant::now();
        let parsed = tr.span("json.result_parse", 0, 0, |_| Json::parse(bytes));
        std::hint::black_box(parsed.is_ok());
        ms(t0.elapsed())
    };
    let read_parse: Vec<Vec<f64>> = refs
        .iter()
        .map(|r| r.iter().map(|b| replay(b)).collect())
        .collect();
    let mut result_parse = Vec::new();
    for o in ops {
        if let Some(e) = &o.edit {
            result_parse.push(replay(&e.result));
        } else if let Some((s, k)) = o.read {
            // Reads: the result bytes equal the reference (checked).
            result_parse.push(read_parse[s][k]);
        }
    }
    set.samples(
        "json.result_parse_ms",
        &result_parse,
        Some(result_parse.iter().sum()),
    );
    let n = ops.len().max(1) as f64;
    let req: usize = ops.iter().map(|o| o.request_bytes).sum();
    let rep: usize = ops.iter().map(|o| o.reply_bytes).sum();
    set.value(
        "service.request_bytes",
        req as f64 / n,
        ops.len(),
        "mean per operation",
    );
    set.value(
        "service.reply_bytes",
        rep as f64 / n,
        ops.len(),
        "mean per operation",
    );

    let d = |path: &[&str]| num(a, path) - num(b, path);
    let hits = d(&["cache", "results", "hits"]);
    let misses = d(&["cache", "results", "misses"]);
    let completed = d(&["completed"]);
    set.value(
        "service.cache_hit_ratio",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
        "stats delta",
    );
    set.value(
        "service.queue_wait_ms",
        ratio(d(&["queue", "wait_ms_total"]), completed),
        completed as usize,
        "stats delta, mean per computed job",
    );
    set.value(
        "service.compute_ms",
        ratio(d(&["stage_totals", "total_ns"]) / 1e6, completed),
        completed as usize,
        "stats delta, mean per computed job",
    );
    set.value(
        "eco.tail_replays",
        d(&["cache", "eco", "tail_replays"]),
        completed as usize,
        "stats delta",
    );
    set.value(
        "eco.groups_recomputed",
        d(&["cache", "eco", "groups_recomputed"]),
        completed as usize,
        "stats delta",
    );
    let reused = d(&["cache", "eco", "stages_reused"]);
    let recomputed = d(&["cache", "eco", "stages_recomputed"]);
    set.value(
        "eco.stage_reuse_ratio",
        ratio(reused, reused + recomputed),
        (reused + recomputed) as usize,
        "stats delta",
    );
    let binds = d(&["cache", "suites", "binds"]);
    let reuses = d(&["cache", "suites", "bind_reuses"]);
    set.value(
        "service.bind_reuse_ratio",
        ratio(reuses, binds + reuses),
        (binds + reuses) as usize,
        "stats delta",
    );
    set.into_metrics()
}
