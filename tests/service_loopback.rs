//! Loopback integration test of the persistent merge service.
//!
//! Proves the ISSUE-2 acceptance criteria end to end:
//!
//! * concurrent submissions return **byte-identical** results to a
//!   direct single-threaded [`MergeSession`] run;
//! * repeat submissions are answered from the content-addressed cache
//!   (verified through the `stats` counters and the `cached` flag),
//!   independent of mode submission order and thread count;
//! * `shutdown` drains in-flight jobs without dropping responses and
//!   stops the daemon.

use modemerge::merge::json::Json;
use modemerge::merge::mergeability::greedy_cliques;
use modemerge::merge::report::{outcome_to_json, plan_to_json};
use modemerge::merge::{MergeOptions, MergeSession, ModeInput, SessionInputs};
use modemerge::netlist::{paper::paper_circuit, text};
use modemerge::service::client::Client;
use modemerge::service::proto::{
    compute_request, simple_request, suite_request, tag_request, JobSpec, NetlistFormat,
};
use modemerge::service::server::{Server, ServiceConfig};
use modemerge::workload::{generate_suite, SuiteSpec};
use std::net::SocketAddr;

/// The paper's 3-mode workload: two mergeable FUNC modes and one TEST
/// mode whose clock latency conflicts (merges to 2 modes).
fn paper_modes() -> Vec<(String, String)> {
    vec![
        (
            "F1".to_owned(),
            "create_clock -name c -period 10 [get_ports clk1]\n".to_owned(),
        ),
        (
            "F2".to_owned(),
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -to rX/D\n"
                .to_owned(),
        ),
        (
            "T1".to_owned(),
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_clock_latency 9 [get_clocks c]\n"
                .to_owned(),
        ),
    ]
}

fn paper_spec() -> JobSpec {
    JobSpec {
        netlist: text::write(&paper_circuit()),
        format: NetlistFormat::Text,
        modes: paper_modes(),
        options: MergeOptions::default(),
    }
}

/// The reference bytes: a direct, in-process, single-threaded session
/// over the same inputs, serialized by the same writer.
fn direct_merge_result() -> String {
    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = paper_modes()
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).expect("parse sdc"))
        .collect();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("bind");
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let outcome = session.merge_all().expect("merge");
    assert_eq!(outcome.merged.len(), 2, "F1+F2 merge, T1 stays");
    outcome_to_json(&outcome, inputs.len()).to_string()
}

fn start_server_with(
    config: ServiceConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral loopback port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn start_server(workers: usize) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    start_server_with(ServiceConfig {
        workers,
        cache_entries: 32,
        queue_capacity: 64,
        eco_engines: 8,
        ..ServiceConfig::default()
    })
}

/// A generated ~`cells`-instance suite as a full-payload [`JobSpec`];
/// large enough that a single merge dominates a paper-suite lint by
/// orders of magnitude (used to pin jobs on workers deterministically).
fn scale_spec(cells: usize, seed: u64, tag: &str) -> JobSpec {
    let suite = generate_suite(&SuiteSpec::scale(cells, 4, seed));
    JobSpec {
        netlist: text::write(&suite.netlist),
        format: NetlistFormat::Text,
        modes: suite
            .modes
            .iter()
            .map(|(n, s)| (format!("{n}{tag}"), s.to_text()))
            .collect(),
        options: MergeOptions::default(),
    }
}

fn cache_counters(addr: SocketAddr) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.request(&simple_request("stats")).expect("stats");
    assert!(stats.ok, "{:?}", stats.error);
    let cache = stats.json.get("cache").expect("cache block");
    let results = cache.get("results").expect("results block");
    (
        results.get("hits").and_then(Json::as_u64).expect("hits"),
        results
            .get("misses")
            .and_then(Json::as_u64)
            .expect("misses"),
    )
}

fn eco_counter(addr: SocketAddr, field: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.request(&simple_request("stats")).expect("stats");
    assert!(stats.ok, "{:?}", stats.error);
    stats
        .json
        .get("cache")
        .and_then(|c| c.get("eco"))
        .and_then(|e| e.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("eco counter {field} missing"))
}

/// Submits `spec` from `clients` concurrent connections; returns the
/// `(cached, result-bytes)` pairs in client order.
fn submit_concurrently(addr: SocketAddr, spec: &JobSpec, clients: usize) -> Vec<(bool, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let resp = client
                        .request(&compute_request("merge", &spec))
                        .expect("roundtrip");
                    assert!(resp.ok, "{:?}", resp.error);
                    let result = resp.json.get("result").expect("result").to_string();
                    (resp.cached.expect("cached flag"), result)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    })
}

#[test]
fn concurrent_submissions_match_direct_session_and_hit_the_cache() {
    let expected = direct_merge_result();
    let (addr, daemon) = start_server(4);

    // Round 1: 4 concurrent clients, cold cache.
    let spec = paper_spec();
    for (_, result) in submit_concurrently(addr, &spec, 4) {
        assert_eq!(result, expected, "round 1: byte-identical to direct run");
    }
    let (_, misses_after_round1) = cache_counters(addr);
    assert!(misses_after_round1 >= 1, "cold round must miss");

    // Round 2: same workload again — all answered by the cache.
    for (cached, result) in submit_concurrently(addr, &spec, 4) {
        assert!(cached, "round 2 must be served from the cache");
        assert_eq!(result, expected, "round 2: byte-identical to direct run");
    }
    let (hits, misses_after_round2) = cache_counters(addr);
    assert!(hits >= 4, "round 2 produced {hits} hits");
    assert_eq!(
        misses_after_round2, misses_after_round1,
        "round 2 must not add misses"
    );

    // Mode submission order and thread count must not split the key.
    let mut reordered = paper_spec();
    reordered.modes.reverse();
    reordered.options.threads = 3;
    let round3 = submit_concurrently(addr, &reordered, 1);
    assert!(round3[0].0, "reordered modes still hit the cache");
    assert_eq!(round3[0].1, expected);

    // Shutdown drains cleanly and reports completed work.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(resp.ok, "{:?}", resp.error);
    let drained = resp
        .json
        .get("drained")
        .and_then(Json::as_u64)
        .expect("drained");
    assert!(drained >= 1, "at least the cold job completed: {drained}");
    assert_eq!(resp.json.get("failed").and_then(Json::as_u64), Some(0));
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn edited_resubmission_lands_on_the_warm_eco_engine() {
    let (addr, daemon) = start_server(2);

    // Cold submission installs the suite's baseline engine.
    let spec = paper_spec();
    let first = submit_concurrently(addr, &spec, 1);
    assert!(!first[0].0, "first submission computes");
    assert_eq!(eco_counter(addr, "cold_runs"), 1);
    assert_eq!(eco_counter(addr, "engines"), 1);

    // Edit one constraint: misses the result cache (different bytes)
    // but lands on the warm engine — the stats prove artifacts of the
    // baseline run were replayed, and the bytes must still equal a
    // direct cold merge of the *edited* suite.
    let mut edited = paper_spec();
    edited.modes[2].1 = edited.modes[2]
        .1
        .replace("set_clock_latency 9", "set_clock_latency 9.5");
    let warm = submit_concurrently(addr, &edited, 1);
    assert!(!warm[0].0, "edited suite is not a result-cache hit");
    assert_eq!(eco_counter(addr, "eco_hits"), 1, "edit must remerge warm");
    assert!(eco_counter(addr, "group_replays") + eco_counter(addr, "tail_replays") >= 1);

    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = edited
        .modes
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).expect("parse sdc"))
        .collect();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("bind");
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let cold = session.merge_all().expect("merge");
    assert_eq!(
        warm[0].1,
        outcome_to_json(&cold, inputs.len()).to_string(),
        "warm remerge must be byte-identical to a cold merge"
    );

    let bye = Client::connect(addr)
        .expect("connect")
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn lint_requests_run_without_merging_and_count_findings_in_stats() {
    let (addr, daemon) = start_server(2);

    // A suite with one defective mode: lint must still answer (the
    // all-or-nothing merge bind would have refused it) and must report
    // the seeded ML-REF-UNDEF error.
    let mut spec = paper_spec();
    spec.modes.push((
        "BAD".to_owned(),
        "create_clock -name c -period 10 [get_ports clk1]\n\
         set_false_path -from [get_pins nope_xyz/Q]\n"
            .to_owned(),
    ));

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(&compute_request("lint", &spec))
        .expect("roundtrip");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.cached, Some(false), "cold lint is computed");
    let result = resp.json.get("result").expect("result");
    let modes = result.get("modes").and_then(Json::as_array).expect("modes");
    assert_eq!(modes.len(), 4);
    assert_eq!(result.get("modes_bound").and_then(Json::as_u64), Some(4));
    let errors = result.get("errors").and_then(Json::as_u64).expect("errors");
    assert!(errors >= 1, "seeded defect must be found: {result}");
    let findings = result
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings");
    assert!(
        findings.iter().any(|f| {
            f.get("rule").and_then(Json::as_str) == Some("ML-REF-UNDEF")
                && f.get("mode").and_then(Json::as_str) == Some("BAD")
        }),
        "ML-REF-UNDEF in mode BAD expected: {result}"
    );

    // Bytes match a direct in-process lint run of the same inputs.
    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = spec
        .modes
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).expect("parse"))
        .collect();
    let direct = modemerge::merge::lint_modes(&netlist, &inputs, 1).expect("lint");
    assert_eq!(result.to_string(), direct.to_json().to_string());

    // Identical re-submit is a cache hit with identical bytes; the
    // findings counter only counts computed jobs.
    let warm = client
        .request(&compute_request("lint", &spec))
        .expect("roundtrip");
    assert!(warm.ok, "{:?}", warm.error);
    assert_eq!(warm.cached, Some(true), "re-submit must hit the cache");
    assert_eq!(
        warm.json.get("result").expect("result").to_string(),
        result.to_string()
    );
    let stats = client.request(&simple_request("stats")).expect("stats");
    assert!(stats.ok);
    assert_eq!(
        stats.json.get("lint_findings").and_then(Json::as_u64),
        Some(direct.findings.len() as u64),
        "cached replay must not double-count findings"
    );

    // A lint of the same inputs must not collide with merge/plan keys.
    let merge = client
        .request(&compute_request("merge", &paper_spec()))
        .expect("roundtrip");
    assert!(merge.ok);
    assert_eq!(merge.cached, Some(false), "lint and merge must not collide");

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn full_queue_refuses_admission_with_a_structured_overloaded_reply() {
    // One worker, one queue slot: the first slow job occupies the
    // worker, the second fills the queue, the rest must be refused
    // *immediately* with a structured reply instead of blocking the
    // connection or dropping it.
    let (addr, daemon) = start_server_with(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        shards: 1,
        ..ServiceConfig::default()
    });

    // Every suite is registered up front, so the pipelined lines are
    // ~100-byte hash references. The first job is a cold 1000-cell
    // merge; the three behind it are distinct paper-circuit suites.
    // Parsing three tiny lines is orders of magnitude faster than that
    // merge, so the worker is still busy when they are admitted.
    let mut client = Client::connect(addr).expect("connect");
    let mut specs = vec![scale_spec(1000, 11, "")];
    for i in 1..4 {
        let mut spec = paper_spec();
        for (name, _) in &mut spec.modes {
            name.push_str(&format!("_{i}"));
        }
        specs.push(spec);
    }
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let reg = client.register(spec).expect("register");
            assert!(reg.ok, "{:?}", reg.error);
            let hash = reg.suite().expect("suite hash");
            let line = suite_request("merge", hash, &MergeOptions::default());
            tag_request(&line, &Json::count(i))
        })
        .collect();
    let replies = client.pipeline(&lines).expect("pipeline");
    assert_eq!(replies.len(), 4, "every request gets exactly one reply");

    let overloaded: Vec<_> = replies.iter().filter(|r| r.overloaded).collect();
    let succeeded = replies.iter().filter(|r| r.ok).count();
    assert!(
        !overloaded.is_empty(),
        "queue of 1 must refuse some of 4 pipelined jobs"
    );
    assert!(succeeded >= 1, "admitted jobs still complete");
    assert_eq!(succeeded + overloaded.len(), replies.len());
    for r in &overloaded {
        assert!(!r.ok, "overloaded is a structured failure");
        let msg = r.error.as_deref().unwrap_or_default();
        assert!(msg.contains("queue full"), "actionable message: {msg}");
        assert!(msg.contains("retry"), "tells the client to retry: {msg}");
        assert!(
            r.json.get("queue_depth").and_then(Json::as_u64).is_some(),
            "overloaded reply reports the depth: {}",
            r.raw
        );
        assert!(r.id.is_some(), "refusal keeps the request tag: {}", r.raw);
    }

    let bye = Client::connect(addr)
        .expect("connect")
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn suite_registry_evicts_under_budget_and_reregistration_restores_bytes() {
    // A 1 KiB suite budget that neither padded suite fits under: the
    // newest registration always survives (never evict what was just
    // inserted), so registering B evicts A.
    let (addr, daemon) = start_server_with(ServiceConfig {
        workers: 2,
        suite_cache_kb: Some(1),
        ..ServiceConfig::default()
    });
    let pad: String = "set_false_path -to rX/D\n".repeat(60); // ~1.4 KiB
    let mut spec_a = paper_spec();
    spec_a.modes[1].1.push_str(&pad);
    let mut spec_b = paper_spec();
    spec_b.modes[0].1.push_str(&pad);

    let mut client = Client::connect(addr).expect("connect");
    let reg_a = client.register(&spec_a).expect("register A");
    assert!(reg_a.ok, "{:?}", reg_a.error);
    let hash_a = reg_a.suite().expect("suite hash").to_owned();
    let warm = client
        .compute_registered("merge", &hash_a, &MergeOptions::default())
        .expect("merge by hash");
    assert!(warm.ok, "{:?}", warm.error);
    let bytes_a = warm.json.get("result").expect("result").to_string();

    // Direct in-process reference over the same padded inputs.
    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = spec_a
        .modes
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).expect("parse sdc"))
        .collect();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("bind");
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let outcome = session.merge_all().expect("merge");
    assert_eq!(bytes_a, outcome_to_json(&outcome, inputs.len()).to_string());

    // Registering B blows the budget and evicts A.
    let reg_b = client.register(&spec_b).expect("register B");
    assert!(reg_b.ok, "{:?}", reg_b.error);
    assert_ne!(reg_b.suite(), Some(hash_a.as_str()));
    let miss = client
        .compute_registered("merge", &hash_a, &MergeOptions::default())
        .expect("merge evicted hash");
    assert!(!miss.ok, "evicted suite must be refused: {}", miss.raw);
    let msg = miss.error.as_deref().unwrap_or_default();
    assert!(msg.contains("unknown suite"), "names the failure: {msg}");
    assert!(msg.contains("re-register"), "actionable remedy: {msg}");

    let stats = client.request(&simple_request("stats")).expect("stats");
    assert!(stats.ok);
    let suites = stats
        .json
        .get("cache")
        .and_then(|c| c.get("suites"))
        .expect("cache.suites block");
    assert!(
        suites.get("evictions").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "stats must count the eviction: {suites}"
    );

    // Re-registration restores the same content hash and the merge
    // result is byte-identical to the pre-eviction reply.
    let reg_a2 = client.register(&spec_a).expect("re-register A");
    assert!(reg_a2.ok, "{:?}", reg_a2.error);
    assert_eq!(
        reg_a2.suite(),
        Some(hash_a.as_str()),
        "content addressing: same bytes, same hash"
    );
    let again = client
        .compute_registered("merge", &hash_a, &MergeOptions::default())
        .expect("merge re-registered hash");
    assert!(again.ok, "{:?}", again.error);
    assert_eq!(
        again.json.get("result").expect("result").to_string(),
        bytes_a,
        "re-registered suite must reproduce the bytes exactly"
    );

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn pipelined_replies_arrive_in_completion_order_with_request_tags() {
    // Two workers, two pipelined jobs on ONE connection: a slow
    // 1500-cell merge tagged "slow" first, a fast paper-suite lint
    // tagged "fast" second. Completion-order replies mean the lint
    // overtakes the merge; the id tags are what lets the client
    // reassociate them.
    let (addr, daemon) = start_server_with(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let lines = vec![
        tag_request(
            &compute_request("merge", &scale_spec(1500, 3, "")),
            &Json::str("slow"),
        ),
        tag_request(&compute_request("lint", &paper_spec()), &Json::str("fast")),
    ];
    let mut client = Client::connect(addr).expect("connect");
    let replies = client.pipeline(&lines).expect("pipeline");
    assert_eq!(replies.len(), 2);
    for r in &replies {
        assert!(r.ok, "{:?}", r.error);
    }
    let ids: Vec<&str> = replies
        .iter()
        .map(|r| r.id.as_ref().and_then(Json::as_str).expect("id echoed"))
        .collect();
    assert_eq!(
        ids,
        ["fast", "slow"],
        "fast lint must overtake the slow merge on the same connection"
    );

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn shutdown_drains_in_flight_jobs_without_dropping_responses() {
    // One worker + several distinct queued jobs, then an immediate
    // shutdown: every accepted job must still receive its response.
    let (addr, daemon) = start_server(1);
    let n_jobs = 3;
    let results = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..n_jobs)
            .map(|i| {
                scope.spawn(move || {
                    let mut spec = paper_spec();
                    // Distinct names → distinct cache keys → real work.
                    for (name, _) in &mut spec.modes {
                        name.push_str(&format!("_{i}"));
                    }
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .request(&compute_request("merge", &spec))
                        .expect("roundtrip")
                })
            })
            .collect();
        // Give the submissions a head start, then ask for shutdown
        // while work is (likely) still queued or in flight.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut control = Client::connect(addr).expect("connect");
        let shutdown = control
            .request(&simple_request("shutdown"))
            .expect("shutdown");
        assert!(shutdown.ok, "{:?}", shutdown.error);
        submitters
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect::<Vec<_>>()
    });
    // Every accepted job got a definitive response: either its result
    // (drained) or an explicit shutting-down refusal (raced the close),
    // never a dropped connection.
    let mut completed = 0;
    for resp in &results {
        if resp.ok {
            assert_eq!(resp.cached, Some(false));
            assert!(resp.json.get("result").is_some());
            completed += 1;
        } else {
            let msg = resp.error.as_deref().unwrap_or_default();
            assert!(msg.contains("shutting down"), "unexpected error: {msg}");
        }
    }
    assert!(completed >= 1, "the in-flight job must complete");
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn malformed_sdc_register_is_refused_with_structured_diagnostics() {
    let (addr, daemon) = start_server(2);
    // Two seeded defects in F2: an unknown command and a truncated
    // create_clock (lines 3 and 4 of the mode).
    let mut bad = paper_spec();
    bad.modes[1]
        .1
        .push_str("set_wizardry 1\ncreate_clock -period\n");

    let mut client = Client::connect(addr).expect("connect");
    let refused = client.register(&bad).expect("roundtrip");
    assert!(
        !refused.ok,
        "defective suite must be refused: {}",
        refused.raw
    );
    assert!(refused.suite().is_none(), "no hash for a refused suite");
    let msg = refused.error.as_deref().unwrap_or_default();
    assert!(msg.contains("F2"), "names the defective mode: {msg}");
    let diags = refused
        .json
        .get("diagnostics")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("structured diagnostics expected: {}", refused.raw));
    assert_eq!(diags.len(), 2, "every defect reported: {}", refused.raw);
    assert_eq!(diags[0].get("mode").and_then(Json::as_str), Some("F2"));
    assert_eq!(
        diags[0].get("code").and_then(Json::as_str),
        Some("SDC-CMD-UNKNOWN")
    );
    assert_eq!(diags[0].get("line").and_then(Json::as_u64), Some(3));
    assert!(diags[0].get("col").and_then(Json::as_u64).is_some());
    assert_eq!(
        diags[1].get("code").and_then(Json::as_str),
        Some("SDC-ARG-MISSING")
    );
    assert_eq!(diags[1].get("line").and_then(Json::as_u64), Some(4));

    // The refusal is atomic: the registry holds no half-bound entry.
    let stats = client.request(&simple_request("stats")).expect("stats");
    assert!(stats.ok);
    let suites = stats
        .json
        .get("cache")
        .and_then(|c| c.get("suites"))
        .expect("cache.suites block");
    assert_eq!(
        suites.get("entries").and_then(Json::as_u64),
        Some(0),
        "refused suite must not be retained: {suites}"
    );

    // The connection survives the refusal: a clean register and a
    // hash-referenced merge on the SAME connection still work, and the
    // bytes match the direct in-process run.
    let reg = client.register(&paper_spec()).expect("register clean");
    assert!(reg.ok, "{:?}", reg.error);
    let hash = reg.suite().expect("suite hash").to_owned();
    let merged = client
        .compute_registered("merge", &hash, &MergeOptions::default())
        .expect("merge by hash");
    assert!(merged.ok, "{:?}", merged.error);
    assert_eq!(
        merged.json.get("result").expect("result").to_string(),
        direct_merge_result()
    );

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn inline_merge_parses_lossily_and_strict_parse_restores_the_refusal() {
    let (addr, daemon) = start_server(2);
    // A garbage line in F2: the inline merge must still compute over
    // the valid commands and report the defect as data.
    let mut spec = paper_spec();
    spec.modes[1].1.push_str("set_wizardry 1\n");

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(&compute_request("merge", &spec))
        .expect("roundtrip");
    assert!(resp.ok, "lossy merge must answer: {:?}", resp.error);
    let result = resp.json.get("result").expect("result").to_string();
    assert!(
        result.contains("SDC-CMD-UNKNOWN"),
        "parse finding rides the report diagnostics: {result}"
    );

    // Byte-identical to a direct lossy in-process run through the same
    // serializer (the CLI `merge --json` path).
    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = spec
        .modes
        .iter()
        .map(|(n, s)| ModeInput::parse_lossy(n.clone(), s))
        .collect();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("bind");
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let mut outcome = session.merge_all().expect("merge");
    modemerge::merge::lint::attach_parse_findings(&inputs, &mut outcome.reports);
    assert_eq!(result, outcome_to_json(&outcome, inputs.len()).to_string());

    // `strict_parse` restores the old all-or-nothing refusal, as a
    // structured reply on a connection that stays usable.
    let mut strict = spec.clone();
    strict.options.strict_parse = true;
    let refused = client
        .request(&compute_request("merge", &strict))
        .expect("roundtrip");
    assert!(!refused.ok, "strict parse must refuse: {}", refused.raw);
    let msg = refused.error.as_deref().unwrap_or_default();
    assert!(msg.contains("set_wizardry"), "names the defect: {msg}");
    let again = client
        .request(&compute_request("merge", &paper_spec()))
        .expect("roundtrip");
    assert!(again.ok, "connection survives the refusal");

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}

#[test]
fn plan_requests_share_the_cli_json_shape() {
    let (addr, daemon) = start_server(2);
    let spec = paper_spec();

    // Direct reference.
    let netlist = paper_circuit();
    let inputs: Vec<ModeInput> = paper_modes()
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).expect("parse"))
        .collect();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("bind");
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let graph = session.mergeability();
    let cliques = greedy_cliques(&graph);
    let names: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
    let expected = plan_to_json(&names, &graph, &cliques).to_string();

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(&compute_request("plan", &spec))
        .expect("roundtrip");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(
        resp.json.get("result").expect("result").to_string(),
        expected
    );

    // A merge of the same inputs is a *different* cache entry.
    let merge = client
        .request(&compute_request("merge", &spec))
        .expect("roundtrip");
    assert!(merge.ok);
    assert_eq!(merge.cached, Some(false), "plan and merge must not collide");

    let status = client.request(&simple_request("status")).expect("status");
    assert!(status.ok);
    assert_eq!(status.json.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(
        status.json.get("accepting").and_then(Json::as_bool),
        Some(true)
    );

    let bye = client
        .request(&simple_request("shutdown"))
        .expect("shutdown");
    assert!(bye.ok);
    daemon.join().expect("daemon thread").expect("daemon io");
}
