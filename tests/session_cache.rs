//! Integration tests for the [`MergeSession`] analysis cache and the
//! deterministic scoped-thread pool: cached results must be
//! byte-identical to fresh analyses, each mode must be analyzed exactly
//! once per session, and the merge output must not depend on the thread
//! count.

use modemerge::merge::merge::{MergeOptions, ModeInput};
use modemerge::merge::mergeability::MergeabilityGraph;
use modemerge::merge::session::{MergeSession, SessionInputs};
use modemerge::netlist::Netlist;
use modemerge::sta::analysis::Analysis;
use modemerge::workload::{generate_suite, DesignSpec, SuiteSpec};
use std::collections::BTreeSet;

/// A small multi-domain design with a family-structured mode suite.
fn suite() -> (Netlist, Vec<ModeInput>) {
    let spec = SuiteSpec {
        design: DesignSpec::with_target_cells("session_cache", 600, 7),
        families: vec![2, 2],
        test_clocks: true,
        cross_false_paths: true,
    };
    let s = generate_suite(&spec);
    let inputs = s
        .modes
        .iter()
        .map(|(n, sdc)| ModeInput::new(n.clone(), sdc.clone()))
        .collect();
    (s.netlist, inputs)
}

#[test]
fn cached_relations_are_byte_identical_to_fresh_analysis() {
    let (netlist, inputs) = suite();
    let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    for i in 0..session.mode_count() {
        let fresh = Analysis::run(&netlist, bound.graph(), &bound.modes()[i]);
        assert_eq!(
            session.relations(i),
            fresh.relations(),
            "cached relations differ from a fresh analysis for mode {i}"
        );
        // The owning accessor agrees with the borrowed one, down to the
        // interned flat table.
        assert_eq!(session.analysis(i).endpoint_table(), fresh.endpoint_table());
    }
}

#[test]
fn session_analyzes_each_mode_exactly_once() {
    let (netlist, inputs) = suite();
    let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
    let session = MergeSession::new(
        &netlist,
        &bound,
        &MergeOptions {
            threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(session.analyses_run(), 0, "construction runs nothing");
    session.warm_up();
    assert_eq!(session.analyses_run(), session.mode_count());
    // Every further consumer — repeated warm-up, relation reads, the
    // mergeability graph and the full merge flow — hits the cache.
    session.warm_up();
    for i in 0..session.mode_count() {
        let _ = session.relations(i);
    }
    let _ = session.mergeability();
    let outcome = session.merge_all().unwrap();
    assert!(!outcome.merged.is_empty());
    assert_eq!(
        session.analyses_run(),
        session.mode_count(),
        "a pipeline stage bypassed the session cache"
    );
}

#[test]
fn merge_output_is_identical_across_thread_counts() {
    let (netlist, inputs) = suite();
    let run = |threads: usize| {
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(
            &netlist,
            &bound,
            &MergeOptions {
                threads,
                ..Default::default()
            },
        );
        session.warm_up();
        let outcome = session.merge_all().unwrap();
        let texts: Vec<(String, String)> = outcome
            .merged
            .iter()
            .map(|m| (m.name.clone(), m.sdc.to_text()))
            .collect();
        (outcome.groups, texts)
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "1 vs 4 threads");
    assert_eq!(serial, run(8), "1 vs 8 threads");
}

/// `merge_all` releases each clique's derived-table memos once the
/// clique is merged. That must be invisible: a released per-mode
/// analysis answers pass-2 and pass-3 queries exactly like a fresh one.
#[test]
fn released_memos_answer_like_a_fresh_analysis() {
    let (netlist, inputs) = suite();
    let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
    let options = MergeOptions {
        threads: 2,
        ..Default::default()
    };
    let session = MergeSession::new(&netlist, &bound, &options);
    let outcome = session.merge_all().unwrap();
    assert!(
        outcome.groups.iter().any(|g| g.len() > 1),
        "the suite merges"
    );
    assert!(
        session.stage_timings().propagations > 0,
        "the 3-pass filled the memos"
    );
    for i in 0..session.mode_count() {
        let released = session.analysis(i);
        let fresh = Analysis::run(&netlist, bound.graph(), &bound.modes()[i]);
        let before = released.propagations_run();
        let mut starts = BTreeSet::new();
        for endpoint in fresh.endpoints() {
            assert_eq!(
                released.pair_relations(endpoint),
                fresh.pair_relations(endpoint),
                "mode {i}, endpoint {endpoint:?}"
            );
            for start in fresh.startpoints_of(endpoint) {
                starts.insert(start.pin());
                assert_eq!(
                    released.through_relations(start, endpoint),
                    fresh.through_relations(start, endpoint),
                    "mode {i}, {start:?} -> {endpoint:?}"
                );
            }
        }
        // Every startpoint was propagated again: no entry survived.
        assert_eq!(
            released.propagations_run() - before,
            starts.len() as u64,
            "mode {i}"
        );
    }
}

#[test]
fn prescreen_matches_the_full_mock_merge() {
    let (netlist, mut inputs) = suite();
    // Add a byte-identical duplicate of mode 0 so the pre-screen path
    // is actually exercised.
    let mut dup = inputs[0].clone();
    dup.name = format!("{}_dup", dup.name);
    inputs.push(dup);
    let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
    let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
    let prescreened = session.mergeability();
    let mode_refs: Vec<&_> = bound.modes().iter().collect();
    let full = MergeabilityGraph::build(&netlist, &mode_refs, &MergeOptions::default());
    assert_eq!(prescreened.len(), full.len());
    for i in 0..full.len() {
        for j in 0..full.len() {
            assert_eq!(
                prescreened.mergeable(i, j),
                full.mergeable(i, j),
                "adjacency differs at ({i}, {j})"
            );
            assert_eq!(
                format!("{:?}", prescreened.conflicts(i, j)),
                format!("{:?}", full.conflicts(i, j)),
                "conflicts differ at ({i}, {j})"
            );
        }
    }
    // The duplicate pair is mergeable by construction.
    assert!(prescreened.mergeable(0, inputs.len() - 1));
}
