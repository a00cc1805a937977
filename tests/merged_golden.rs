//! Golden-fixture equivalence tests for the merged SDC output.
//!
//! The fixtures were generated before the scale-grade graph-core
//! refactor (tag interning, flat arrival rows, bounded memos) landed;
//! the refactor — and any later storage change — must reproduce them
//! byte for byte, at any thread count. Regenerate deliberately with
//! `MODEMERGE_UPDATE_FIXTURES=1 cargo test --test merged_golden`.

use modemerge::merge::equivalence::check_equivalence;
use modemerge::merge::merge::{MergeOptions, ModeInput};
use modemerge::merge::mergeability::greedy_cliques;
use modemerge::merge::preliminary::preliminary_merge;
use modemerge::merge::provenance::DiagnosticSink;
use modemerge::merge::refine::refine;
use modemerge::merge::session::{MergeSession, SessionInputs};
use modemerge::netlist::paper::paper_circuit;
use modemerge::netlist::Netlist;
use modemerge::sta::analysis::Analysis;
use modemerge::sta::memo::MemoBudget;
use modemerge::sta::mode::Mode;
use modemerge::workload::{generate_suite, DesignSpec, SuiteSpec};

/// Seed of the 2000-cell / 8-mode scale-grid fixture suite.
const SCALE_SEED: u64 = 11;

/// The 648-cell / 8-mode stress suite of the `three_pass` bench.
fn stress_suite() -> (Netlist, Vec<ModeInput>) {
    let spec = SuiteSpec {
        design: DesignSpec {
            name: "three_pass_stress".into(),
            seed: 23,
            domains: 3,
            banks: 8,
            regs_per_bank: 14,
            cloud_depth: 4,
            scan: true,
            muxed_bank_stride: 3,
            dividers: false,
            clock_gates: false,
        },
        families: vec![8],
        test_clocks: false,
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

/// A 2000-cell / 8-mode point of the scale grid (SoC generator, test
/// clocks, cross-domain false paths): large enough that every
/// refinement stage fires across two merged groups.
/// Its fixture was produced before refinement moved onto interned-clock
/// bitset views and validated on its fixed point's own analysis.
fn scale_suite() -> (Netlist, Vec<ModeInput>) {
    let s = generate_suite(&SuiteSpec::scale(2000, 8, SCALE_SEED));
    let inputs = s
        .modes
        .iter()
        .map(|(n, sdc)| ModeInput::new(n.clone(), sdc.clone()))
        .collect();
    (s.netlist, inputs)
}

/// The paper's example circuit under Constraint Set 6 (Modes A and B).
fn paper_suite() -> (Netlist, Vec<ModeInput>) {
    let netlist = paper_circuit();
    let inputs = vec![
        ModeInput::parse(
            "A",
            "create_clock -p 10 -name clkA [get_ports clk1]\n\
             set_false_path -to rX/D\n\
             set_false_path -to rY/D\n\
             set_false_path -through inv3/Z\n",
        )
        .expect("mode A parses"),
        ModeInput::parse(
            "B",
            "create_clock -p 10 -name clkA [get_ports clk1]\n\
             set_false_path -from rA/CP\n\
             set_false_path -to rZ/D\n",
        )
        .expect("mode B parses"),
    ];
    (netlist, inputs)
}

/// Merges a suite at `threads` and renders every merged mode as
/// `=== name ===` blocks — one canonical text for fixture comparison.
fn merged_text(netlist: &Netlist, inputs: &[ModeInput], threads: usize) -> String {
    let bound = SessionInputs::bind(netlist, inputs).expect("inputs bind");
    let session = MergeSession::new(
        netlist,
        &bound,
        &MergeOptions {
            threads,
            ..Default::default()
        },
    );
    session.warm_up();
    let outcome = session.merge_all().expect("merge completes");
    let mut out = String::new();
    for m in &outcome.merged {
        out.push_str(&format!("=== {} ===\n{}", m.name, m.sdc.to_text()));
    }
    out
}

fn check_against_fixture(netlist: &Netlist, inputs: &[ModeInput], fixture_path: &str) {
    let serial = merged_text(netlist, inputs, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            serial,
            merged_text(netlist, inputs, threads),
            "merged SDC differs between 1 and {threads} threads"
        );
    }
    if std::env::var_os("MODEMERGE_UPDATE_FIXTURES").is_some() {
        std::fs::write(fixture_path, &serial).expect("write fixture");
    }
    let want = std::fs::read_to_string(fixture_path).expect("checked-in merged-SDC fixture");
    assert_eq!(
        serial, want,
        "merged SDC drifted from the pre-refactor fixture {fixture_path}"
    );
}

#[test]
fn stress_suite_merged_sdc_matches_pre_refactor_fixture() {
    let (netlist, inputs) = stress_suite();
    check_against_fixture(
        &netlist,
        &inputs,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/stress_merged.sdc"
        ),
    );
}

#[test]
fn paper_example_merged_sdc_matches_pre_refactor_fixture() {
    let (netlist, inputs) = paper_suite();
    check_against_fixture(
        &netlist,
        &inputs,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/paper_merged.sdc"
        ),
    );
}

#[test]
fn scale_2000x8_merged_sdc_matches_fixture() {
    let (netlist, inputs) = scale_suite();
    check_against_fixture(
        &netlist,
        &inputs,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/scale_2000x8_merged.sdc"
        ),
    );
}

/// Refinement validates on its fixed point's own merged analysis; the
/// report must equal the one a fresh bind + STA of the refined SDC
/// gives, for every merged group of the stress suite.
#[test]
fn fixed_point_equivalence_matches_a_fresh_analysis_of_the_refined_sdc() {
    let (netlist, inputs) = stress_suite();
    let bound = SessionInputs::bind(&netlist, &inputs).expect("inputs bind");
    let options = MergeOptions::default();
    let session = MergeSession::new(&netlist, &bound, &options);
    let groups: Vec<Vec<usize>> = greedy_cliques(&session.mergeability())
        .into_iter()
        .filter(|g| g.len() > 1)
        .collect();
    assert!(!groups.is_empty(), "the stress suite merges");
    for group in groups {
        let modes: Vec<&Mode> = group.iter().map(|&i| session.mode(i)).collect();
        let analyses: Vec<&Analysis<'_>> = group.iter().map(|&i| session.analysis(i)).collect();
        let prelim = preliminary_merge(&netlist, &modes, &options);
        let mut provenance = prelim.provenance;
        let outcome = refine(
            &netlist,
            bound.graph(),
            &analyses,
            prelim.sdc,
            &options,
            &mut provenance,
            &mut DiagnosticSink::new(),
        )
        .expect("group refines");
        let merged_mode = Mode::bind("merged", &netlist, &outcome.sdc).expect("refined SDC binds");
        let fresh = Analysis::run_budgeted(
            &netlist,
            bound.graph(),
            &merged_mode,
            MemoBudget::resolve(options.memo_budget_kb),
        );
        let report = outcome.equivalence.expect("validation is on by default");
        assert_eq!(
            report,
            check_equivalence(&analyses, &fresh),
            "group {group:?}"
        );
        assert!(report.missing_in_merged.is_empty(), "group {group:?}");
    }
}
