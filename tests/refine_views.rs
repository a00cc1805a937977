//! The refinement loop's interned-clock bitset views
//! ([`ClockView`]) against the analysis queries they replace: the
//! clock-network view must hold exactly the clocks
//! `clock_arrivals().clock_ids_at` reports at every pin, and the
//! data-network view exactly the launch clocks `data_clocks_at` reports
//! at pins with active fanout (no others).

use modemerge::merge::refine::ClockView;
use modemerge::netlist::paper::paper_circuit;
use modemerge::netlist::{Netlist, PinId};
use modemerge::sdc::SdcFile;
use modemerge::sta::analysis::Analysis;
use modemerge::sta::graph::TimingGraph;
use modemerge::sta::keys::ClockKeyId;
use modemerge::sta::mode::Mode;
use modemerge::workload::{generate_suite, SuiteSpec};
use std::collections::BTreeSet;

fn bind(netlist: &Netlist, name: &str, text: &str) -> Mode {
    Mode::bind(name, netlist, &SdcFile::parse(text).expect("sdc parses")).expect("sdc binds")
}

fn ids(ids: impl IntoIterator<Item = ClockKeyId>) -> BTreeSet<ClockKeyId> {
    ids.into_iter().collect()
}

/// Checks both views of `analyses` — singly and as their union —
/// against the per-pin analysis queries.
fn assert_views_match(analyses: &[&Analysis<'_>]) {
    let nodes = analyses[0].graph().node_count();
    let clock_views: Vec<ClockView> = analyses
        .iter()
        .map(|a| ClockView::clock_network(&[a]))
        .collect();
    let data_views: Vec<ClockView> = analyses
        .iter()
        .map(|a| ClockView::data_network(&[a]))
        .collect();
    let clock_union = ClockView::clock_network(analyses);
    let data_union = ClockView::data_network(analyses);
    let mut clocked_pins = 0;
    let mut crossed_pins = 0;
    for n in 0..nodes {
        let pin = PinId::new(n);
        let mut clocks_anywhere = BTreeSet::new();
        let mut data_anywhere = BTreeSet::new();
        for (k, a) in analyses.iter().enumerate() {
            let arrivals = ids(a
                .clock_arrivals()
                .clock_ids_at(pin)
                .map(|c| a.clock_key_id(c)));
            assert_eq!(
                ids(clock_views[k].clock_ids_at(pin)),
                arrivals,
                "clock view of mode {k} at {pin:?}"
            );
            let crossing = if a.has_active_fanout(pin) {
                ids(a
                    .propagation()
                    .data_clocks_at(pin)
                    .map(|c| a.clock_key_id(c)))
            } else {
                BTreeSet::new()
            };
            assert_eq!(
                ids(data_views[k].clock_ids_at(pin)),
                crossing,
                "data view of mode {k} at {pin:?}"
            );
            clocks_anywhere.extend(arrivals);
            data_anywhere.extend(crossing);
        }
        assert_eq!(
            ids(clock_union.clock_ids_at(pin)),
            clocks_anywhere,
            "clock union at {pin:?}"
        );
        assert_eq!(
            ids(data_union.clock_ids_at(pin)),
            data_anywhere,
            "data union at {pin:?}"
        );
        clocked_pins += usize::from(!clocks_anywhere.is_empty());
        crossed_pins += usize::from(!data_anywhere.is_empty());
    }
    assert!(
        clocked_pins > 0 && crossed_pins > 0,
        "views are not vacuous"
    );
}

/// Constraint Set 3: conflicting case values on the clock-mux select,
/// plus the preliminary merged mode that needs a clock stop.
#[test]
fn views_match_analysis_on_constraint_set_3() {
    let netlist = paper_circuit();
    let graph = TimingGraph::build(&netlist).expect("graph");
    let clocks = "create_clock -period 10 -name clkA [get_port clk1]\n\
                  create_clock -period 20 -name clkB [get_port clk2]\n";
    let a = bind(
        &netlist,
        "A",
        &format!("{clocks}set_case_analysis 0 sel1\nset_case_analysis 1 sel2\n"),
    );
    let b = bind(
        &netlist,
        "B",
        &format!("{clocks}set_case_analysis 1 sel1\nset_case_analysis 0 sel2\n"),
    );
    let merged = bind(
        &netlist,
        "merged",
        "create_clock -name clkA -period 10 -add [get_ports clk1]\n\
         create_clock -name clkB -period 20 -add [get_ports clk2]\n\
         set_disable_timing [get_ports sel1]\n\
         set_disable_timing [get_ports sel2]\n",
    );
    let runs: Vec<Analysis<'_>> = [&a, &b, &merged]
        .into_iter()
        .map(|m| Analysis::run(&netlist, &graph, m))
        .collect();
    assert_views_match(&runs.iter().collect::<Vec<_>>());
}

/// Constraint Set 5: clkB's launches blocked by a register-output
/// constant in mode B, plus the preliminary merged mode.
#[test]
fn views_match_analysis_on_constraint_set_5() {
    let netlist = paper_circuit();
    let graph = TimingGraph::build(&netlist).expect("graph");
    let a = bind(
        &netlist,
        "A",
        "create_clock -name ClkA -period 2 [get_port clk1]\n\
         set_input_delay 2.0 -clock ClkA [get_port in1]\n\
         set_output_delay 2.0 -clock ClkA [get_port out1]\n",
    );
    let b = bind(
        &netlist,
        "B",
        "create_clock -name ClkB -period 1 [get_port clk1]\n\
         set_input_delay 2.0 -clock ClkB [get_port in1]\n\
         set_output_delay 2.0 -clock ClkB [get_ports out1]\n\
         set_case_analysis 0 rB/Q\n",
    );
    let merged = bind(
        &netlist,
        "merged",
        "create_clock -name ClkA -period 2 -add [get_ports clk1]\n\
         create_clock -name ClkB -period 1 -add [get_ports clk1]\n\
         set_input_delay 2 -clock [get_clocks ClkA] -add_delay [get_ports in1]\n\
         set_input_delay 2 -clock [get_clocks ClkB] -add_delay [get_ports in1]\n\
         set_output_delay 2 -clock [get_clocks ClkA] -add_delay [get_ports out1]\n\
         set_output_delay 2 -clock [get_clocks ClkB] -add_delay [get_ports out1]\n",
    );
    let runs: Vec<Analysis<'_>> = [&a, &b, &merged]
        .into_iter()
        .map(|m| Analysis::run(&netlist, &graph, m))
        .collect();
    assert_views_match(&runs.iter().collect::<Vec<_>>());
}

/// A generated scale-grid suite: generated and divided clocks, clock
/// muxes, scan and test clocks across eight modes.
#[test]
fn views_match_analysis_on_a_generated_suite() {
    let suite = generate_suite(&SuiteSpec::scale(1000, 8, 5));
    let graph = TimingGraph::build(&suite.netlist).expect("graph");
    let modes: Vec<Mode> = suite
        .modes
        .iter()
        .map(|(name, sdc)| Mode::bind(name.clone(), &suite.netlist, sdc).expect("mode binds"))
        .collect();
    let runs: Vec<Analysis<'_>> = modes
        .iter()
        .map(|m| Analysis::run(&suite.netlist, &graph, m))
        .collect();
    assert_views_match(&runs.iter().collect::<Vec<_>>());
}
