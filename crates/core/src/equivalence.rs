//! Constraint-set equivalence checking (§2 of the paper).
//!
//! Two constraint sets are equivalent iff every timing relationship of
//! the design under the first set is present under the second set *and*
//! vice versa. The merged mode is validated against the union of the
//! individual modes' relationship sets — the "inbuilt, correct by
//! construction validation" of §3.

use modemerge_sta::analysis::Analysis;
use modemerge_sta::relations::{EndpointRelation, RelationSet};

/// Result of an equivalence check between a merged mode and a set of
/// individual modes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// `true` when the timed relationship sets match in both directions.
    pub equivalent: bool,
    /// Relations the merged mode times that no individual mode times
    /// (the merged mode would report spurious paths).
    pub extra_in_merged: Vec<EndpointRelation>,
    /// Relations some individual mode times that the merged mode lost
    /// (the merged mode would miss sign-off violations).
    pub missing_in_merged: Vec<EndpointRelation>,
}

/// The union of endpoint relationship sets across analyses.
pub fn union_relations(analyses: &[&Analysis<'_>]) -> RelationSet {
    let mut out = RelationSet::new();
    for a in analyses {
        out.union_with(a.relations());
    }
    out
}

/// Checks §2 equivalence of the merged mode against the union of the
/// individual modes.
///
/// False-path relations are treated as absent on both sides: a path
/// class that is not timed has no observable effect on sign-off.
pub fn check_equivalence(individual: &[&Analysis<'_>], merged: &Analysis<'_>) -> EquivalenceReport {
    let union = union_relations(individual);
    let merged_set = merged.relations();
    let extra_in_merged = merged_set.timed_difference(&union);
    let missing_in_merged = union.timed_difference(merged_set);
    EquivalenceReport {
        equivalent: extra_in_merged.is_empty() && missing_in_merged.is_empty(),
        extra_in_merged,
        missing_in_merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modemerge_netlist::paper::paper_circuit;
    use modemerge_sdc::SdcFile;
    use modemerge_sta::graph::TimingGraph;
    use modemerge_sta::mode::Mode;

    fn bind(netlist: &modemerge_netlist::Netlist, text: &str) -> Mode {
        Mode::bind("m", netlist, &SdcFile::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn identical_modes_are_equivalent() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let text = "create_clock -name clkA -period 10 [get_ports clk1]\n";
        let a = bind(&netlist, text);
        let m = bind(&netlist, text);
        let a_an = Analysis::run(&netlist, &graph, &a);
        let m_an = Analysis::run(&netlist, &graph, &m);
        let report = check_equivalence(&[&a_an], &m_an);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn section2_example_rewritten_constraints_are_equivalent() {
        // §2: an exception written on endpoints vs startpoints can have
        // the same effect even though the text differs.
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        // All paths into rX/D come from rA, through inv1/Z only.
        let by_endpoint = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n\
             set_false_path -to [get_pins rX/D]\n",
        );
        let by_through = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n\
             set_false_path -through [get_pins inv1/Z] -to [get_pins rX/D]\n",
        );
        let a = Analysis::run(&netlist, &graph, &by_endpoint);
        let b = Analysis::run(&netlist, &graph, &by_through);
        let report = check_equivalence(&[&a], &b);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn extra_paths_in_merged_detected() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let indiv = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n\
             set_false_path -to [get_pins rX/D]\n",
        );
        let merged = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n",
        );
        let a = Analysis::run(&netlist, &graph, &indiv);
        let m = Analysis::run(&netlist, &graph, &merged);
        let report = check_equivalence(&[&a], &m);
        assert!(!report.equivalent);
        assert_eq!(report.extra_in_merged.len(), 2, "setup + hold relation");
        assert!(report.missing_in_merged.is_empty());
    }

    #[test]
    fn missing_paths_in_merged_detected() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let indiv = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n",
        );
        let merged = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n\
             set_false_path -to [get_pins rX/D]\n",
        );
        let a = Analysis::run(&netlist, &graph, &indiv);
        let m = Analysis::run(&netlist, &graph, &merged);
        let report = check_equivalence(&[&a], &m);
        assert!(!report.equivalent);
        assert!(report.extra_in_merged.is_empty());
        assert!(!report.missing_in_merged.is_empty());
    }

    #[test]
    fn union_accumulates_modes() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let a = bind(
            &netlist,
            "create_clock -name clkA -period 10 [get_ports clk1]\n",
        );
        let b = bind(
            &netlist,
            "create_clock -name clkB -period 20 [get_ports clk1]\n",
        );
        let a_an = Analysis::run(&netlist, &graph, &a);
        let b_an = Analysis::run(&netlist, &graph, &b);
        let union = union_relations(&[&a_an, &b_an]);
        let a_an2 = Analysis::run(&netlist, &graph, &a);
        assert!(union.len() > a_an2.relations().len());
    }
}
