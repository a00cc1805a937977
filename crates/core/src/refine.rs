//! Refinement of the preliminary merged mode (§3.1.8 and §3.2).
//!
//! Three refinement mechanisms run in a fixed point loop:
//!
//! 1. **Clock refinement** (§3.1.8) — BFS through the clock network; any
//!    clock present on a node in the merged mode but on no individual
//!    mode gets a `set_clock_sense -stop_propagation` at the frontier
//!    (Constraint Set 3's CSTR3).
//! 2. **Data refinement, step 1** (§3.2) — launch clocks reaching data
//!    nodes in the merged mode but in no individual mode are cut with
//!    `set_false_path -from <clock> -through <frontier pins>`
//!    (Constraint Set 5's CSTR6).
//! 3. **Data refinement, step 2** — the [3-pass
//!    comparison](crate::three_pass) adds precise false paths for every
//!    remaining extra path class (Constraint Set 6).
//!
//! After every batch of added constraints the merged mode is re-bound and
//! re-analyzed; the loop ends when a full round adds nothing. That last
//! round's merged analysis is exactly the analysis of the refined SDC, so
//! the §2 validation (when `options.validate`) runs on it.

use crate::emit::{clocks_ref, pins_refs};
use crate::equivalence::{check_equivalence, EquivalenceReport};
use crate::error::{MergeConflict, MergeError};
use crate::merge::MergeOptions;
use crate::provenance::{Contrib, DiagnosticSink, ProvenanceStore, RuleCode};
use crate::three_pass::compare_and_fix;
use modemerge_netlist::{Netlist, PinId};
use modemerge_sdc::{
    Command, PathException, PathExceptionKind, PathSpec, SdcFile, SetClockSense, SetupHold,
};
use modemerge_sta::analysis::Analysis;
use modemerge_sta::graph::TimingGraph;
use modemerge_sta::keys::ClockKeyId;
use modemerge_sta::memo::MemoBudget;
use modemerge_sta::mode::{ClockId, Mode};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Statistics and output of the refinement loop.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined merged-mode SDC.
    pub sdc: SdcFile,
    /// Number of `set_clock_sense -stop_propagation` constraints added.
    pub clock_stops: usize,
    /// Number of data-network clock-cut false paths added.
    pub data_cut_false_paths: usize,
    /// Number of 3-pass false paths added.
    pub comparison_false_paths: usize,
    /// Pass-2 endpoint count (over all iterations).
    pub pass2_endpoints: usize,
    /// Pass-3 pair count (over all iterations).
    pub pass3_pairs: usize,
    /// Extra merged path classes accepted as pessimism (inexpressible as
    /// precise false paths; see [`crate::three_pass`]).
    pub residual_pessimism: usize,
    /// Iterations of the fixed-point loop.
    pub iterations: usize,
    /// Wall time spent in pass 1 of the 3-pass (all iterations).
    pub pass1_ns: u64,
    /// Wall time spent in pass 2 of the 3-pass (all iterations).
    pub pass2_ns: u64,
    /// Wall time spent in pass 3 of the 3-pass (all iterations).
    pub pass3_ns: u64,
    /// Startpoint propagations run by the 3-pass (all iterations).
    pub propagations: u64,
    /// Memoized-propagation hits in the 3-pass (all iterations).
    pub propagation_cache_hits: u64,
    /// Bounded-memo evictions in the per-iteration merged analyses
    /// (harvested once, before each one is dropped).
    pub memo_evictions: u64,
    /// §2 equivalence of the refined SDC against the individual modes,
    /// checked on the fixed point's own merged analysis; `None` unless
    /// `options.validate`.
    pub equivalence: Option<EquivalenceReport>,
    /// Wall time of that check — part of the `refine` call, reported
    /// separately so callers can charge it to validation.
    pub validate_ns: u64,
}

/// One candidate fix plus its derivation, kept together so the
/// text-level dedup in the fixed-point loop cannot separate a command
/// from its provenance.
struct Derived {
    cmd: Command,
    rule: RuleCode,
    contribs: Vec<Contrib>,
    detail: String,
}

/// Per-node sets of interned clock ids ([`ClockKeyId`]) as node-major
/// `u64` bitsets: node `n`'s set is `bits[n * words..(n + 1) * words]`.
///
/// Built once per analysis (or as the union over several analyses that
/// share one timing graph, hence one interner), so frontier tests across
/// views are word-wide `merged & !union` masks, never key compares.
#[derive(Debug)]
pub struct ClockView {
    words: usize,
    bits: Vec<u64>,
}

impl ClockView {
    /// An empty view over the analyses' graph, wide enough for every
    /// clock any of them defines.
    fn empty(analyses: &[&Analysis<'_>]) -> Self {
        let nodes = analyses.first().map_or(0, |a| a.graph().node_count());
        let width = analyses
            .iter()
            .flat_map(|a| a.mode().clock_ids().map(|c| a.clock_key_id(c).index() + 1))
            .max()
            .unwrap_or(0);
        let words = width.div_ceil(64);
        Self {
            words,
            bits: vec![0; nodes * words],
        }
    }

    fn insert(&mut self, node: PinId, id: ClockKeyId) {
        self.bits[node.index() * self.words + id.index() / 64] |= 1u64 << (id.index() % 64);
    }

    /// Word `w` of `node`'s set (zero past this view's width).
    fn word(&self, node: PinId, w: usize) -> u64 {
        if w < self.words {
            self.bits[node.index() * self.words + w]
        } else {
            0
        }
    }

    /// The clock ids in `node`'s set, ascending.
    pub fn clock_ids_at(&self, node: PinId) -> Vec<ClockKeyId> {
        let start = node.index() * self.words;
        ids_in(&self.bits[start..start + self.words]).collect()
    }

    /// The §3.1.8 clock-network view: clocks arriving at each node in
    /// any of `analyses`.
    pub fn clock_network(analyses: &[&Analysis<'_>]) -> Self {
        let mut view = Self::empty(analyses);
        for a in analyses {
            for node in a.clock_arrivals().reached_nodes() {
                for arrival in a.clock_arrivals().clocks_at(node) {
                    view.insert(node, a.clock_key_id(arrival.clock));
                }
            }
        }
        view
    }

    /// The §3.2 data-network view: launch clocks *crossing* each node
    /// (arriving and continuing through at least one active arc) in any
    /// of `analyses`. The crossing view — not mere presence — is what
    /// the paper's Constraint Set 5 cut (`-through [rB/Q and1/Z]`)
    /// compares: a clock may arrive at a pin in some mode yet never pass
    /// it (a desensitized mux input), and it is the passing that creates
    /// paths.
    pub fn data_network(analyses: &[&Analysis<'_>]) -> Self {
        let mut view = Self::empty(analyses);
        for a in analyses {
            let prop = a.propagation();
            for node in prop.reached_nodes() {
                if !a.has_active_fanout(node) {
                    continue;
                }
                for &(tid, _) in prop.tags_at(node) {
                    view.insert(node, a.clock_key_id(prop.tag(tid).launch));
                }
            }
        }
        view
    }
}

/// The ids whose bits are set in one node's row, ascending.
fn ids_in(row: &[u64]) -> impl Iterator<Item = ClockKeyId> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                ClockKeyId((w * 64) as u32 + bit)
            })
        })
    })
}

/// Finds, per extra clock, the frontier pins: nodes carrying the clock in
/// the merged view but in no individual view, whose active fanin does not
/// already carry the mismatch.
///
/// Each extra clock is named by the first merged-mode clock (in mode
/// order) carrying its key — the clock that set the bit — and the result
/// is ordered by [`modemerge_sta::keys::ClockKey`], pins ascending.
fn frontier_mismatches(
    merged: &Analysis<'_>,
    merged_view: &ClockView,
    individual_union: &ClockView,
) -> Vec<(ClockId, Vec<PinId>)> {
    let extra = |node: PinId, w: usize| merged_view.word(node, w) & !individual_union.word(node, w);
    let mut frontiers: BTreeMap<ClockKeyId, Vec<PinId>> = BTreeMap::new();
    let mut row = vec![0u64; merged_view.words];
    for n in 0..merged.graph().node_count() {
        let node = PinId::new(n);
        for (w, slot) in row.iter_mut().enumerate() {
            *slot = extra(node, w);
        }
        if row.iter().all(|&word| word == 0) {
            continue;
        }
        for p in merged.active_fanin(node) {
            for (w, slot) in row.iter_mut().enumerate() {
                *slot &= !extra(p, w);
            }
        }
        for id in ids_in(&row) {
            frontiers.entry(id).or_default().push(node);
        }
    }
    let mode = merged.mode();
    let mut out: Vec<(ClockId, Vec<PinId>)> = mode
        .clock_ids()
        .filter_map(|c| {
            frontiers
                .remove(&merged.clock_key_id(c))
                .map(|pins| (c, pins))
        })
        .collect();
    out.sort_by_cached_key(|&(c, _)| mode.clock_key(c));
    out
}

/// Runs the refinement fixed-point loop on a preliminary merged SDC.
///
/// # Errors
///
/// Returns [`MergeError::NotMergeable`] when a mismatch cannot be fixed
/// by a false path, [`MergeError::Bind`] if the (engine-generated) SDC
/// fails to bind, and [`MergeError::RefinementDiverged`] if the loop does
/// not reach a fixed point within `options.max_refine_iterations`.
pub fn refine(
    netlist: &Netlist,
    graph: &TimingGraph,
    individual_analyses: &[&Analysis<'_>],
    mut sdc: SdcFile,
    options: &MergeOptions,
    prov: &mut ProvenanceStore,
    diags: &mut DiagnosticSink,
) -> Result<RefineOutcome, MergeError> {
    let indiv_clock_union = ClockView::clock_network(individual_analyses);
    let indiv_data_union = ClockView::data_network(individual_analyses);

    let mut outcome = RefineOutcome {
        sdc: SdcFile::new(),
        clock_stops: 0,
        data_cut_false_paths: 0,
        comparison_false_paths: 0,
        pass2_endpoints: 0,
        pass3_pairs: 0,
        residual_pessimism: 0,
        iterations: 0,
        pass1_ns: 0,
        pass2_ns: 0,
        pass3_ns: 0,
        propagations: 0,
        propagation_cache_hits: 0,
        memo_evictions: 0,
        equivalence: None,
        validate_ns: 0,
    };
    let mut existing: BTreeSet<String> = sdc.commands().iter().map(|c| c.to_text()).collect();

    for _ in 0..options.max_refine_iterations {
        outcome.iterations += 1;
        let merged_mode = Mode::bind("merged", netlist, &sdc)?;
        let merged = Analysis::run_budgeted(
            netlist,
            graph,
            &merged_mode,
            MemoBudget::resolve(options.memo_budget_kb),
        );
        // The stages are applied strictly in order: a clock-network stop
        // changes capture-clock sets, which changes what the data view and
        // the 3-pass comparison see, so later stages only run once earlier
        // stages are at a fixed point.
        //
        // Each candidate fix travels with its derivation (rule code,
        // contributing modes, relation detail) so dedup keeps provenance
        // aligned with the constraints that actually land in the SDC.
        let push_new = |sdc: &mut SdcFile,
                        existing: &mut BTreeSet<String>,
                        prov: &mut ProvenanceStore,
                        diags: &mut DiagnosticSink,
                        fixes: Vec<Derived>|
         -> usize {
            let mut added = 0;
            for fix in fixes {
                let text = fix.cmd.to_text();
                if existing.insert(text.clone()) {
                    let idx = sdc.commands().len();
                    sdc.push(fix.cmd);
                    prov.record_for(idx, fix.rule, fix.contribs, fix.detail.clone());
                    diags.emit(fix.rule, format!("{text} ({})", fix.detail));
                    added += 1;
                }
            }
            added
        };
        // Clocks carrying a mode's declaration (contributing modes for
        // the frontier fixes: every mode whose view lacks the clock at
        // the frontier is a witness; we attribute to the modes that
        // *define* the clock, which is what explain wants to surface).
        let modes_with_clock = |clock: ClockId| -> Vec<Contrib> {
            let key = merged.clock_key_id(clock);
            individual_analyses
                .iter()
                .enumerate()
                .filter_map(|(i, a)| {
                    a.mode()
                        .clock_ids()
                        .find(|&c| a.clock_key_id(c) == key)
                        .map(|c| (i as u32, a.mode().clock(c).line))
                })
                .collect()
        };

        // §3.1.8 clock refinement.
        let mut fixes: Vec<Derived> = Vec::new();
        let merged_clock_view = ClockView::clock_network(&[&merged]);
        for (clock, pins) in frontier_mismatches(&merged, &merged_clock_view, &indiv_clock_union) {
            let name = merged_mode.clock(clock).name.clone();
            let frontier: Vec<String> = pins.iter().map(|&p| netlist.pin_name(p)).collect();
            fixes.push(Derived {
                cmd: Command::SetClockSense(SetClockSense {
                    stop_propagation: true,
                    positive: false,
                    negative: false,
                    clocks: vec![clocks_ref([name.clone()])],
                    pins: pins_refs(netlist, pins),
                }),
                rule: RuleCode::NetStop,
                contribs: modes_with_clock(clock),
                detail: format!(
                    "clock '{name}' reaches {} in the merged mode only",
                    frontier.join(" ")
                ),
            });
        }
        let added = push_new(&mut sdc, &mut existing, prov, diags, fixes);
        if added > 0 {
            outcome.clock_stops += added;
            outcome.memo_evictions += merged.memo_evictions();
            continue;
        }

        // §3.2 step 1: data-network clock cuts.
        let mut fixes: Vec<Derived> = Vec::new();
        let merged_data_view = ClockView::data_network(&[&merged]);
        for (clock, pins) in frontier_mismatches(&merged, &merged_data_view, &indiv_data_union) {
            let name = merged_mode.clock(clock).name.clone();
            let frontier: Vec<String> = pins.iter().map(|&p| netlist.pin_name(p)).collect();
            fixes.push(Derived {
                cmd: Command::PathException(PathException {
                    kind: PathExceptionKind::FalsePath,
                    setup_hold: SetupHold::Both,
                    spec: PathSpec {
                        from: vec![clocks_ref([name.clone()])],
                        through: vec![pins_refs(netlist, pins)],
                        to: Vec::new(),
                    },
                }),
                rule: RuleCode::NetDisable,
                contribs: modes_with_clock(clock),
                detail: format!(
                    "launch clock '{name}' crosses {} in the merged mode only",
                    frontier.join(" ")
                ),
            });
        }
        let added = push_new(&mut sdc, &mut existing, prov, diags, fixes);
        if added > 0 {
            outcome.data_cut_false_paths += added;
            outcome.memo_evictions += merged.memo_evictions();
            continue;
        }

        // §3.2 step 2: the 3-pass comparison.
        let cmp = compare_and_fix(
            netlist,
            graph,
            individual_analyses,
            &merged,
            options.group_fixes,
            options.threads,
        );
        outcome.pass1_ns += cmp.pass1_ns;
        outcome.pass2_ns += cmp.pass2_ns;
        outcome.pass3_ns += cmp.pass3_ns;
        outcome.propagations += cmp.propagations;
        outcome.propagation_cache_hits += cmp.propagation_cache_hits;
        if !cmp.missing.is_empty() {
            return Err(MergeError::NotMergeable {
                conflicts: cmp
                    .missing
                    .into_iter()
                    .map(|relation| MergeConflict::UnfixableMismatch { relation })
                    .collect(),
            });
        }
        outcome.pass2_endpoints += cmp.pass2_endpoints;
        outcome.pass3_pairs += cmp.pass3_pairs;
        let derived: Vec<Derived> = cmp
            .fixes
            .into_iter()
            .zip(cmp.fix_notes)
            .map(|(cmd, note)| Derived {
                cmd,
                rule: match note.pass {
                    1 => RuleCode::FpPass1,
                    2 => RuleCode::FpPass2,
                    _ => RuleCode::FpPass3,
                },
                contribs: note.modes.iter().map(|&m| (m, 0)).collect(),
                detail: note.relation,
            })
            .collect();
        let added = push_new(&mut sdc, &mut existing, prov, diags, derived);
        if added > 0 {
            outcome.memo_evictions += merged.memo_evictions();
            outcome.comparison_false_paths += added;
            continue;
        }

        // Fixed point: `merged` analyzed exactly the SDC being returned.
        if options.validate {
            let t0 = Instant::now();
            outcome.equivalence = Some(check_equivalence(individual_analyses, &merged));
            outcome.validate_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        outcome.memo_evictions += merged.memo_evictions();
        outcome.residual_pessimism = cmp.residual.len();
        outcome.sdc = sdc;
        return Ok(outcome);
    }
    Err(MergeError::RefinementDiverged {
        iterations: outcome.iterations,
        remaining: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modemerge_netlist::paper::paper_circuit;

    fn bind(netlist: &Netlist, name: &str, text: &str) -> Mode {
        Mode::bind(name, netlist, &SdcFile::parse(text).unwrap()).unwrap()
    }

    /// Constraint Set 3: conflicting case values on the clock-mux select.
    /// Refinement must stop clkA behind the mux in the merged mode.
    #[test]
    fn constraint_set3_clock_refinement_adds_stop() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let mode_a = bind(
            &netlist,
            "A",
            "create_clock -period 10 -name clkA [get_port clk1]\n\
             create_clock -period 20 -name clkB [get_port clk2]\n\
             set_case_analysis 0 sel1\nset_case_analysis 1 sel2\n",
        );
        let mode_b = bind(
            &netlist,
            "B",
            "create_clock -period 10 -name clkA [get_port clk1]\n\
             create_clock -period 20 -name clkB [get_port clk2]\n\
             set_case_analysis 1 sel1\nset_case_analysis 0 sel2\n",
        );
        // Preliminary merged mode per the paper: clocks + disables, cases
        // dropped.
        let prelim = SdcFile::parse(
            "create_clock -name clkA -period 10 -add [get_ports clk1]\n\
             create_clock -name clkB -period 20 -add [get_ports clk2]\n\
             set_disable_timing [get_ports sel1]\n\
             set_disable_timing [get_ports sel2]\n",
        )
        .unwrap();
        let a_an = Analysis::run(&netlist, &graph, &mode_a);
        let b_an = Analysis::run(&netlist, &graph, &mode_b);
        let mut prov = ProvenanceStore::new(["A", "B"]);
        let mut diags = DiagnosticSink::new();
        let outcome = refine(
            &netlist,
            &graph,
            &[&a_an, &b_an],
            prelim,
            &MergeOptions::default(),
            &mut prov,
            &mut diags,
        )
        .unwrap();
        let text = outcome.sdc.to_text();
        assert!(
            text.contains(
                "set_clock_sense -stop_propagation -clocks [get_clocks clkA] [get_pins mux1/Z]"
            ),
            "{text}"
        );
        assert!(outcome.clock_stops >= 1);
        // The stop is diagnosed and carries provenance on the exact
        // command it produced.
        assert!(
            diags
                .diagnostics()
                .iter()
                .any(|d| d.code == RuleCode::NetStop && d.message.contains("mux1/Z")),
            "{:?}",
            diags.diagnostics()
        );
        let stop_idx = outcome
            .sdc
            .commands()
            .iter()
            .position(|c| c.to_text().starts_with("set_clock_sense"))
            .unwrap();
        let rec = prov.for_command(stop_idx).expect("stop has provenance");
        assert_eq!(rec.rule, RuleCode::NetStop);
        assert!(!rec.contribs.is_empty());
    }

    /// Constraint Set 5: clkB's launches are blocked by the rB/Q constant
    /// in mode B; the merged mode needs the CSTR6 data cut.
    #[test]
    fn constraint_set5_data_refinement_cuts_clock() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let mode_a = bind(
            &netlist,
            "A",
            "create_clock -name ClkA -period 2 [get_port clk1]\n\
             set_input_delay 2.0 -clock ClkA [get_port in1]\n\
             set_output_delay 2.0 -clock ClkA [get_port out1]\n",
        );
        let mode_b = bind(
            &netlist,
            "B",
            "create_clock -name ClkB -period 1 [get_port clk1]\n\
             set_input_delay 2.0 -clock ClkB [get_port in1]\n\
             set_output_delay 2.0 -clock ClkB [get_ports out1]\n\
             set_case_analysis 0 rB/Q\n",
        );
        let prelim = SdcFile::parse(
            "create_clock -name ClkA -period 2 -add [get_ports clk1]\n\
             create_clock -name ClkB -period 1 -add [get_ports clk1]\n\
             set_input_delay 2 -clock [get_clocks ClkA] -add_delay [get_ports in1]\n\
             set_input_delay 2 -clock [get_clocks ClkB] -add_delay [get_ports in1]\n\
             set_output_delay 2 -clock [get_clocks ClkA] -add_delay [get_ports out1]\n\
             set_output_delay 2 -clock [get_clocks ClkB] -add_delay [get_ports out1]\n\
             set_clock_groups -physically_exclusive -name ClkA_1 -group [get_clocks ClkA] -group [get_clocks ClkB]\n",
        )
        .unwrap();
        let a_an = Analysis::run(&netlist, &graph, &mode_a);
        let b_an = Analysis::run(&netlist, &graph, &mode_b);
        let mut prov = ProvenanceStore::new(["A", "B"]);
        let mut diags = DiagnosticSink::new();
        let outcome = refine(
            &netlist,
            &graph,
            &[&a_an, &b_an],
            prelim,
            &MergeOptions::default(),
            &mut prov,
            &mut diags,
        )
        .unwrap();
        let text = outcome.sdc.to_text();
        // The paper's CSTR6 (`-through [rB/Q and1/Z]`), derived here at
        // the crossing frontier: rB/Q for the constant register output,
        // and1/A for the branch the constant kills (every path through
        // and1/Z passes one of the two, so the effect is identical).
        assert!(
            text.contains(
                "set_false_path -from [get_clocks ClkB] -through [get_pins {and1/A rB/Q}]"
            ),
            "{text}"
        );
        assert!(outcome.data_cut_false_paths >= 1);
        assert!(
            diags
                .diagnostics()
                .iter()
                .any(|d| d.code == RuleCode::NetDisable),
            "{:?}",
            diags.diagnostics()
        );
    }

    #[test]
    fn identical_modes_need_no_refinement() {
        let netlist = paper_circuit();
        let graph = TimingGraph::build(&netlist).unwrap();
        let text = "create_clock -name clkA -period 10 [get_ports clk1]\n";
        let a = bind(&netlist, "A", text);
        let b = bind(&netlist, "B", text);
        let prelim = SdcFile::parse(
            "create_clock -name clkA -period 10 -waveform {0 5} -add [get_ports clk1]\n",
        )
        .unwrap();
        let a_an = Analysis::run(&netlist, &graph, &a);
        let b_an = Analysis::run(&netlist, &graph, &b);
        let mut prov = ProvenanceStore::new(["A", "B"]);
        let mut diags = DiagnosticSink::new();
        let outcome = refine(
            &netlist,
            &graph,
            &[&a_an, &b_an],
            prelim,
            &MergeOptions::default(),
            &mut prov,
            &mut diags,
        )
        .unwrap();
        assert_eq!(outcome.clock_stops, 0);
        assert_eq!(outcome.data_cut_false_paths, 0);
        assert_eq!(outcome.comparison_false_paths, 0);
        assert_eq!(outcome.iterations, 1);
        assert!(prov.is_empty());
        assert!(diags.is_empty());
    }
}
