//! The merge session: a shared analysis-cache layer.
//!
//! Every stage of the paper's pipeline — the mock merges behind the
//! mergeability graph (§3), the refinement fixed point (§3.1.8/§3.2) and
//! the final §2 validation — needs per-mode [`Analysis`] results, and
//! before this layer existed each stage re-ran them from scratch. A
//! [`MergeSession`] owns the netlist view for one merging run and
//! memoizes exactly one analysis per input mode, so the expensive STA
//! propagation happens once per mode per session no matter how many
//! stages (or how many cliques sharing a mode boundary) consume it.
//!
//! Lifetimes force a two-phase construction: [`Analysis`] borrows the
//! timing graph and the bound [`Mode`]s, so those live in a
//! [`SessionInputs`] value the caller keeps alive, and the session
//! borrows it:
//!
//! ```
//! use modemerge_core::{MergeOptions, ModeInput, MergeSession, SessionInputs};
//! use modemerge_netlist::paper::paper_circuit;
//!
//! let netlist = paper_circuit();
//! let inputs = vec![
//!     ModeInput::parse("A", "create_clock -name c -period 10 [get_ports clk1]\n").unwrap(),
//!     ModeInput::parse("B", "create_clock -name c -period 10 [get_ports clk1]\n").unwrap(),
//! ];
//! let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
//! let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
//! let outcome = session.merge_all().unwrap();
//! assert_eq!(outcome.merged.len(), 1);
//! assert_eq!(session.analyses_run(), 2, "one analysis per mode, ever");
//! ```
//!
//! When `options.threads > 1` the warm-up, the pair mock merges and
//! `merge_all`'s cliques run on the scoped-thread pool ([`crate::pool`]);
//! results are assembled in index order, so output is bit-identical for
//! any thread count. Cliques share no modes, so they merge concurrently;
//! pools nested inside a clique run inline, and each clique frees its
//! modes' derived-table memos ([`Analysis::release_memos`]) when done.

use crate::eco::stage_reuse::{GroupCapture, StageReuse};
use crate::eco::{EcoEngine, EcoRunReport};
use crate::error::{MergeConflict, MergeError};
use crate::json::Json;
use crate::merge::{MergeAllOutcome, MergeOptions, MergeOutcome, MergeReport, ModeInput};
use crate::mergeability::{greedy_cliques, static_fingerprints, MergeabilityGraph};
use crate::pool;
use crate::preliminary::preliminary_merge_reused;
use crate::provenance::DiagnosticSink;
use crate::refine::refine;
use modemerge_netlist::Netlist;
use modemerge_sta::analysis::Analysis;
use modemerge_sta::graph::TimingGraph;
use modemerge_sta::memo::MemoBudget;
use modemerge_sta::mode::Mode;
use modemerge_sta::relations::RelationSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cumulative per-stage wall-clock totals of one session, in
/// nanoseconds. Snapshot type returned by
/// [`MergeSession::stage_timings`]; the service aggregates these across
/// requests for its `stats` reply.
///
/// `analysis_ns`, `preliminary_ns`, `refine_ns` and `validate_ns` are
/// summed across worker threads (the per-mode analyses and
/// `merge_all`'s concurrent cliques): CPU-parallel work counts once per
/// thread, so these can exceed wall time. `mergeability_ns` is timed on
/// the calling thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimings {
    /// Per-mode STA analyses ([`Analysis::run`], cache misses only).
    pub analysis_ns: u64,
    /// Mergeability-graph construction (mock pair merges, §3).
    pub mergeability_ns: u64,
    /// Preliminary merging (§3.1) of accepted groups.
    pub preliminary_ns: u64,
    /// Refinement fixed point (§3.1.8 + §3.2, includes the 3-pass).
    pub refine_ns: u64,
    /// Final §2 equivalence validation (run inside refinement on the
    /// fixed point's merged analysis, but charged here, not to
    /// `refine_ns`).
    pub validate_ns: u64,
    /// 3-pass breakdown: endpoint comparison (pass 1). Part of
    /// `refine_ns`, not additive into [`Self::total_ns`].
    pub pass1_ns: u64,
    /// 3-pass breakdown: per-startpoint refinement (pass 2).
    pub pass2_ns: u64,
    /// 3-pass breakdown: per-through-point refinement (pass 3).
    pub pass3_ns: u64,
    /// Single-startpoint propagations actually run by the 3-pass
    /// (memo misses across all analyses involved).
    pub propagations: u64,
    /// Propagation queries served from the per-startpoint memo.
    pub propagation_cache_hits: u64,
    /// Bounded-memo evictions across every analysis the session has
    /// touched: the live per-mode caches plus the merged analyses
    /// created (and dropped) inside refinement. Zero
    /// unless the memo budget is small enough to force recomputation.
    pub memo_evictions: u64,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total_ns(&self) -> u64 {
        self.analysis_ns
            + self.mergeability_ns
            + self.preliminary_ns
            + self.refine_ns
            + self.validate_ns
    }

    /// Accumulates another snapshot into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.analysis_ns += other.analysis_ns;
        self.mergeability_ns += other.mergeability_ns;
        self.preliminary_ns += other.preliminary_ns;
        self.refine_ns += other.refine_ns;
        self.validate_ns += other.validate_ns;
        self.pass1_ns += other.pass1_ns;
        self.pass2_ns += other.pass2_ns;
        self.pass3_ns += other.pass3_ns;
        self.propagations += other.propagations;
        self.propagation_cache_hits += other.propagation_cache_hits;
        self.memo_evictions += other.memo_evictions;
    }

    /// Serializes to the in-tree JSON value (stage name → nanoseconds).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("analysis_ns".into(), Json::num(self.analysis_ns as f64)),
            (
                "mergeability_ns".into(),
                Json::num(self.mergeability_ns as f64),
            ),
            (
                "preliminary_ns".into(),
                Json::num(self.preliminary_ns as f64),
            ),
            ("refine_ns".into(), Json::num(self.refine_ns as f64)),
            ("validate_ns".into(), Json::num(self.validate_ns as f64)),
            ("total_ns".into(), Json::num(self.total_ns() as f64)),
            (
                "three_pass".into(),
                Json::Obj(vec![
                    ("pass1_ns".into(), Json::num(self.pass1_ns as f64)),
                    ("pass2_ns".into(), Json::num(self.pass2_ns as f64)),
                    ("pass3_ns".into(), Json::num(self.pass3_ns as f64)),
                    ("propagations".into(), Json::num(self.propagations as f64)),
                    (
                        "propagation_cache_hits".into(),
                        Json::num(self.propagation_cache_hits as f64),
                    ),
                    (
                        "memo_evictions".into(),
                        Json::num(self.memo_evictions as f64),
                    ),
                ]),
            ),
        ])
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Thread-safe accumulator behind [`StageTimings`].
#[derive(Debug, Default)]
struct StageClock {
    analysis_ns: AtomicU64,
    mergeability_ns: AtomicU64,
    preliminary_ns: AtomicU64,
    refine_ns: AtomicU64,
    validate_ns: AtomicU64,
    pass1_ns: AtomicU64,
    pass2_ns: AtomicU64,
    pass3_ns: AtomicU64,
    propagations: AtomicU64,
    propagation_cache_hits: AtomicU64,
    /// Evictions harvested from merged analyses that have been dropped
    /// (refinement iterations); live per-mode analyses are read
    /// directly at snapshot time.
    memo_evictions: AtomicU64,
}

impl StageClock {
    fn charge(counter: &AtomicU64, t0: Instant) {
        counter.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageTimings {
        StageTimings {
            analysis_ns: self.analysis_ns.load(Ordering::Relaxed),
            mergeability_ns: self.mergeability_ns.load(Ordering::Relaxed),
            preliminary_ns: self.preliminary_ns.load(Ordering::Relaxed),
            refine_ns: self.refine_ns.load(Ordering::Relaxed),
            validate_ns: self.validate_ns.load(Ordering::Relaxed),
            pass1_ns: self.pass1_ns.load(Ordering::Relaxed),
            pass2_ns: self.pass2_ns.load(Ordering::Relaxed),
            pass3_ns: self.pass3_ns.load(Ordering::Relaxed),
            propagations: self.propagations.load(Ordering::Relaxed),
            propagation_cache_hits: self.propagation_cache_hits.load(Ordering::Relaxed),
            memo_evictions: self.memo_evictions.load(Ordering::Relaxed),
        }
    }
}

/// The borrow-owning half of a merge session: the timing graph and the
/// bound modes that [`Analysis`] values reference.
///
/// Built once per merging run with [`SessionInputs::bind`]; the
/// [`MergeSession`] then borrows it.
///
/// Owning no lifetimes, a bound `SessionInputs` is also a shareable
/// artifact: the service's suite registry wraps one in an `Arc` and
/// runs many concurrent [`MergeSession`]s against it, paying the graph
/// build + bind once per suite instead of once per job. Sharing is
/// sound because `bind` seeds the clock-key interner serially in input
/// order before returning, and sessions sharing one value have (by the
/// registry's keying) identical result-affecting options, so any
/// merged-mode clocks they intern later form identical sequences —
/// get-or-insert id assignment then yields the canonical serial order
/// under every interleaving. Per-mode analyses live in each session's
/// own slots, never here, so sessions cannot observe each other's
/// memo state.
#[derive(Debug)]
pub struct SessionInputs {
    graph: TimingGraph,
    modes: Vec<Mode>,
    inputs: Vec<ModeInput>,
}

impl SessionInputs {
    /// Builds the timing graph and binds every input SDC against the
    /// netlist.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Bind`] when an input SDC fails to bind and
    /// propagates timing-graph construction errors.
    pub fn bind(netlist: &Netlist, inputs: &[ModeInput]) -> Result<Self, MergeError> {
        let graph = TimingGraph::build(netlist)?;
        let modes: Vec<Mode> = inputs
            .iter()
            .map(|i| Mode::bind(i.name.clone(), netlist, &i.sdc))
            .collect::<Result<_, _>>()?;
        // Seed the key interner serially, in input order, before any
        // (possibly parallel) analysis touches it: dense id assignment —
        // and with it every id-ordered grouping downstream — must never
        // depend on which worker thread analyzes a mode first.
        for mode in &modes {
            for clock in &mode.clocks {
                graph.interner().intern_clock(&clock.key());
            }
        }
        Ok(Self {
            graph,
            modes,
            inputs: inputs.to_vec(),
        })
    }

    /// The design's timing graph (mode-independent, built once).
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The bound modes, in input order.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// The raw inputs, in input order.
    pub fn inputs(&self) -> &[ModeInput] {
        &self.inputs
    }

    /// The mode names, in input order (a convenience for report
    /// builders that only need labels, not whole inputs).
    pub fn mode_names(&self) -> Vec<String> {
        self.inputs.iter().map(|i| i.name.clone()).collect()
    }
}

/// One merging run over a fixed set of modes, with a memoized
/// per-mode [`Analysis`] cache shared by every pipeline stage.
#[derive(Debug)]
pub struct MergeSession<'a> {
    netlist: &'a Netlist,
    inputs: &'a SessionInputs,
    options: MergeOptions,
    slots: Vec<OnceLock<Analysis<'a>>>,
    /// Lazily computed static analyzer fingerprints, one per mode
    /// (never counted as an analysis cache miss — no STA runs).
    statics_fps: OnceLock<Vec<u64>>,
    misses: AtomicUsize,
    clock: StageClock,
}

impl<'a> MergeSession<'a> {
    /// Creates a session over bound inputs. No analysis runs yet.
    pub fn new(netlist: &'a Netlist, inputs: &'a SessionInputs, options: &MergeOptions) -> Self {
        let slots = (0..inputs.modes.len()).map(|_| OnceLock::new()).collect();
        Self {
            netlist,
            inputs,
            options: options.clone(),
            slots,
            statics_fps: OnceLock::new(),
            misses: AtomicUsize::new(0),
            clock: StageClock::default(),
        }
    }

    /// The session's options.
    pub fn options(&self) -> &MergeOptions {
        &self.options
    }

    /// Number of input modes.
    pub fn mode_count(&self) -> usize {
        self.slots.len()
    }

    /// The design's timing graph.
    pub fn graph(&self) -> &'a TimingGraph {
        &self.inputs.graph
    }

    /// The `i`-th bound mode.
    pub fn mode(&self, i: usize) -> &'a Mode {
        &self.inputs.modes[i]
    }

    /// The `i`-th raw input.
    pub fn input(&self, i: usize) -> &'a ModeInput {
        &self.inputs.inputs[i]
    }

    /// The memoized analysis of mode `i`, running it on first use.
    ///
    /// [`OnceLock::get_or_init`] guarantees the closure runs exactly
    /// once even under concurrent warm-up, so the session performs at
    /// most one [`Analysis::run`] per mode for its whole lifetime.
    pub fn analysis(&self, i: usize) -> &Analysis<'a> {
        self.slots[i].get_or_init(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let analysis = Analysis::run_budgeted(
                self.netlist,
                &self.inputs.graph,
                &self.inputs.modes[i],
                MemoBudget::resolve(self.options.memo_budget_kb),
            );
            StageClock::charge(&self.clock.analysis_ns, t0);
            analysis
        })
    }

    /// Cumulative wall-clock time spent in each pipeline stage so far.
    ///
    /// Purely observational (reads relaxed atomics); stage totals keep
    /// growing as more work runs through the session.
    ///
    /// `memo_evictions` combines the harvested counters of dropped
    /// merged analyses with the current counters of the live per-mode
    /// caches, so it reflects every analysis the session has touched.
    pub fn stage_timings(&self) -> StageTimings {
        let mut t = self.clock.snapshot();
        t.memo_evictions += self
            .slots
            .iter()
            .filter_map(|s| s.get())
            .map(Analysis::memo_evictions)
            .sum::<u64>();
        t
    }

    /// The memoized §2 endpoint-relation set of mode `i` (borrowed from
    /// the cached analysis — no clone).
    pub fn relations(&self, i: usize) -> &RelationSet {
        self.analysis(i).relations()
    }

    /// How many analyses this session has actually run (cache misses).
    /// After any sequence of calls this is at most [`Self::mode_count`].
    pub fn analyses_run(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runs every per-mode analysis that is not yet cached, in parallel
    /// when `options.threads > 1`.
    pub fn warm_up(&self) {
        self.warm_indices(&(0..self.mode_count()).collect::<Vec<_>>());
    }

    /// Warms the cache for a subset of modes.
    fn warm_indices(&self, indices: &[usize]) {
        pool::run_indexed(self.options.threads, indices.len(), |k| {
            self.analysis(indices[k]);
        });
    }

    /// The static analyzer fingerprint of every mode
    /// ([`crate::mergeability::static_fingerprints`]), computed lazily
    /// on first use and cached for the session's lifetime. Costs one
    /// constant propagation plus one bitset sweep per mode — no STA.
    pub fn static_fingerprints(&self) -> &[u64] {
        self.statics_fps.get_or_init(|| {
            static_fingerprints(
                self.netlist,
                &self.inputs.graph,
                &self.inputs.modes.iter().collect::<Vec<_>>(),
            )
        })
    }

    /// Builds the mergeability graph (Figure 2) over the session's
    /// modes.
    ///
    /// Pairs with byte-identical input SDC — and, as a belt-and-braces
    /// soundness tightening, equal static analyzer fingerprints, which
    /// identical SDC always implies — are pre-screened as mergeable
    /// without running the mock merge (self-merge is an identity); all
    /// other pairs run the full mock preliminary merge, so the conflict
    /// matrix is unchanged by the pre-screen.
    pub fn mergeability(&self) -> MergeabilityGraph {
        self.mergeability_with(|_, _| None)
    }

    /// [`Self::mergeability`] with a resolver hook (the eco engine's
    /// pair cache): `resolve(i, j) = Some(conflicts)` answers a pair
    /// without running its mock merge. The identical-SDC pre-screen
    /// still applies first, exactly as in the cold path.
    pub(crate) fn mergeability_with(
        &self,
        resolve: impl Fn(usize, usize) -> Option<Vec<MergeConflict>> + Sync,
    ) -> MergeabilityGraph {
        let t0 = Instant::now();
        let mode_refs: Vec<&Mode> = self.inputs.modes.iter().collect();
        let fps = self.static_fingerprints();
        let graph =
            MergeabilityGraph::build_with(self.netlist, &mode_refs, &self.options, |i, j| {
                // Tightening the fast-accept with the fingerprint check
                // cannot change the verdict: identical SDC implies equal
                // fingerprints (the analysis is a pure function of
                // netlist + bound mode), so the condition below accepts
                // exactly the pairs the SDC check alone accepted — while
                // guarding against any future identity drift between
                // parse-level equality and bound-mode equality.
                if self.inputs.inputs[i].sdc == self.inputs.inputs[j].sdc && fps[i] == fps[j] {
                    return Some(Vec::new());
                }
                resolve(i, j)
            });
        StageClock::charge(&self.clock.mergeability_ns, t0);
        graph
    }

    /// Merges one group of modes, identified by indices into the input
    /// list, through the full §3 pipeline: preliminary merge, refinement
    /// against the *cached* individual analyses, and §2 validation (on
    /// the refinement fixed point's own merged analysis).
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::EmptyGroup`] for an empty group,
    /// [`MergeError::NotMergeable`] when the group conflicts,
    /// [`MergeError::ValidationFailed`] when the final equivalence check
    /// finds differences, and propagates binding/refinement errors.
    pub fn merge_indices(&self, group: &[usize]) -> Result<MergeOutcome, MergeError> {
        self.merge_indices_captured(group, None, None)
    }

    /// [`Self::merge_indices`] with the eco engine's hooks: `reuse`
    /// replays unchanged preliminary stages from a previous run, and
    /// `capture` (when provided) is filled with the boundary counts
    /// separating the preliminary output from the refinement tail so
    /// the engine can record a replayable [`GroupCapture`] tail.
    pub(crate) fn merge_indices_captured(
        &self,
        group: &[usize],
        reuse: Option<&mut StageReuse<'_>>,
        capture: Option<&mut GroupCapture>,
    ) -> Result<MergeOutcome, MergeError> {
        let Some(&first) = group.first() else {
            return Err(MergeError::EmptyGroup);
        };
        if group.len() == 1 {
            let input = self.input(first);
            return Ok(MergeOutcome {
                merged: input.clone(),
                report: MergeReport {
                    mode_names: vec![input.name.clone()],
                    validated: true,
                    ..Default::default()
                },
            });
        }
        let modes: Vec<&Mode> = group.iter().map(|&i| self.mode(i)).collect();

        // §3.1 preliminary merging (also the conflict check).
        let t0 = Instant::now();
        let prelim = preliminary_merge_reused(self.netlist, &modes, &self.options, reuse);
        StageClock::charge(&self.clock.preliminary_ns, t0);
        if let Some(cap) = capture {
            *cap = GroupCapture {
                prelim_commands: prelim.sdc.commands().len(),
                prelim_records: prelim.provenance.records().len(),
                prelim_attachments: prelim.provenance.attachments().count(),
                prelim_diags: prelim.diagnostics.len(),
            };
        }
        if !prelim.conflicts.is_empty() {
            return Err(MergeError::NotMergeable {
                conflicts: prelim.conflicts,
            });
        }

        // §3.1.8 + §3.2 refinement against the cached analyses. The
        // provenance store and diagnostics bus seeded by the preliminary
        // stages keep accumulating: refine appends to the same SDC, so
        // command indices line up.
        self.warm_indices(group);
        let analyses: Vec<&Analysis<'a>> = group.iter().map(|&i| self.analysis(i)).collect();
        let mut provenance = prelim.provenance;
        let mut diags = DiagnosticSink::new();
        for d in &prelim.diagnostics {
            diags.emit(d.code, d.message.clone());
        }
        let t0 = Instant::now();
        let refined = refine(
            self.netlist,
            self.graph(),
            &analyses,
            prelim.sdc,
            &self.options,
            &mut provenance,
            &mut diags,
        );
        // The fixed-point validation runs inside refine; charge it to
        // its own stage.
        let validate_ns = refined.as_ref().map_or(0, |r| r.validate_ns);
        let c = &self.clock;
        c.refine_ns
            .fetch_add(elapsed_ns(t0) - validate_ns, Ordering::Relaxed);
        c.validate_ns.fetch_add(validate_ns, Ordering::Relaxed);
        let refined = refined?;
        // Per-pass breakdown of the 3-pass comparison inside refine.
        c.pass1_ns.fetch_add(refined.pass1_ns, Ordering::Relaxed);
        c.pass2_ns.fetch_add(refined.pass2_ns, Ordering::Relaxed);
        c.pass3_ns.fetch_add(refined.pass3_ns, Ordering::Relaxed);
        c.propagations
            .fetch_add(refined.propagations, Ordering::Relaxed);
        c.propagation_cache_hits
            .fetch_add(refined.propagation_cache_hits, Ordering::Relaxed);
        c.memo_evictions
            .fetch_add(refined.memo_evictions, Ordering::Relaxed);

        // §2 equivalence validation. Relations missing from the merged
        // mode are always fatal (the merged mode would miss violations);
        // extra relations are fatal only in strict mode (pessimism).
        let mut validated = false;
        let mut extra_relations = 0;
        if let Some(report) = &refined.equivalence {
            if !report.missing_in_merged.is_empty()
                || (self.options.strict && !report.extra_in_merged.is_empty())
            {
                return Err(MergeError::ValidationFailed {
                    extra_in_merged: report.extra_in_merged.len(),
                    missing_in_merged: report.missing_in_merged.len(),
                });
            }
            extra_relations = report.extra_in_merged.len();
            validated = true;
        }

        let merged_name = group
            .iter()
            .map(|&i| self.input(i).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        Ok(MergeOutcome {
            merged: ModeInput::new(merged_name, refined.sdc),
            report: MergeReport {
                mode_names: group.iter().map(|&i| self.input(i).name.clone()).collect(),
                clock_count: prelim.clock_table.len(),
                dropped_cases: prelim.dropped_cases.len(),
                disabled_case_pins: prelim.disabled_case_pins.len(),
                dropped_false_paths: prelim.dropped_false_paths,
                uniquified_exceptions: prelim.uniquified_exceptions,
                clock_stops: refined.clock_stops,
                data_cut_false_paths: refined.data_cut_false_paths,
                comparison_false_paths: refined.comparison_false_paths,
                pass2_endpoints: refined.pass2_endpoints,
                pass3_pairs: refined.pass3_pairs,
                refine_iterations: refined.iterations,
                residual_pessimism: refined.residual_pessimism,
                extra_relations,
                validated,
                diagnostics: diags.into_vec(),
                provenance,
            },
        })
    }

    /// The full plan-and-merge flow over the session's modes: build the
    /// mergeability graph, cover it with greedy cliques and merge every
    /// clique — all against the shared analysis cache, the cliques
    /// concurrently when `options.threads > 1`.
    ///
    /// Cliques that unexpectedly fail deep refinement (the mock merge
    /// only checks preliminary-level conflicts) fall back to keeping
    /// their modes individual, so the flow always produces a usable mode
    /// set.
    ///
    /// # Errors
    ///
    /// Infallible per group (failures fall back), but kept fallible for
    /// forward compatibility with strict planning policies.
    pub fn merge_all(&self) -> Result<MergeAllOutcome, MergeError> {
        self.merge_all_on(pool::workers(self.options.threads))
    }

    /// [`Self::merge_all`] with its cliques merged on `workers` pool
    /// workers — the seam that lets tests force concurrent cliques on
    /// any host.
    ///
    /// Cliques share no modes, so each runs independently and the
    /// results are stitched in group order. Only cliques of two or more
    /// modes are pool jobs (a singleton is passed through as is), so a
    /// lone clique runs at top level and its own pools get every worker.
    pub(crate) fn merge_all_on(&self, workers: usize) -> Result<MergeAllOutcome, MergeError> {
        let mgraph = self.mergeability();
        let groups = greedy_cliques(&mgraph);
        let cliques: Vec<&[usize]> = groups
            .iter()
            .map(Vec::as_slice)
            .filter(|g| g.len() > 1)
            .collect();
        let mut clique_outcomes = pool::run_with_workers(workers, cliques.len(), |k| {
            let outcome = self.merge_indices(cliques[k]);
            // Every mode belongs to exactly one clique: nothing reads
            // these memos again in this flow.
            for slot in cliques[k].iter().filter_map(|&i| self.slots[i].get()) {
                slot.release_memos();
            }
            outcome
        })
        .into_iter();

        let mut merged = Vec::new();
        let mut reports = Vec::new();
        for group in &groups {
            // A singleton's merge is a pass-through.
            let outcome = if group.len() > 1 {
                clique_outcomes.next()
            } else {
                None
            }
            .unwrap_or_else(|| self.merge_indices(group));
            match outcome {
                Ok(outcome) => {
                    merged.push(outcome.merged);
                    reports.push(outcome.report);
                }
                Err(_) => {
                    // Deep-refinement failure: keep the group's modes
                    // as-is.
                    for &i in group {
                        let input = self.input(i).clone();
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
        Ok(MergeAllOutcome {
            merged,
            groups,
            reports,
        })
    }

    /// Runs just the §3.1 preliminary pipeline for a group (the eco
    /// engine's value-edit tier, which replays the refinement tail
    /// instead of re-running STA). Charges `preliminary_ns` like the
    /// full path.
    pub(crate) fn preliminary_for(
        &self,
        group: &[usize],
        reuse: Option<&mut StageReuse<'_>>,
    ) -> crate::preliminary::Preliminary {
        let modes: Vec<&Mode> = group.iter().map(|&i| self.mode(i)).collect();
        let t0 = Instant::now();
        let prelim = preliminary_merge_reused(self.netlist, &modes, &self.options, reuse);
        StageClock::charge(&self.clock.preliminary_ns, t0);
        prelim
    }

    /// Incremental re-merge (ECO flow): delegates to
    /// [`EcoEngine::remerge`], which diffs this session's inputs against
    /// the engine's cached baseline and reuses every artifact the delta
    /// leaves valid. `input_fp` identifies the design (conventionally
    /// [`crate::eco::fingerprint`] of the netlist text) — a changed
    /// design invalidates the baseline wholesale. With `check = true`
    /// the engine also runs the cold path and panics on any divergence
    /// (the `MODEMERGE_ECO_CHECK=1` debug mode).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::merge_all`] errors from recomputed portions.
    pub fn rebind_delta(
        &self,
        engine: &mut EcoEngine,
        input_fp: u64,
        check: bool,
    ) -> Result<(MergeAllOutcome, EcoRunReport), MergeError> {
        engine.remerge(self, input_fp, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modemerge_netlist::paper::paper_circuit;

    fn inputs_from(texts: &[(&str, &str)]) -> Vec<ModeInput> {
        texts
            .iter()
            .map(|(name, text)| ModeInput::parse(*name, text).unwrap())
            .collect()
    }

    #[test]
    fn analyses_run_exactly_once_per_mode() {
        let netlist = paper_circuit();
        let inputs = inputs_from(&[
            ("A", "create_clock -name c -period 10 [get_ports clk1]\n"),
            ("B", "create_clock -name c -period 10 [get_ports clk1]\n"),
            (
                "C",
                "create_clock -name c -period 10 [get_ports clk1]\n\
                 set_clock_latency 9 [get_clocks c]\n",
            ),
        ]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
        assert_eq!(session.analyses_run(), 0, "construction is lazy");
        // Drive the whole pipeline: mergeability + cliques + merge.
        let outcome = session.merge_all().unwrap();
        assert_eq!(outcome.merged.len(), 2);
        // Repeated consumption hits the cache only.
        session.warm_up();
        for i in 0..session.mode_count() {
            let _ = session.relations(i);
            let _ = session.analysis(i);
        }
        assert!(
            session.analyses_run() <= session.mode_count(),
            "ran {} analyses for {} modes",
            session.analyses_run(),
            session.mode_count()
        );
    }

    #[test]
    fn cached_relations_match_fresh_analysis() {
        let netlist = paper_circuit();
        let inputs = inputs_from(&[
            ("A", "create_clock -name clkA -period 10 [get_ports clk1]\n"),
            ("B", "create_clock -name clkB -period 4 [get_ports clk2]\n"),
        ]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
        for i in 0..session.mode_count() {
            let fresh = Analysis::run(&netlist, bound.graph(), &bound.modes()[i]);
            assert_eq!(session.relations(i), fresh.relations());
        }
    }

    #[test]
    fn identical_sdc_pairs_are_prescreened() {
        let netlist = paper_circuit();
        let text = "create_clock -name c -period 10 [get_ports clk1]\n";
        let inputs = inputs_from(&[("A", text), ("B", text), ("C", text)]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
        let g = session.mergeability();
        for i in 0..3 {
            for j in 0..3 {
                assert!(g.mergeable(i, j));
            }
        }
        let cliques = greedy_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn merge_indices_empty_group_errors() {
        let netlist = paper_circuit();
        let inputs = inputs_from(&[("A", "create_clock -name c -period 10 [get_ports clk1]\n")]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
        assert!(matches!(
            session.merge_indices(&[]),
            Err(MergeError::EmptyGroup)
        ));
        // Singleton passthrough runs no analysis.
        let out = session.merge_indices(&[0]).unwrap();
        assert_eq!(out.merged.sdc, inputs[0].sdc);
        assert_eq!(session.analyses_run(), 0);
    }

    #[test]
    fn stage_timings_accumulate_across_the_pipeline() {
        let netlist = paper_circuit();
        let inputs = inputs_from(&[
            ("A", "create_clock -name c -period 10 [get_ports clk1]\n"),
            (
                "B",
                "create_clock -name c -period 10 [get_ports clk1]\n\
                 set_false_path -to rX/D\n",
            ),
        ]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
        assert_eq!(session.stage_timings(), StageTimings::default());
        session.merge_all().unwrap();
        let t = session.stage_timings();
        assert!(t.mergeability_ns > 0, "{t:?}");
        assert!(t.analysis_ns > 0, "{t:?}");
        assert!(t.preliminary_ns > 0, "{t:?}");
        assert!(t.refine_ns > 0, "{t:?}");
        assert!(t.validate_ns > 0, "{t:?}");
        assert_eq!(
            t.total_ns(),
            t.analysis_ns + t.mergeability_ns + t.preliminary_ns + t.refine_ns + t.validate_ns
        );
        // The 3-pass breakdown nests inside the refine stage: it never
        // inflates the total, and its sum is bounded by the refine wall.
        assert!(t.pass1_ns > 0, "{t:?}");
        assert!(t.pass1_ns + t.pass2_ns + t.pass3_ns <= t.refine_ns, "{t:?}");
        let mut acc = StageTimings::default();
        acc.accumulate(&t);
        acc.accumulate(&t);
        assert_eq!(acc.total_ns(), 2 * t.total_ns());
        assert_eq!(acc.pass1_ns, 2 * t.pass1_ns);
        assert_eq!(acc.propagations, 2 * t.propagations);
        let json = t.to_json();
        assert_eq!(
            json.get("total_ns").unwrap().as_u64(),
            Some(t.total_ns()),
            "{json}"
        );
        let tp = json.get("three_pass").expect("three_pass breakdown");
        assert_eq!(tp.get("pass1_ns").unwrap().as_u64(), Some(t.pass1_ns));
        assert_eq!(
            tp.get("propagation_cache_hits").unwrap().as_u64(),
            Some(t.propagation_cache_hits),
            "{json}"
        );
    }

    #[test]
    fn parallel_session_matches_serial() {
        let netlist = paper_circuit();
        let inputs = inputs_from(&[
            ("F1", "create_clock -name c -period 10 [get_ports clk1]\n"),
            ("F2", "create_clock -name c -period 10 [get_ports clk1]\n"),
            (
                "T1",
                "create_clock -name c -period 10 [get_ports clk1]\n\
                 set_clock_latency 9 [get_clocks c]\n",
            ),
            ("S1", "create_clock -name s -period 4 [get_ports clk2]\n"),
        ]);
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let run = |threads: usize| {
            let session = MergeSession::new(
                &netlist,
                &bound,
                &MergeOptions {
                    threads,
                    ..Default::default()
                },
            );
            session.warm_up();
            session.merge_all().unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.groups, parallel.groups);
        let texts = |o: &MergeAllOutcome| -> Vec<(String, String)> {
            o.merged
                .iter()
                .map(|m| (m.name.clone(), m.sdc.to_text()))
                .collect()
        };
        assert_eq!(texts(&serial), texts(&parallel));
    }

    /// Everything `merge_all` hands back, as comparable text: group
    /// cover, merged SDC per mode and the JSON report.
    fn outcome_bytes(o: &MergeAllOutcome, inputs: usize) -> (Vec<Vec<usize>>, String, String) {
        let sdc = o
            .merged
            .iter()
            .map(|m| format!("=== {} ===\n{}", m.name, m.sdc.to_text()))
            .collect();
        let json = crate::report::outcome_to_json(o, inputs).to_string();
        (o.groups.clone(), sdc, json)
    }

    /// Modes on the paper circuit whose clock latency (a multiple of 9)
    /// conflicts with every other latency, so each latency is its own
    /// clique.
    fn latency_mode(name: &str, latency: u32, extra: &str) -> ModeInput {
        let text = format!(
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_clock_latency {latency} [get_clocks c]\n\
             set_input_delay 1 -clock c [get_ports in1]\n\
             set_output_delay 1 -clock c [get_ports out1]\n{extra}"
        );
        ModeInput::parse(name, &text).unwrap()
    }

    #[test]
    fn forced_concurrent_cliques_come_back_in_group_order() {
        let netlist = paper_circuit();
        // Clique 0 is the largest and does the most refinement, so the
        // singletons and the pair behind it finish first.
        let inputs = vec![
            latency_mode("A0", 0, "set_false_path -to rX/D\n"),
            latency_mode("A1", 0, "set_false_path -from rA/CP\n"),
            latency_mode("A2", 0, "set_false_path -through inv3/Z\n"),
            latency_mode("B0", 9, ""),
            latency_mode("C0", 18, "set_false_path -to rZ/D\n"),
            latency_mode("C1", 18, "set_false_path -to rY/D\n"),
            latency_mode("D0", 27, ""),
        ];
        let run = |workers: usize| {
            let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
            let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
            outcome_bytes(&session.merge_all_on(workers).unwrap(), inputs.len())
        };
        let serial = run(1);
        assert_eq!(
            serial.0,
            vec![vec![0, 1, 2], vec![3], vec![4, 5], vec![6]],
            "four cliques, the largest first"
        );
        assert!(serial.1.contains("=== A0+A1+A2 ==="), "{}", serial.1);
        for _ in 0..5 {
            assert_eq!(run(4), serial);
        }
    }

    #[test]
    fn renamed_virtual_clocks_merge_identically_at_any_thread_count() {
        // Every clique merges a period-10 virtual clock `v` with a
        // period-20 one and renames the latter `v_1`, a key no input
        // mode has, so it is interned during the clique's merge, in
        // whatever order the cliques get there. The second clique also
        // renames `u` to `u_1`. In the third, `v` carries an input
        // delay, so the clique falls back to its individual modes.
        let netlist = paper_circuit();
        let virt = |u: u32, v: u32| {
            format!("create_clock -name u -period {u}\ncreate_clock -name v -period {v}\n")
        };
        let delayed = |v: u32| {
            format!(
                "{}set_input_delay 1 -clock v -add_delay [get_ports in1]\n",
                virt(5, v)
            )
        };
        let inputs = vec![
            latency_mode("P1", 0, &virt(5, 10)),
            latency_mode("P2", 0, &virt(5, 20)),
            latency_mode("Q1", 9, &virt(5, 10)),
            latency_mode("Q2", 9, &virt(7, 20)),
            latency_mode("R1", 18, &delayed(10)),
            latency_mode("R2", 18, &delayed(20)),
        ];
        // `workers: None` is the public entry point at `threads`.
        let run = |threads: usize, workers: Option<usize>| {
            let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
            let options = MergeOptions {
                threads,
                ..Default::default()
            };
            let session = MergeSession::new(&netlist, &bound, &options);
            let outcome = match workers {
                Some(w) => session.merge_all_on(w),
                None => session.merge_all(),
            };
            outcome_bytes(&outcome.unwrap(), inputs.len())
        };
        let serial = run(1, None);
        assert_eq!(serial.0, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert!(serial.1.contains("-name v_1 -period 20"), "{}", serial.1);
        assert!(serial.1.contains("-name u_1 -period 7"), "{}", serial.1);
        assert!(
            serial.1.contains("=== R1 ==="),
            "R falls back: {}",
            serial.1
        );
        // Scheduling-dependent when broken, so repeat.
        for _ in 0..20 {
            for threads in [1, 2, 8] {
                assert_eq!(run(threads, None), serial, "threads={threads}");
            }
            assert_eq!(run(1, Some(4)), serial);
        }
    }

    #[test]
    fn arc_shared_inputs_match_serial_across_concurrent_sessions() {
        // The service's shared-bound path: one Arc<SessionInputs>, many
        // concurrent sessions with identical result-affecting options.
        // Every session must emit the bytes a private serial bind would.
        use std::sync::Arc;
        let netlist = Arc::new(paper_circuit());
        let inputs = inputs_from(&[
            ("F1", "create_clock -name c -period 10 [get_ports clk1]\n"),
            ("F2", "create_clock -name c -period 10 [get_ports clk1]\n"),
            (
                "T1",
                "create_clock -name c -period 10 [get_ports clk1]\n\
                 set_clock_latency 9 [get_clocks c]\n",
            ),
            ("S1", "create_clock -name s -period 4 [get_ports clk2]\n"),
        ]);
        let texts = |o: &MergeAllOutcome| -> Vec<(String, String)> {
            o.merged
                .iter()
                .map(|m| (m.name.clone(), m.sdc.to_text()))
                .collect()
        };
        // Reference: a private bind, serial run.
        let reference = {
            let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
            let session = MergeSession::new(&netlist, &bound, &MergeOptions::default());
            texts(&session.merge_all().unwrap())
        };
        let shared = Arc::new(SessionInputs::bind(&netlist, &inputs).unwrap());
        assert_eq!(shared.mode_names(), ["F1", "F2", "T1", "S1"]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let netlist = Arc::clone(&netlist);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let session = MergeSession::new(&netlist, &shared, &MergeOptions::default());
                    let o = session.merge_all().unwrap();
                    o.merged
                        .iter()
                        .map(|m| (m.name.clone(), m.sdc.to_text()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), reference);
        }
    }
}
