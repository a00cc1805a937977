//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark emits, with the end-to-end metric each layer metric is
//! expected to move. `BENCHMARK.json` lists the same names and units
//! (the smoke tests hold the two in step).

/// An end-to-end metric. Every workload reports every one of them;
/// `meaning` says what it stands for on each workload.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(merge_cold, service_fleet, lsp_edit)` meanings.
    pub meaning: [&'static str; 3],
}

pub const E2E: &[E2e] = &[
    E2e {
        name: "setup_s",
        unit: "s",
        better: "lower",
        meaning: [
            "input generation",
            "input generation, daemon start, registration and first touch",
            "input generation, initialize and didOpen",
        ],
    },
    E2e {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        meaning: [
            "median cold 2-thread merge, text in to bytes out (merge_s)",
            "lower quartile of a cached hash-referenced merge read",
            "lower quartile of didChange -> publishDiagnostics",
        ],
    },
    E2e {
        name: "op2_ms",
        unit: "ms",
        better: "lower",
        meaning: [
            "median of the same merges on 1 thread (serial_merge_s)",
            "lower quartile of an edit: register + merge reply",
            "lower quartile of hover -> reply",
        ],
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        meaning: [
            "peak RSS of the merging process",
            "peak RSS of daemon and clients over set-up and the window",
            "peak RSS of server and editor",
        ],
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// How it is measured from outside the program.
    pub how: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

const MERGE: &str = "merge_cold op_ms (merge_s)";
const READ: &str = "service_fleet op_ms (svc_read_*)";
const EDIT: &str = "service_fleet op2_ms (svc_edit_*)";
const KEY: &str = "lsp_edit op_ms (lsp_keystroke_*)";

pub const LAYERS: &[Layer] = &[
    layer(
        "workload.generate_ms",
        "ms",
        "lower",
        "span around suite generation and text rendering",
        "every workload's setup_s",
    ),
    layer(
        "netlist.parse_ms",
        "ms",
        "lower",
        "span around netlist::text::parse",
        MERGE,
    ),
    layer(
        "sdc.parse_ms",
        "ms",
        "lower",
        "span around ModeInput::parse_lossy over every mode (lsp_edit: replay per keystroke)",
        "merge_cold op_ms; lsp_edit op_ms",
    ),
    layer(
        "sta.bind_ms",
        "ms",
        "lower",
        "span around SessionInputs::bind",
        MERGE,
    ),
    layer(
        "sta.analysis_ms",
        "ms",
        "lower",
        "span around MergeSession::warm_up",
        MERGE,
    ),
    layer(
        "core.mergeability_ms",
        "ms",
        "lower",
        "span around mergeability() + greedy_cliques",
        MERGE,
    ),
    layer(
        "core.merge_group_ms",
        "ms",
        "lower",
        "spans around each merge_indices(group), summed per merge",
        MERGE,
    ),
    layer(
        "core.merge_group_max_ms",
        "ms",
        "lower",
        "slowest merge_indices(group) span per merge",
        MERGE,
    ),
    layer(
        "core.preliminary_ms",
        "ms",
        "lower",
        "stage_timings() delta across merge_indices",
        MERGE,
    ),
    layer(
        "core.refine_ms",
        "ms",
        "lower",
        "stage_timings() delta across merge_indices",
        MERGE,
    ),
    layer(
        "core.three_pass_ms",
        "ms",
        "lower",
        "stage_timings() delta, pass1 + pass2 + pass3",
        MERGE,
    ),
    layer(
        "core.refine_other_ms",
        "ms",
        "lower",
        "core.refine_ms minus core.three_pass_ms",
        MERGE,
    ),
    layer(
        "core.validate_ms",
        "ms",
        "lower",
        "stage_timings() delta across merge_indices",
        MERGE,
    ),
    layer(
        "core.refine_iterations",
        "count",
        "lower",
        "sum of MergeReport::refine_iterations per merge",
        MERGE,
    ),
    layer(
        "sta.propagations",
        "count",
        "lower",
        "StageTimings::propagations delta per merge",
        MERGE,
    ),
    layer(
        "sta.propagation_hit_ratio",
        "ratio",
        "higher",
        "memo hits / (hits + propagations)",
        MERGE,
    ),
    layer(
        "sta.memo_evictions",
        "count",
        "lower",
        "StageTimings::memo_evictions delta per merge",
        "merge_cold op_ms and peak_rss_mb",
    ),
    layer(
        "core.report_ms",
        "ms",
        "lower",
        "span around outcome_to_json(..).to_string() + merged SDC to_text",
        MERGE,
    ),
    layer(
        "merge.unattributed_ms",
        "ms",
        "lower",
        "self time of the merge span not covered by a layer span",
        MERGE,
    ),
    layer(
        "service.register_ms",
        "ms",
        "lower",
        "client-timed register calls",
        EDIT,
    ),
    layer(
        "json.request_parse_ms",
        "ms",
        "lower",
        "replay of proto::Request::parse_tagged over every request line sent, mean per line",
        "service_fleet op2_ms and op_ms",
    ),
    layer(
        "json.result_parse_ms",
        "ms",
        "lower",
        "replay of Json::parse over every reply's result bytes",
        READ,
    ),
    layer(
        "service.request_bytes",
        "bytes",
        "lower",
        "mean request line size",
        "service_fleet op_ms and op2_ms",
    ),
    layer(
        "service.reply_bytes",
        "bytes",
        "lower",
        "mean reply line size",
        "service_fleet op_ms and op2_ms",
    ),
    layer(
        "service.cache_hit_ratio",
        "ratio",
        "higher",
        "stats delta: result-cache hits / (hits + misses)",
        "service_fleet op_ms",
    ),
    layer(
        "service.queue_wait_ms",
        "ms",
        "lower",
        "stats delta: queue wait_ms_total / completed",
        "service_fleet svc_read_tail_ms",
    ),
    layer(
        "service.compute_ms",
        "ms",
        "lower",
        "stats delta: stage_totals.total_ns / computed jobs",
        EDIT,
    ),
    layer(
        "eco.tail_replays",
        "count",
        "higher",
        "stats delta of cache.eco.tail_replays",
        EDIT,
    ),
    layer(
        "eco.groups_recomputed",
        "count",
        "lower",
        "stats delta of cache.eco.groups_recomputed",
        EDIT,
    ),
    layer(
        "eco.stage_reuse_ratio",
        "ratio",
        "higher",
        "stats delta: stages_reused / (stages_reused + stages_recomputed)",
        EDIT,
    ),
    layer(
        "service.bind_reuse_ratio",
        "ratio",
        "higher",
        "stats delta: bind_reuses / (binds + bind_reuses)",
        EDIT,
    ),
    layer(
        "json.message_parse_ms",
        "ms",
        "lower",
        "replay of Json::parse over every didChange line",
        KEY,
    ),
    layer(
        "analyze.lint_fast_ms",
        "ms",
        "lower",
        "replay of lint::lint_modes_fast over the buffers of every keystroke",
        KEY,
    ),
    layer(
        "lsp.publish_bytes",
        "bytes",
        "lower",
        "median publishDiagnostics line size",
        KEY,
    ),
    layer(
        "core.hover_merge_ms",
        "ms",
        "lower",
        "replay of bind + warm_up + merge_all over the buffers of every hover",
        "lsp_edit op2_ms (lsp_hover_*)",
    ),
];

pub fn layer_unit(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|l| l.name == name)
        .map_or_else(|| panic!("unknown layer metric {name}"), |l| l.unit)
}
