//! Canonical event-name vocabulary for cross-crate spans and counters.
//!
//! Producers (the characterization engine, verification, simulation,
//! synthesis, the explorer and the netlist importer) and consumers (trace
//! summaries, tests, dashboards) must agree on event names byte-for-byte
//! or the trace silently fragments; naming them once here makes the
//! compiler enforce the agreement. Every span, counter, gauge and
//! quarantine a producer records takes its name from this module.

/// Characterization-engine events (`aix-core`): one span per campaign and
/// per stage, one per synthesis or STA job, and counters that mirror the
/// campaign's `EngineReport`.
pub mod core {
    /// Span over one whole characterization campaign.
    pub const SPAN_CAMPAIGN: &str = "campaign";
    /// Span over planning: fingerprinting every synthesis job and probing
    /// the cache.
    pub const SPAN_PLAN: &str = "plan";
    /// Counter: a synthesis job's entries were all found in the on-disk
    /// cache.
    pub const CACHE_HIT: &str = "cache_hit";
    /// Counter: a synthesis job missed (or only partly hit) the on-disk
    /// cache.
    pub const CACHE_MISS: &str = "cache_miss";
    /// Gauge: synthesis jobs planned for the campaign.
    pub const SYNTH_PLANNED: &str = "synth_planned";
    /// Span over the synthesis stage: the worker pool over every planned
    /// job that missed.
    pub const SPAN_SYNTH_STAGE: &str = "synth_stage";
    /// Span over one synthesis job.
    pub const SPAN_SYNTH: &str = "synth";
    /// Span over the STA stage: the worker pool over every
    /// (job, scenario) pair that needs aged delays.
    pub const SPAN_STA_STAGE: &str = "sta_stage";
    /// Span over one STA job.
    pub const SPAN_STA: &str = "sta";
    /// Span over merging job results into characterizations and writing
    /// the cache back.
    pub const SPAN_MERGE: &str = "merge";
    /// Quarantine: a job failed for good and was left out of the
    /// campaign; one per `JobFailure`, in plan order.
    pub const QUARANTINE_JOB: &str = "job";
    /// Span over estimating one design's area, leakage and dynamic power
    /// (the `DesignMetrics` of Fig. 8c).
    pub const SPAN_DESIGN_METRICS: &str = "design_metrics";
    /// Span over comparing a plan's design with the aging-aware synthesis
    /// baseline (Fig. 8c).
    pub const SPAN_SAVINGS_COMPARE: &str = "savings_compare";
}

/// Verification-campaign events (`aix-verify`): one span per campaign and
/// per library entry, and one verdict counter per entry.
pub mod verify {
    /// Span over one whole verification campaign.
    pub const SPAN_CAMPAIGN: &str = "verify_campaign";
    /// Span over verifying one (component, scenario) library entry.
    pub const SPAN_ENTRY: &str = "verify_entry";
    /// Counter: an entry passed verification.
    pub const PASS: &str = "verify_pass";
    /// Counter: an entry failed verification.
    pub const FAIL: &str = "verify_fail";
}

/// Simulation-engine events: spans over packed (lane-parallel) runs and
/// over the activity extractions built on them, and counters sized in
/// lane words.
pub mod sim {
    /// Span over one packed *value-mode* (zero-delay) measurement; its
    /// `consumer` field names the caller (`activity_collect`,
    /// `simulate_faults`).
    pub const SPAN_PACKED: &str = "sim_packed";
    /// Span over one `Activity::collect` call: zero-delay switching
    /// activity of a stimulus stream.
    pub const SPAN_ACTIVITY_COLLECT: &str = "activity_collect";
    /// Span over compiling one timed sampling program. Its close event
    /// records the program's `live_nets`, `live_pairs` and `rows` (the
    /// rows of lane words its store holds once op results share rows).
    /// For `consumer = "measure_errors"` it covers the whole measurement
    /// the program then runs; for `consumer = "gate_level"` (one
    /// `TimedStreams` of the gate-level IDCT) only the compile.
    pub const SPAN_TIMED_PACKED: &str = "sim_timed_packed";
    /// Counter: ops the demand-driven sampling program of one
    /// `measure_errors` call ran, emitted once per call with
    /// ops × batches as `by`. One op is one gate evaluated for up to 64
    /// lanes at one (net, instant) pair that can reach a sampled output.
    pub const TIMED_PROGRAM_OPS: &str = "timed_program_ops";
    /// Counter: 64-lane batches the value-mode `PackedEvaluator` walked,
    /// emitted once per walk with the walk's batch count as `by` and its
    /// op count as `gates`. One batch is every gate evaluated on one lane
    /// word, so the total is one per batch however walks group them.
    pub const PACKED_WORDS: &str = "packed_words";
}

/// Synthesis-pass events (`aix-synth` sizing and area recovery): one span
/// per pass and, when the pass ends, one `count_by` event per tally.
pub mod synth {
    /// Span over one timing-driven sizing pass (`size_for_performance`).
    pub const SPAN_SIZING: &str = "synth_sizing";
    /// Span over one area-recovery pass (`recover_area`).
    pub const SPAN_AREA_RECOVERY: &str = "synth_area_recovery";
    /// Counter: cell swaps tried (upsizes in sizing, downsizes in
    /// recovery).
    pub const MOVES_TRIED: &str = "synth_moves_tried";
    /// Counter: tried swaps that were kept.
    pub const MOVES_ACCEPTED: &str = "synth_moves_accepted";
    /// Counter: tried swaps that were undone.
    pub const ROLLBACKS: &str = "synth_rollbacks";
    /// Counter: gates whose arrival times the incremental timer
    /// recomputed after swaps.
    pub const GATES_RETIMED: &str = "synth_gates_retimed";
}

/// Design-space explorer events (`aix-explore`): one span per search, one
/// per candidate evaluation, and counters matching the outcome report.
pub mod explore {
    /// Span over one full Pareto search, from seeding to the final front.
    pub const SPAN_SEARCH: &str = "explore_search";
    /// Span over one candidate evaluation. Its children, in order, are
    /// the four spans below.
    pub const SPAN_CANDIDATE: &str = "explore_candidate";
    /// Span over generating a candidate's gates from its variant into the
    /// optimizer's planner (`aix_synth::Planner::plan`).
    pub const SPAN_BUILD: &str = "explore_build";
    /// Span over building a candidate's optimized netlist from the planner
    /// (`aix_synth::Planner::finish`).
    pub const SPAN_OPTIMIZE: &str = "explore_optimize";
    /// Span over packed simulation of a candidate on the search's stimuli,
    /// including the error tally.
    pub const SPAN_SIMULATE: &str = "explore_simulate";
    /// Span over a candidate's aged delays and STA.
    pub const SPAN_STA: &str = "explore_sta";
    /// Counter: a candidate was evaluated (freshly scored, not from cache).
    pub const EVALUATED: &str = "explore_evaluated";
    /// Counter: a candidate's score was served from the on-disk cache.
    pub const CACHE_HIT: &str = "explore_cache_hit";
    /// Counter: a candidate evaluation panicked or failed and was
    /// quarantined; the search continued without it.
    pub const QUARANTINED: &str = "explore_quarantined";
    /// Counter: a candidate was skipped because the search was cancelled.
    pub const SKIPPED: &str = "explore_skipped";
    /// Gauge: size of the Pareto front after each generation.
    pub const FRONT_SIZE: &str = "explore_front_size";
}

/// Netlist import front-end events: one span per imported file plus one
/// per stage (parse, map, validate), and counters sized in structural
/// elements so a trace shows how large each imported design was.
pub mod import {
    /// Span over one whole file import, from bytes to validated netlist.
    pub const SPAN_IMPORT: &str = "import_file";
    /// Span over lexing + parsing the source text into the design AST.
    pub const SPAN_PARSE: &str = "import_parse";
    /// Span over mapping the design AST onto library cells and nets.
    pub const SPAN_MAP: &str = "import_map";
    /// Span over structural validation of the mapped netlist.
    pub const SPAN_VALIDATE: &str = "import_validate";
    /// Counter: gates instantiated by the mapper.
    pub const GATES: &str = "import_gates";
    /// Counter: nets created by the mapper.
    pub const NETS: &str = "import_nets";
    /// Counter: a cell name resolved through the alias table rather than
    /// an exact library-name match.
    pub const ALIAS_HIT: &str = "import_alias_hit";
    /// Counter: an import failed with a structured `ImportError`.
    pub const FAILED: &str = "import_failed";
}
