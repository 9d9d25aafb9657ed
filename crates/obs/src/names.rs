//! Canonical event-name vocabulary for cross-crate spans and counters.
//!
//! Producers (the serve daemon, the engine) and consumers (trace
//! summaries, tests, dashboards) must agree on event names byte-for-byte
//! or the trace silently fragments; naming them once here makes the
//! compiler enforce the agreement. Engine-side names predate this module
//! and stay as string literals for trace compatibility — new subsystems
//! add their vocabulary here.

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
    /// Span over one `collect_timed_activity` call: glitch-aware
    /// activity from the packed timed engine.
    pub const SPAN_ACTIVITY_TIMED: &str = "activity_timed";
    /// Span over one packed *timed* (event-driven) measurement — the
    /// lane-parallel twin of a scalar `TimedSimulator` sweep. For
    /// `consumer = "measure_errors"` it covers compiling the sampling
    /// program too, and its close event records the program's
    /// `live_nets`, `live_pairs` and `rows` (the rows of lane words its
    /// store holds once op results share rows).
    pub const SPAN_TIMED_PACKED: &str = "sim_timed_packed";
    /// Counter: waveform entries the packed timed engine built over one
    /// timed-activity call (`consumer = "activity_timed"`), emitted once
    /// per call with the total as `by`. One entry is one net changing in
    /// up to 64 lanes at one instant.
    pub const TIMED_EVENT_GROUPS: &str = "timed_event_groups";
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

/// `aix serve` daemon events: one request span per accepted request, plus
/// lifecycle counters matched by `aix serve status` statistics.
pub mod serve {
    /// Span over one request's full handling, from dequeue to response.
    pub const SPAN_REQUEST: &str = "serve_request";
    /// Span over replaying one journaled request at daemon startup.
    pub const SPAN_REPLAY: &str = "serve_replay";
    /// Counter: a request was accepted into the queue.
    pub const ACCEPTED: &str = "serve_accepted";
    /// Counter: a request was shed with an `overloaded` response because
    /// the bounded queue was full.
    pub const SHED: &str = "serve_shed";
    /// Counter: a request joined an identical in-flight execution instead
    /// of enqueueing its own.
    pub const COALESCED: &str = "serve_coalesce_hit";
    /// Counter: a request hit its deadline before or during execution.
    pub const DEADLINE: &str = "serve_deadline_exceeded";
    /// Counter: a request ran to completion (any terminal status).
    pub const COMPLETED: &str = "serve_completed";
    /// Counter: the daemon began a graceful drain.
    pub const DRAIN: &str = "serve_drain";
    /// Gauge: current depth of the bounded request queue.
    pub const QUEUE_DEPTH: &str = "serve_queue_depth";
    /// Gauge: current depth of the interactive (priority) tier.
    pub const QUEUE_DEPTH_INTERACTIVE: &str = "serve_queue_depth_interactive";
    /// Gauge: current depth of the bulk tier.
    pub const QUEUE_DEPTH_BULK: &str = "serve_queue_depth_bulk";
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
