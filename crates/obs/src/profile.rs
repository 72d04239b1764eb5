//! The pipeline stages the per-window profiler times. The timer
//! itself ([`crate::StageTimer`]) lives next to [`crate::ObsHandle`];
//! this module just names the stages so exports stay stable.

/// The pipeline stages the runtime profiles each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-packet switch loop (parse → tables → deparse).
    PacketLoop,
    /// `Switch::end_window` register dump.
    WindowDump,
    /// Emitter key-value replay into micro-batches.
    EmitterReplay,
    /// Collector-side merge of the switches' window partials.
    Merge,
    /// Dynamic-filter table write at the window boundary.
    DynFilterWrite,
    /// Planner compile (strategy selection + chain choice).
    PlanCompile,
    /// Branch-and-bound ILP solve.
    IlpSolve,
    /// One-time lowering of loaded IR / query pipelines into the
    /// compiled fast path (switch `ExecPlan` + stream `BoundPipeline`).
    PlanBind,
    /// Switch-side wire egress: encoding and sending the window dump
    /// plus the `WindowClose` over the transport.
    Transport,
    /// Collector-side frame drain from window open through close.
    CollectorDrain,
    /// Running the window's stream jobs on the job pool.
    ShardExecute,
}

impl Stage {
    /// Stable snake_case name used as the `stage` label.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::PacketLoop => "packet_loop",
            Stage::WindowDump => "window_dump",
            Stage::EmitterReplay => "emitter_replay",
            Stage::Merge => "merge",
            Stage::DynFilterWrite => "dyn_filter_write",
            Stage::PlanCompile => "plan_compile",
            Stage::IlpSolve => "ilp_solve",
            Stage::PlanBind => "plan_bind",
            Stage::Transport => "transport",
            Stage::CollectorDrain => "collector_drain",
            Stage::ShardExecute => "shard_execute",
        }
    }

    /// Position in [`Stage::ALL`], for pre-registered histogram lookup.
    pub fn index(self) -> usize {
        match self {
            Stage::PacketLoop => 0,
            Stage::WindowDump => 1,
            Stage::EmitterReplay => 2,
            Stage::Merge => 3,
            Stage::DynFilterWrite => 4,
            Stage::PlanCompile => 5,
            Stage::IlpSolve => 6,
            Stage::PlanBind => 7,
            Stage::Transport => 8,
            Stage::CollectorDrain => 9,
            Stage::ShardExecute => 10,
        }
    }

    /// All stages, in [`Stage::index`] order.
    pub const ALL: [Stage; 11] = [
        Stage::PacketLoop,
        Stage::WindowDump,
        Stage::EmitterReplay,
        Stage::Merge,
        Stage::DynFilterWrite,
        Stage::PlanCompile,
        Stage::IlpSolve,
        Stage::PlanBind,
        Stage::Transport,
        Stage::CollectorDrain,
        Stage::ShardExecute,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn index_matches_all_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
