//! # hfqo-exec
//!
//! The execution engine: a **morsel-driven, stage-at-a-time batch
//! evaluator** over columnar data, plus the original row-at-a-time engine
//! kept as a verification reference. The executor is the hot path of
//! every training episode (the paper's reward is observed execution
//! behaviour), so its throughput directly bounds the workload sizes the
//! RL agent can train on.
//!
//! ## Architecture
//!
//! ```text
//!  execute / execute_for_stats(db, graph, plan, config)   ── facade (executor.rs)
//!    └─ required columns per node                          ── projection.rs
//!    └─ stage evaluator: one stage per plan node           ── parallel.rs
//!         ├─ scan        (ScanSpec, ops/scan.rs + ops/filter.rs)
//!         ├─ hash / nested-loop / merge join  (ops/join.rs)
//!         └─ aggregate   (ops/agg.rs)
//!              └─ join and aggregate kernels (ops/kernel.rs)
//!              ⇅ morsels claimed by a team of up to `threads` workers
//! ```
//!
//! **Stages** ([`parallel`]). Each plan node is one stage: its input is
//! fully materialised as one typed [`hfqo_storage::ColumnVector`] per
//! projected column (ints and floats copy without materialising
//! [`hfqo_storage::Value`]s) plus an explicit row count, so zero-column
//! outputs (pure `COUNT(*)` plans) still carry cardinality. Workers claim
//! fixed-size morsels of a stage's input, and their outputs reassemble
//! in morsel order. A one-worker team runs on the calling thread, so
//! `threads == 1` spawns nothing.
//!
//! **Projection rules** ([`projection`]). Each node's output carries only
//! the columns *required above it*: the facade requires every column for
//! plain queries (so results are column-identical to the row engine),
//! only `GROUP BY` keys + aggregate inputs for aggregated queries, and
//! nothing at all for counting plans (the true-cardinality oracle).
//! Every join adds its condition columns to its children's requirement
//! and drops them again from its own output unless an ancestor needs
//! them. Selection columns are consumed inside the scan and never carried
//! unless otherwise referenced.
//!
//! ## The two facilities the paper's experiments need
//!
//! * **Row budgets.** Every stage counts the work it performs against
//!   a budget; catastrophic plans (the cross-join orders an untrained
//!   agent emits) abort with [`ExecError::BudgetExceeded`] instead of
//!   running for hours. Workers flush their charges every few thousand
//!   units, so a runaway plan stops within one flush window of the
//!   limit, and charge totals are identical to the row engine's —
//!   reward shaping sees no difference from vectorization. This
//!   reproduces the paper's footnote 2 ("the initial query plans
//!   produced could not be executed in any reasonable amount of time").
//! * **A true-cardinality oracle.** [`TrueCardinality`] executes and
//!   memoises sub-join counts through zero-column counting plans,
//!   implementing `hfqo_stats::CardinalitySource` so the cost model can
//!   be driven by *actual* intermediate sizes — the ingredient the
//!   analytic latency model needs to disagree with the estimate-driven
//!   cost model in a realistic way.
//!
//! ## Intra-query parallelism
//!
//! [`ExecConfig::threads`] sets the worker-team size: parallel scans,
//! radix-partitioned hash joins, and partitioned aggregation. Outputs
//! reassemble in morsel order and budget charges flush to one shared
//! counter, so results, row order, and `ExecStats::work` are the same
//! at any thread count.
//!
//! ## Reference row engine
//!
//! [`rowexec::execute_rows`] is the original materialising executor,
//! result- and work-identical by construction. It exists so the
//! equivalence suite can diff the two engines on every workload and so
//! `benches/executor.rs` can report the row-vs-batch speedup.

pub mod error;
pub mod executor;
pub mod ops;
pub mod parallel;
pub mod projection;
pub mod row;
pub mod rowexec;
pub mod truecard;

pub use error::ExecError;
pub use executor::{
    execute, execute_for_stats, ExecConfig, ExecOutcome, ExecStats, OutputColumn, OutputSchema,
};
pub use ops::kernel::BATCH_CAPACITY;
pub use projection::Projection;
pub use row::{lit_to_value, Layout, Row};
pub use rowexec::execute_rows;
pub use truecard::TrueCardinality;
