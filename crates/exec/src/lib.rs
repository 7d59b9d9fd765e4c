//! # hfqo-exec
//!
//! The execution engine: a **vectorized, pull-based operator pipeline**
//! over columnar batches, plus the original row-at-a-time engine kept as
//! a verification reference. The executor is the hot path of every
//! training episode (the paper's reward is observed execution behaviour),
//! so its throughput directly bounds the workload sizes the RL agent can
//! train on.
//!
//! ## Architecture
//!
//! ```text
//!  execute(db, graph, plan, config)              ── facade (executor.rs)
//!    └─ build_pipeline(node, required columns)   ── planner (operator.rs)
//!         ├─ ScanOp      (ops/scan.rs)   ─┐
//!         ├─ JoinOp      (ops/join.rs)    ├─ Operator: open / next_batch / close
//!         └─ AggOp       (ops/agg.rs)    ─┘
//!              └─ join and aggregate kernels (ops/kernel.rs), shared with parallel.rs
//!              ⇅ Batch (batch.rs): fixed-capacity column vectors
//! ```
//!
//! **Batch format** ([`batch`]). A [`Batch`] is up to
//! [`batch::BATCH_CAPACITY`] rows stored as one
//! [`hfqo_storage::ColumnVector`] per projected column (typed vectors
//! with validity bitmaps — ints and floats copy without materialising
//! [`hfqo_storage::Value`]s) plus an explicit row count, so zero-column
//! batches (pure `COUNT(*)` pipelines) still carry cardinality.
//!
//! **Operator protocol** ([`operator`]). [`Operator::open`] builds
//! blocking state (hash tables, merge sorts — charged against the
//! budget), [`Operator::next_batch`] pulls one output batch, and
//! [`Operator::close`] releases state. Scans stream from table columns;
//! hash and nested-loop joins materialise only their build/inner side
//! and stream the probe side; aggregation folds batches into group
//! accumulators.
//!
//! **Projection rules** ([`operator`]). Each node's output carries only
//! the columns *required above it*: the facade requires every column for
//! plain queries (so results are column-identical to the row engine),
//! only `GROUP BY` keys + aggregate inputs for aggregated queries, and
//! nothing at all for counting pipelines (the true-cardinality oracle).
//! Every join adds its condition columns to its children's requirement
//! and drops them again from its own output unless an ancestor needs
//! them. Selection columns are consumed inside the scan and never enter
//! the pipeline unless otherwise referenced.
//!
//! ## The two facilities the paper's experiments need
//!
//! * **Row budgets.** Every operator counts the work it performs against
//!   a budget; catastrophic plans (the cross-join orders an untrained
//!   agent emits) abort with [`ExecError::BudgetExceeded`] instead of
//!   running for hours. Budgets are enforced *per batch*, so a runaway
//!   pipeline stops within one batch of the limit, and charge totals are
//!   identical to the row engine's — reward shaping sees no difference
//!   from vectorization. This reproduces the paper's footnote 2 ("the
//!   initial query plans produced could not be executed in any
//!   reasonable amount of time").
//! * **A true-cardinality oracle.** [`TrueCardinality`] executes and
//!   memoises sub-join counts through zero-column counting pipelines,
//!   implementing `hfqo_stats::CardinalitySource` so the cost model can
//!   be driven by *actual* intermediate sizes — the ingredient the
//!   analytic latency model needs to disagree with the estimate-driven
//!   cost model in a realistic way.
//!
//! ## Intra-query parallelism
//!
//! [`parallel`] adds a **morsel-driven parallel evaluator**: when
//! [`ExecConfig::threads`] exceeds 1, the facade evaluates the plan
//! stage by stage with worker teams pulling fixed-size row ranges from
//! a shared atomic dispenser — parallel scans, radix-partitioned hash
//! joins, and partitioned aggregation. Outputs reassemble in morsel
//! order and budget charges flush to one shared counter, so results,
//! row order, and `ExecStats::work` are bit-identical to the serial
//! pipeline at any thread count (the serial path stays the verification
//! anchor).
//!
//! ## Reference row engine
//!
//! [`rowexec::execute_rows`] is the original materialising executor,
//! result- and work-identical by construction. It exists so the
//! equivalence suite can diff the two engines on every workload and so
//! `benches/executor.rs` can report the row-vs-batch speedup.

pub mod batch;
pub mod error;
pub mod executor;
pub mod operator;
pub mod ops;
pub mod parallel;
pub mod row;
pub mod rowexec;
pub mod truecard;

pub use batch::{Batch, Projection, BATCH_CAPACITY};
pub use error::ExecError;
pub use executor::{
    execute, execute_for_stats, ExecConfig, ExecOutcome, ExecStats, OutputColumn, OutputSchema,
};
pub use operator::Operator;
pub use row::{lit_to_value, Layout, Row};
pub use rowexec::execute_rows;
pub use truecard::TrueCardinality;
