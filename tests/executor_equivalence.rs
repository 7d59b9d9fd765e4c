//! Batch-vs-row executor equivalence.
//!
//! The batch engine must be *observationally identical* to
//! the reference row engine: identical row multisets (hash-grouped
//! output order may differ) and identical `ExecStats.work` totals, on
//! every workload the experiments use — synthetic chain/star/cycle
//! queries and the IMDB/JOB-like suite — across expert plans, random
//! plans, every join algorithm, and budget-capped aborts.
//!
//! Every check also runs the batch engine with a **morsel-driven
//! worker team** at each thread count in `HFQO_EXEC_THREADS` (default
//! `2,4`): parallel results must match one thread's *in exact row order*
//! (hash-grouped aggregates excepted — their emission order is
//! unspecified in both engines), with identical work totals, and abort
//! on exactly the same budgets.
//!
//! A third axis covers **storage encodings**: the same workload
//! materialised plain, dictionary-encoded, and run-length encoded must
//! yield identical results and work everywhere (see
//! [`encoding_equivalence`], gated by `HFQO_FORCE_ENCODING`).

use hfqo::exec::{execute_rows, ExecError};
use hfqo::prelude::*;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_query::{AggAlgo, PlanNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Thread counts for the parallel-vs-serial pass: `HFQO_EXEC_THREADS`
/// (comma-separated), defaulting to `2,4`.
fn exec_threads() -> &'static [usize] {
    static COUNTS: OnceLock<Vec<usize>> = OnceLock::new();
    COUNTS.get_or_init(|| match std::env::var("HFQO_EXEC_THREADS") {
        Ok(raw) => raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("invalid HFQO_EXEC_THREADS entry {tok:?}"))
                    .max(1)
            })
            .collect(),
        Err(_) => vec![2, 4],
    })
}

fn synth() -> &'static SynthDb {
    static DB: OnceLock<SynthDb> = OnceLock::new();
    DB.get_or_init(|| {
        SynthDb::build(SynthConfig {
            tables: 6,
            rows: 400,
            seed: 21,
        })
    })
}

fn imdb() -> &'static WorkloadBundle {
    static DB: OnceLock<WorkloadBundle> = OnceLock::new();
    DB.get_or_init(|| {
        WorkloadBundle::imdb_job(
            ImdbConfig {
                base_rows: 300,
                seed: 9,
            },
            6,
        )
    })
}

/// Asserts the two engines agree on `plan`: same row multiset, same
/// work; or the same budget-exceeded outcome. Then re-runs the plan
/// through the parallel evaluator at every [`exec_threads`] count and
/// asserts it matches the serial batch outcome exactly.
fn assert_equivalent(
    db: &Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
    what: &str,
) {
    let batch = hfqo::exec::execute(db, graph, plan, config);
    let row = execute_rows(db, graph, plan, config);
    match (&batch, row) {
        (Ok(b), Ok(r)) => {
            let mut bs = b.rows.clone();
            let mut rs = r.rows.clone();
            bs.sort();
            rs.sort();
            assert_eq!(bs, rs, "{what}: row multisets differ");
            assert_eq!(b.stats.work, r.stats.work, "{what}: work totals differ");
            assert_eq!(b.layout, r.layout, "{what}: layouts differ");
            assert_eq!(b.schema, r.schema, "{what}: schemas differ");
        }
        (
            Err(ExecError::BudgetExceeded { budget: b, .. }),
            Err(ExecError::BudgetExceeded { budget: r, .. }),
        ) => {
            assert_eq!(*b, r, "{what}: different budgets reported");
        }
        (b, r) => panic!(
            "{what}: engines disagree on outcome: batch {:?} vs row {:?}",
            b.as_ref().map(|o| o.rows.len()),
            r.map(|o| o.rows.len())
        ),
    }
    // Hash-grouped aggregates emit groups in unspecified order in both
    // engines; everything else is order-deterministic and the parallel
    // evaluator must reproduce the serial order bit-for-bit.
    let order_stable = !matches!(
        &plan.root,
        PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            ..
        }
    );
    for &threads in exec_threads() {
        let par = hfqo::exec::execute(db, graph, plan, config.threads(threads));
        match (&batch, par) {
            (Ok(b), Ok(p)) => {
                if order_stable {
                    assert_eq!(p.rows, b.rows, "{what}: parallel t={threads} row order");
                } else {
                    let mut ps = p.rows.clone();
                    let mut bs = b.rows.clone();
                    ps.sort();
                    bs.sort();
                    assert_eq!(ps, bs, "{what}: parallel t={threads} multiset");
                }
                assert_eq!(
                    p.stats.work, b.stats.work,
                    "{what}: parallel t={threads} work"
                );
                assert_eq!(p.layout, b.layout, "{what}: parallel t={threads} layout");
                assert_eq!(p.schema, b.schema, "{what}: parallel t={threads} schema");
            }
            (
                Err(ExecError::BudgetExceeded { budget: b, .. }),
                Err(ExecError::BudgetExceeded { budget: p, .. }),
            ) => {
                assert_eq!(*b, p, "{what}: parallel t={threads} budget");
            }
            (b, p) => panic!(
                "{what}: serial and parallel (t={threads}) disagree: {:?} vs {:?}",
                b.as_ref().map(|o| o.rows.len()),
                p.map(|o| o.rows.len())
            ),
        }
    }
}

#[test]
fn synth_expert_plans_are_equivalent() {
    let db = synth();
    let optimizer = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle] {
        for n in 2..=5 {
            for qseed in 0..3 {
                let graph = db.query(shape, n, 2, qseed);
                let plan = optimizer.plan(&graph).expect("plannable").plan;
                assert_equivalent(
                    &db.db,
                    &graph,
                    &plan,
                    ExecConfig::default(),
                    &format!("synth {shape:?} n={n} seed={qseed}"),
                );
            }
        }
    }
}

#[test]
fn synth_random_plans_are_equivalent() {
    let db = synth();
    let mut rng = StdRng::seed_from_u64(3);
    for qseed in 0..6 {
        let graph = db.query(Shape::Chain, 4, 2, qseed);
        for p in 0..4 {
            let plan = random_plan(&graph, db.db.catalog(), &mut rng);
            // A random order can be a budget-busting cross join; both
            // engines must agree either way.
            assert_equivalent(
                &db.db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("random qseed={qseed} p={p}"),
            );
        }
    }
}

#[test]
fn imdb_job_expert_plans_are_equivalent() {
    let bundle = imdb();
    let optimizer = TraditionalOptimizer::new(bundle.db.catalog(), &bundle.stats);
    for (i, graph) in bundle.queries.iter().take(20).enumerate() {
        let plan = optimizer.plan(graph).expect("plannable").plan;
        assert_equivalent(
            &bundle.db,
            graph,
            &plan,
            ExecConfig::default(),
            &format!("imdb q{i} ({:?})", graph.label),
        );
    }
}

#[test]
fn aggregate_variants_are_equivalent() {
    let db = synth();
    let optimizer = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
    for qseed in 0..4 {
        let graph = hfqo::opt::test_support::with_count(db.query(Shape::Star, 4, 1, qseed));
        let plan = optimizer.plan(&graph).expect("plannable").plan;
        // Exercise both aggregation algorithms over the same join tree.
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let plan = match &plan.root {
                PlanNode::Aggregate { input, .. } => PhysicalPlan::new(PlanNode::Aggregate {
                    algo,
                    input: input.clone(),
                }),
                other => PhysicalPlan::new(PlanNode::Aggregate {
                    algo,
                    input: Box::new(other.clone()),
                }),
            };
            assert_equivalent(
                &db.db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("agg {algo:?} qseed={qseed}"),
            );
        }
    }
}

#[test]
fn budget_capped_plans_abort_identically() {
    let db = synth();
    let mut rng = StdRng::seed_from_u64(8);
    let graph = db.query(Shape::Chain, 5, 0, 2);
    for p in 0..6 {
        let plan = random_plan(&graph, db.db.catalog(), &mut rng);
        assert_equivalent(
            &db.db,
            &graph,
            &plan,
            ExecConfig::with_budget(5_000),
            &format!("tight-budget p={p}"),
        );
    }
}

mod empty_input {
    //! Zero-batch coverage for the operator zoo: a selection filters an
    //! input to zero rows, and the batch pipeline must agree with the
    //! row engine everywhere a zero-batch can reach — merge join (the
    //! original PR 2 fix), hash join build and probe sides, and both
    //! aggregation algorithms. These pin the class of bug where an
    //! operator indexes into a first batch that never arrives.

    use super::*;
    use hfqo::catalog::{Column, ColumnId, ColumnType, TableSchema};
    use hfqo::query::{AccessPath, BoundColumn, JoinEdge, Lit, RelId, Relation, Selection};
    use hfqo::sql::CompareOp;
    use hfqo::storage::Value;
    use hfqo_query::JoinAlgo;

    /// A two-table database (`a`, `b`, one int key column, 5 matching
    /// rows each) and its join graph, with a never-matching selection
    /// on each relation listed in `empty_rels`.
    fn join_fixture(empty_rels: &[usize]) -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![Column::new("k", ColumnType::Int)],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![Column::new("k", ColumnType::Int)],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..5i64 {
            db.table_mut(a)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
            db.table_mut(b)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            // Never-matching selections empty the chosen sides.
            empty_rels
                .iter()
                .map(|&r| Selection {
                    column: BoundColumn::new(RelId(r as u32), ColumnId(0)),
                    op: CompareOp::Lt,
                    value: Lit::Int(-100),
                })
                .collect(),
            vec![],
            vec![],
        );
        (db, graph)
    }

    fn join_plan(algo: JoinAlgo) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::Join {
            algo,
            conds: vec![0],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::SeqScan,
            }),
            right: Box::new(PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::SeqScan,
            }),
        })
    }

    /// Merge join with an empty input side. Promoted from a PR 1 review
    /// scratch test; this exposed (and pins) the zero-batch key-column
    /// sort panic fixed in PR 2.
    #[test]
    fn merge_join_with_empty_input_side_is_equivalent() {
        let (db, graph) = join_fixture(&[0]);
        let plan = join_plan(JoinAlgo::Merge);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-side merge",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0, "filtered side yields no join output");
    }

    /// Hash join whose *probe* side (the left input) is filtered to
    /// zero rows: the probe loop must drain cleanly against a populated
    /// build table.
    #[test]
    fn hash_join_with_empty_probe_side_is_equivalent() {
        let (db, graph) = join_fixture(&[0]);
        let plan = join_plan(JoinAlgo::Hash);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-probe hash join",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }

    /// Hash join whose *build* side (the right input) is filtered to
    /// zero rows: building over no batches must leave a valid, empty
    /// hash table for the probe phase.
    #[test]
    fn hash_join_with_empty_build_side_is_equivalent() {
        let (db, graph) = join_fixture(&[1]);
        let plan = join_plan(JoinAlgo::Hash);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-build hash join",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }

    /// Both sides empty at once, for every join algorithm.
    #[test]
    fn joins_with_both_sides_empty_are_equivalent() {
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop] {
            let (db, graph) = join_fixture(&[0, 1]);
            let plan = join_plan(algo);
            assert_equivalent(
                &db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("both-empty {algo:?}"),
            );
        }
    }

    /// Aggregation (hash- and sort-based) over an input filtered to
    /// zero rows: the aggregate operator sees no batches at all, and
    /// both engines must agree on the result of aggregating nothing.
    #[test]
    fn aggregation_over_empty_input_is_equivalent() {
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let (db, graph) = join_fixture(&[0, 1]);
            let graph = hfqo::opt::test_support::with_count(graph);
            let plan = PhysicalPlan::new(PlanNode::Aggregate {
                algo,
                input: Box::new(join_plan(JoinAlgo::Hash).root),
            });
            assert_equivalent(
                &db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("empty-input aggregate {algo:?}"),
            );
        }
    }
}

mod morsel_geometry {
    //! Property: parallel execution is invariant to morsel geometry.
    //! Random (thread count, morsel size) pairs over expert plans must
    //! reproduce the serial batch result bit-for-bit — row order, work
    //! total, everything. This is the knob space a bug in morsel-order
    //! reassembly or charge accounting would show up in.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn parallel_execution_is_invariant_to_morsel_geometry(
            threads in 2usize..6,
            morsel in 1usize..700,
            shape_ix in 0usize..3,
            qseed in 0u64..4,
        ) {
            let db = synth();
            let shape = [Shape::Chain, Shape::Star, Shape::Cycle][shape_ix];
            let graph = db.query(shape, 3, 1, qseed);
            let optimizer = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
            let plan = optimizer.plan(&graph).expect("plannable").plan;
            let serial = hfqo::exec::execute(&db.db, &graph, &plan, ExecConfig::default())
                .expect("serial executes");
            let cfg = ExecConfig::default().threads(threads).morsel_rows(morsel);
            let par = hfqo::exec::execute(&db.db, &graph, &plan, cfg)
                .expect("parallel executes");
            let order_stable = !matches!(
                &plan.root,
                PlanNode::Aggregate { algo: AggAlgo::Hash, .. }
            );
            if order_stable {
                prop_assert_eq!(&par.rows, &serial.rows);
            } else {
                let mut ps = par.rows.clone();
                let mut ss = serial.rows.clone();
                ps.sort();
                ss.sort();
                prop_assert_eq!(ps, ss);
            }
            prop_assert_eq!(par.stats.work, serial.stats.work);
        }
    }
}

mod encoding_equivalence {
    //! Property: results and work are invariant to storage encoding.
    //! The same IMDB workload is materialised three ways — plain
    //! columns, dictionary-encoded text, and run-length encoding
    //! stacked on top — and every plan must produce the same row
    //! multiset and the *same `ExecStats.work`* on each, across the row
    //! engine, the batch engine, and the parallel evaluator at every
    //! thread count. Work charges per *visited row*, so compression
    //! must never change what a query costs.
    //!
    //! `HFQO_FORCE_ENCODING` (comma-separated `plain,dict,rle`)
    //! restricts the encodings exercised — the CI matrix uses it to run
    //! each encoding in its own job; the default covers all three and
    //! cross-checks them against each other.

    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Enc {
        Plain,
        Dict,
        Rle,
    }

    impl Enc {
        fn parse(tok: &str) -> Self {
            match tok.trim() {
                "plain" => Self::Plain,
                "dict" => Self::Dict,
                "rle" => Self::Rle,
                other => panic!("invalid HFQO_FORCE_ENCODING entry {other:?}"),
            }
        }
    }

    /// Encodings under test: `HFQO_FORCE_ENCODING` or all three.
    pub(super) fn forced_encodings() -> &'static [Enc] {
        static ENCS: OnceLock<Vec<Enc>> = OnceLock::new();
        ENCS.get_or_init(|| match std::env::var("HFQO_FORCE_ENCODING") {
            Ok(raw) => raw.split(',').map(Enc::parse).collect(),
            Err(_) => vec![Enc::Plain, Enc::Dict, Enc::Rle],
        })
    }

    /// The [`super::imdb`] workload, re-encoded wholesale: every column
    /// decoded to plain storage first, then pushed into `enc`. Thresholds
    /// are maximal (`usize::MAX` distinct values, average run ≥ 1) so the
    /// encoding applies to every eligible column, not just favourable
    /// ones. Indexes are rebuilt over the re-encoded columns.
    fn encoded(enc: Enc) -> &'static WorkloadBundle {
        static PLAIN: OnceLock<WorkloadBundle> = OnceLock::new();
        static DICT: OnceLock<WorkloadBundle> = OnceLock::new();
        static RLE: OnceLock<WorkloadBundle> = OnceLock::new();
        let cell = match enc {
            Enc::Plain => &PLAIN,
            Enc::Dict => &DICT,
            Enc::Rle => &RLE,
        };
        cell.get_or_init(|| {
            let mut bundle = WorkloadBundle::imdb_job(
                ImdbConfig {
                    base_rows: 300,
                    seed: 9,
                },
                6,
            );
            let tids: Vec<_> = bundle.db.catalog().tables().map(|(tid, _)| tid).collect();
            for tid in tids {
                let table = bundle.db.table_mut(tid).expect("table exists");
                table.decode_columns();
                match enc {
                    Enc::Plain => {}
                    Enc::Dict => {
                        table.dictionary_encode_strings(usize::MAX);
                    }
                    Enc::Rle => {
                        table.dictionary_encode_strings(usize::MAX);
                        table.rle_encode_columns(1);
                    }
                }
            }
            bundle.db.build_indexes().expect("indexes rebuild");
            bundle
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn results_and_work_are_encoding_invariant(
            qi in 0usize..20,
            budget_k in 0u64..40,
        ) {
            // Each encoding first proves row/batch/parallel agreement
            // internally, then its serial batch outcome is compared
            // against the first encoding's — including budget aborts,
            // which must trip at the same work count everywhere.
            let mut baseline = None;
            for &enc in forced_encodings() {
                let bundle = encoded(enc);
                let graph = &bundle.queries[qi % bundle.queries.len()];
                let optimizer = TraditionalOptimizer::new(bundle.db.catalog(), &bundle.stats);
                let plan = optimizer.plan(graph).expect("plannable").plan;
                // budget_k == 0 means unlimited; small multiples force
                // mid-plan aborts.
                let config = match budget_k {
                    0 => ExecConfig::default(),
                    k => ExecConfig::with_budget(k * 5_000),
                };
                assert_equivalent(
                    &bundle.db,
                    graph,
                    &plan,
                    config,
                    &format!("encoding {enc:?} q{qi}"),
                );
                let outcome = match hfqo::exec::execute(&bundle.db, graph, &plan, config) {
                    Ok(out) => {
                        let mut rows = out.rows;
                        rows.sort();
                        Ok((rows, out.stats.work))
                    }
                    Err(ExecError::BudgetExceeded { work_done, budget }) => {
                        Err((work_done, budget))
                    }
                    Err(e) => panic!("encoding {enc:?} q{qi}: {e:?}"),
                };
                match &baseline {
                    None => baseline = Some((enc, outcome)),
                    Some((base_enc, base)) => prop_assert_eq!(
                        &outcome,
                        base,
                        "q{} encoding {:?} vs {:?}",
                        qi,
                        enc,
                        base_enc
                    ),
                }
            }
        }
    }
}

mod kernel_coverage {
    //! A small fixture that reaches every branch of the column-at-a-time
    //! join and aggregate kernels: nested-loop pair selection on every
    //! comparison operator, NULL join keys on both sides, two-condition
    //! joins, the typed `Int × Int` loops and the per-pair fallback
    //! (`Int × Float` and text keys), and `COUNT`, `SUM`, `MIN`, `MAX`,
    //! `AVG` without `GROUP BY` over nullable join output — for every
    //! join algorithm that applies, at budgets that trip inside the
    //! kernels. It follows the `HFQO_EXEC_THREADS` counts through
    //! [`assert_equivalent`] and the `HFQO_FORCE_ENCODING` encodings
    //! (its name matches the CI matrix's `encoding` filter), and every
    //! encoding must reproduce the first one's serial outcome.

    use super::encoding_equivalence::{forced_encodings, Enc};
    use super::*;
    use hfqo::catalog::{Column, ColumnId, ColumnType, TableSchema};
    use hfqo::query::{AccessPath, AggExpr, BoundColumn, JoinEdge, RelId, Relation};
    use hfqo::sql::{AggFunc, CompareOp};
    use hfqo::storage::Value;
    use hfqo_query::JoinAlgo;

    /// `l(k int, f float, s text, v int)`, 24 rows, and `r(k int, f
    /// float, s text, w float)`, 18 rows. Every column has NULLs; the
    /// integer keys repeat in runs so run-length encoding applies, and
    /// `r.f` holds whole numbers so `l.k = r.f` has matches.
    fn fixture(enc: Enc) -> Database {
        let cols = |last: (&str, ColumnType)| {
            vec![
                Column::nullable("k", ColumnType::Int),
                Column::nullable("f", ColumnType::Float),
                Column::nullable("s", ColumnType::Text),
                Column::nullable(last.0, last.1),
            ]
        };
        let mut cat = Catalog::new();
        let l = cat
            .add_table(TableSchema::new("l", cols(("v", ColumnType::Int))))
            .unwrap();
        let r = cat
            .add_table(TableSchema::new("r", cols(("w", ColumnType::Float))))
            .unwrap();
        let mut db = Database::new(cat);
        let null_if = |null: bool, v: Value| if null { Value::Null } else { v };
        let words = ["ab", "b", "c", "d"];
        for i in 0..24i64 {
            let row = [
                null_if(i % 7 == 3, Value::Int(i / 3)),
                null_if(i % 5 == 1, Value::Float((i % 6) as f64 * 0.5)),
                null_if(i % 6 == 4, Value::str(words[(i / 4 % 3) as usize])),
                null_if(i % 4 == 2, Value::Int(i * 7 % 11 - 3)),
            ];
            db.table_mut(l).unwrap().append_row(&row).unwrap();
        }
        for i in 0..18i64 {
            let row = [
                null_if(i % 5 == 0, Value::Int(i / 2)),
                null_if(i % 4 == 3, Value::Float((i % 5) as f64)),
                null_if(i % 7 == 2, Value::str(words[(i / 3 % 4) as usize])),
                null_if(i % 3 == 1, Value::Float(i as f64 * 0.25 - 1.0)),
            ];
            db.table_mut(r).unwrap().append_row(&row).unwrap();
        }
        for tid in [l, r] {
            let table = db.table_mut(tid).unwrap();
            match enc {
                Enc::Plain => {}
                Enc::Dict => {
                    table.dictionary_encode_strings(usize::MAX);
                }
                Enc::Rle => {
                    table.dictionary_encode_strings(usize::MAX);
                    table.rle_encode_columns(1);
                }
            }
        }
        db
    }

    fn col(rel: u32, c: u32) -> BoundColumn {
        BoundColumn::new(RelId(rel), ColumnId(c))
    }

    /// `l.<a> <op> r.<b>` over column ids.
    fn edge(a: u32, op: CompareOp, b: u32) -> JoinEdge {
        JoinEdge {
            left: col(0, a),
            op,
            right: col(1, b),
        }
    }

    /// Join-condition sets and the algorithms each admits (hash and
    /// merge joins need an equality).
    fn cases() -> Vec<(Vec<JoinEdge>, Vec<JoinAlgo>)> {
        use CompareOp::*;
        let all = vec![JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge];
        let nested = vec![JoinAlgo::NestedLoop];
        let mut cases: Vec<_> = [Neq, Lt, Le, Gt, Ge]
            .into_iter()
            .map(|op| (vec![edge(0, op, 0)], nested.clone()))
            .collect();
        cases.extend([
            (vec![edge(0, Eq, 0)], all.clone()),
            // Two conditions, typed and fallback residuals.
            (vec![edge(0, Eq, 0), edge(3, Lt, 0)], all.clone()),
            (vec![edge(0, Le, 0), edge(1, Gt, 3)], nested.clone()),
            // The edge's endpoints flipped relative to the inputs.
            (
                vec![JoinEdge {
                    left: col(1, 0),
                    op: Lt,
                    right: col(0, 3),
                }],
                nested.clone(),
            ),
            // Int × Float keys: the per-pair fallback.
            (vec![edge(0, Eq, 1)], nested.clone()),
            (vec![edge(0, Ge, 1)], nested.clone()),
            // Text keys: a `Value`-keyed hash table and the fallback.
            (vec![edge(2, Eq, 2)], all),
            (vec![edge(2, Lt, 2), edge(0, Neq, 0)], nested),
        ]);
        cases
    }

    fn aggregates() -> Vec<AggExpr> {
        use AggFunc::*;
        [
            (Count, None),
            (Count, Some(col(1, 3))),
            (Sum, Some(col(1, 3))),
            (Sum, Some(col(0, 3))),
            (Avg, Some(col(0, 1))),
            (Avg, Some(col(0, 3))),
            (Min, Some(col(0, 3))),
            (Max, Some(col(0, 3))),
            (Min, Some(col(1, 1))),
            (Max, Some(col(1, 3))),
            (Min, Some(col(0, 2))),
            (Max, Some(col(1, 2))),
        ]
        .into_iter()
        .map(|(func, column)| AggExpr { func, column })
        .collect()
    }

    /// Serial outcome: sorted rows and work, or the abort's report.
    type Outcome = Result<(Vec<Vec<Value>>, u64), (u64, u64)>;

    #[test]
    fn join_and_aggregate_kernels_are_equivalent_in_every_encoding() {
        let mut baseline: Option<(Enc, Vec<Outcome>)> = None;
        for &enc in forced_encodings() {
            let db = fixture(enc);
            let (l, r) = (
                db.catalog().table_by_name("l").unwrap(),
                db.catalog().table_by_name("r").unwrap(),
            );
            let rels = vec![
                Relation {
                    table: l,
                    alias: "l".into(),
                },
                Relation {
                    table: r,
                    alias: "r".into(),
                },
            ];
            let mut outcomes = Vec::new();
            for (ci, (edges, algos)) in cases().into_iter().enumerate() {
                let conds: Vec<usize> = (0..edges.len()).collect();
                let plain = QueryGraph::new(rels.clone(), edges.clone(), vec![], vec![], vec![]);
                let agg = QueryGraph::new(rels.clone(), edges, vec![], aggregates(), vec![]);
                for algo in algos {
                    for swap in [false, true] {
                        let scan = |rel| {
                            Box::new(PlanNode::Scan {
                                rel: RelId(rel),
                                path: AccessPath::SeqScan,
                            })
                        };
                        let (a, b) = if swap { (1, 0) } else { (0, 1) };
                        let join = PlanNode::Join {
                            algo,
                            conds: conds.clone(),
                            left: scan(a),
                            right: scan(b),
                        };
                        let mut plans = vec![(&plain, PhysicalPlan::new(join.clone()))];
                        for agg_algo in [AggAlgo::Hash, AggAlgo::Sort] {
                            let root = PlanNode::Aggregate {
                                algo: agg_algo,
                                input: Box::new(join.clone()),
                            };
                            plans.push((&agg, PhysicalPlan::new(root)));
                        }
                        for (graph, plan) in &plans {
                            for budget in [40, 400, ExecConfig::default().work_budget] {
                                let config = ExecConfig::with_budget(budget);
                                let what = format!(
                                    "{enc:?} case {ci} {algo:?} swap={swap} budget={budget} {:?}",
                                    plan.root
                                );
                                assert_equivalent(&db, graph, plan, config, &what);
                                outcomes.push(
                                    match hfqo::exec::execute(&db, graph, plan, config) {
                                        Ok(out) => {
                                            let mut rows = out.rows;
                                            rows.sort();
                                            Ok((rows, out.stats.work))
                                        }
                                        Err(ExecError::BudgetExceeded { work_done, budget }) => {
                                            Err((work_done, budget))
                                        }
                                        Err(e) => panic!("{what}: {e:?}"),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            match &baseline {
                None => baseline = Some((enc, outcomes)),
                Some((base_enc, base)) => {
                    for (i, (got, want)) in outcomes.iter().zip(base).enumerate() {
                        assert_eq!(got, want, "run {i}: {enc:?} vs {base_enc:?}");
                    }
                }
            }
        }
    }
}

mod trip_points {
    //! Golden: where the batch engine stops on one worker.
    //! `assert_equivalent` compares only the reported budget on aborts;
    //! this pins the full outcome — `Ok(work)` or
    //! `BudgetExceeded(work_done)` — of every over-budget JOB expert
    //! plan, a prefix of the others, and the synthetic random-plan set,
    //! each at a ladder of budgets, so a change to how the stages charge
    //! cannot move a trip point unnoticed. Every abort must also land
    //! within [`MAX_OVERSHOOT`] of its budget. Regenerate deliberately
    //! with `HFQO_BLESS=1 cargo test --test executor_equivalence golden`.

    use super::*;
    use hfqo::workload::imdb::{build_imdb, ImdbConfig};
    use hfqo::workload::job::generate_job_suite;
    use std::fmt::Write as _;

    const GOLDEN: &str = "tests/golden/abort_trip_points.txt";
    /// The default work budget: plans over it are the aborting ones.
    const DEFAULT_BUDGET: u64 = 5_000_000;
    /// Plans within the default budget pinned besides the aborting ones.
    const JOB_PREFIX: usize = 12;
    /// How far past its budget an abort may report: a worker flushes its
    /// charges every 4096 units, and one charge covers at most one
    /// morsel (4096 rows by default) or one window of pairs.
    const MAX_OVERSHOOT: u64 = 8192;

    /// One outcome line per budget: 10, 10³, 10⁵, the default, and one
    /// unit below the plan's unbudgeted work when that fits the default.
    /// Returns the lines and whether the plan aborts at the default.
    fn ladder(db: &Database, graph: &QueryGraph, plan: &PhysicalPlan) -> (String, bool) {
        let run = |budget: u64| match hfqo::exec::execute(
            db,
            graph,
            plan,
            ExecConfig::with_budget(budget).threads(1),
        ) {
            Ok(o) => (format!("Ok({})", o.stats.work), Some(o.stats.work)),
            Err(ExecError::BudgetExceeded {
                work_done,
                budget: b,
            }) => {
                assert_eq!(b, budget, "{:?}: reported budget", graph.label);
                assert!(
                    budget < work_done && work_done <= budget + MAX_OVERSHOOT,
                    "{:?}: work_done {work_done} at budget {budget}",
                    graph.label
                );
                (format!("BudgetExceeded({work_done})"), None)
            }
            Err(e) => panic!("{:?}: {e:?}", graph.label),
        };
        let label = graph.label.as_deref().unwrap_or("?");
        let (default_line, full) = run(DEFAULT_BUDGET);
        let mut out = String::new();
        for budget in [10, 1_000, 100_000] {
            writeln!(out, "{label} {budget} {}", run(budget).0).unwrap();
        }
        writeln!(out, "{label} {DEFAULT_BUDGET} {default_line}").unwrap();
        if let Some(w) = full.filter(|&w| w > 0) {
            writeln!(out, "{label} {} {}", w - 1, run(w - 1).0).unwrap();
        }
        (out, full.is_none())
    }

    /// Every over-budget JOB expert plan and the first `JOB_PREFIX` of
    /// the others, in suite order.
    fn job_log() -> String {
        let mut out = String::new();
        let (db, stats) = build_imdb(ImdbConfig {
            base_rows: 300,
            seed: 21,
        });
        let optimizer = TraditionalOptimizer::new(db.catalog(), &stats);
        let mut within = 0;
        for q in generate_job_suite(db.catalog(), 21) {
            let plan = optimizer.plan(&q.graph).expect("plannable").plan;
            let (lines, aborts) = ladder(&db, &q.graph, &plan);
            if aborts || within < JOB_PREFIX {
                within += usize::from(!aborts);
                out.push_str(&lines);
            }
        }
        out
    }

    /// The `synth_random_plans_are_equivalent` set.
    fn synth_log() -> String {
        let mut out = String::new();
        let db = synth();
        let mut rng = StdRng::seed_from_u64(3);
        for qseed in 0..6 {
            let graph = db.query(Shape::Chain, 4, 2, qseed);
            for p in 0..4 {
                let plan = random_plan(&graph, db.db.catalog(), &mut rng);
                let graph = graph.clone().with_label(format!("random-q{qseed}-p{p}"));
                out.push_str(&ladder(&db.db, &graph, &plan).0);
            }
        }
        out
    }

    #[test]
    fn golden_abort_trip_points() {
        // The two halves are independent; running them side by side
        // keeps the test near 10 s in a debug build.
        let log = std::thread::scope(|s| {
            let job = s.spawn(job_log);
            let synth = synth_log();
            job.join().expect("JOB ladder") + &synth
        });
        if std::env::var_os("HFQO_BLESS").is_some() {
            std::fs::write(GOLDEN, &log).expect("write golden");
            return;
        }
        let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists");
        assert!(
            log == golden,
            "trip points moved; diff against {GOLDEN}:\n{log}"
        );
    }
}

#[test]
fn true_cardinality_oracle_matches_row_counts() {
    // The oracle now counts through zero-column batch pipelines; its
    // counts must equal full row-engine execution of the same subsets.
    let bundle = imdb();
    for graph in bundle.queries.iter().take(8) {
        let oracle = TrueCardinality::new(&bundle.db);
        let counted = oracle.set_rows(graph, graph.all_rels());
        let optimizer = TraditionalOptimizer::new(bundle.db.catalog(), &bundle.stats);
        let plan = optimizer.plan(graph).expect("plannable").plan;
        let join_only = match &plan.root {
            PlanNode::Aggregate { input, .. } => PhysicalPlan::new((**input).clone()),
            other => PhysicalPlan::new(other.clone()),
        };
        let executed = execute_rows(&bundle.db, graph, &join_only, ExecConfig::default())
            .expect("executes")
            .rows
            .len() as f64;
        assert_eq!(counted, executed, "{:?}", graph.label);
    }
}
