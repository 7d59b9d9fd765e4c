//! Vectorized aggregation.
//!
//! [`AggOp`] drains its input pipeline batch-by-batch, folding rows into
//! per-group accumulators, then emits the result as batches of *group
//! keys followed by aggregate values*. Without `GROUP BY` there is one
//! accumulator row and no key: each batch folds column-wise through
//! `fold_global` (`ops/kernel.rs`). The accumulator type `Acc` is
//! shared with the reference row engine so both engines agree on
//! aggregate semantics to the bit.

use crate::batch::{Batch, BatchBuilder, Projection};
use crate::error::ExecError;
use crate::operator::Operator;
use crate::ops::kernel::fold_global;
use crate::ops::Budget;
use hfqo_catalog::{Catalog, ColumnType};
use hfqo_query::{AggAlgo, QueryError, QueryGraph};
use hfqo_sql::AggFunc;
use hfqo_storage::Value;
use std::collections::HashMap;

/// One aggregate accumulator.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl Acc {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<(), ExecError> {
        match self {
            Acc::Count(c) => {
                // COUNT(*) (v = None) counts rows; COUNT(col) counts
                // non-null values.
                match v {
                    None => *c += 1,
                    Some(val) if !val.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            Acc::Sum(s) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *s += val.as_float().ok_or_else(|| {
                            ExecError::BadAggregate(format!("SUM over non-numeric value {val}"))
                        })?;
                    }
                }
            }
            Acc::Min(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val.total_cmp(cur).is_lt()) {
                        *m = Some(val.clone());
                    }
                }
            }
            Acc::Max(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val.total_cmp(cur).is_gt()) {
                        *m = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum += val.as_float().ok_or_else(|| {
                            ExecError::BadAggregate(format!("AVG over non-numeric value {val}"))
                        })?;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(c as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Min(m) => m.unwrap_or(Value::Null),
            Acc::Max(m) => m.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// The column type an aggregate's output takes.
pub(crate) fn agg_output_type(func: AggFunc, input: Option<ColumnType>) -> ColumnType {
    match func {
        AggFunc::Count => ColumnType::Int,
        AggFunc::Sum | AggFunc::Avg => ColumnType::Float,
        // MIN/MAX echo a value of the input column.
        AggFunc::Min | AggFunc::Max => input.unwrap_or(ColumnType::Int),
    }
}

/// The graph's aggregation resolved against an input projection: where
/// the `GROUP BY` keys and aggregate inputs live in the input's slots,
/// and the output column types (keys first, then aggregate values).
/// Shared by [`AggOp`] and the parallel aggregation stage.
pub(crate) struct AggSpec {
    pub(crate) key_slots: Vec<usize>,
    pub(crate) agg_slots: Vec<Option<usize>>,
    pub(crate) agg_funcs: Vec<AggFunc>,
    pub(crate) out_types: Vec<ColumnType>,
}

impl AggSpec {
    /// Resolves the graph's `GROUP BY` keys and aggregate input columns
    /// against `proj`, which must carry all of them.
    pub(crate) fn resolve(
        graph: &QueryGraph,
        catalog: &Catalog,
        proj: &Projection,
    ) -> Result<Self, ExecError> {
        let key_slots: Vec<usize> = graph
            .group_by()
            .iter()
            .map(|c| {
                proj.slot(*c).ok_or_else(|| {
                    QueryError::InvalidPlan(format!("group-by column {c} not in input")).into()
                })
            })
            .collect::<Result<_, ExecError>>()?;
        let agg_slots: Vec<Option<usize>> = graph
            .aggregates()
            .iter()
            .map(|a| match a.column {
                None => Ok(None),
                Some(c) => proj.slot(c).map(Some).ok_or_else(|| -> ExecError {
                    QueryError::InvalidPlan(format!("aggregate column {c} not in input")).into()
                }),
            })
            .collect::<Result<_, ExecError>>()?;
        let agg_funcs: Vec<AggFunc> = graph.aggregates().iter().map(|a| a.func).collect();

        let input_types = proj.column_types(graph, catalog);
        let mut out_types: Vec<ColumnType> = key_slots.iter().map(|&s| input_types[s]).collect();
        out_types.extend(
            agg_funcs
                .iter()
                .zip(&agg_slots)
                .map(|(&f, &slot)| agg_output_type(f, slot.map(|s| input_types[s]))),
        );

        Ok(Self {
            key_slots,
            agg_slots,
            agg_funcs,
            out_types,
        })
    }

    /// A fresh accumulator row, one per aggregate expression.
    pub(crate) fn new_accs(&self) -> Vec<Acc> {
        self.agg_funcs.iter().map(|&f| Acc::new(f)).collect()
    }
}

/// Vectorized hash/sort aggregation at the plan root.
pub struct AggOp<'a> {
    algo: AggAlgo,
    input: Box<dyn Operator + 'a>,
    spec: AggSpec,
    builder: BatchBuilder,
    drained: bool,
}

impl<'a> AggOp<'a> {
    /// Builds the aggregation over a child pipeline whose projection must
    /// carry every `GROUP BY` key and aggregate input column.
    pub fn new(
        graph: &QueryGraph,
        catalog: &Catalog,
        algo: AggAlgo,
        input: Box<dyn Operator + 'a>,
    ) -> Result<Self, ExecError> {
        let proj = input
            .projection()
            .ok_or_else(|| QueryError::InvalidPlan("aggregate over aggregate output".into()))?;
        let spec = AggSpec::resolve(graph, catalog, proj)?;
        let builder = BatchBuilder::new(spec.out_types.clone());
        Ok(Self {
            algo,
            input,
            spec,
            builder,
            drained: false,
        })
    }

    /// Drains the input and materialises the grouped result into the
    /// output queue. Charges match the row engine: (for sort aggregation)
    /// one unit per input row for the sort, one unit per input row for
    /// grouping, one per output row.
    fn drain_and_aggregate(&mut self, budget: &mut Budget) -> Result<(), ExecError> {
        let (mut out_rows, input_rows) = if self.spec.key_slots.is_empty() {
            self.drain_global(budget)?
        } else {
            self.drain_groups(budget)?
        };
        if self.algo == AggAlgo::Sort {
            // The sort's cost (the row engine charges it up front; the
            // batch engine knows the input size only after draining —
            // identical totals either way).
            budget.charge(input_rows)?;
            out_rows.sort();
        }
        for row in &out_rows {
            budget.charge(1)?;
            self.builder.current_mut().push_values(row);
            self.builder.spill_if_full();
        }
        self.builder.flush();
        Ok(())
    }

    /// No `GROUP BY`: one accumulator row, folded a batch at a time with
    /// no per-row key. Each batch folds the rows the budget still pays
    /// for before charging, so an update error ahead of the trip row
    /// wins as it does row by row. Always yields one row (SQL semantics:
    /// `COUNT(*)` over nothing is 0).
    fn drain_global(&mut self, budget: &mut Budget) -> Result<(Vec<Vec<Value>>, u64), ExecError> {
        let mut accs = self.spec.new_accs();
        let mut input_rows = 0u64;
        while let Some(batch) = self.input.next_batch(budget)? {
            let n = batch.rows() as u64;
            let paid = n.min(budget.headroom()) as usize;
            fold_global(&mut accs, &self.spec.agg_slots, batch.columns(), paid)?;
            budget.charge_rows(n)?;
            input_rows += n;
        }
        Ok((
            vec![accs.into_iter().map(Acc::finish).collect()],
            input_rows,
        ))
    }

    /// `GROUP BY`: one unit per input row, folded into per-key
    /// accumulators.
    fn drain_groups(&mut self, budget: &mut Budget) -> Result<(Vec<Vec<Value>>, u64), ExecError> {
        let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        let mut input_rows = 0u64;
        while let Some(batch) = self.input.next_batch(budget)? {
            for row in 0..batch.rows() {
                budget.charge(1)?;
                input_rows += 1;
                let key: Vec<Value> = self
                    .spec
                    .key_slots
                    .iter()
                    .map(|&s| batch.value_at(s, row))
                    .collect();
                let accs = groups.entry(key).or_insert_with(|| self.spec.new_accs());
                for (acc, slot) in accs.iter_mut().zip(&self.spec.agg_slots) {
                    let v = slot.map(|s| batch.value_at(s, row));
                    acc.update(v.as_ref())?;
                }
            }
        }
        let out_rows = groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
            })
            .collect();
        Ok((out_rows, input_rows))
    }
}

impl Operator for AggOp<'_> {
    fn projection(&self) -> Option<&Projection> {
        // Aggregate output columns are computed, not projected.
        None
    }

    fn open(&mut self, budget: &mut Budget) -> Result<(), ExecError> {
        debug_assert!(!self.drained, "pipelines are single-use");
        self.input.open(budget)
    }

    fn next_batch(&mut self, budget: &mut Budget) -> Result<Option<Batch>, ExecError> {
        if !self.drained {
            self.drain_and_aggregate(budget)?;
            self.drained = true;
        }
        Ok(self.builder.pop())
    }

    fn close(&mut self) {
        self.input.close();
    }
}
