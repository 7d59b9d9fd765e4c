//! Column-at-a-time join and aggregate kernels.
//!
//! The kernels compute but never charge. Their callers — the morsel
//! stages in [`crate::parallel`] — charge the work a kernel call stands
//! for in bulk, after at most one window of comparisons and *before* the
//! pairs it pays for are materialised, so charge totals are those of a
//! loop charging one unit per pair:
//!
//! * [`select`] picks the inner rows of a window that pair with one
//!   probe row (the nested-loop pair check), [`refine`] filters a
//!   candidate list by join conditions (hash-join residuals and merge
//!   blocks). `Int × Int` conditions run as a typed loop per
//!   [`CompareOp`]; every other pairing goes through [`eval_cmp_cols`].
//! * [`Pairs`] collects `(probe row, build row)` pairs for one
//!   column-wise gather per output column ([`gather_pairs`]).
//! * [`fold_global`] folds rows into the accumulators of an aggregate
//!   without `GROUP BY`: `COUNT(*)` adds the row count, typed columns
//!   fold in row order (float sums keep their bits).

use super::agg::Acc;
use super::join::Side;
use super::{eval_cmp_cols, SlotCond};
use crate::error::ExecError;
use hfqo_catalog::ColumnType;
use hfqo_sql::CompareOp;
use hfqo_storage::{ColumnVector, Value};
use std::ops::Range;

/// Rows per output window: large enough to amortise per-window
/// dispatch, small enough that a window's pair vectors stay in cache.
pub const BATCH_CAPACITY: usize = 1024;

/// Pair vectors are flushed to the output once they reach this many
/// pairs, so they stay near one window.
pub(crate) const PAIR_FLUSH: usize = BATCH_CAPACITY;

/// `(probe row, build row)` pairs awaiting one column-wise gather.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    pub(crate) probe: Vec<u32>,
    pub(crate) build: Vec<u32>,
}

impl Pairs {
    /// Appends the pairs `(p, b)` for every `b` in `build`.
    #[inline]
    pub(crate) fn push_run(&mut self, p: usize, build: &[u32]) {
        self.probe
            .extend(std::iter::repeat_n(p as u32, build.len()));
        self.build.extend_from_slice(build);
    }

    pub(crate) fn len(&self) -> usize {
        self.build.len()
    }

    /// Whether the pairs should be flushed to the output now.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= PAIR_FLUSH
    }

    pub(crate) fn clear(&mut self) {
        self.probe.clear();
        self.build.clear();
    }
}

/// Appends one joined row per pair `(left_rows[i], right_rows[i])` onto
/// `dst`, column-wise: output slot `k` gathers from `left` or `right` as
/// `out_map[k]` says, at that side's row of each pair. Row order is the
/// pair order.
pub(crate) fn gather_pairs(
    dst: &mut [ColumnVector],
    out_map: &[Side],
    left: &[ColumnVector],
    right: &[ColumnVector],
    left_rows: &[u32],
    right_rows: &[u32],
) {
    debug_assert_eq!(left_rows.len(), right_rows.len());
    debug_assert_eq!(out_map.len(), dst.len());
    for (dst, side) in dst.iter_mut().zip(out_map) {
        match side {
            Side::Left(s) => left[*s].gather_into(left_rows, dst),
            Side::Right(s) => right[*s].gather_into(right_rows, dst),
        }
    }
}

/// Calls `$kernel(args.., keep)` with `keep(a, b)` = `a <op> b` on two
/// non-NULL integers, one monomorphised loop per [`CompareOp`].
macro_rules! with_int_op {
    ($op:expr, $kernel:ident($($arg:expr),*)) => {
        match $op {
            CompareOp::Eq => $kernel($($arg),*, |a: i64, b: i64| a == b),
            CompareOp::Neq => $kernel($($arg),*, |a: i64, b: i64| a != b),
            CompareOp::Lt => $kernel($($arg),*, |a: i64, b: i64| a < b),
            CompareOp::Le => $kernel($($arg),*, |a: i64, b: i64| a <= b),
            CompareOp::Gt => $kernel($($arg),*, |a: i64, b: i64| a > b),
            CompareOp::Ge => $kernel($($arg),*, |a: i64, b: i64| a >= b),
        }
    };
}

/// Sets `sel` (empty on entry) to the rows `b` of `range` with
/// `valid[b] && keep(k, vals[b])`, branch-free: every row id is written,
/// and the cursor only advances past the kept ones.
#[inline(always)]
fn select_int(
    k: i64,
    vals: &[i64],
    valid: &[bool],
    range: Range<usize>,
    sel: &mut Vec<u32>,
    keep: impl Fn(i64, i64) -> bool,
) {
    sel.resize(range.len(), 0);
    let mut n = 0;
    let start = range.start;
    for (i, (&v, &ok)) in vals[range.clone()].iter().zip(&valid[range]).enumerate() {
        sel[n] = (start + i) as u32;
        n += usize::from(ok & keep(k, v));
    }
    sel.truncate(n);
}

/// Sets `sel` to the rows of `range` in `inner` that pair with probe
/// row `p` under every condition — the nested-loop pair check. The
/// first condition is a scan over the inner key column, the rest filter
/// its survivors; no conditions is a cross product.
pub(crate) fn select(
    conds: &[SlotCond],
    probe: &[ColumnVector],
    p: usize,
    inner: &[ColumnVector],
    range: Range<usize>,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    let Some((c, rest)) = conds.split_first() else {
        sel.extend(range.map(|b| b as u32));
        return;
    };
    match (&probe[c.l_slot], &inner[c.r_slot]) {
        (ColumnVector::Int(pv, pn), ColumnVector::Int(iv, inn)) => {
            // A NULL probe key pairs with nothing.
            if pn[p] {
                with_int_op!(c.op, select_int(pv[p], iv, inn, range, sel));
            }
        }
        (pc, ic) => sel.extend(
            range
                .filter(|&b| eval_cmp_cols(c.op, pc, p, ic, b))
                .map(|b| b as u32),
        ),
    }
    retain(rest, probe, p, inner, sel);
}

/// The rows of `candidates` that pair with probe row `p` under every
/// condition — the residual check of a hash-join candidate list or a
/// merge block. With no conditions that is `candidates` itself;
/// otherwise the survivors are collected in `sel`.
pub(crate) fn refine<'a>(
    conds: &[SlotCond],
    probe: &[ColumnVector],
    p: usize,
    inner: &[ColumnVector],
    candidates: &'a [u32],
    sel: &'a mut Vec<u32>,
) -> &'a [u32] {
    if conds.is_empty() {
        return candidates;
    }
    sel.clear();
    sel.extend_from_slice(candidates);
    retain(conds, probe, p, inner, sel);
    sel
}

/// Keeps the rows `b` of `sel` with `valid[b] && keep(k, vals[b])`,
/// branch-free like [`select_int`].
#[inline(always)]
fn retain_int(
    k: i64,
    vals: &[i64],
    valid: &[bool],
    sel: &mut Vec<u32>,
    keep: impl Fn(i64, i64) -> bool,
) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let b = sel[i] as usize;
        sel[kept] = b as u32;
        kept += usize::from(valid[b] & keep(k, vals[b]));
    }
    sel.truncate(kept);
}

/// Keeps the rows of `sel` that pair with probe row `p` under every
/// condition in `conds`.
fn retain(
    conds: &[SlotCond],
    probe: &[ColumnVector],
    p: usize,
    inner: &[ColumnVector],
    sel: &mut Vec<u32>,
) {
    for c in conds {
        if sel.is_empty() {
            return;
        }
        match (&probe[c.l_slot], &inner[c.r_slot]) {
            (ColumnVector::Int(pv, pn), ColumnVector::Int(iv, inn)) => {
                if pn[p] {
                    with_int_op!(c.op, retain_int(pv[p], iv, inn, sel));
                } else {
                    sel.clear();
                }
            }
            (pc, ic) => sel.retain(|&b| eval_cmp_cols(c.op, pc, p, ic, b as usize)),
        }
    }
}

/// Folds rows `0..rows` of `cols` into the accumulators of an aggregate
/// without `GROUP BY` (`slots[i]` is accumulator `i`'s input column,
/// `None` for `COUNT(*)`). Results are bit-identical to updating every
/// accumulator row by row, and so is the error: when an accumulator can
/// fail (`SUM`/`AVG` over text) the rows fold row-major, so the first
/// failing `(row, aggregate)` reports.
pub(crate) fn fold_global(
    accs: &mut [Acc],
    slots: &[Option<usize>],
    cols: &[ColumnVector],
    rows: usize,
) -> Result<(), ExecError> {
    let fallible = accs.iter().zip(slots).any(|(acc, slot)| {
        matches!(acc, Acc::Sum(_) | Acc::Avg { .. })
            && slot.is_some_and(|s| cols[s].ty() == ColumnType::Text)
    });
    if fallible {
        for row in 0..rows {
            for (acc, slot) in accs.iter_mut().zip(slots) {
                acc.update(slot.map(|s| cols[s].get(row)).as_ref())?;
            }
        }
        return Ok(());
    }
    for (acc, slot) in accs.iter_mut().zip(slots) {
        fold_column(acc, slot.map(|s| &cols[s]), rows)?;
    }
    Ok(())
}

/// A running MIN or MAX continued over `xs`, replaced only when
/// `better(x, best)` — a strict improvement, as in the per-row update,
/// so NaN and `-0.0` keep the value that arrived first.
fn extreme<T: Copy>(
    best: Option<T>,
    xs: impl Iterator<Item = T>,
    better: impl Fn(T, T) -> bool,
) -> Option<T> {
    xs.fold(best, |best, x| match best {
        Some(b) if !better(x, b) => Some(b),
        _ => Some(x),
    })
}

/// Folds rows `0..rows` of one input column (`None` for `COUNT(*)`)
/// into one accumulator, in row order.
fn fold_column(acc: &mut Acc, col: Option<&ColumnVector>, rows: usize) -> Result<(), ExecError> {
    /// The present values among the first `rows`.
    fn present<'a, T: Copy>(
        v: &'a [T],
        ok: &'a [bool],
        rows: usize,
    ) -> impl Iterator<Item = T> + 'a {
        v[..rows]
            .iter()
            .zip(&ok[..rows])
            .filter(|(_, &ok)| ok)
            .map(|(&x, _)| x)
    }
    match (acc, col) {
        (Acc::Count(c), None) => *c += rows as u64,
        (
            Acc::Count(c),
            Some(ColumnVector::Int(_, ok) | ColumnVector::Float(_, ok) | ColumnVector::Str(_, ok)),
        ) => *c += ok[..rows].iter().filter(|&&ok| ok).count() as u64,
        (Acc::Sum(s), Some(ColumnVector::Int(v, ok))) => {
            for x in present(v, ok, rows) {
                *s += x as f64;
            }
        }
        (Acc::Sum(s), Some(ColumnVector::Float(v, ok))) => {
            for x in present(v, ok, rows) {
                *s += x;
            }
        }
        (Acc::Avg { sum, n }, Some(ColumnVector::Int(v, ok))) => {
            for x in present(v, ok, rows) {
                *sum += x as f64;
                *n += 1;
            }
        }
        (Acc::Avg { sum, n }, Some(ColumnVector::Float(v, ok))) => {
            for x in present(v, ok, rows) {
                *sum += x;
                *n += 1;
            }
        }
        (Acc::Min(m @ (None | Some(Value::Int(_)))), Some(ColumnVector::Int(v, ok))) => {
            let best = extreme(
                m.as_ref().and_then(Value::as_int),
                present(v, ok, rows),
                |x, b| x < b,
            );
            *m = best.map(Value::Int);
        }
        (Acc::Max(m @ (None | Some(Value::Int(_)))), Some(ColumnVector::Int(v, ok))) => {
            let best = extreme(
                m.as_ref().and_then(Value::as_int),
                present(v, ok, rows),
                |x, b| x > b,
            );
            *m = best.map(Value::Int);
        }
        (Acc::Min(m @ (None | Some(Value::Float(_)))), Some(ColumnVector::Float(v, ok))) => {
            let best = extreme(
                m.as_ref().and_then(Value::as_float),
                present(v, ok, rows),
                |x, b| x < b,
            );
            *m = best.map(Value::Float);
        }
        (Acc::Max(m @ (None | Some(Value::Float(_)))), Some(ColumnVector::Float(v, ok))) => {
            let best = extreme(
                m.as_ref().and_then(Value::as_float),
                present(v, ok, rows),
                |x, b| x > b,
            );
            *m = best.map(Value::Float);
        }
        // Text MIN/MAX and encoded columns: per-row values.
        (acc, col) => {
            for row in 0..rows {
                acc.update(col.map(|c| c.get(row)).as_ref())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_sql::AggFunc;

    fn ints(vals: &[Option<i64>]) -> ColumnVector {
        let mut c = ColumnVector::new(ColumnType::Int);
        for v in vals {
            c.push(&v.map_or(Value::Null, Value::Int));
        }
        c
    }

    fn floats(vals: &[Option<f64>]) -> ColumnVector {
        let mut c = ColumnVector::new(ColumnType::Float);
        for v in vals {
            c.push(&v.map_or(Value::Null, Value::Float));
        }
        c
    }

    /// The per-pair reference: `eval_cmp_cols` over every condition.
    fn reference(
        conds: &[SlotCond],
        probe: &[ColumnVector],
        p: usize,
        inner: &[ColumnVector],
        range: Range<usize>,
    ) -> Vec<u32> {
        range
            .filter(|&b| {
                conds
                    .iter()
                    .all(|c| eval_cmp_cols(c.op, &probe[c.l_slot], p, &inner[c.r_slot], b))
            })
            .map(|b| b as u32)
            .collect()
    }

    #[test]
    fn select_and_refine_match_the_per_pair_check() {
        let probe = vec![
            ints(&[Some(3), None, Some(0)]),
            floats(&[Some(2.5), Some(1.0), None]),
        ];
        let inner = vec![
            ints(&[Some(1), Some(3), None, Some(5), Some(3), Some(0)]),
            floats(&[Some(2.5), None, Some(9.0), Some(-1.0), Some(2.5), Some(0.0)]),
            ints(&[Some(2), Some(2), Some(3), None, Some(1), Some(7)]),
        ];
        let ops = [
            CompareOp::Eq,
            CompareOp::Neq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        for &op in &ops {
            for &op2 in &ops {
                let sets: [Vec<SlotCond>; 4] = [
                    vec![],
                    vec![SlotCond {
                        l_slot: 0,
                        r_slot: 0,
                        op,
                    }],
                    // Int × Float falls back to the per-pair check.
                    vec![
                        SlotCond {
                            l_slot: 0,
                            r_slot: 2,
                            op,
                        },
                        SlotCond {
                            l_slot: 0,
                            r_slot: 1,
                            op: op2,
                        },
                    ],
                    vec![
                        SlotCond {
                            l_slot: 1,
                            r_slot: 1,
                            op,
                        },
                        SlotCond {
                            l_slot: 0,
                            r_slot: 0,
                            op: op2,
                        },
                    ],
                ];
                for conds in &sets {
                    for p in 0..3 {
                        for range in [0..6, 2..5, 3..3] {
                            let want = reference(conds, &probe, p, &inner, range.clone());
                            let mut got = vec![99];
                            select(conds, &probe, p, &inner, range.clone(), &mut got);
                            assert_eq!(got, want, "select {conds:?} p={p}");
                            let cands: Vec<u32> = range.clone().map(|b| b as u32).collect();
                            let kept = refine(conds, &probe, p, &inner, &cands, &mut got);
                            assert_eq!(kept, want, "refine {conds:?} p={p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn global_fold_matches_per_row_updates() {
        let cols = vec![
            ints(&[Some(4), None, Some(-2), Some(9)]),
            floats(&[Some(0.1), Some(f64::NAN), None, Some(0.2)]),
        ];
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        for slot in [None, Some(0), Some(1)] {
            for &f in &funcs {
                for rows in [0, 1, 3, 4] {
                    let mut want = Acc::new(f);
                    for row in 0..rows {
                        want.update(slot.map(|s: usize| cols[s].get(row)).as_ref())
                            .unwrap();
                    }
                    let mut got = [Acc::new(f)];
                    fold_global(&mut got, &[slot], &cols, rows).unwrap();
                    let [got] = got;
                    let (w, g) = (want.finish(), got.finish());
                    assert!(
                        w == g
                            || matches!((&w, &g), (Value::Float(a), Value::Float(b)) if a.to_bits() == b.to_bits()),
                        "{f:?} slot={slot:?} rows={rows}: {w:?} vs {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn global_fold_reports_the_first_failing_row() {
        let mut text = ColumnVector::new(ColumnType::Text);
        for s in ["a", "b"] {
            text.push(&Value::str(s));
        }
        let cols = vec![text];
        let mut accs = [Acc::new(AggFunc::Count), Acc::new(AggFunc::Sum)];
        let err = fold_global(&mut accs, &[None, Some(0)], &cols, 2).unwrap_err();
        assert!(
            matches!(err, ExecError::BadAggregate(ref m) if m.contains('a')),
            "{err:?}"
        );
        let mut accs = [Acc::new(AggFunc::Avg)];
        assert!(
            fold_global(&mut accs, &[Some(0)], &cols, 0).is_ok(),
            "no rows, no error"
        );
    }
}
