//! Query execution with validity-interval and invalidation-tag tracking.
//!
//! Every read — SELECT of any shape, either side of a join, and the target
//! selection of UPDATE/DELETE — runs through one pipeline of three stages:
//!
//! 1. **Candidate source** ([`Source`]): turns an [`AccessPath`] into an
//!    iterator of `(group key, slots)`. It is the only code that charges heap
//!    and index pages to the simulated buffer manager, so the harness can
//!    model in-memory vs disk-bound databases. Ordered and endpoint index
//!    walks stream key groups lazily, in the requested direction; every other
//!    path fetches its candidates and, when the shape asks for it, groups
//!    them by the same column — so the forced-`SeqScan` reference meets the
//!    same versions in the same order as the index walk it is compared to.
//! 2. **Visibility gate** ([`Gate::admit`]): applies the predicate (plus the
//!    join-key conjunct on the inner side of a join) and the snapshot-
//!    isolation visibility check, in the order
//!    [`ExecOptions::predicate_before_visibility`] asks for, and feeds the
//!    query's one [`ValidityTracker`] — result-tuple validity and invalidity
//!    mask, §5.2.
//! 3. **Shape sink** ([`Sink`]): what becomes of an admitted version — a row
//!    (ORDER BY, LIMIT, projection), a COUNT, a SUM/AVG fold, a MIN/MAX, the
//!    outer rows of a join, or a DML target slot.
//!
//! The planner's access path picks the source; the query's shape picks the
//! sink and whether the source walks grouped (no-join ORDER BY and MIN/MAX).
//! Results are materialized (the workloads' result sets are small).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;

use txtypes::{Error, Result, TagSet, Timestamp, ValidityInterval};

use crate::buffer::{PageAccess, SharedBuffer};
use crate::plan::{choose_access_path, keyed_tag, AccessPath, JoinAccess, QueryPlan};
use crate::query::{Aggregate, Predicate, SortOrder};
use crate::schema::ColumnDef;
use crate::table::{Slot, Table};
use crate::tuple::{TupleVersion, TxnId};
use crate::validity::ValidityTracker;
use crate::value::Value;

/// Execution options controlling the database-side TxCache machinery.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Track validity intervals and produce invalidation tags. Disabling this
    /// models the stock (unmodified) database used as the §8.1 baseline.
    pub track_validity: bool,
    /// Evaluate the query predicate before the visibility check during scans
    /// (§5.2). This tightens the invalidity mask (wider cached validity) at
    /// the cost of evaluating predicates on dead tuples.
    pub predicate_before_visibility: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            track_validity: true,
            predicate_before_visibility: true,
        }
    }
}

/// Counters of page activity attributable to a single query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounts {
    /// Pages touched that were resident in the buffer pool.
    pub hits: u64,
    /// Pages touched that required a simulated disk read.
    pub misses: u64,
}

impl PageCounts {
    fn record(&mut self, access: PageAccess) {
        match access {
            PageAccess::Hit => self.hits += 1,
            PageAccess::Miss => self.misses += 1,
        }
    }

    /// Total pages touched.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The result of a query, together with the TxCache metadata piggybacked on
/// it (§5.2–5.3): the validity interval and the invalidation tag set.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names. Outer-table columns keep their bare names; joined
    /// columns are qualified as `table.column`.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// The range of timestamps over which this result is the current result.
    pub validity: ValidityInterval,
    /// The query's database dependencies, for automatic invalidation.
    pub tags: TagSet,
    /// Simulated page activity caused by the query.
    pub pages: PageCounts,
}

impl QueryResult {
    /// Looks up a column by name. Bare names match outer columns exactly and
    /// joined columns by suffix.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        resolve_column(&self.columns, name)
    }

    /// Returns the value in `column` of row `row`, if both exist.
    pub fn get(&self, row: usize, column: &str) -> Result<&Value> {
        let col = self.column_index(column)?;
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .ok_or_else(|| Error::Query(format!("row {row} out of range")))
    }

    /// Number of result rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate size of the result in bytes (used for cache accounting in
    /// higher layers).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let cells: usize = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
            .sum();
        let header: usize = self.columns.iter().map(|c| c.len() + 8).sum();
        cells + header + 64
    }
}

/// Executes a planned query at `snapshot_ts`.
///
/// `me` identifies the executing transaction so that a read/write transaction
/// sees its own uncommitted writes. The buffer pool is shared and internally
/// synchronized, so execution needs only shared references to the tables —
/// many queries can run in parallel under reader locks.
pub fn execute_plan(
    plan: &QueryPlan,
    outer: &Table,
    inner: Option<&Table>,
    snapshot_ts: Timestamp,
    me: Option<TxnId>,
    buffer: &SharedBuffer,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let query = &plan.query;
    let join = plan.join.as_ref().zip(inner);
    // The full row's column names: the outer table's bare, a joined table's
    // qualified. Only a result that returns them all needs them owned.
    let mut columns: Vec<Cow<str>> = Vec::new();
    columns.extend((outer.schema().columns.iter()).map(|c| Cow::from(&c.name)));
    if let Some((_, table)) = join {
        let schema = table.schema();
        let qualified = |c: &ColumnDef| Cow::from(format!("{}.{}", schema.name, c.name));
        columns.extend(schema.columns.iter().map(qualified));
    }

    // The query's shape picks the sink, and for ORDER BY and MIN/MAX an
    // `order` (column, descending) to meet the candidates in. Without a join
    // the source walks them grouped by that column, so the sink can stop at a
    // group boundary and an index-ordered walk makes the same observations as
    // the forced-SeqScan reference; a join sorts its materialized rows.
    let column = |name: &str| resolve_column(&columns, name);
    let mut order = None;
    let mut shape = match &query.aggregate {
        Some(Aggregate::Count) => Shape::Count(0),
        Some(Aggregate::Sum(c)) => Shape::Fold(false, column(c)?, Vec::new()),
        Some(Aggregate::Avg(c)) => Shape::Fold(true, column(c)?, Vec::new()),
        Some(Aggregate::Min(c)) | Some(Aggregate::Max(c)) => {
            let max = matches!(query.aggregate, Some(Aggregate::Max(_)));
            let idx = column(c)?;
            order = Some((idx, max));
            Shape::MinMax(max, idx, Value::Null)
        }
        None => {
            if let Some((c, by)) = &query.order_by {
                order = Some((column(c)?, matches!(by, SortOrder::Desc)));
            }
            let projection = match &query.projection {
                Some(names) => {
                    let indices: Result<Vec<usize>> = names.iter().map(|c| column(c)).collect();
                    Some((names.as_slice(), indices?))
                }
                None => None,
            };
            Shape::Rows {
                rows: Vec::new(),
                sort: order.filter(|_| join.is_some()),
                limit: query.limit,
                projection,
            }
        }
    };
    let group_by = order.filter(|_| join.is_none());

    let pager = Pager::new(buffer);
    // A grouped MIN/MAX is the endpoint walk, the one shape that holds
    // phantoms back until their group is settled.
    let endpoint = group_by.is_some() && matches!(shape, Shape::MinMax(..));
    let mut gate = Gate::new(snapshot_ts, me, *opts, endpoint);
    let mut tags = TagSet::new();
    if opts.track_validity {
        tags = plan.base_tags.clone();
    }
    let access = &plan.access;
    let source = Source::new(outer, &pager, index_column(access), &plan.predicate, None);
    let candidates = source.groups(access, group_by)?;
    if let Some((join_plan, inner_table)) = join {
        // The outer side is materialized before the first inner probe.
        let mut outer_rows: Vec<Vec<Value>> = Vec::new();
        scan(&source, candidates, &mut gate, None, &[], &mut outer_rows)?;
        // The inner side is the same kind of source, asked once per outer row
        // for an index probe on that row's key (emitting the per-key tag of
        // §5.3) or for a heap scan; the gate adds the join condition.
        let join = &join_plan.join;
        let indexed = join_plan.access == JoinAccess::IndexNestedLoop;
        let probed = indexed.then_some(join.right_column.as_str());
        let left = outer.schema().column_index(&join.left_column)?;
        let right = inner_table.schema().column_index(&join.right_column)?;
        let inner = Source::new(inner_table, &pager, probed, &join.predicate, Some(right));
        for row in &outer_rows {
            let key = &row[left];
            if key.is_null() {
                continue;
            }
            let candidates = ungrouped(if indexed {
                if opts.track_validity {
                    tags.insert(keyed_tag(&join.table, &join.right_column, key));
                }
                inner.probe(key)?
            } else {
                inner.candidates(&AccessPath::SeqScan)?
            });
            scan(&inner, candidates, &mut gate, Some(key), row, &mut shape)?;
        }
    } else {
        scan(&source, candidates, &mut gate, None, &[], &mut shape)?;
    }

    let (columns, rows) = shape.finish(columns);
    Ok(QueryResult {
        columns,
        rows,
        validity: gate.tracker.finalize(snapshot_ts),
        tags,
        pages: pager.counts.get(),
    })
}

/// UPDATE/DELETE target selection: the slots of the versions of `table`
/// visible to (`snapshot_ts`, `me`) that match `predicate`, located the way a
/// SELECT with that predicate would (same source, same gate, same page
/// charges) — with no validity to track and the slots themselves as the sink.
pub(crate) fn matching_slots(
    table: &Table,
    predicate: &Predicate,
    snapshot_ts: Timestamp,
    me: TxnId,
    buffer: &SharedBuffer,
    opts: &ExecOptions,
) -> Result<Vec<Slot>> {
    let access = choose_access_path(predicate, table);
    let pager = Pager::new(buffer);
    let source = Source::new(table, &pager, index_column(&access), predicate, None);
    let untracked = ExecOptions {
        track_validity: false,
        ..*opts
    };
    let mut gate = Gate::new(snapshot_ts, Some(me), untracked, false);
    let candidates = source.groups(&access, None)?;
    let mut slots: Vec<Slot> = Vec::new();
    scan(&source, candidates, &mut gate, None, &[], &mut slots)?;
    Ok(slots)
}

/// Drives one candidate stream through the gate into a sink. When scanning
/// the inner side of a join, `key` is the outer row's join key and `left`
/// that row (`None` and empty otherwise).
fn scan(
    source: &Source<'_>,
    candidates: Groups<'_>,
    gate: &mut Gate,
    key: Option<&Value>,
    left: &[Value],
    sink: &mut impl Sink,
) -> Result<()> {
    for (group_key, slots) in candidates {
        if !sink.wants_group(group_key) {
            continue;
        }
        for &slot in slots.iter() {
            let Some(version) = source.fetch(slot) else {
                continue;
            };
            if gate.admit(source, key, version)? {
                sink.push(slot, left, &version.values);
            }
        }
        let stop = sink.group_done();
        gate.settle_group(stop);
        if stop {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Stage 1: candidate source
// ---------------------------------------------------------------------------

/// Charges page accesses to the buffer manager and to the query's counts.
struct Pager<'a> {
    buffer: &'a SharedBuffer,
    counts: Cell<PageCounts>,
}

impl<'a> Pager<'a> {
    fn new(buffer: &'a SharedBuffer) -> Pager<'a> {
        let counts = Cell::default();
        Pager { buffer, counts }
    }

    fn charge(&self, space: &str, page: u64) {
        let mut counts = self.counts.get();
        counts.record(self.buffer.access(space, page));
        self.counts.set(counts);
    }
}

/// Candidate slots in groups. Grouped walks (no-join ORDER BY and MIN/MAX)
/// yield one group per distinct value of the grouping column, keyed by it and
/// in its direction; everything else yields a single unkeyed group.
type Groups<'s> = Box<dyn Iterator<Item = (Option<&'s Value>, Cow<'s, [Slot]>)> + 's>;

fn ungrouped<'s>(slots: Vec<Slot>) -> Groups<'s> {
    Box::new(std::iter::once((None, Cow::Owned(slots))))
}

fn directed<'s>(
    groups: impl DoubleEndedIterator<Item = (Option<&'s Value>, Cow<'s, [Slot]>)> + 's,
    desc: bool,
) -> Groups<'s> {
    if desc {
        Box::new(groups.rev())
    } else {
        Box::new(groups)
    }
}

/// The indexed column an access path probes or walks, if any.
fn index_column(access: &AccessPath) -> Option<&str> {
    match access {
        AccessPath::IndexEq { column, .. }
        | AccessPath::IndexIn { column, .. }
        | AccessPath::IndexRange { column, .. }
        | AccessPath::IndexOrdered { column, .. }
        | AccessPath::IndexEndpoint { column, .. } => Some(column),
        AccessPath::SeqScan => None,
    }
}

/// One table's side of a scan: where its candidate versions come from — every
/// heap and index page touched on the way is charged here and nowhere else —
/// and, for the gate, which of them match.
struct Source<'t> {
    table: &'t Table,
    pager: &'t Pager<'t>,
    /// The index this source probes: its column and its page-space name.
    index: Option<(&'t str, String)>,
    predicate: &'t Predicate,
    /// Inner side of a join: the column that must equal the outer row's key.
    key_col: Option<usize>,
}

impl<'t> Source<'t> {
    fn new(
        table: &'t Table,
        pager: &'t Pager<'t>,
        index_column: Option<&'t str>,
        predicate: &'t Predicate,
        key_col: Option<usize>,
    ) -> Source<'t> {
        let name = &table.schema().name;
        let index = index_column.map(|column| (column, format!("{name}#idx:{column}")));
        Source {
            table,
            pager,
            index,
            predicate,
            key_col,
        }
    }

    fn index(&self) -> Result<(&'t str, &str)> {
        let (column, space) = (self.index.as_ref())
            .ok_or_else(|| Error::Query("index access on a source without an index".into()))?;
        Ok((column, space))
    }

    /// The version at `slot` (unless vacuumed), charging its heap page.
    fn fetch(&self, slot: Slot) -> Option<&'t TupleVersion> {
        let version = self.table.get(slot)?;
        let page = self.table.heap_page_of(slot);
        self.pager.charge(&self.table.schema().name, page);
        Some(version)
    }

    /// One index probe: the slots filed under `key`, charging the index page
    /// the key hashes to.
    fn probe(&self, key: &Value) -> Result<Vec<Slot>> {
        let (column, space) = self.index()?;
        let page = self.table.index_page_of(column, key);
        self.pager.charge(space, page);
        self.table.index_eq(column, key)
    }

    /// A lazy walk over the index's key groups between the (inclusive)
    /// bounds, charging one index page per group actually visited.
    fn walk<'s>(
        &'s self,
        lo: &Option<Value>,
        hi: &Option<Value>,
        desc: bool,
    ) -> Result<Groups<'s>> {
        let (column, space) = self.index()?;
        let groups = self.table.index_groups(column, lo.as_ref(), hi.as_ref())?;
        let charged = groups.map(move |(key, slots)| {
            let page = self.table.index_page_of(column, key);
            self.pager.charge(space, page);
            (Some(key), Cow::Borrowed(slots))
        });
        Ok(directed(charged, desc))
    }

    /// All candidate slots of `access`, index pages charged up front.
    fn candidates(&self, access: &AccessPath) -> Result<Vec<Slot>> {
        let mut slots = Vec::new();
        match access {
            AccessPath::IndexEq { value, .. } => return self.probe(value),
            AccessPath::IndexIn { values, .. } => {
                // One probe (and one index page) per IN-list key; the union is
                // restored to heap order so downstream row order matches a scan.
                for value in values {
                    slots.extend(self.probe(value)?);
                }
                slots.sort_unstable();
                slots.dedup();
            }
            AccessPath::IndexRange { lo, hi, .. }
            | AccessPath::IndexOrdered { lo, hi, .. }
            | AccessPath::IndexEndpoint { lo, hi, .. } => {
                for (_, group) in self.walk(lo, hi, false)? {
                    slots.extend_from_slice(&group);
                }
            }
            AccessPath::SeqScan => slots.extend(self.table.scan_slots()),
        }
        Ok(slots)
    }

    /// The candidates of `access`, grouped by column `group_by.0` (walked
    /// descending if `group_by.1`) when the shape asks for it. An ordered or
    /// endpoint path over that very column streams straight out of the index,
    /// so the consumer can stop early; any other path has its candidates
    /// grouped by the column's value — including a NULL group, which sorts
    /// first like NULLs do in a materialized sort.
    fn groups(&self, access: &AccessPath, group_by: Option<(usize, bool)>) -> Result<Groups<'_>> {
        let Some((col, desc)) = group_by else {
            return Ok(ungrouped(self.candidates(access)?));
        };
        match access {
            AccessPath::IndexOrdered { column, lo, hi, .. }
            | AccessPath::IndexEndpoint { column, lo, hi, .. }
                if *column == self.table.schema().columns[col].name =>
            {
                self.walk(lo, hi, desc)
            }
            _ => {
                let mut map: BTreeMap<&Value, Vec<Slot>> = BTreeMap::new();
                for slot in self.candidates(access)? {
                    if let Some(version) = self.table.get(slot) {
                        map.entry(&version.values[col]).or_default().push(slot);
                    }
                }
                let groups = map.into_iter().map(|(k, s)| (Some(k), Cow::Owned(s)));
                Ok(directed(groups, desc))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stage 2: visibility gate
// ---------------------------------------------------------------------------

/// The snapshot a query reads at and the validity accounting (§5.2) of
/// everything it examined, on either side of a join.
struct Gate {
    snapshot_ts: Timestamp,
    me: Option<TxnId>,
    opts: ExecOptions,
    tracker: ValidityTracker,
    /// Endpoint walks only: the current group's phantoms, held back until
    /// [`Gate::settle_group`] decides whether they can change the answer.
    deferred: Option<Vec<Option<ValidityInterval>>>,
}

impl Gate {
    fn new(snapshot_ts: Timestamp, me: Option<TxnId>, opts: ExecOptions, defer: bool) -> Gate {
        Gate {
            snapshot_ts,
            me,
            opts,
            tracker: ValidityTracker::new(opts.track_validity),
            deferred: defer.then(Vec::new),
        }
    }

    /// Decides whether `version` of `side`'s table belongs in the result, and
    /// accounts for it: a visible match tightens the result validity, and a
    /// version discarded by the visibility check is a phantom that enters the
    /// invalidity mask. With the predicate first only matching phantoms do;
    /// visibility-first is the conservative §5.2 ablation — every invisible
    /// version widens the mask, whether or not it would have matched. On the
    /// inner side of a join, matching includes equality with the join `key`.
    fn admit(
        &mut self,
        side: &Source,
        key: Option<&Value>,
        version: &TupleVersion,
    ) -> Result<bool> {
        let values = &version.values;
        let matches = || -> Result<bool> {
            let on_key = (side.key_col.zip(key)).is_none_or(|(col, key)| values[col] == *key);
            Ok(on_key && side.predicate.eval(side.table.schema(), values)?)
        };
        let predicate_first = self.opts.predicate_before_visibility;
        if predicate_first && !matches()? {
            return Ok(false);
        }
        if !version.visible_to(self.snapshot_ts, self.me) {
            match &mut self.deferred {
                Some(deferred) if predicate_first => deferred.push(version.committed_validity()),
                _ => self.tracker.observe_invisible(version.committed_validity()),
            }
            return Ok(false);
        }
        if !predicate_first && !matches()? {
            return Ok(false);
        }
        // A transaction's own pending write has no committed validity yet.
        let own_write = ValidityInterval::point(self.snapshot_ts);
        let validity = version.committed_validity().unwrap_or(own_write);
        self.tracker.observe_visible(validity);
        Ok(true)
    }

    /// Ends a key group of an endpoint walk. In the answering group (`stop`)
    /// the held-back phantoms are dropped — a phantom with the answer's own
    /// key cannot change the answer; in a more extreme group they enter the
    /// mask, because their appearance *would* change it.
    fn settle_group(&mut self, stop: bool) {
        let Some(deferred) = &mut self.deferred else {
            return;
        };
        for validity in deferred.drain(..).filter(|_| !stop) {
            self.tracker.observe_invisible(validity);
        }
    }
}

// ---------------------------------------------------------------------------
// Stage 3: shape sinks
// ---------------------------------------------------------------------------

/// Where admitted versions go. A row is `left ++ right`: `right` is the
/// admitted version's values and `left` the outer row it joins (empty for a
/// single-table scan).
trait Sink {
    /// Whether to examine the group keyed `key` at all.
    fn wants_group(&self, _key: Option<&Value>) -> bool {
        true
    }
    fn push(&mut self, slot: Slot, left: &[Value], right: &[Value]);
    /// Called after each group; `true` ends a grouped walk early. (An
    /// ungrouped scan has a single group, so there it changes nothing.)
    fn group_done(&mut self) -> bool {
        false
    }
}

/// The row `left ++ right`; a single-table scan's is a plain clone.
fn joined_row(left: &[Value], right: &[Value]) -> Vec<Value> {
    if left.is_empty() {
        return right.to_vec();
    }
    [left, right].concat()
}

/// DML target selection keeps the slots.
impl Sink for Vec<Slot> {
    fn push(&mut self, slot: Slot, _left: &[Value], _right: &[Value]) {
        Vec::push(self, slot);
    }
}

/// Plain materialization (the outer side of a join).
impl Sink for Vec<Vec<Value>> {
    fn push(&mut self, _slot: Slot, left: &[Value], right: &[Value]) {
        Vec::push(self, joined_row(left, right));
    }
}

/// The result shapes of a SELECT.
enum Shape<'q> {
    /// Rows: stable ORDER BY (`sort`: column and descending flag — only set
    /// when the walk is not already grouped in sort order), LIMIT (a grouped
    /// walk stops at the first group boundary past it, which preserves tie
    /// order and keeps the accounting exact: a version beyond the last
    /// examined group sorts strictly after every returned row), projection
    /// (output names and column indices).
    Rows {
        rows: Vec<Vec<Value>>,
        sort: Option<(usize, bool)>,
        limit: Option<usize>,
        projection: Option<(&'q [String], Vec<usize>)>,
    },
    /// COUNT: no tuple values are cloned or materialized.
    Count(i64),
    /// SUM, or AVG if the flag is set, over the non-NULL values of a column.
    Fold(bool, usize, Vec<f64>),
    /// MIN, or MAX if the flag is set, of a column: the best value so far.
    /// On a grouped walk this is the endpoint probe: NULL-keyed groups are
    /// skipped wholesale (NULL can never be the answer, so its versions
    /// neither tighten the validity nor enter the mask) and the walk stops at
    /// the first group with a visible match.
    MinMax(bool, usize, Value),
}

impl Sink for Shape<'_> {
    fn wants_group(&self, key: Option<&Value>) -> bool {
        !(matches!(self, Shape::MinMax(..)) && key.is_some_and(Value::is_null))
    }

    fn push(&mut self, _slot: Slot, left: &[Value], right: &[Value]) {
        let cell = |idx: usize| left.get(idx).unwrap_or_else(|| &right[idx - left.len()]);
        match self {
            Shape::Rows { rows, .. } => rows.push(joined_row(left, right)),
            Shape::Count(n) => *n += 1,
            Shape::Fold(_, idx, vals) => vals.extend(cell(*idx).as_float()),
            Shape::MinMax(max, idx, best) => {
                // Among equals MIN keeps the first and MAX the last.
                let v = cell(*idx);
                if !v.is_null() && (best.is_null() || if *max { v >= best } else { v < best }) {
                    *best = v.clone();
                }
            }
        }
    }

    fn group_done(&mut self) -> bool {
        match self {
            Shape::Rows { rows, limit, .. } => limit.is_some_and(|l| rows.len() >= l),
            Shape::MinMax(_, _, best) => !best.is_null(),
            Shape::Count(_) | Shape::Fold(..) => false,
        }
    }
}

impl Shape<'_> {
    /// The output columns and rows; `columns` names the full (joined) row.
    fn finish(self, columns: Vec<Cow<str>>) -> (Vec<String>, Vec<Vec<Value>>) {
        let single = |name: &str, value: Value| (vec![name.to_string()], vec![vec![value]]);
        match self {
            Shape::Count(n) => single("count", Value::Int(n)),
            Shape::Fold(false, _, vals) => single("sum", Value::Float(vals.iter().sum())),
            Shape::Fold(true, _, vals) if vals.is_empty() => single("avg", Value::Null),
            Shape::Fold(true, _, vals) => single(
                "avg",
                Value::Float(vals.iter().sum::<f64>() / vals.len() as f64),
            ),
            Shape::MinMax(max, _, best) => single(if max { "max" } else { "min" }, best),
            Shape::Rows {
                mut rows,
                sort,
                limit,
                projection,
            } => {
                if let Some((idx, desc)) = sort {
                    let ordering = |a: &Vec<Value>, b: &Vec<Value>| a[idx].cmp(&b[idx]);
                    rows.sort_by(|a, b| if desc { ordering(b, a) } else { ordering(a, b) });
                }
                rows.truncate(limit.unwrap_or(usize::MAX));
                let Some((names, indices)) = projection else {
                    return (columns.into_iter().map(Cow::into_owned).collect(), rows);
                };
                let project = |r: &Vec<Value>| indices.iter().map(|&i| r[i].clone()).collect();
                (names.to_vec(), rows.iter().map(project).collect())
            }
        }
    }
}

/// Resolves a (possibly qualified) column name against the output columns:
/// an exact match wins, otherwise a unique `table.name` suffix match.
fn resolve_column(columns: &[impl AsRef<str>], name: &str) -> Result<usize> {
    if let Some(i) = columns.iter().position(|c| c.as_ref() == name) {
        return Ok(i);
    }
    let suffix = format!(".{name}");
    let mut matches = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.as_ref().ends_with(&suffix));
    match (matches.next(), matches.next()) {
        (Some((i, _)), None) => Ok(i),
        (Some(_), Some(_)) => Err(Error::Query(format!("ambiguous column '{name}'"))),
        (None, _) => Err(Error::Query(format!("unknown column '{name}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_query;
    use crate::query::{Predicate, SelectQuery};
    use crate::schema::TableSchema;
    use crate::tuple::{Stamp, TupleVersion};
    use crate::value::ColumnType;
    use txtypes::InvalidationTag;

    fn make_items() -> Table {
        let schema = TableSchema::new("items")
            .column("id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .column("price", ColumnType::Float)
            .unique_index("id")
            .index("seller");
        let mut t = Table::new(schema, 8).unwrap();
        for i in 1..=6i64 {
            let row = t.allocate_row_id();
            t.insert_version(TupleVersion::committed(
                row,
                vec![
                    Value::Int(i),
                    Value::Int(i % 3),
                    Value::Float(10.0 * i as f64),
                ],
                Timestamp(i as u64),
            ))
            .unwrap();
        }
        t
    }

    fn make_users() -> Table {
        let schema = TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .unique_index("id");
        let mut t = Table::new(schema, 8).unwrap();
        for i in 0..3i64 {
            let row = t.allocate_row_id();
            t.insert_version(TupleVersion::committed(
                row,
                vec![Value::Int(i), Value::text(format!("user{i}"))],
                Timestamp(1),
            ))
            .unwrap();
        }
        t
    }

    fn run(
        query: &SelectQuery,
        outer: &Table,
        inner: Option<&Table>,
        ts: u64,
        opts: &ExecOptions,
    ) -> QueryResult {
        let plan = plan_query(query, outer, inner).unwrap();
        let buffer = SharedBuffer::new(1024, 4);
        execute_plan(&plan, outer, inner, Timestamp(ts), None, &buffer, opts).unwrap()
    }

    #[test]
    fn index_eq_lookup_returns_matching_row_and_keyed_tag() {
        let items = make_items();
        let q = SelectQuery::table("items").filter(Predicate::eq("id", 3i64));
        let r = run(&q, &items, None, 10, &ExecOptions::default());
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0, "price").unwrap(), &Value::Float(30.0));
        assert!(r
            .tags
            .tags()
            .contains(&InvalidationTag::keyed("items", "id=3")));
        assert!(r.validity.contains(Timestamp(10)));
        assert!(r.validity.is_unbounded());
    }

    #[test]
    fn seq_scan_filters_and_tags_wildcard() {
        let items = make_items();
        let q = SelectQuery::table("items").filter(Predicate::cmp(
            "price",
            crate::query::CmpOp::Ge,
            40.0,
        ));
        let r = run(&q, &items, None, 10, &ExecOptions::default());
        assert_eq!(r.len(), 3);
        assert!(r.tags.tags().contains(&InvalidationTag::wildcard("items")));
    }

    #[test]
    fn snapshot_visibility_excludes_future_rows() {
        let items = make_items();
        let q = SelectQuery::table("items");
        let r = run(&q, &items, None, 3, &ExecOptions::default());
        // Only items committed at ts <= 3.
        assert_eq!(r.len(), 3);
        // The invisible future rows bound the validity above: item 4 commits
        // at ts 4, so this result stops being the current one at 4.
        assert_eq!(
            r.validity,
            ValidityInterval::bounded(Timestamp(3), Timestamp(4)).unwrap()
        );
    }

    #[test]
    fn deleted_rows_bound_validity_below() {
        let mut items = make_items();
        // Delete item 2 at ts 9.
        let slot = items.index_eq("id", &Value::Int(2)).unwrap()[0];
        items.get_mut(slot).unwrap().deleted = Some(Stamp::Committed(Timestamp(9)));
        let q = SelectQuery::table("items");
        let r = run(&q, &items, None, 20, &ExecOptions::default());
        assert_eq!(r.len(), 5);
        // The deleted row's validity [2,9) enters the mask, so the result is
        // valid only from 9 onwards.
        assert_eq!(r.validity, ValidityInterval::unbounded(Timestamp(9)));
    }

    #[test]
    fn predicate_before_visibility_gives_wider_validity() {
        let mut items = make_items();
        // Delete item 5 (price 50) at ts 9; query asks for price <= 20 which
        // never matched item 5.
        let slot = items.index_eq("id", &Value::Int(5)).unwrap()[0];
        items.get_mut(slot).unwrap().deleted = Some(Stamp::Committed(Timestamp(9)));
        let q = SelectQuery::table("items").filter(Predicate::cmp(
            "price",
            crate::query::CmpOp::Le,
            20.0,
        ));

        let tight = run(
            &q,
            &items,
            None,
            20,
            &ExecOptions {
                track_validity: true,
                predicate_before_visibility: true,
            },
        );
        let conservative = run(
            &q,
            &items,
            None,
            20,
            &ExecOptions {
                track_validity: true,
                predicate_before_visibility: false,
            },
        );
        // With early predicate evaluation the dead tuple is filtered out before
        // it can pollute the mask, so the validity extends back to ts 2.
        assert_eq!(tight.validity, ValidityInterval::unbounded(Timestamp(2)));
        // The conservative order masks [5,9), narrowing the result.
        assert_eq!(
            conservative.validity,
            ValidityInterval::unbounded(Timestamp(9))
        );
        assert_eq!(tight.rows, conservative.rows);
    }

    #[test]
    fn join_with_index_produces_combined_rows_and_per_key_tags() {
        let items = make_items();
        let users = make_users();
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("id", 4i64))
            .join("users", "seller", "id");
        let r = run(&q, &items, Some(&users), 10, &ExecOptions::default());
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0, "name").unwrap(), &Value::text("user1"));
        assert!(r
            .tags
            .tags()
            .contains(&InvalidationTag::keyed("users", "id=1")));
    }

    #[test]
    fn projection_order_limit_and_aggregates() {
        let items = make_items();
        let q = SelectQuery::table("items")
            .select(vec!["id", "price"])
            .order_by("price", SortOrder::Desc)
            .limit(2);
        let r = run(&q, &items, None, 10, &ExecOptions::default());
        assert_eq!(r.columns, vec!["id".to_string(), "price".to_string()]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, "id").unwrap(), &Value::Int(6));

        let count = run(
            &SelectQuery::table("items").aggregate(Aggregate::Count),
            &items,
            None,
            10,
            &ExecOptions::default(),
        );
        assert_eq!(count.get(0, "count").unwrap(), &Value::Int(6));

        let maxq = run(
            &SelectQuery::table("items").aggregate(Aggregate::Max("price".into())),
            &items,
            None,
            10,
            &ExecOptions::default(),
        );
        assert_eq!(maxq.get(0, "max").unwrap(), &Value::Float(60.0));

        let avgq = run(
            &SelectQuery::table("items").aggregate(Aggregate::Avg("price".into())),
            &items,
            None,
            10,
            &ExecOptions::default(),
        );
        assert_eq!(avgq.get(0, "avg").unwrap(), &Value::Float(35.0));
    }

    #[test]
    fn disabled_tracking_returns_point_validity_and_no_tags() {
        let items = make_items();
        let q = SelectQuery::table("items").filter(Predicate::eq("id", 3i64));
        let r = run(
            &q,
            &items,
            None,
            10,
            &ExecOptions {
                track_validity: false,
                predicate_before_visibility: true,
            },
        );
        assert_eq!(r.validity, ValidityInterval::point(Timestamp(10)));
        assert!(r.tags.is_empty());
    }

    #[test]
    fn pending_rows_of_own_transaction_are_visible() {
        let mut items = make_items();
        let row = items.allocate_row_id();
        items
            .insert_version(TupleVersion::pending(
                row,
                vec![Value::Int(99), Value::Int(0), Value::Float(1.0)],
                77,
            ))
            .unwrap();
        let q = SelectQuery::table("items").filter(Predicate::eq("id", 99i64));
        let plan = plan_query(&q, &items, None).unwrap();
        let buffer = SharedBuffer::new(64, 2);
        let mine = execute_plan(
            &plan,
            &items,
            None,
            Timestamp(10),
            Some(77),
            &buffer,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(mine.len(), 1);
        let theirs = execute_plan(
            &plan,
            &items,
            None,
            Timestamp(10),
            Some(78),
            &buffer,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(theirs.is_empty());
    }

    #[test]
    fn ordered_top_n_matches_forced_seq_scan_rows_and_validity() {
        let mut items = make_items();
        // Delete item 6 at ts 9: the Desc walk examines it first, masks
        // [6, 9), and the top-2 becomes [5, 4].
        let slot = items.index_eq("id", &Value::Int(6)).unwrap()[0];
        items.get_mut(slot).unwrap().deleted = Some(Stamp::Committed(Timestamp(9)));
        let q = SelectQuery::table("items")
            .order_by("id", SortOrder::Desc)
            .limit(2);
        let plan = plan_query(&q, &items, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexOrdered { .. }));
        let natural = run(&q, &items, None, 20, &ExecOptions::default());
        let forced = run(
            &q.clone().force_seq_scan(),
            &items,
            None,
            20,
            &ExecOptions::default(),
        );
        assert_eq!(natural.rows, forced.rows);
        assert_eq!(natural.validity, forced.validity);
        assert_eq!(natural.get(0, "id").unwrap(), &Value::Int(5));
        assert_eq!(natural.get(1, "id").unwrap(), &Value::Int(4));
        assert_eq!(natural.validity, ValidityInterval::unbounded(Timestamp(9)));
    }

    #[test]
    fn min_endpoint_matches_forced_scan_and_masks_deleted_minimum() {
        let mut items = make_items();
        // Delete item 1 at ts 9: MIN(id) at ts 20 is 2, and the deleted
        // extreme must bound the validity below (it was the answer until 9).
        let slot = items.index_eq("id", &Value::Int(1)).unwrap()[0];
        items.get_mut(slot).unwrap().deleted = Some(Stamp::Committed(Timestamp(9)));
        let q = SelectQuery::table("items").aggregate(Aggregate::Min("id".into()));
        let plan = plan_query(&q, &items, None).unwrap();
        assert!(matches!(
            plan.access,
            AccessPath::IndexEndpoint { max: false, .. }
        ));
        let natural = run(&q, &items, None, 20, &ExecOptions::default());
        let forced = run(
            &q.clone().force_seq_scan(),
            &items,
            None,
            20,
            &ExecOptions::default(),
        );
        assert_eq!(natural.get(0, "min").unwrap(), &Value::Int(2));
        assert_eq!(natural.rows, forced.rows);
        assert_eq!(natural.validity, forced.validity);
        assert_eq!(natural.validity, ValidityInterval::unbounded(Timestamp(9)));
    }

    #[test]
    fn max_endpoint_stops_at_first_visible_group() {
        let items = make_items();
        let q = SelectQuery::table("items").aggregate(Aggregate::Max("id".into()));
        let r = run(&q, &items, None, 10, &ExecOptions::default());
        assert_eq!(r.get(0, "max").unwrap(), &Value::Int(6));
        // Only the endpoint group is walked: one index page + one heap page.
        assert_eq!(r.pages.total(), 2);
    }

    #[test]
    fn count_shortcut_matches_forced_scan() {
        let items = make_items();
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("seller", 0i64))
            .aggregate(Aggregate::Count);
        let plan = plan_query(&q, &items, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexEq { .. }));
        let natural = run(&q, &items, None, 10, &ExecOptions::default());
        let forced = run(
            &q.clone().force_seq_scan(),
            &items,
            None,
            10,
            &ExecOptions::default(),
        );
        assert_eq!(natural.get(0, "count").unwrap(), &Value::Int(2));
        assert_eq!(natural.rows, forced.rows);
        assert_eq!(natural.validity, forced.validity);
    }

    #[test]
    fn in_list_probes_match_forced_scan_and_tag_each_key() {
        let items = make_items();
        // 99 is absent but probed: its keyed tag must still be emitted,
        // because the (empty) result depends on the key staying absent.
        let q = SelectQuery::table("items").filter(Predicate::in_list("id", [5i64, 2, 99]));
        let plan = plan_query(&q, &items, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexIn { .. }));
        let natural = run(&q, &items, None, 10, &ExecOptions::default());
        let forced = run(
            &q.clone().force_seq_scan(),
            &items,
            None,
            10,
            &ExecOptions::default(),
        );
        assert_eq!(natural.rows, forced.rows);
        assert_eq!(natural.validity, forced.validity);
        assert_eq!(natural.len(), 2);
        assert_eq!(natural.get(0, "id").unwrap(), &Value::Int(2));
        for key in ["id=2", "id=5", "id=99"] {
            assert!(natural
                .tags
                .tags()
                .contains(&InvalidationTag::keyed("items", key)));
        }
        assert!(!natural
            .tags
            .tags()
            .contains(&InvalidationTag::wildcard("items")));
    }

    #[test]
    fn result_helpers() {
        let items = make_items();
        let q = SelectQuery::table("items").filter(Predicate::eq("id", 1i64));
        let r = run(&q, &items, None, 10, &ExecOptions::default());
        assert!(r.column_index("id").is_ok());
        assert!(r.column_index("nope").is_err());
        assert!(r.get(5, "id").is_err());
        assert!(r.size_bytes() > 0);
        assert!(r.pages.total() > 0);
    }
}
