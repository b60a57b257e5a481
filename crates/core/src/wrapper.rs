//! Source wrappers.
//!
//! A wrapper executes a service request against its source and streams the
//! resulting solution mappings to the engine. Network delays are simulated
//! here, exactly as in the paper: *"Network delays are simulated within
//! the SQL wrapper …; delaying the retrieval of the next answer from the
//! source"* (§3). Every message pulled through the wrapper advances the
//! shared clock by a sampled latency (via [`Link`]); the source's own
//! computation advances it by the cost model's price for the work the
//! relational engine reports.
//!
//! Wrappers are the encode boundary of the slot-row representation: lifted
//! terms are interned into the query-scoped dictionary here, so everything
//! downstream of a wrapper handles `u32` ids only.

use crate::error::FedError;
use crate::fedplan::{NaiveJoin, ReplicaRoute, ServiceKind, ServiceNode, SqlRequest};
use crate::lake::{logical_source_id, DataLake};
use crate::obs::SpanKind;
use crate::operators::{BoxedOp, ExecCtx, FedOp, Poll};
use crate::source::DataSource;
use crate::translate::{sql_single, Lift, OutputBinding, StarPart};
use fedlake_mapping::lift::{term_to_value, value_key, value_to_term};
use fedlake_netsim::cost::fedlake_relational_cost;
use fedlake_netsim::{EventTime, Link};
use fedlake_rdf::{Dictionary, FastMap, TermId};
use fedlake_relational::{Database, ResultSet, Value};
use fedlake_sparql::binding::{Row, RowBatch, RowSchema, SlotRow};
use fedlake_sparql::eval::eval_bgp;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A stream's resolved connection to one logical source: the replica
/// endpoints (with their links) in the planner's preferred order, plus a
/// sticky cursor at the replica currently serving the stream.
///
/// Failover semantics live here: when the active replica exhausts its
/// retry budget the transfer helpers advance the cursor and continue the
/// stream's *remaining* messages on the next endpoint (a resumable result
/// stream), never returning to an earlier replica within the stream. Only
/// when the last endpoint's budget is spent does the stream surface
/// [`FedError::SourceUnavailable`] — attributed to the logical source,
/// with the total attempt count across every replica tried.
#[derive(Debug)]
pub struct SourceRoute {
    logical: String,
    endpoints: Vec<(String, Arc<Link>)>,
    active: AtomicUsize,
}

impl SourceRoute {
    /// A route over explicit endpoints, preferred first. Panics on an
    /// empty endpoint list — a route must lead somewhere.
    pub fn new(logical: impl Into<String>, endpoints: Vec<(String, Arc<Link>)>) -> Self {
        assert!(!endpoints.is_empty(), "a route needs at least one endpoint");
        SourceRoute { logical: logical.into(), endpoints, active: AtomicUsize::new(0) }
    }

    /// The unreplicated route: one endpoint, named like the source.
    pub fn single(id: impl Into<String>, link: Arc<Link>) -> Self {
        let id = id.into();
        SourceRoute::new(id.clone(), vec![(id, link)])
    }

    /// The logical source id this route serves.
    pub fn logical(&self) -> &str {
        &self.logical
    }

    fn len(&self) -> usize {
        self.endpoints.len()
    }

    fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    fn set_active(&self, idx: usize) {
        self.active.store(idx, Ordering::Relaxed);
    }

    fn endpoint(&self, idx: usize) -> (&str, &Link) {
        let (id, link) = &self.endpoints[idx];
        (id.as_str(), link.as_ref())
    }

    /// The endpoint currently serving the stream.
    pub fn active_endpoint(&self) -> &str {
        &self.endpoints[self.active()].0
    }

    /// The link currently serving the stream.
    pub fn active_link(&self) -> &Link {
        &self.endpoints[self.active()].1
    }
}

/// Resolves a plan node's routing decision against a query's link map:
/// the planner's ordered endpoints when the node carries a
/// [`ReplicaRoute`], otherwise the plain source id.
pub fn route_for(
    source_id: &str,
    route: &Option<ReplicaRoute>,
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> Result<SourceRoute, FedError> {
    let endpoint_ids: Vec<&str> = match route {
        Some(r) => r.endpoints.iter().map(String::as_str).collect(),
        None => vec![source_id],
    };
    let mut endpoints = Vec::with_capacity(endpoint_ids.len());
    for id in endpoint_ids {
        let link = links
            .get(id)
            .ok_or_else(|| FedError::NoSuchSource(id.to_string()))?;
        endpoints.push((id.to_string(), Arc::clone(link)));
    }
    Ok(SourceRoute::new(source_id, endpoints))
}

/// Opens the operator streaming a service's answers.
pub fn open_service<'a>(
    node: &ServiceNode,
    lake: &'a DataLake,
    route: SourceRoute,
    rows_per_message: usize,
) -> Result<BoxedOp<'a>, FedError> {
    let source = lake
        .source(&node.source_id)
        .ok_or_else(|| FedError::NoSuchSource(node.source_id.clone()))?;
    match (&node.kind, source) {
        (ServiceKind::Sparql { star, filters }, DataSource::Sparql { graph, .. }) => {
            let request =
                SourceRequest::Sparql { graph, star: star.clone(), filters: filters.clone() };
            Ok(Box::new(SourceStream::new(request, route, rows_per_message)))
        }
        (ServiceKind::Sql { request, .. }, DataSource::Relational { db, .. }) => match request {
            SqlRequest::Single(q) | SqlRequest::MergedOptimized(q) => {
                let request =
                    SourceRequest::Sql { db, sql: q.sql.clone(), outputs: q.outputs.clone() };
                Ok(Box::new(SourceStream::new(request, route, rows_per_message)))
            }
            SqlRequest::MergedNaive { outer, inner, join } => Ok(Box::new(NaiveStream {
                db,
                outer_sql: outer.sql.clone(),
                outer_outputs: outer.outputs.clone(),
                inner: inner.clone(),
                join: join.clone(),
                route,
                rows_per_message,
                state: None,
                flight: None,
            })),
        },
        (kind, src) => Err(FedError::Internal(format!(
            "service kind {kind:?} does not match source {}",
            src.id()
        ))),
    }
}

/// The backoff pause actually charged before the next attempt: the full
/// exponential backoff, clamped so a query never waits past its own
/// deadline. `now` is the time the clamp is evaluated at — the shared
/// clock for the serialized schedule, the failing link's local failure
/// time for the overlapped one.
fn clamped_backoff(
    policy: &crate::config::RetryPolicy,
    attempt: u32,
    deadline: Option<Duration>,
    now: Duration,
) -> Duration {
    let pause = policy.backoff_after(attempt);
    match deadline {
        Some(d) => pause.min(d.saturating_sub(now)),
        None => pause,
    }
}

/// Transfers one message over the route's active replica, retrying per
/// the context's [`crate::config::RetryPolicy`]. Every failed attempt
/// charges the detection timeout to the simulated clock; every retry
/// additionally charges the (deadline-clamped) exponential backoff. A
/// replica that exhausts its attempt budget triggers an immediate
/// failover — no backoff — to the next endpoint on the route, which gets
/// a fresh budget; only exhausting the *last* endpoint yields
/// [`FedError::SourceUnavailable`], attributed to the logical source with
/// the total attempts across all replicas tried.
pub fn transfer_with_retry(
    route: &SourceRoute,
    rows: usize,
    ctx: &mut ExecCtx,
) -> Result<(), FedError> {
    let policy = ctx.retry;
    let budget = policy.attempts();
    let replicas = route.len();
    let mut total_attempts = 0u32;
    for idx in route.active()..replicas {
        let (endpoint, link) = route.endpoint(idx);
        for attempt in 0..budget {
            match link.try_transfer_message(rows) {
                Ok(()) => {
                    route.set_active(idx);
                    return Ok(());
                }
                Err(_fault) => {
                    total_attempts += 1;
                    // The receiver waited `timeout` before concluding the
                    // attempt failed, whatever the failure mode was.
                    ctx.clock.advance(policy.timeout);
                    if ctx.trace.is_enabled() {
                        let now = ctx.clock.now();
                        ctx.trace.source_span(
                            SpanKind::Timeout,
                            endpoint,
                            "detection timeout",
                            now - policy.timeout,
                            now,
                            0,
                        );
                    }
                    let budget_spent = attempt + 1 == budget;
                    if budget_spent && idx + 1 == replicas {
                        return Err(FedError::SourceUnavailable {
                            source: route.logical().to_string(),
                            attempts: total_attempts,
                        });
                    }
                    ctx.stats.retries += 1;
                    ctx.recorder.retry(ctx.clock.now(), endpoint, attempt);
                    if !budget_spent {
                        let pause =
                            clamped_backoff(&policy, attempt, ctx.deadline, ctx.clock.now());
                        ctx.clock.advance(pause);
                        if ctx.trace.is_enabled() {
                            let now = ctx.clock.now();
                            ctx.trace.source_span(
                                SpanKind::Backoff,
                                endpoint,
                                &format!("backoff before attempt {}", attempt + 2),
                                now - pause,
                                now,
                                0,
                            );
                        }
                    }
                }
            }
        }
        // Budget exhausted on this replica: fail over to the next one.
        let (next, _) = route.endpoint(idx + 1);
        route.set_active(idx + 1);
        if let Some(obs) = link.observer() {
            obs.on_failover(route.logical(), endpoint, next);
        }
        ctx.recorder.failover(ctx.clock.now(), route.logical(), endpoint, next);
    }
    unreachable!("loop returns on success or on the last endpoint's final attempt")
}

/// Transfers `total_rows` rows in messages of `rows_per_message`, retrying
/// each message per the context's policy. An empty result still costs one
/// (empty) message, mirroring [`Link::transfer_rows`].
pub fn transfer_rows_with_retry(
    route: &SourceRoute,
    total_rows: usize,
    rows_per_message: usize,
    ctx: &mut ExecCtx,
) -> Result<(), FedError> {
    assert!(rows_per_message > 0, "message size must be positive");
    if total_rows == 0 {
        return transfer_with_retry(route, 0, ctx);
    }
    let mut remaining = total_rows;
    while remaining > 0 {
        let n = remaining.min(rows_per_message);
        transfer_with_retry(route, n, ctx)?;
        remaining -= n;
    }
    Ok(())
}

/// Schedules one message (with its full retry-and-failover chain) on the
/// route's link timelines starting no earlier than `start`: the
/// overlapped-schedule counterpart of [`transfer_with_retry`]. Detection
/// timeouts and backoffs become link occupancy instead of shared-clock
/// advances, so one source's retries never stall another source's
/// transfers; a failover continues the chain on the successor endpoint's
/// timeline at the predecessor's failure time. Returns the completion
/// time on success (the route's active cursor then names the endpoint
/// that delivered, so callers chain follow-up work on the right link); on
/// an exhausted route returns the failure time along with the error (the
/// caller surfaces the error only once that time is due, mirroring when
/// the serialized schedule would have observed it).
pub fn schedule_transfer_with_retry(
    route: &SourceRoute,
    rows: usize,
    start: Duration,
    ctx: &mut ExecCtx,
) -> Result<Duration, (Duration, FedError)> {
    let policy = ctx.retry;
    let budget = policy.attempts();
    let replicas = route.len();
    let mut at = start;
    let mut total_attempts = 0u32;
    for idx in route.active()..replicas {
        let (endpoint, link) = route.endpoint(idx);
        for attempt in 0..budget {
            let (done, result) = link.schedule_message(rows, at);
            match result {
                Ok(()) => {
                    route.set_active(idx);
                    return Ok(done);
                }
                Err(_fault) => {
                    total_attempts += 1;
                    let failed_at = link.schedule_busy(policy.timeout, done);
                    if ctx.trace.is_enabled() {
                        ctx.trace.source_span(
                            SpanKind::Timeout,
                            endpoint,
                            "detection timeout",
                            done,
                            failed_at,
                            0,
                        );
                    }
                    let budget_spent = attempt + 1 == budget;
                    if budget_spent && idx + 1 == replicas {
                        return Err((
                            failed_at,
                            FedError::SourceUnavailable {
                                source: route.logical().to_string(),
                                attempts: total_attempts,
                            },
                        ));
                    }
                    ctx.stats.retries += 1;
                    ctx.recorder.retry(failed_at, endpoint, attempt);
                    if budget_spent {
                        // Immediate failover: the successor picks up at
                        // the predecessor's failure time, no backoff.
                        at = failed_at;
                    } else {
                        let pause = clamped_backoff(&policy, attempt, ctx.deadline, failed_at);
                        at = link.schedule_busy(pause, failed_at);
                        if ctx.trace.is_enabled() {
                            ctx.trace.source_span(
                                SpanKind::Backoff,
                                endpoint,
                                &format!("backoff before attempt {}", attempt + 2),
                                failed_at,
                                at,
                                0,
                            );
                        }
                    }
                }
            }
        }
        let (next, _) = route.endpoint(idx + 1);
        route.set_active(idx + 1);
        if let Some(obs) = link.observer() {
            obs.on_failover(route.logical(), endpoint, next);
        }
        ctx.recorder.failover(at, route.logical(), endpoint, next);
    }
    unreachable!("loop returns on success or on the last endpoint's final attempt")
}

/// Schedules `total_rows` rows as a chain of messages of
/// `rows_per_message` on the route's timelines; the overlapped
/// counterpart of [`transfer_rows_with_retry`].
pub fn schedule_rows_with_retry(
    route: &SourceRoute,
    total_rows: usize,
    rows_per_message: usize,
    start: Duration,
    ctx: &mut ExecCtx,
) -> Result<Duration, (Duration, FedError)> {
    assert!(rows_per_message > 0, "message size must be positive");
    if total_rows == 0 {
        return schedule_transfer_with_retry(route, 0, start, ctx);
    }
    let mut at = start;
    let mut remaining = total_rows;
    while remaining > 0 {
        let n = remaining.min(rows_per_message);
        at = schedule_transfer_with_retry(route, n, at, ctx)?;
        remaining -= n;
    }
    Ok(at)
}

/// Converts the relational engine's counters to the netsim mirror type.
pub fn convert_cost(c: &fedlake_relational::CostStats) -> fedlake_relational_cost::CostStats {
    fedlake_relational_cost::CostStats {
        rows_scanned: c.rows_scanned,
        index_probes: c.index_probes,
        index_rows: c.index_rows,
        filter_evals: c.filter_evals,
        hash_build_rows: c.hash_build_rows,
        hash_probe_rows: c.hash_probe_rows,
        sort_rows: c.sort_rows,
        rows_output: c.rows_output,
    }
}

/// Lifts one relational value through its output binding and interns the
/// resulting term.
fn lift_value(v: &Value, ob: &OutputBinding, dict: &mut Dictionary) -> TermId {
    let term = match &ob.lift {
        Lift::SubjectIri(t) | Lift::RefIri(t) => fedlake_rdf::Term::iri(t.apply(&value_key(v))),
        Lift::Literal(dt) => value_to_term(v, *dt),
    };
    dict.intern(term)
}

/// Lifts a SQL result set directly into slot rows, interning each lifted
/// term. The slot of each output column is resolved once, not per row,
/// and each column memoizes the values it has already lifted: the lift is
/// a pure function of `(value, binding)`, and relational columns repeat
/// heavily (foreign keys, categories), so a memo hit skips IRI minting
/// and term interning entirely — the ids are identical either way. Text
/// and integer keys cover the lake's schemas; rarer value kinds take the
/// direct path.
pub fn lift_result(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> Vec<SlotRow> {
    let slots: Vec<Option<usize>> = outputs.iter().map(|ob| schema.slot(&ob.var)).collect();
    let mut text_memo: Vec<FastMap<&str, TermId>> =
        (0..outputs.len()).map(|_| FastMap::default()).collect();
    let mut int_memo: Vec<FastMap<i64, TermId>> =
        (0..outputs.len()).map(|_| FastMap::default()).collect();
    rs.rows
        .iter()
        .map(|row| {
            let mut out = SlotRow::unbound(schema.len());
            for (i, ob) in outputs.iter().enumerate() {
                let Some(slot) = slots[i] else { continue };
                let v = &row[i];
                let id = match v {
                    Value::Null => continue,
                    Value::Text(s) => match text_memo[i].get(s.as_str()) {
                        Some(&id) => id,
                        None => {
                            let id = lift_value(v, ob, dict);
                            text_memo[i].insert(s, id);
                            id
                        }
                    },
                    Value::Int(n) => match int_memo[i].get(n) {
                        Some(&id) => id,
                        None => {
                            let id = lift_value(v, ob, dict);
                            int_memo[i].insert(*n, id);
                            id
                        }
                    },
                    _ => lift_value(v, ob, dict),
                };
                out.set(slot, id);
            }
            out
        })
        .collect()
}

/// Columnar lift behind every one-shot stream's materialization, under
/// both schedules and both drivers: one `TermId` buffer per slot, written
/// column-at-a-time with the same per-column value memo as
/// [`lift_result`]. Produces exactly the ids [`lift_result`] would assign
/// to each cell — only the interning *order* (and therefore the raw id
/// numbering) differs, which nothing downstream observes: ids never leave
/// the execution, and every consumer compares or decodes them.
fn lift_result_cols(
    rs: &ResultSet,
    outputs: &[OutputBinding],
    schema: &RowSchema,
    dict: &mut Dictionary,
) -> LiftedSource {
    let n = rs.rows.len();
    let mut cols = vec![vec![TermId::UNBOUND; n]; schema.len()];
    for (i, ob) in outputs.iter().enumerate() {
        let Some(slot) = schema.slot(&ob.var) else { continue };
        let col = &mut cols[slot];
        let mut text_memo: FastMap<&str, TermId> = FastMap::default();
        let mut int_memo: FastMap<i64, TermId> = FastMap::default();
        for (r, row) in rs.rows.iter().enumerate() {
            let v = &row[i];
            col[r] = match v {
                Value::Null => continue,
                Value::Text(s) => match text_memo.get(s.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = lift_value(v, ob, dict);
                        text_memo.insert(s, id);
                        id
                    }
                },
                Value::Int(k) => match int_memo.get(k) {
                    Some(&id) => id,
                    None => {
                        let id = lift_value(v, ob, dict);
                        int_memo.insert(*k, id);
                        id
                    }
                },
                _ => lift_value(v, ob, dict),
            };
        }
    }
    LiftedSource { cols, rows: n, sql_cost: None }
}

/// One source's materialized, lifted result: column-major `TermId`
/// buffers, one per schema slot, plus the source-side cost counters the
/// simulation charges per execution. Cached by the engine across
/// executions — serialized, overlapped and served alike — of any query
/// issuing the same request under the same slot layout (ids stay valid
/// because the engine's interner is append-only and shared with every
/// execution); serving a hit re-charges the stored cost so the
/// *simulated* execution is byte-identical to a cold run — only
/// wall-clock time changes.
#[derive(Debug)]
pub struct LiftedSource {
    cols: Vec<Vec<TermId>>,
    rows: usize,
    sql_cost: Option<fedlake_relational_cost::CostStats>,
}

/// Engine-owned cache of lifted source results, keyed by the schema's
/// slot-layout fingerprint plus a per-stream signature (source id,
/// request text, output bindings). The engine clears it whenever it hands
/// out mutable access to its lake (`FederatedEngine::lake_mut`), the
/// only way source contents can change underneath it.
pub type SharedLiftCache =
    Arc<std::sync::Mutex<fedlake_rdf::FastMap<(u64, String), Arc<LiftedSource>>>>;

/// Fingerprint of a schema's slot layout: FNV-1a over the slot-ordered
/// variable names. Cached column buffers are indexed by slot, so two
/// schemas with the same fingerprint lay rows out identically and may
/// share cache entries. An address-based key would be unsound here: a
/// dropped schema's allocation can be reused by a *different* layout with
/// the same stream signature, which would serve wrongly-slotted columns.
pub(crate) fn schema_fingerprint(schema: &RowSchema) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in schema.vars() {
        for b in v.name().as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] cannot collide.
        h = (h ^ 0x1f).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn lift_cache_get(ctx: &ExecCtx, key: &(u64, String)) -> Option<Arc<LiftedSource>> {
    ctx.lifts.lock().unwrap_or_else(|e| e.into_inner()).get(key).cloned()
}

fn lift_cache_put(ctx: &ExecCtx, key: (u64, String), value: Arc<LiftedSource>) {
    ctx.lifts.lock().unwrap_or_else(|e| e.into_inner()).insert(key, value);
}

/// Column-major delivery cursor over a (possibly shared) lifted result:
/// morsels slice out as contiguous id copies — no per-row allocation
/// anywhere between the source and the operator tree.
struct ColumnStore {
    data: Arc<LiftedSource>,
    cursor: usize,
}

impl ColumnStore {
    fn new(data: Arc<LiftedSource>) -> Self {
        ColumnStore { data, cursor: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.rows - self.cursor
    }

    /// Slices the next `take` rows out as a dense batch.
    fn take_batch(&mut self, take: usize) -> RowBatch {
        let start = self.cursor;
        self.cursor += take;
        RowBatch::from_cols(
            self.data.cols.iter().map(|c| c[start..self.cursor].to_vec()).collect(),
        )
    }

    /// Gathers the next row (the row-pull compatibility path: a stream
    /// materialized columnar can still serve an operator that pulls rows).
    fn take_row(&mut self) -> SlotRow {
        let mut out = SlotRow::unbound(self.data.cols.len());
        for (slot, c) in self.data.cols.iter().enumerate() {
            out.set(slot, c[self.cursor]);
        }
        self.cursor += 1;
        out
    }
}

/// Materialized payload of a [`Delivery`] or [`FlightDelivery`]: the
/// shared column-major lift of a one-shot source, or owned rows for the
/// N+1 join's per-binding buffers.
enum Materialized {
    Rows(VecDeque<SlotRow>),
    Cols(ColumnStore),
}

impl Materialized {
    fn rows(rows: Vec<SlotRow>) -> Self {
        Materialized::Rows(rows.into())
    }

    fn remaining(&self) -> usize {
        match self {
            Materialized::Rows(rows) => rows.len(),
            Materialized::Cols(store) => store.remaining(),
        }
    }

    fn take_row(&mut self) -> SlotRow {
        match self {
            Materialized::Rows(rows) => rows.pop_front().expect("rows remain"),
            Materialized::Cols(store) => store.take_row(),
        }
    }

    /// The next `take` rows as one batch of `width` slots.
    fn take_batch(&mut self, take: usize, width: usize) -> RowBatch {
        match self {
            Materialized::Rows(rows) => {
                let mut batch = RowBatch::with_capacity(width, take);
                for row in rows.drain(..take) {
                    batch.push_row(&row);
                }
                batch
            }
            Materialized::Cols(store) => store.take_batch(take),
        }
    }
}

/// Shared message-batched delivery of a materialized result.
struct Delivery {
    data: Materialized,
    batch_left: usize,
    empty_notified: bool,
}

impl Delivery {
    fn new(data: Materialized) -> Self {
        Delivery { data, batch_left: 0, empty_notified: false }
    }

    fn remaining(&self) -> usize {
        self.data.remaining()
    }

    /// Makes the current message chunk non-empty, transferring the next
    /// message (with retries) when it is exhausted. Returns `false` when
    /// drained (after the empty-result notification message when there
    /// were no rows at all).
    fn refill(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        ctx: &mut ExecCtx,
    ) -> Result<bool, FedError> {
        if self.remaining() == 0 {
            if !self.empty_notified {
                self.empty_notified = true;
                transfer_with_retry(route, 0, ctx)?;
            }
            return Ok(false);
        }
        if self.batch_left == 0 {
            let n = self.remaining().min(rows_per_message);
            transfer_with_retry(route, n, ctx)?;
            self.batch_left = n;
        }
        self.empty_notified = true;
        Ok(true)
    }

    /// Pulls the next row, transferring a message when the current chunk
    /// is exhausted.
    fn pull(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Option<SlotRow>, FedError> {
        if !self.refill(route, rows_per_message, ctx)? {
            return Ok(None);
        }
        self.batch_left -= 1;
        Ok(Some(self.data.take_row()))
    }

    /// Batched pull: delivers the remainder of the current message chunk
    /// (capped at `max`) as one [`RowBatch`]. Message boundaries are
    /// identical to [`Delivery::pull`] — a batch never spans a chunk, so
    /// the per-link transfer order is the same row for row; only how many
    /// rows the caller receives per call changes.
    fn pull_batch(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        max: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Option<RowBatch>, FedError> {
        if !self.refill(route, rows_per_message, ctx)? {
            return Ok(None);
        }
        let take = self.batch_left.min(max.max(1));
        self.batch_left -= take;
        Ok(Some(self.data.take_batch(take, ctx.schema.len())))
    }
}

/// One event in flight on the overlapped schedule: a message carrying
/// `rows` rows (none for a request or an empty-result notification), or a
/// one-shot source's request round trip plus evaluation. `err` is set
/// when the retry budget was exhausted; the error surfaces only once the
/// failure time is due, exactly when the serialized schedule would have
/// observed it.
struct Flight {
    ev: EventTime,
    rows: usize,
    err: Option<FedError>,
}

/// The overlapped counterpart of [`Delivery`]: a bounded prefetch queue
/// with at most one message in flight on the link at a time. Rows become
/// deliverable when their message's completion event is due; while a
/// message is in the air the owner reports `Poll::Pending`, letting the
/// engine drain *other* sources in the meantime. Of `data`'s remaining
/// rows, the first `ready` have arrived and the next `inflight.rows` are
/// in the air; a message launches only once both are drained.
struct FlightDelivery {
    data: Materialized,
    ready: usize,
    inflight: Option<Flight>,
    empty_notified: bool,
}

impl FlightDelivery {
    fn new(data: Materialized) -> Self {
        FlightDelivery { data, ready: 0, inflight: None, empty_notified: false }
    }

    /// A delivery whose empty-result notification is considered already
    /// sent (the NaiveStream inner buffers: the per-binding round trip
    /// was its own message).
    fn pre_notified(rows: Vec<SlotRow>) -> Self {
        FlightDelivery { empty_notified: true, ..FlightDelivery::new(Materialized::rows(rows)) }
    }

    fn launch(&mut self, n: usize, route: &SourceRoute, ctx: &mut ExecCtx) {
        let (time, err) =
            match schedule_transfer_with_retry(route, n, ctx.clock.now(), ctx) {
                Ok(done) => (done, None),
                Err((t, e)) => (t, Some(e)),
            };
        self.inflight = Some(Flight { ev: ctx.sched.schedule(time), rows: n, err });
    }

    /// Runs [`Delivery::refill`]'s message protocol without blocking:
    /// same message boundaries, same empty-result notification, same
    /// retry accounting — only *when* the link time passes differs.
    /// `Ready` means at least one row has arrived. The next message
    /// launches only when a poll observes nothing ready, whether the
    /// caller then takes a row or a batch, so launch times, link
    /// occupancy and event ordering do not depend on the driver.
    fn advance(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Poll<()>, FedError> {
        loop {
            if self.ready > 0 {
                self.empty_notified = true;
                return Ok(Poll::Ready(()));
            }
            if let Some(f) = &self.inflight {
                if f.ev.time > ctx.clock.now() {
                    return Ok(Poll::Pending(f.ev));
                }
                let f = self.inflight.take().expect("checked above");
                ctx.sched.complete(f.ev);
                if let Some(e) = f.err {
                    return Err(e);
                }
                self.ready = f.rows;
                continue;
            }
            let unsent = self.data.remaining();
            if unsent == 0 {
                if !self.empty_notified {
                    self.empty_notified = true;
                    self.launch(0, route, ctx);
                    continue;
                }
                return Ok(Poll::Done);
            }
            self.launch(unsent.min(rows_per_message), route, ctx);
        }
    }

    fn poll(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Poll<SlotRow>, FedError> {
        Ok(match self.advance(route, rows_per_message, ctx)? {
            Poll::Ready(()) => {
                self.ready -= 1;
                Poll::Ready(self.data.take_row())
            }
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }

    /// Batched poll: the arrived rows (capped at `max`) as one batch.
    fn poll_batch(
        &mut self,
        route: &SourceRoute,
        rows_per_message: usize,
        max: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Poll<RowBatch>, FedError> {
        Ok(match self.advance(route, rows_per_message, ctx)? {
            Poll::Ready(()) => {
                let take = self.ready.min(max.max(1));
                self.ready -= take;
                Poll::Ready(self.data.take_batch(take, ctx.schema.len()))
            }
            Poll::Pending(ev) => Poll::Pending(ev),
            Poll::Done => Poll::Done,
        })
    }
}

/// What a one-shot service stream asks its source for.
enum SourceRequest<'a> {
    /// A single (or merged-optimized) SQL query over a relational source.
    Sql { db: &'a Database, sql: String, outputs: Vec<OutputBinding> },
    /// A star subquery, with its pushed-down filters, over an RDF source.
    Sparql {
        graph: &'a fedlake_rdf::Graph,
        star: crate::decompose::StarSubquery,
        filters: Vec<fedlake_sparql::expr::Expr>,
    },
}

/// Streams a one-shot service request's answers: one request message,
/// one evaluation at the source, then the result in messages.
struct SourceStream<'a> {
    request: SourceRequest<'a>,
    route: SourceRoute,
    rows_per_message: usize,
    state: Option<Delivery>,
    flight: Option<FlightDelivery>,
}

impl<'a> SourceStream<'a> {
    fn new(request: SourceRequest<'a>, route: SourceRoute, rows_per_message: usize) -> Self {
        SourceStream { request, route, rows_per_message, state: None, flight: None }
    }

    /// The lift-cache key: the schema fingerprint pins the slot layout;
    /// the signature pins the request. For SQL the text already pins the
    /// selected columns and the output var names pin their SPARQL-side
    /// binding order; a star is written positionally (vars by name,
    /// ground terms by display form) plus any engine-side filters.
    fn cache_key(&self, schema: &RowSchema) -> (u64, String) {
        let logical = &self.route.logical;
        let mut sig = String::with_capacity(64);
        match &self.request {
            SourceRequest::Sql { sql, outputs, .. } => {
                let _ = write!(sig, "sql:{logical}:{sql}");
                for ob in outputs {
                    sig.push(':');
                    sig.push_str(ob.var.name());
                }
            }
            SourceRequest::Sparql { star, filters, .. } => {
                let _ = write!(sig, "sparql:{logical}");
                for t in &star.triples {
                    for pos in [&t.s, &t.p, &t.o] {
                        match pos {
                            fedlake_sparql::ast::VarOrTerm::Var(v) => {
                                let _ = write!(sig, ":?{}", v.name());
                            }
                            fedlake_sparql::ast::VarOrTerm::Term(t) => {
                                let _ = write!(sig, ":{t}");
                            }
                        }
                    }
                }
                for f in filters {
                    let _ = write!(sig, ":{f:?}");
                }
            }
        }
        (schema_fingerprint(schema), sig)
    }

    /// The stream's one materialization step, shared by both schedules:
    /// the source's lifted result from the engine's lift cache, evaluated
    /// at the source, lifted column-major and inserted on a miss. A hit
    /// skips the evaluation and the lift; callers charge the simulated
    /// evaluation from the entry ([`SourceStream::work`]), so the
    /// simulated execution is identical either way.
    fn materialize(&self, ctx: &mut ExecCtx) -> Result<Arc<LiftedSource>, FedError> {
        let key = self.cache_key(&ctx.schema);
        if let Some(hit) = lift_cache_get(ctx, &key) {
            return Ok(hit);
        }
        let fresh = Arc::new(match &self.request {
            SourceRequest::Sql { db, sql, outputs } => {
                let rs = db.query_cached(sql)?;
                let mut fresh =
                    lift_result_cols(&rs, outputs, &ctx.schema, &mut ctx.interner.lock());
                fresh.sql_cost = Some(convert_cost(&rs.cost));
                fresh
            }
            SourceRequest::Sparql { graph, star, filters } => {
                let rows: Vec<Row> = eval_bgp(&star.triples, graph, vec![Row::new()])
                    .into_iter()
                    .filter(|r| filters.iter().all(|f| f.test(r)))
                    .collect();
                let mut cols = vec![vec![TermId::UNBOUND; rows.len()]; ctx.schema.len()];
                let mut dict = ctx.interner.lock();
                for (i, r) in rows.iter().enumerate() {
                    for (v, t) in r.iter() {
                        if let Some(slot) = ctx.schema.slot(v) {
                            cols[slot][i] = dict.intern(t.clone());
                        }
                    }
                }
                LiftedSource { cols, rows: rows.len(), sql_cost: None }
            }
        });
        lift_cache_put(ctx, key, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// The simulated price of the source's evaluation, charged from the
    /// materialized entry: the relational cost model over the stored SQL
    /// counters, or the star shape and its answer count.
    fn work(&self, lifted: &LiftedSource, ctx: &ExecCtx) -> Duration {
        match &self.request {
            SourceRequest::Sql { .. } => {
                ctx.cost.rdb_time(lifted.sql_cost.as_ref().expect("sql lift carries cost"))
            }
            SourceRequest::Sparql { star, .. } => {
                ctx.cost.sparql_time(star.triples.len(), lifted.rows as u64)
            }
        }
    }

    /// Counts the request (SQL only) before its round trip.
    fn count_request(&self, ctx: &mut ExecCtx) {
        if matches!(self.request, SourceRequest::Sql { .. }) {
            ctx.stats.sql_queries += 1;
        }
    }

    /// Counts the evaluation's rows and traces it as `[from, to]`.
    fn computed(&self, lifted: &LiftedSource, from: Duration, to: Duration, ctx: &mut ExecCtx) {
        ctx.stats.service_rows += lifted.rows as u64;
        if ctx.trace.is_enabled() {
            let label = match self.request {
                SourceRequest::Sql { .. } => "sql evaluation",
                SourceRequest::Sparql { .. } => "sparql evaluation",
            };
            let endpoint = self.route.active_endpoint();
            ctx.trace.source_span(SpanKind::Compute, endpoint, label, from, to, lifted.rows as u64);
        }
    }

    /// Serialized first-call initialization, shared by the row and batch
    /// pulls: ship the request (one message, retried on faults), then
    /// let the source compute on the shared clock.
    fn ensure_state(&mut self, ctx: &mut ExecCtx) -> Result<(), FedError> {
        if self.state.is_none() {
            self.count_request(ctx);
            transfer_with_retry(&self.route, 0, ctx)?;
            let lifted = self.materialize(ctx)?;
            let work = self.work(&lifted, ctx);
            ctx.clock.advance(work);
            let now = ctx.clock.now();
            self.computed(&lifted, now - work, now, ctx);
            self.state = Some(Delivery::new(Materialized::Cols(ColumnStore::new(lifted))));
        }
        Ok(())
    }

    /// Overlapped first-poll initialization — the mirror of
    /// [`SourceStream::ensure_state`], charge for charge: the request
    /// round trip and the source's evaluation land on the link timeline
    /// as one in-flight event carrying no rows; the result's messages
    /// launch once it is due.
    fn launch(&self, ctx: &mut ExecCtx) -> Result<FlightDelivery, FedError> {
        self.count_request(ctx);
        let (at, data, err) =
            match schedule_transfer_with_retry(&self.route, 0, ctx.clock.now(), ctx) {
                Ok(done_req) => {
                    let lifted = self.materialize(ctx)?;
                    let work = self.work(&lifted, ctx);
                    let done = self.route.active_link().schedule_busy(work, done_req);
                    self.computed(&lifted, done_req, done, ctx);
                    (done, Materialized::Cols(ColumnStore::new(lifted)), None)
                }
                Err((t, e)) => (t, Materialized::rows(Vec::new()), Some(e)),
            };
        let inflight = Some(Flight { ev: ctx.sched.schedule(at), rows: 0, err });
        Ok(FlightDelivery { inflight, ..FlightDelivery::new(data) })
    }
}

impl FedOp for SourceStream<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        self.ensure_state(ctx)?;
        let delivery = self.state.as_mut().expect("initialized above");
        delivery.pull(&self.route, self.rows_per_message, ctx)
    }

    fn next_batch(
        &mut self,
        ctx: &mut ExecCtx,
        max: usize,
    ) -> Result<Option<RowBatch>, FedError> {
        self.ensure_state(ctx)?;
        let delivery = self.state.as_mut().expect("initialized above");
        delivery.pull_batch(&self.route, self.rows_per_message, max, ctx)
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        if self.flight.is_none() {
            self.flight = Some(self.launch(ctx)?);
        }
        let flight = self.flight.as_mut().expect("launched above");
        flight.poll(&self.route, self.rows_per_message, ctx)
    }

    fn poll_next_batch(
        &mut self,
        ctx: &mut ExecCtx,
        max: usize,
    ) -> Result<Poll<RowBatch>, FedError> {
        if self.flight.is_none() {
            self.flight = Some(self.launch(ctx)?);
        }
        let flight = self.flight.as_mut().expect("launched above");
        flight.poll_batch(&self.route, self.rows_per_message, max, ctx)
    }
}

/// The N+1 dependent join emulating Ontario's unoptimized merged-SQL
/// translation: the outer star is evaluated once, then the wrapper issues
/// one parameterized inner query per outer binding.
struct NaiveStream<'a> {
    db: &'a Database,
    outer_sql: String,
    outer_outputs: Vec<OutputBinding>,
    inner: StarPart,
    join: NaiveJoin,
    route: SourceRoute,
    rows_per_message: usize,
    state: Option<NaiveState>,
    flight: Option<NaiveFlight>,
}

struct NaiveState {
    outer: VecDeque<SlotRow>,
    buffer: Delivery,
    produced_any: bool,
}

/// The overlapped state of the N+1 dependent join: outer bindings are
/// consumed one at a time, each spawning a scheduled outer-binding message
/// plus (when the key extracts) a scheduled inner round trip.
struct NaiveFlight {
    outer: VecDeque<SlotRow>,
    buffer: FlightDelivery,
    /// Whether any inner buffer was ever installed — the overlapped form
    /// of the serialized `!produced_any && !buffer.empty_notified` test:
    /// the final empty-result notification fires exactly when the outer
    /// query returned no bindings at all.
    installed_inner: bool,
    stage: NaiveStage,
}

enum NaiveStage {
    /// Waiting on a scheduled event; on completion `then` applies (unless
    /// `err` was carried, which surfaces instead).
    Waiting { ev: EventTime, then: NaiveNext, err: Option<FedError> },
    /// The buffer is deliverable or the next outer binding is due.
    Idle,
    /// Everything delivered (and any final notification observed).
    Finished,
}

enum NaiveNext {
    /// The outer request + query completed: install the outer bindings.
    Outer(Vec<SlotRow>),
    /// An outer binding's message + inner round trip completed: the
    /// merged rows become the next buffer.
    Inner(Vec<SlotRow>),
    /// The final empty-result notification arrived.
    Notified,
}

impl NaiveStream<'_> {
    fn inner_rows(
        &self,
        outer_row: &SlotRow,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<SlotRow>, FedError> {
        let term = ctx
            .schema
            .slot(&self.join.outer_var)
            .and_then(|s| outer_row.get(s))
            .and_then(|id| ctx.interner.resolve(id));
        let Some(term) = term else {
            return Ok(Vec::new());
        };
        let key = match &self.join.extract {
            Some(tmpl) => {
                let Some(iri) = term.as_iri() else { return Ok(Vec::new()) };
                match tmpl.extract(iri) {
                    Some(k) => fedlake_relational::Value::Text(k),
                    None => return Ok(Vec::new()),
                }
            }
            None => term_to_value(&term),
        };
        let mut part = self.inner.clone();
        part.wheres
            .push(format!("{}.{} = {key}", part.alias, self.join.inner_col));
        let q = sql_single(&part);
        ctx.stats.sql_queries += 1;
        // The per-binding request round trip.
        transfer_with_retry(&self.route, 0, ctx)?;
        let rs = self.db.query_cached(&q.sql)?;
        let work = ctx.cost.rdb_time(&convert_cost(&rs.cost));
        ctx.clock.advance(work);
        let rows = lift_result(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock());
        ctx.stats.service_rows += rows.len() as u64;
        if ctx.trace.is_enabled() {
            let now = ctx.clock.now();
            ctx.trace.source_span(
                SpanKind::Compute,
                self.route.active_endpoint(),
                "sql evaluation (inner)",
                now - work,
                now,
                rows.len() as u64,
            );
        }
        Ok(rows
            .into_iter()
            .filter_map(|r| outer_row.merge(&r))
            .collect())
    }
}

/// Schedules one outer binding's inner round trip (the overlapped mirror
/// of [`NaiveStream::inner_rows`]): an unextractable key costs no traffic,
/// otherwise the parameterized request plus the source's evaluation land
/// on the link timeline.
#[allow(clippy::too_many_arguments)]
fn schedule_naive_inner(
    db: &Database,
    inner: &StarPart,
    join: &NaiveJoin,
    route: &SourceRoute,
    outer_row: &SlotRow,
    start: Duration,
    ctx: &mut ExecCtx,
) -> Result<NaiveStage, FedError> {
    fn wait(
        ctx: &mut ExecCtx,
        t: Duration,
        rows: Vec<SlotRow>,
        err: Option<FedError>,
    ) -> NaiveStage {
        NaiveStage::Waiting { ev: ctx.sched.schedule(t), then: NaiveNext::Inner(rows), err }
    }
    let term = ctx
        .schema
        .slot(&join.outer_var)
        .and_then(|s| outer_row.get(s))
        .and_then(|id| ctx.interner.resolve(id));
    let Some(term) = term else {
        return Ok(wait(ctx, start, Vec::new(), None));
    };
    let key = match &join.extract {
        Some(tmpl) => match term.as_iri().and_then(|iri| tmpl.extract(iri)) {
            Some(k) => fedlake_relational::Value::Text(k),
            None => return Ok(wait(ctx, start, Vec::new(), None)),
        },
        None => term_to_value(&term),
    };
    let mut part = inner.clone();
    part.wheres.push(format!("{}.{} = {key}", part.alias, join.inner_col));
    let q = sql_single(&part);
    ctx.stats.sql_queries += 1;
    match schedule_transfer_with_retry(route, 0, start, ctx) {
        Ok(t_req) => {
            let rs = db.query_cached(&q.sql)?;
            let done = route
                .active_link()
                .schedule_busy(ctx.cost.rdb_time(&convert_cost(&rs.cost)), t_req);
            let rows = lift_result(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock());
            ctx.stats.service_rows += rows.len() as u64;
            if ctx.trace.is_enabled() {
                ctx.trace.source_span(
                    SpanKind::Compute,
                    route.active_endpoint(),
                    "sql evaluation (inner)",
                    t_req,
                    done,
                    rows.len() as u64,
                );
            }
            let merged: Vec<SlotRow> =
                rows.into_iter().filter_map(|r| outer_row.merge(&r)).collect();
            Ok(wait(ctx, done, merged, None))
        }
        Err((t, e)) => Ok(wait(ctx, t, Vec::new(), Some(e))),
    }
}

impl FedOp for NaiveStream<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        if self.state.is_none() {
            ctx.stats.sql_queries += 1;
            transfer_with_retry(&self.route, 0, ctx)?;
            let rs = self.db.query_cached(&self.outer_sql)?;
            let work = ctx.cost.rdb_time(&convert_cost(&rs.cost));
            ctx.clock.advance(work);
            let outer =
                lift_result(&rs, &self.outer_outputs, &ctx.schema, &mut ctx.interner.lock());
            ctx.stats.service_rows += outer.len() as u64;
            if ctx.trace.is_enabled() {
                let now = ctx.clock.now();
                ctx.trace.source_span(
                    SpanKind::Compute,
                    self.route.active_endpoint(),
                    "sql evaluation (outer)",
                    now - work,
                    now,
                    outer.len() as u64,
                );
            }
            self.state = Some(NaiveState {
                outer: outer.into(),
                buffer: Delivery::new(Materialized::rows(Vec::new())),
                produced_any: false,
            });
        }
        loop {
            let state = self.state.as_mut().expect("initialized above");
            if state.buffer.remaining() != 0 {
                let row = state.buffer.pull(&self.route, self.rows_per_message, ctx)?;
                if row.is_some() {
                    state.produced_any = true;
                    return Ok(row);
                }
            }
            let Some(outer_row) = self.state.as_mut().expect("initialized").outer.pop_front()
            else {
                let state = self.state.as_mut().expect("initialized");
                if !state.produced_any && !state.buffer.empty_notified {
                    state.buffer.empty_notified = true;
                    transfer_with_retry(&self.route, 0, ctx)?;
                }
                return Ok(None);
            };
            // Retrieving the next outer binding is itself a message.
            transfer_with_retry(&self.route, 1, ctx)?;
            let merged = self.inner_rows(&outer_row, ctx)?;
            let state = self.state.as_mut().expect("initialized");
            state.buffer = Delivery::new(Materialized::rows(merged));
            state.buffer.empty_notified = true; // inner already messaged
        }
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        if self.flight.is_none() {
            ctx.stats.sql_queries += 1;
            let stage = match schedule_transfer_with_retry(&self.route, 0, ctx.clock.now(), ctx)
            {
                Ok(done_req) => {
                    let rs = self.db.query_cached(&self.outer_sql)?;
                    let done = self
                        .route
                        .active_link()
                        .schedule_busy(ctx.cost.rdb_time(&convert_cost(&rs.cost)), done_req);
                    let outer = lift_result(
                        &rs,
                        &self.outer_outputs,
                        &ctx.schema,
                        &mut ctx.interner.lock(),
                    );
                    ctx.stats.service_rows += outer.len() as u64;
                    if ctx.trace.is_enabled() {
                        ctx.trace.source_span(
                            SpanKind::Compute,
                            self.route.active_endpoint(),
                            "sql evaluation (outer)",
                            done_req,
                            done,
                            outer.len() as u64,
                        );
                    }
                    NaiveStage::Waiting {
                        ev: ctx.sched.schedule(done),
                        then: NaiveNext::Outer(outer),
                        err: None,
                    }
                }
                Err((t, e)) => NaiveStage::Waiting {
                    ev: ctx.sched.schedule(t),
                    then: NaiveNext::Outer(Vec::new()),
                    err: Some(e),
                },
            };
            self.flight = Some(NaiveFlight {
                outer: VecDeque::new(),
                buffer: FlightDelivery::pre_notified(Vec::new()),
                installed_inner: false,
                stage,
            });
        }
        loop {
            let flight = self.flight.as_mut().expect("initialized above");
            match &mut flight.stage {
                NaiveStage::Waiting { ev, then, err } => {
                    if ev.time > ctx.clock.now() {
                        return Ok(Poll::Pending(*ev));
                    }
                    ctx.sched.complete(*ev);
                    if let Some(e) = err.take() {
                        flight.stage = NaiveStage::Finished;
                        return Err(e);
                    }
                    match std::mem::replace(then, NaiveNext::Notified) {
                        NaiveNext::Outer(rows) => {
                            flight.outer = rows.into();
                            flight.stage = NaiveStage::Idle;
                        }
                        NaiveNext::Inner(rows) => {
                            flight.buffer = FlightDelivery::pre_notified(rows);
                            flight.stage = NaiveStage::Idle;
                        }
                        NaiveNext::Notified => flight.stage = NaiveStage::Finished,
                    }
                }
                NaiveStage::Finished => return Ok(Poll::Done),
                NaiveStage::Idle => {
                    match flight.buffer.poll(&self.route, self.rows_per_message, ctx)? {
                        Poll::Ready(row) => return Ok(Poll::Ready(row)),
                        Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                        Poll::Done => {}
                    }
                    match flight.outer.pop_front() {
                        Some(outer_row) => {
                            flight.installed_inner = true;
                            // Retrieving the next outer binding is itself
                            // a message; the inner round trip chains after.
                            flight.stage = match schedule_transfer_with_retry(
                                &self.route,
                                1,
                                ctx.clock.now(),
                                ctx,
                            ) {
                                Ok(t1) => schedule_naive_inner(
                                    self.db,
                                    &self.inner,
                                    &self.join,
                                    &self.route,
                                    &outer_row,
                                    t1,
                                    ctx,
                                )?,
                                Err((t, e)) => NaiveStage::Waiting {
                                    ev: ctx.sched.schedule(t),
                                    then: NaiveNext::Inner(Vec::new()),
                                    err: Some(e),
                                },
                            };
                        }
                        None => {
                            if flight.installed_inner {
                                flight.stage = NaiveStage::Finished;
                            } else {
                                // Empty outer result: the one empty-result
                                // notification, then done.
                                flight.installed_inner = true;
                                let (t, err) = match schedule_transfer_with_retry(
                                    &self.route,
                                    0,
                                    ctx.clock.now(),
                                    ctx,
                                ) {
                                    Ok(t) => (t, None),
                                    Err((t, e)) => (t, Some(e)),
                                };
                                flight.stage = NaiveStage::Waiting {
                                    ev: ctx.sched.schedule(t),
                                    then: NaiveNext::Notified,
                                    err,
                                };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The engine-level dependent (bind) join: batches of left bindings are
/// shipped to a relational source as SQL `IN` lists — ANAPSID's adjoin
/// lineage, and the classical alternative to fetching the right star in
/// full when the left side is selective.
pub struct BindJoinOp<'a> {
    left: crate::operators::BoxedOp<'a>,
    db: &'a Database,
    target: crate::fedplan::BindTarget,
    route: SourceRoute,
    rows_per_message: usize,
    batch_size: usize,
    left_done: bool,
    out: VecDeque<SlotRow>,
    stage: BindStage,
}

/// The overlapped state of the bind join: batches gather from the left
/// exactly as the serialized schedule would, then the shipped batch's
/// request, source evaluation and result transfer fly as one scheduled
/// chain; probing happens when the chain completes.
enum BindStage {
    Gather { batch: Vec<SlotRow> },
    Flying { ev: EventTime, batch: Vec<SlotRow>, rows: Vec<SlotRow>, err: Option<FedError> },
}

impl<'a> BindJoinOp<'a> {
    /// Creates the operator; the engine resolves `db` and the route from
    /// the target's source id and routing decision.
    pub fn new(
        left: crate::operators::BoxedOp<'a>,
        db: &'a Database,
        target: crate::fedplan::BindTarget,
        route: SourceRoute,
        rows_per_message: usize,
        batch_size: usize,
    ) -> Self {
        BindJoinOp {
            left,
            db,
            target,
            route,
            rows_per_message,
            batch_size: batch_size.max(1),
            left_done: false,
            out: VecDeque::new(),
            stage: BindStage::Gather { batch: Vec::new() },
        }
    }

    fn key_of(&self, id: TermId, ctx: &ExecCtx) -> Option<fedlake_relational::Value> {
        let term = ctx.interner.resolve(id)?;
        match &self.target.extract {
            Some(tmpl) => {
                let iri = term.as_iri()?;
                tmpl.extract(iri).map(fedlake_relational::Value::Text)
            }
            None => Some(term_to_value(&term)),
        }
    }

    /// The batch's parameterized SQL, or `None` when no row binds an
    /// extractable key (no traffic then — the batch can never match).
    fn batch_query(&self, batch: &[SlotRow], ctx: &ExecCtx) -> Option<crate::translate::TranslatedQuery> {
        let jslot = ctx.schema.slot(&self.target.join_var);
        // Distinct keys of the batch.
        let mut keys: Vec<fedlake_relational::Value> = Vec::new();
        for row in batch {
            let Some(id) = jslot.and_then(|s| row.get(s)) else { continue };
            if let Some(k) = self.key_of(id, ctx) {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        if keys.is_empty() {
            return None;
        }
        let mut part = self.target.part.clone();
        let list: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        part.wheres.push(format!(
            "{}.{} IN ({})",
            part.alias,
            self.target.column,
            list.join(", ")
        ));
        Some(sql_single(&part))
    }

    /// Probes the batch against the fetched right rows, charging the
    /// engine-side join work; merged rows land in the output queue. Same
    /// interner on both sides makes id equality term equality.
    fn probe_batch(&mut self, batch: &[SlotRow], rows: Vec<SlotRow>, ctx: &mut ExecCtx) {
        let jslot = ctx.schema.slot(&self.target.join_var);
        let mut by_key: std::collections::HashMap<TermId, Vec<SlotRow>> =
            std::collections::HashMap::new();
        for r in rows {
            if let Some(id) = jslot.and_then(|s| r.get(s)) {
                by_key.entry(id).or_default().push(r);
            }
        }
        for lrow in batch {
            ctx.stats.engine_join_probes += 1;
            ctx.clock.advance(ctx.cost.engine_join_time(1));
            let Some(id) = jslot.and_then(|s| lrow.get(s)) else { continue };
            if let Some(matches) = by_key.get(&id) {
                for m in matches {
                    if let Some(merged) = lrow.merge(m) {
                        ctx.clock.advance(ctx.cost.engine_row_time(1));
                        self.out.push_back(merged);
                    }
                }
            }
        }
    }

    fn ship_batch(&mut self, batch: Vec<SlotRow>, ctx: &mut ExecCtx) -> Result<(), FedError> {
        let Some(q) = self.batch_query(&batch, ctx) else {
            return Ok(());
        };
        ctx.stats.sql_queries += 1;
        let t0 = ctx.trace.is_enabled().then(|| ctx.clock.now());
        // The parameterized request.
        transfer_with_retry(&self.route, 0, ctx)?;
        let rs = self.db.query_cached(&q.sql)?;
        ctx.clock.advance(ctx.cost.rdb_time(&convert_cost(&rs.cost)));
        let rows = lift_result(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock());
        ctx.stats.service_rows += rows.len() as u64;
        transfer_rows_with_retry(&self.route, rows.len(), self.rows_per_message, ctx)?;
        if let Some(t0) = t0 {
            ctx.trace.source_span(
                SpanKind::BindBatch,
                self.route.active_endpoint(),
                &format!("bind batch ({} left rows)", batch.len()),
                t0,
                ctx.clock.now(),
                rows.len() as u64,
            );
        }
        self.probe_batch(&batch, rows, ctx);
        Ok(())
    }

    /// Schedules a batch's request + evaluation + result transfer as one
    /// chain on the link timeline; the probe happens at completion.
    fn launch_batch(&mut self, batch: Vec<SlotRow>, ctx: &mut ExecCtx) -> Result<(), FedError> {
        let Some(q) = self.batch_query(&batch, ctx) else {
            self.stage = BindStage::Gather { batch: Vec::new() };
            return Ok(());
        };
        ctx.stats.sql_queries += 1;
        let t0 = ctx.clock.now();
        self.stage = match schedule_transfer_with_retry(&self.route, 0, t0, ctx) {
            Ok(t_req) => {
                let rs = self.db.query_cached(&q.sql)?;
                let t_q = self
                    .route
                    .active_link()
                    .schedule_busy(ctx.cost.rdb_time(&convert_cost(&rs.cost)), t_req);
                let rows = lift_result(&rs, &q.outputs, &ctx.schema, &mut ctx.interner.lock());
                ctx.stats.service_rows += rows.len() as u64;
                match schedule_rows_with_retry(
                    &self.route,
                    rows.len(),
                    self.rows_per_message,
                    t_q,
                    ctx,
                ) {
                    Ok(done) => {
                        if ctx.trace.is_enabled() {
                            ctx.trace.source_span(
                                SpanKind::BindBatch,
                                self.route.active_endpoint(),
                                &format!("bind batch ({} left rows)", batch.len()),
                                t0,
                                done,
                                rows.len() as u64,
                            );
                        }
                        BindStage::Flying {
                            ev: ctx.sched.schedule(done),
                            batch,
                            rows,
                            err: None,
                        }
                    }
                    Err((t, e)) => BindStage::Flying {
                        ev: ctx.sched.schedule(t),
                        batch,
                        rows: Vec::new(),
                        err: Some(e),
                    },
                }
            }
            Err((t, e)) => BindStage::Flying {
                ev: ctx.sched.schedule(t),
                batch,
                rows: Vec::new(),
                err: Some(e),
            },
        };
        Ok(())
    }
}

impl FedOp for BindJoinOp<'_> {
    fn next(&mut self, ctx: &mut ExecCtx) -> Result<Option<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            if self.left_done {
                return Ok(None);
            }
            let mut batch = Vec::with_capacity(self.batch_size);
            while batch.len() < self.batch_size {
                match self.left.next(ctx)? {
                    Some(row) => batch.push(row),
                    None => {
                        self.left_done = true;
                        break;
                    }
                }
            }
            if batch.is_empty() {
                continue; // left_done; loop exits above
            }
            self.ship_batch(batch, ctx)?;
        }
    }

    fn poll_next(&mut self, ctx: &mut ExecCtx) -> Result<Poll<SlotRow>, FedError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Poll::Ready(row));
            }
            match &mut self.stage {
                BindStage::Flying { ev, batch, rows, err } => {
                    if ev.time > ctx.clock.now() {
                        return Ok(Poll::Pending(*ev));
                    }
                    let ev = *ev;
                    let batch = std::mem::take(batch);
                    let rows = std::mem::take(rows);
                    let err = err.take();
                    ctx.sched.complete(ev);
                    self.stage = BindStage::Gather { batch: Vec::new() };
                    if let Some(e) = err {
                        return Err(e);
                    }
                    self.probe_batch(&batch, rows, ctx);
                }
                BindStage::Gather { batch } => {
                    // Fill the batch from the left without shipping a
                    // partial batch on Pending: batch composition (and so
                    // link traffic) matches the serialized schedule.
                    while !self.left_done && batch.len() < self.batch_size {
                        match self.left.poll_next(ctx)? {
                            Poll::Ready(row) => batch.push(row),
                            Poll::Pending(ev) => return Ok(Poll::Pending(ev)),
                            Poll::Done => self.left_done = true,
                        }
                    }
                    if batch.is_empty() {
                        return Ok(Poll::Done);
                    }
                    let batch = std::mem::take(batch);
                    self.launch_batch(batch, ctx)?;
                }
            }
        }
    }
}

/// A convenience used by tests and the engine: drains an operator fully.
pub fn drain(op: &mut dyn FedOp, ctx: &mut ExecCtx) -> Result<Vec<SlotRow>, FedError> {
    let mut out = Vec::new();
    while let Some(row) = op.next(ctx)? {
        out.push(row);
    }
    Ok(out)
}

/// Creates one link per endpoint, each with its own deterministic RNG
/// stream derived from the base seed. An unreplicated source gets one
/// link under its plain id with the seed derivation unchanged from the
/// pre-replica engine (bit-identical traffic); a source with N replicas
/// gets N links under `id#r0..id#rN-1`, replica 0 on the source's base
/// seed and each further replica on an independent stream. Each link gets
/// the fault plan the [`fedlake_netsim::FaultPlans`] resolves for its
/// endpoint (endpoint override, then logical override, then the default,
/// then any matching outage group), so a chaos schedule can target one
/// replica, one logical source, or a correlated set of links.
///
/// An enabled trace sink and/or flight recorder attaches as the links'
/// network observer; with both, a fan-out forwards to the two (trace
/// first) — observation only, so link behaviour is byte-identical either
/// way.
#[allow(clippy::too_many_arguments)]
pub fn links_for(
    lake: &DataLake,
    profile: fedlake_netsim::NetworkProfile,
    clock: fedlake_netsim::SharedClock,
    cost: fedlake_netsim::CostModel,
    seed: u64,
    faults: &fedlake_netsim::FaultPlans,
    trace: &crate::obs::TraceSink,
    recorder: &crate::obs::FlightRecorder,
) -> std::collections::HashMap<String, Arc<Link>> {
    let observer: Option<Arc<dyn fedlake_netsim::NetObserver>> =
        match (trace.net_observer(), recorder.net_observer()) {
            (Some(t), Some(r)) => {
                Some(Arc::new(crate::obs::recorder::FanoutObserver(vec![t, r])))
            }
            (Some(t), None) => Some(t),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        };
    let mut links = std::collections::HashMap::new();
    for (i, s) in lake.sources().iter().enumerate() {
        let base = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (k, endpoint) in lake.replica_endpoints(s.id()).into_iter().enumerate() {
            let link_seed = base.wrapping_add((k as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let mut link = Link::with_faults(
                profile,
                Arc::clone(&clock),
                cost,
                link_seed,
                faults.for_endpoint(&endpoint, s.id()),
            );
            if let Some(obs) = &observer {
                link = link.with_observer(&endpoint, Arc::clone(obs));
            }
            links.insert(endpoint, Arc::new(link));
        }
    }
    links
}

/// Per-source fault counts (drops + truncations + outage hits) across a
/// link map, attributed to *logical* source ids: replica links fold into
/// their source's single entry, so one flaky source is not split across
/// replica keys. Sources that never failed do not appear.
pub fn source_failures(
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for (id, l) in links {
        let f = l.stats().faults();
        if f > 0 {
            *out.entry(logical_source_id(id).to_string()).or_insert(0) += f;
        }
    }
    out
}

/// Total link traffic across a link map (messages, rows, injected delay).
pub fn total_traffic(
    links: &std::collections::HashMap<String, Arc<Link>>,
) -> (u64, u64, Duration) {
    links.values().fold(
        (0, 0, Duration::ZERO),
        |(m, r, d), l| {
            let s = l.stats();
            (m + s.messages, r + s.rows, d + s.delay)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::fedplan::ServiceNode;
    use crate::translate::{star_part, TranslatedQuery};
    use fedlake_mapping::{DatasetMapping, IriTemplate, TableMapping};
    use fedlake_netsim::clock::shared_virtual;
    use fedlake_netsim::{CostModel, NetworkProfile};
    use fedlake_rdf::SharedInterner;
    use fedlake_sparql::binding::{decode_row, Var};
    use fedlake_sparql::parser::parse_query;

    fn lake() -> DataLake {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE gene (id TEXT PRIMARY KEY, label TEXT, disease TEXT)")
            .unwrap();
        for i in 0..5 {
            db.execute(&format!(
                "INSERT INTO gene VALUES ('g{i}', 'gene {i}', 'd{}')",
                i % 2
            ))
            .unwrap();
        }
        db.execute("CREATE TABLE disease (id TEXT PRIMARY KEY, name TEXT)").unwrap();
        db.execute("INSERT INTO disease VALUES ('d0', 'asthma'), ('d1', 'cancer')")
            .unwrap();
        let mapping = DatasetMapping::new("d")
            .with_table(
                TableMapping::new(
                    "gene",
                    "http://v/Gene",
                    IriTemplate::new("http://d/gene/{}"),
                    "id",
                )
                .with_literal("label", "http://v/label")
                .with_reference(
                    "disease",
                    "http://v/disease",
                    IriTemplate::new("http://d/disease/{}"),
                ),
            )
            .with_table(
                TableMapping::new(
                    "disease",
                    "http://v/Disease",
                    IriTemplate::new("http://d/disease/{}"),
                    "id",
                )
                .with_literal("name", "http://v/name"),
            );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::relational("d", db, mapping));
        lake
    }

    fn ctx(clock: fedlake_netsim::SharedClock, vars: &[&str]) -> ExecCtx {
        ExecCtx::new(
            clock,
            CostModel::default(),
            Arc::new(RowSchema::new(vars.iter().map(|v| Var::new(*v)))),
            SharedInterner::new(),
        )
    }

    fn decode(c: &ExecCtx, rows: &[SlotRow]) -> Vec<Row> {
        let dict = c.interner.lock();
        rows.iter().map(|r| decode_row(r, &c.schema, &dict)).collect()
    }

    #[test]
    fn sql_stream_lifts_rows() {
        let lake = lake();
        let star = decompose(
            &parse_query("SELECT * WHERE { ?g a <http://v/Gene> . ?g <http://v/label> ?l }")
                .unwrap(),
        )
        .unwrap()
        .stars
        .remove(0);
        let (tm, schema) = match lake.source("d").unwrap() {
            DataSource::Relational { db, mapping, .. } => (
                mapping.for_table("gene").unwrap().clone(),
                db.table("gene").unwrap().schema.clone(),
            ),
            _ => unreachable!("lake() builds a relational source"),
        };
        let q = sql_single(&star_part(&star, &tm, &schema, &[], "s0").unwrap());
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(q),
                covers: vec!["?g".into()],
            },
            estimated_rows: 5.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::GAMMA2,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g", "l"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 5);
        let decoded = decode(&c, &rows);
        assert!(decoded[0]
            .get(&Var::new("g"))
            .unwrap()
            .as_iri()
            .unwrap()
            .starts_with("http://d/gene/"));
        assert_eq!(c.stats.sql_queries, 1);
        // 1 request + 5 per-row messages.
        assert_eq!(link.stats().messages, 6);
        assert!(c.clock.now() > Duration::ZERO);
    }

    #[test]
    fn empty_result_still_messages() {
        let lake = lake();
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS i FROM gene g WHERE g.id = 'zzz'".into(),
                    outputs: Vec::new(),
                }),
                covers: Vec::new(),
            },
            estimated_rows: 0.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            7,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g"]);
        assert!(drain(op.as_mut(), &mut c).unwrap().is_empty());
        // Request + empty answer.
        assert_eq!(link.stats().messages, 2);
    }

    #[test]
    fn sparql_stream_evaluates_star() {
        let mut g = fedlake_rdf::Graph::new();
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/x"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(5),
        );
        g.insert_terms(
            fedlake_rdf::Term::iri("http://d/y"),
            fedlake_rdf::Term::iri("http://v/p"),
            fedlake_rdf::Term::integer(50),
        );
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("r", g));
        let d = decompose(
            &parse_query("SELECT * WHERE { ?s <http://v/p> ?o . FILTER(?o > 10) }").unwrap(),
        )
        .unwrap();
        let node = ServiceNode {
            source_id: "r".into(),
            route: None,
            kind: ServiceKind::Sparql {
                star: d.stars[0].clone(),
                filters: d.stars[0].filters.clone(),
            },
            estimated_rows: 1.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
        ));
        let mut op = open_service(&node, &lake, SourceRoute::single("r", link), 1).unwrap();
        let mut c = ctx(clock, &["s", "o"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        assert_eq!(rows.len(), 1);
    }

    /// Drains an operator on the overlapped schedule, advancing the
    /// virtual clock to each pending event as the engine's driver does.
    fn drain_overlapped(op: &mut dyn FedOp, c: &mut ExecCtx) -> Vec<SlotRow> {
        let mut out = Vec::new();
        loop {
            match op.poll_next(c).unwrap() {
                Poll::Ready(row) => out.push(row),
                Poll::Pending(ev) => c.clock.advance_to(ev.time),
                Poll::Done => return out,
            }
        }
    }

    #[test]
    fn overlapped_streams_share_the_serialized_materialization() {
        let mut lake = lake();
        let mut g = fedlake_rdf::Graph::new();
        for (s, o) in [("x", 5), ("y", 50), ("z", 500)] {
            g.insert_terms(
                fedlake_rdf::Term::iri(format!("http://d/{s}")),
                fedlake_rdf::Term::iri("http://v/p"),
                fedlake_rdf::Term::integer(o),
            );
        }
        lake.add_source(DataSource::sparql("r", g));
        let sparql = decompose(
            &parse_query("SELECT * WHERE { ?s <http://v/p> ?o . FILTER(?o > 10) }").unwrap(),
        )
        .unwrap();
        let sparql_node = ServiceNode {
            source_id: "r".into(),
            route: None,
            kind: ServiceKind::Sparql {
                star: sparql.stars[0].clone(),
                filters: sparql.stars[0].filters.clone(),
            },
            estimated_rows: 2.0,
        };
        let sql_node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::Single(TranslatedQuery {
                    sql: "SELECT g.id AS i, g.label AS l FROM gene g".into(),
                    outputs: vec![
                        OutputBinding {
                            var: Var::new("g"),
                            lift: Lift::SubjectIri(IriTemplate::new("http://d/gene/{}")),
                        },
                        OutputBinding {
                            var: Var::new("l"),
                            lift: Lift::Literal(fedlake_relational::DataType::Text),
                        },
                    ],
                }),
                covers: vec!["?g".into()],
            },
            estimated_rows: 5.0,
        };
        for (node, vars) in [(sql_node, ["g", "l"]), (sparql_node, ["s", "o"])] {
            let lifts: SharedLiftCache = Arc::default();
            let interner = SharedInterner::new();
            let run = |overlapped: bool| {
                let clock = shared_virtual();
                let link = Arc::new(Link::new(
                    NetworkProfile::GAMMA2,
                    Arc::clone(&clock),
                    CostModel::default(),
                    7,
                ));
                let route = SourceRoute::single(node.source_id.clone(), link);
                let mut op = open_service(&node, &lake, route, 2).unwrap();
                let mut c = ctx(clock, &vars).with_lifts(Arc::clone(&lifts));
                c.interner = interner.clone();
                let rows = if overlapped {
                    drain_overlapped(op.as_mut(), &mut c)
                } else {
                    drain(op.as_mut(), &mut c).unwrap()
                };
                (rows, c.clock.now(), c.stats)
            };
            let entry = || {
                let cache = lifts.lock().unwrap();
                assert_eq!(cache.len(), 1, "one entry for {}", node.source_id);
                Arc::clone(cache.values().next().unwrap())
            };
            let first = run(true);
            let cached = entry();
            let second = run(true);
            assert!(Arc::ptr_eq(&cached, &entry()), "the rerun must hit {}", node.source_id);
            assert_eq!(first, second);
            assert_eq!(run(false), first, "serialized drain of {}", node.source_id);
            assert_eq!(first.0.len(), if node.source_id == "d" { 5 } else { 2 });
        }
    }

    #[test]
    fn naive_stream_issues_n_plus_one_queries() {
        let lake = lake();
        let (gene_tm, disease_tm, gene_schema, disease_schema) =
            match lake.source("d").unwrap() {
                DataSource::Relational { db, mapping, .. } => (
                    mapping.for_table("gene").unwrap().clone(),
                    mapping.for_table("disease").unwrap().clone(),
                    db.table("gene").unwrap().schema.clone(),
                    db.table("disease").unwrap().schema.clone(),
                ),
                _ => unreachable!("lake() builds a relational source"),
            };
        let d = decompose(
            &parse_query(
                "SELECT * WHERE { ?g <http://v/label> ?l . ?g <http://v/disease> ?d . \
                 ?d <http://v/name> ?n }",
            )
            .unwrap(),
        )
        .unwrap();
        let outer =
            sql_single(&star_part(&d.stars[0], &gene_tm, &gene_schema, &[], "s0").unwrap());
        let inner = star_part(&d.stars[1], &disease_tm, &disease_schema, &[], "s1").unwrap();
        let node = ServiceNode {
            source_id: "d".into(),
            route: None,
            kind: ServiceKind::Sql {
                request: SqlRequest::MergedNaive {
                    outer,
                    inner,
                    join: NaiveJoin {
                        outer_var: Var::new("d"),
                        inner_col: "id".into(),
                        extract: Some(IriTemplate::new("http://d/disease/{}")),
                    },
                },
                covers: vec!["?g".into(), "?d".into()],
            },
            estimated_rows: 5.0,
        };
        let clock = shared_virtual();
        let link = Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            3,
        ));
        let route = SourceRoute::single("d", Arc::clone(&link));
        let mut op = open_service(&node, &lake, route, 1).unwrap();
        let mut c = ctx(clock, &["g", "l", "d", "n"]);
        let rows = drain(op.as_mut(), &mut c).unwrap();
        // Every gene has a disease with a name.
        assert_eq!(rows.len(), 5);
        // 1 outer + 5 inner queries.
        assert_eq!(c.stats.sql_queries, 6);
        // Rows bind variables from both stars.
        let decoded = decode(&c, &rows);
        assert!(decoded[0].is_bound(&Var::new("n")));
        assert!(decoded[0].is_bound(&Var::new("l")));
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let clock = shared_virtual();
        // Attempts 0 and 1 hit the outage; attempt 2 succeeds.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 2,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        transfer_with_retry(&route, 1, &mut c).unwrap();
        assert_eq!(c.stats.retries, 2);
        let s = link.stats();
        assert_eq!((s.messages, s.outage_faults), (1, 2));
        // Two detection timeouts (10 ms each) plus backoff 2 ms + 4 ms.
        assert!(c.clock.now() >= Duration::from_millis(26));
    }

    #[test]
    fn exhausted_retry_budget_is_source_unavailable() {
        let clock = shared_virtual();
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: u64::MAX,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(clock, &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_with_retry(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 3 }
        );
        assert_eq!(c.stats.retries, 2);
        assert_eq!(link.stats().messages, 0);
    }

    fn dead_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
            fedlake_netsim::FaultPlan {
                outage_after: Some(0),
                outage_len: u64::MAX,
                ..fedlake_netsim::FaultPlan::NONE
            },
        ))
    }

    fn live_link(clock: &fedlake_netsim::SharedClock, seed: u64) -> Arc<Link> {
        Arc::new(Link::new(
            NetworkProfile::NO_DELAY,
            Arc::clone(clock),
            CostModel::default(),
            seed,
        ))
    }

    #[test]
    fn failover_rescues_a_dead_primary() {
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        transfer_with_retry(&route, 1, &mut c).unwrap();
        // Full budget burnt on r0 (2 intra-replica retries + the failover
        // switch), then r1 delivers on its first attempt.
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // The stream is sticky: follow-up messages go straight to r1.
        transfer_with_retry(&route, 1, &mut c).unwrap();
        assert_eq!(live.stats().messages, 2);
        assert_eq!(dead.stats().faults(), 3);
    }

    #[test]
    fn exhausting_every_replica_names_the_logical_source() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&r0)), ("s#r1".into(), Arc::clone(&r1))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let err = transfer_with_retry(&route, 1, &mut c).unwrap_err();
        assert_eq!(
            err,
            FedError::SourceUnavailable { source: "s".into(), attempts: 6 }
        );
        // Every non-terminal failure counts: 2 + 2 intra-replica retries
        // plus the one failover switch.
        assert_eq!(c.stats.retries, 5);
        assert_eq!(r0.stats().faults(), 3);
        assert_eq!(r1.stats().faults(), 3);
    }

    #[test]
    fn scheduled_failover_matches_serialized_attempts() {
        // Serialized twin: identical links and policy, blocking transfer.
        let serialized_end = {
            let clock = shared_virtual();
            let dead = dead_link(&clock, 1);
            let live = live_link(&clock, 2);
            let route = SourceRoute::new(
                "s",
                vec![("s#r0".into(), dead), ("s#r1".into(), live)],
            );
            let mut c = ctx(Arc::clone(&clock), &["x"]);
            c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
            transfer_with_retry(&route, 1, &mut c).unwrap();
            clock.now()
        };
        let clock = shared_virtual();
        let dead = dead_link(&clock, 1);
        let live = live_link(&clock, 2);
        let route = SourceRoute::new(
            "s",
            vec![("s#r0".into(), Arc::clone(&dead)), ("s#r1".into(), Arc::clone(&live))],
        );
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy { max_attempts: 3, ..Default::default() };
        let done = schedule_transfer_with_retry(&route, 1, Duration::ZERO, &mut c).unwrap();
        assert_eq!(c.stats.retries, 3);
        assert_eq!(dead.stats().faults(), 3);
        assert_eq!(live.stats().messages, 1);
        assert_eq!(route.active_endpoint(), "s#r1");
        // The scheduled completion lands exactly where the serialized
        // clock does: 3 detection timeouts (10 ms) + backoffs 2 ms + 4 ms
        // on r0, then r1's delivery.
        assert_eq!(done, serialized_end);
        assert!(done >= Duration::from_millis(36));
        assert!(done < Duration::from_millis(37));
    }

    #[test]
    fn backoff_is_clamped_at_the_deadline() {
        let clock = shared_virtual();
        // Attempt 0 fails, attempt 1 succeeds: exactly one backoff pause.
        let plan = fedlake_netsim::FaultPlan {
            outage_after: Some(0),
            outage_len: 1,
            ..fedlake_netsim::FaultPlan::NONE
        };
        let link = Arc::new(Link::with_faults(
            NetworkProfile::NO_DELAY,
            Arc::clone(&clock),
            CostModel::default(),
            1,
            plan,
        ));
        let route = SourceRoute::single("s", Arc::clone(&link));
        let mut c = ctx(Arc::clone(&clock), &["x"]);
        c.retry = crate::config::RetryPolicy {
            max_attempts: 2,
            timeout: Duration::from_millis(1),
            backoff: Duration::from_secs(10),
        };
        c.deadline = Some(Duration::from_millis(5));
        transfer_with_retry(&route, 1, &mut c).unwrap();
        // Timeout 1 ms, then the 10 s backoff clamps to the 4 ms left
        // before the deadline: the clock lands on the deadline plus the
        // final delivery's transfer cost — bounded by one more timeout —
        // not 10 s past it.
        assert!(c.clock.now() >= Duration::from_millis(5));
        assert!(c.clock.now() < Duration::from_millis(6));
    }

    #[test]
    fn links_are_deterministic_and_distinct() {
        let lake = lake();
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &crate::obs::TraceSink::disabled(),
            &crate::obs::FlightRecorder::disabled(),
        );
        assert_eq!(links.len(), 1);
        let (m, r, d) = total_traffic(&links);
        assert_eq!((m, r), (0, 0));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn replicated_lake_gets_one_link_per_endpoint() {
        let mut lake = lake();
        lake.set_replicas("d", 3);
        let clock = shared_virtual();
        let links = links_for(
            &lake,
            NetworkProfile::GAMMA1,
            clock,
            CostModel::default(),
            42,
            &fedlake_netsim::FaultPlans::default(),
            &crate::obs::TraceSink::disabled(),
            &crate::obs::FlightRecorder::disabled(),
        );
        assert_eq!(links.len(), 3);
        for k in ["d#r0", "d#r1", "d#r2"] {
            assert!(links.contains_key(k), "missing link for {k}");
        }
        assert!(!links.contains_key("d"));
    }

    #[test]
    fn source_failures_fold_replicas_into_the_logical_id() {
        let clock = shared_virtual();
        let r0 = dead_link(&clock, 1);
        let r1 = dead_link(&clock, 2);
        let _ = r0.try_transfer_message(1);
        let _ = r0.try_transfer_message(1);
        let _ = r1.try_transfer_message(1);
        let links: std::collections::HashMap<String, Arc<Link>> =
            [("s#r0".to_string(), r0), ("s#r1".to_string(), r1)].into();
        let failures = source_failures(&links);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures["s"], 3);
    }
}
