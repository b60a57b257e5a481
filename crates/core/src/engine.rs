//! The federated engine: planning + streaming execution + measurement.

use crate::config::PlanConfig;
use crate::error::FedError;
use crate::fedplan::FedPlan;
use crate::health::{HealthView, SourceHealth};
use crate::lake::DataLake;
use crate::operators::{
    BoxedOp, DistinctOp, ExecCtx, FilterOp, LeftHashJoin, ProjectOp, SymHashJoin, UnionOp,
};
use crate::planner::{plan_query_with_health, PlannedQuery};
use crate::trace::AnswerTrace;
use crate::wrapper::{links_for, open_service, route_for, source_failures, total_traffic};
use fedlake_netsim::clock::{shared_real, shared_virtual};
use fedlake_netsim::Link;
use fedlake_rdf::SharedInterner;
use fedlake_sparql::ast::SelectQuery;
use fedlake_sparql::binding::{decode_batch_row, decode_row, Row, RowSchema, SlotRow, Var};
use fedlake_sparql::eval::sort_rows;
use fedlake_sparql::parser::parse_query;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Measurements of one federated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FedStats {
    /// Plan label (`unaware`, `aware`, `aware(h1)`, …).
    pub plan_label: String,
    /// Network setting name.
    pub network: &'static str,
    /// Total (simulated) execution time.
    pub execution_time: Duration,
    /// Time of the first answer, when any.
    pub first_answer: Option<Duration>,
    /// Answers produced.
    pub answers: u64,
    /// Messages that crossed the wrapper links.
    pub messages: u64,
    /// Rows transferred across links (the intermediate-result size).
    pub rows_transferred: u64,
    /// Total injected network delay.
    pub network_delay: Duration,
    /// SQL queries sent to sources.
    pub sql_queries: u64,
    /// Engine-level filter evaluations.
    pub engine_filter_evals: u64,
    /// Engine-level join probes.
    pub engine_join_probes: u64,
    /// Requests sent to sources (service leaves).
    pub services: usize,
    /// Engine-level operators in the plan.
    pub engine_operators: usize,
    /// Services carrying a pushed-down (merged) join.
    pub merged_services: usize,
    /// Link-message retries issued by the wrapper streams.
    pub retries: u64,
    /// Faulted link attempts per source (drops + truncations + outage
    /// hits); empty on a fault-free run.
    pub source_failures: BTreeMap<String, u64>,
    /// The query degraded: a source became unavailable (or the deadline
    /// fired) and, with [`crate::config::PlanConfig::degraded_ok`] set,
    /// the answers are the partial set produced up to that point.
    pub degraded: bool,
}

impl FedStats {
    /// Assembles the statistics of one execution — the single constructor
    /// both executors use, so they cannot silently diverge on a new field.
    /// When tracing is on, [`crate::obs::TraceSink::finish`] mirrors every
    /// field into the metrics registry, where the reconciliation tests
    /// compare them against the recorded spans.
    pub(crate) fn assemble(
        config: &PlanConfig,
        planned: &PlannedQuery,
        links: &HashMap<String, Arc<Link>>,
        engine_stats: &crate::operators::EngineStats,
        trace: &AnswerTrace,
        answers: u64,
        degraded: bool,
    ) -> FedStats {
        let (messages, rows_transferred, network_delay) = total_traffic(links);
        FedStats {
            plan_label: config.mode.label(),
            network: config.network.name,
            execution_time: trace.total_time(),
            first_answer: trace.first_answer(),
            answers,
            messages,
            rows_transferred,
            network_delay,
            sql_queries: engine_stats.sql_queries,
            engine_filter_evals: engine_stats.engine_filter_evals,
            engine_join_probes: engine_stats.engine_join_probes,
            services: planned.plan.service_count(),
            engine_operators: planned.plan.engine_operator_count(),
            merged_services: planned.plan.merged_service_count(),
            retries: engine_stats.retries,
            source_failures: source_failures(links),
            degraded,
        }
    }
}

/// The result of executing one federated query.
#[derive(Debug, Clone)]
pub struct FedResult {
    /// Projected variables, in projection order (shared with the plan —
    /// no per-execution allocation).
    pub vars: Arc<[Var]>,
    /// Answer rows.
    pub rows: Vec<Row>,
    /// The answer trace (Figure 2's measurement).
    pub trace: AnswerTrace,
    /// Execution statistics.
    pub stats: FedStats,
    /// Human-readable plan (Figure 1's comparison).
    pub explain: String,
    /// The trace report, when [`PlanConfig::tracing`] was set.
    pub obs: Option<crate::obs::TraceReport>,
}

impl FedResult {
    /// The analyzed plan tree, when the run was traced.
    pub fn explain_analyze(&self) -> Option<String> {
        self.obs.as_ref().map(crate::obs::explain_analyze)
    }

    /// The Chrome trace-event JSON, when the run was traced.
    pub fn chrome_trace(&self) -> Option<String> {
        self.obs.as_ref().map(crate::obs::chrome_trace)
    }
}

/// The federated SPARQL engine over a Semantic Data Lake.
#[derive(Debug)]
pub struct FederatedEngine {
    lake: DataLake,
    config: PlanConfig,
    /// Per-source fault overrides layered over `config.faults` (which
    /// stays the uniform default so [`PlanConfig`] remains `Copy`).
    fault_overrides: BTreeMap<String, fedlake_netsim::FaultPlan>,
    /// Correlated-outage groups layered over the per-source plans.
    outage_groups: Vec<fedlake_netsim::OutageGroup>,
    /// Session health registry: per-endpoint counters fed by every
    /// execution's link stats, consulted at plan time for replica routing
    /// and degraded-source demotion.
    health: SourceHealth,
    /// Failures at which an endpoint counts as degraded for planning.
    health_threshold: u64,
    /// Session-wide term interner: shared by every execution, so term ids
    /// are stable across executions and lifted source results can be
    /// cached. Append-only — ids never change meaning once assigned.
    interner: SharedInterner,
    /// Cross-execution cache of lifted source results (paired with
    /// `interner`), read by both schedules and the serve loop. Cleared by
    /// [`FederatedEngine::lake_mut`]: the engine owns the lake, so that is
    /// the only way source contents can change underneath it.
    lifts: crate::wrapper::SharedLiftCache,
    /// Session flight recorder: a bounded ring of query-lifecycle events
    /// across every execution and serve run of this engine. Disabled (a
    /// `None` handle, one branch per hook) unless
    /// [`PlanConfig::recorder`] is set.
    recorder: crate::obs::FlightRecorder,
    /// Normalized plan cache (see [`crate::plancache`]): whole planned
    /// queries memoized behind the canonical query/config fingerprint,
    /// revalidated per lookup against the lake epoch and the relevant
    /// health inputs. Probed only when [`PlanConfig::plan_cache`] is set;
    /// behind a mutex so `&self` planning paths can populate it.
    plan_cache: std::sync::Mutex<crate::plancache::PlanCache>,
}

/// Failures before the planner treats an endpoint as degraded — two full
/// default retry budgets, so one unlucky message cannot demote a source.
const DEFAULT_HEALTH_THRESHOLD: u64 = 8;

impl FederatedEngine {
    /// Creates an engine over `lake` with `config`.
    pub fn new(lake: DataLake, config: PlanConfig) -> Self {
        FederatedEngine {
            lake,
            config,
            fault_overrides: BTreeMap::new(),
            outage_groups: Vec::new(),
            health: SourceHealth::new(),
            health_threshold: DEFAULT_HEALTH_THRESHOLD,
            interner: SharedInterner::new(),
            lifts: Arc::new(std::sync::Mutex::new(fedlake_rdf::FastMap::default())),
            recorder: if config.recorder {
                crate::obs::FlightRecorder::recording()
            } else {
                crate::obs::FlightRecorder::disabled()
            },
            plan_cache: std::sync::Mutex::new(crate::plancache::PlanCache::new()),
        }
    }

    /// Overrides the fault plan for one source id; other sources keep the
    /// uniform plan from [`PlanConfig::faults`].
    pub fn set_source_faults(
        &mut self,
        source_id: impl Into<String>,
        plan: fedlake_netsim::FaultPlan,
    ) {
        self.fault_overrides.insert(source_id.into(), plan);
    }

    /// Adds a correlated-outage group: every member endpoint (or every
    /// replica of a member logical source) goes dark over the same seeded
    /// window, on top of its own fault plan.
    pub fn add_outage_group(&mut self, group: fedlake_netsim::OutageGroup) {
        self.outage_groups.push(group);
    }

    /// Sets the failure count at which the planner treats an endpoint as
    /// degraded (default 8).
    pub fn set_health_threshold(&mut self, threshold: u64) {
        self.health_threshold = threshold;
    }

    /// The session's health registry (fed after every execution).
    pub fn health(&self) -> &SourceHealth {
        &self.health
    }

    /// The planner's view of session health.
    fn health_view(&self) -> HealthView {
        HealthView {
            endpoints: self.health.snapshot(),
            threshold: self.health_threshold,
            generation: self.health.generation(),
        }
    }

    /// The full fault schedule: the uniform default plus any per-source
    /// overrides plus the correlated-outage groups.
    pub fn fault_plans(&self) -> fedlake_netsim::FaultPlans {
        fedlake_netsim::FaultPlans {
            default: self.config.faults,
            overrides: self.fault_overrides.clone(),
            groups: self.outage_groups.clone(),
        }
    }

    /// The lake this engine federates.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Mutable access to the lake — administrative data loads and the
    /// chaos/observability suites (which mutate the statistics catalog
    /// post-collection to plant mis-estimates) go through here. Clears the
    /// lift cache: whatever the caller changes, no execution may serve a
    /// source result lifted before the change.
    pub fn lake_mut(&mut self) -> &mut DataLake {
        self.lifts.lock().unwrap_or_else(|e| e.into_inner()).clear();
        &mut self.lake
    }

    /// The active configuration.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Replaces the configuration (e.g. to switch plan mode or network).
    /// Toggling [`PlanConfig::recorder`] starts a fresh recording (or
    /// drops the current one); an already-enabled recorder keeps
    /// recording across the switch.
    pub fn set_config(&mut self, config: PlanConfig) {
        if config.recorder != self.recorder.is_enabled() {
            self.recorder = if config.recorder {
                crate::obs::FlightRecorder::recording()
            } else {
                crate::obs::FlightRecorder::disabled()
            };
        }
        // The config fingerprint already keys cache entries, so old
        // entries could never wrongly hit — but they would sit as dead
        // weight. Drop them; counters survive (engine-lifetime).
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.config = config;
    }

    /// The session's flight recorder (disabled unless
    /// [`PlanConfig::recorder`] is set).
    pub fn recorder(&self) -> &crate::obs::FlightRecorder {
        &self.recorder
    }

    /// Snapshot of the session's flight recording, when recording is on.
    pub fn flight_recording(&self) -> Option<crate::obs::FlightRecording> {
        self.recorder.snapshot()
    }

    /// Plans a query without executing it, consulting the session's
    /// health registry for replica routing and degraded-source demotion.
    /// Probes the normalized plan cache when [`PlanConfig::plan_cache`]
    /// is set.
    pub fn plan(&self, query: &SelectQuery) -> Result<PlannedQuery, FedError> {
        self.plan_cached(query).map(|(planned, _)| planned)
    }

    /// Like [`FederatedEngine::plan`], but also reports where the plan
    /// came from. A cache hit replays a byte-identical [`PlannedQuery`]:
    /// the origin is deliberately carried *next to* the plan, never
    /// inside it.
    pub fn plan_cached(
        &self,
        query: &SelectQuery,
    ) -> Result<(PlannedQuery, crate::plancache::PlanOrigin), FedError> {
        let view = self.health_view();
        if !self.config.plan_cache {
            let planned = plan_query_with_health(query, &self.lake, &self.config, &view)?;
            let fingerprint = planned.report.fingerprint;
            return Ok((planned, crate::plancache::PlanOrigin { cached: false, fingerprint }));
        }
        let key = (
            crate::ir::query_fingerprint(query),
            crate::ir::config_fingerprint(&self.config),
        );
        let epoch = self.lake.epoch();
        {
            let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(planned) = cache.lookup(key, epoch, view.generation, |sources| {
                crate::plancache::health_digest(&self.lake, &view, sources)
            }) {
                let fingerprint = planned.report.fingerprint;
                return Ok((
                    planned,
                    crate::plancache::PlanOrigin { cached: true, fingerprint },
                ));
            }
        }
        // Plan outside the lock: a planning failure must not poison the
        // cache, and concurrent serve jobs keep planning in parallel.
        let planned = plan_query_with_health(query, &self.lake, &self.config, &view)?;
        let sources = crate::plancache::plan_sources(&planned);
        let digest = crate::plancache::health_digest(&self.lake, &view, &sources);
        let fingerprint = planned.report.fingerprint;
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).insert(
            key,
            epoch,
            view.generation,
            digest,
            sources,
            planned.clone(),
        );
        Ok((planned, crate::plancache::PlanOrigin { cached: false, fingerprint }))
    }

    /// Counter snapshot of the normalized plan cache (all zero when
    /// [`PlanConfig::plan_cache`] is off).
    pub fn plan_cache_stats(&self) -> crate::plancache::PlanCacheStats {
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner()).stats()
    }

    /// Parses, plans and executes a SPARQL query.
    pub fn execute_sparql(&self, sparql: &str) -> Result<FedResult, FedError> {
        let query = parse_query(sparql)?;
        self.execute(&query)
    }

    /// Plans and executes a parsed query.
    pub fn execute(&self, query: &SelectQuery) -> Result<FedResult, FedError> {
        let (planned, origin) = self.plan_cached(query)?;
        self.execute_planned_with_origin(&planned, origin)
    }

    /// Executes an already-planned query.
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<FedResult, FedError> {
        let origin = crate::plancache::PlanOrigin {
            cached: false,
            fingerprint: planned.report.fingerprint,
        };
        self.execute_planned_with_origin(planned, origin)
    }

    /// Executes an already-planned query, annotating the recorder event
    /// and EXPLAIN with where the plan came from. The plan's execution is
    /// byte-identical either way.
    fn execute_planned_with_origin(
        &self,
        planned: &PlannedQuery,
        origin: crate::plancache::PlanOrigin,
    ) -> Result<FedResult, FedError> {
        let clock = if self.config.real_time {
            shared_real()
        } else {
            shared_virtual()
        };
        let sink = if self.config.tracing {
            crate::obs::TraceSink::recording()
        } else {
            crate::obs::TraceSink::disabled()
        };
        let links = links_for(
            &self.lake,
            self.config.network,
            Arc::clone(&clock),
            self.config.cost,
            self.config.seed,
            &self.fault_plans(),
            &sink,
            &self.recorder,
        );
        // Register the execution with the flight recorder: a solo query
        // is client 0, submitted and admitted at simulated time zero.
        let qrec = self.recorder.begin_query(
            0,
            "adhoc",
            planned.report.strategy.label(),
            self.config.deadline,
            crate::obs::service_estimates(&planned.plan),
        );
        qrec.submit(Duration::ZERO);
        qrec.admit(Duration::ZERO, Duration::ZERO);
        qrec.plan(Duration::ZERO, &planned.report, planned.report.estimated_rows, origin.cached);
        let mut ctx = ExecCtx::new(
            Arc::clone(&clock),
            self.config.cost,
            Arc::clone(&planned.schema),
            self.interner.clone(),
        )
        .with_lifts(Arc::clone(&self.lifts))
        .with_retry(self.config.retry)
        .with_deadline(self.config.deadline)
        .with_trace(sink.clone())
        .with_recorder(qrec.clone());
        sink.begin_query(&planned.plan, &self.config.mode.label());
        sink.record_plan_report(&planned.report);

        let mut next_node = 0u32;
        let mut op = self.build_operator(
            &planned.plan,
            &planned.schema,
            &links,
            &sink,
            &qrec,
            &mut next_node,
        )?;
        // Solution modifiers around the streaming pipeline. The projection
        // is a slot remap resolved once per execution, not per row.
        op = Box::new(ProjectOp::new(op, planned.schema.slots_of(&planned.projection)));
        if planned.distinct {
            op = Box::new(DistinctOp::new(op));
        }

        let mut trace = AnswerTrace::new();
        let mut slot_rows: Vec<SlotRow> = Vec::new();
        // Batch runs decode answers straight out of each batch's column
        // buffers (one dictionary lock per batch); row runs collect
        // `SlotRow`s and decode at the end. Same decode order either way.
        let mut decoded: Vec<Row> = Vec::new();
        // Sources skipped at plan time already make the answer partial.
        let mut degraded = !planned.skipped_sources.is_empty();
        let unordered_limit = planned.order_by.is_empty().then_some(()).and(planned.limit);
        let want = unordered_limit.map(|l| l + planned.offset);
        // Vectorized driver: pull morsel-sized batches through the tree.
        // Deadline runs and unordered-LIMIT early stops keep the row
        // driver — both need to observe the clock between *rows*, not
        // between batches, to stop at the same instant the reference
        // executor would.
        let batch_mode = self.config.batch && self.config.deadline.is_none() && want.is_none();
        if batch_mode {
            loop {
                let step = if self.config.overlap {
                    op.poll_next_batch(&mut ctx, self.config.batch_size)
                } else {
                    op.next_batch(&mut ctx, self.config.batch_size).map(|o| {
                        o.map_or(crate::operators::Poll::Done, crate::operators::Poll::Ready)
                    })
                };
                match step {
                    Ok(crate::operators::Poll::Ready(batch)) => {
                        let now = clock.now();
                        if qrec.is_enabled() && trace.count() == 0 && batch.selected().next().is_some()
                        {
                            qrec.first_row(now);
                        }
                        let dict = ctx.interner.lock();
                        for i in batch.selected() {
                            ctx.trace.record_answer(&mut trace, now);
                            decoded.push(decode_batch_row(&batch, i, &planned.schema, &dict));
                        }
                    }
                    Ok(crate::operators::Poll::Pending(ev)) => {
                        if clock.is_virtual() && ev.time <= clock.now() {
                            return Err(FedError::Internal(format!(
                                "scheduler stalled: pending event at {:?} is not in the future (now {:?})",
                                ev.time,
                                clock.now()
                            )));
                        }
                        clock.advance_to(ev.time);
                    }
                    Ok(crate::operators::Poll::Done) => break,
                    Err(e @ (FedError::SourceUnavailable { .. } | FedError::Timeout(_))) => {
                        if !self.config.degraded_ok {
                            let now = clock.now();
                            qrec.complete(
                                now,
                                crate::obs::CompletionKind::Failed,
                                now,
                                planned.report.estimated_rows,
                                0,
                            );
                            return Err(e);
                        }
                        degraded = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        } else {
            loop {
                // The deadline is cooperative: it is checked between
                // answers, so one pull can overshoot it before the query
                // fails (or degrades to the partial answer set).
                if let Some(d) = self.config.deadline {
                    if clock.now() >= d {
                        qrec.deadline_hit(clock.now());
                        if !self.config.degraded_ok {
                            let now = clock.now();
                            qrec.complete(
                                now,
                                crate::obs::CompletionKind::DeadlineMiss,
                                now,
                                planned.report.estimated_rows,
                                0,
                            );
                            return Err(FedError::Timeout(d));
                        }
                        degraded = true;
                        break;
                    }
                }
                // Overlapped runs poll the plan and advance the clock to
                // the next scheduled completion when every branch is
                // waiting on in-flight I/O; serialized runs map the
                // blocking pull onto the same three-way step.
                let step = if self.config.overlap {
                    op.poll_next(&mut ctx)
                } else {
                    op.next(&mut ctx).map(|o| {
                        o.map_or(crate::operators::Poll::Done, crate::operators::Poll::Ready)
                    })
                };
                match step {
                    Ok(crate::operators::Poll::Ready(row)) => {
                        ctx.trace.record_answer(&mut trace, clock.now());
                        if qrec.is_enabled() && trace.count() == 1 {
                            qrec.first_row(clock.now());
                        }
                        slot_rows.push(row);
                        // Without ORDER BY, LIMIT can stop pulling early —
                        // the streaming behaviour ANAPSID's operators
                        // enable.
                        if want.is_some_and(|w| slot_rows.len() >= w) {
                            break;
                        }
                    }
                    Ok(crate::operators::Poll::Pending(ev)) => {
                        // A due event must be consumed by the poll that saw
                        // it; surfacing one here means an operator forgot
                        // to complete it and time would stand still.
                        if clock.is_virtual() && ev.time <= clock.now() {
                            return Err(FedError::Internal(format!(
                                "scheduler stalled: pending event at {:?} is not in the future (now {:?})",
                                ev.time,
                                clock.now()
                            )));
                        }
                        clock.advance_to(ev.time);
                    }
                    Ok(crate::operators::Poll::Done) => break,
                    Err(e @ (FedError::SourceUnavailable { .. } | FedError::Timeout(_))) => {
                        if !self.config.degraded_ok {
                            let now = clock.now();
                            qrec.complete(
                                now,
                                crate::obs::CompletionKind::Failed,
                                now,
                                planned.report.estimated_rows,
                                0,
                            );
                            return Err(e);
                        }
                        degraded = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        trace.complete(clock.now());

        // Materialize terms only at the API boundary (batch runs already
        // decoded on the fly).
        let mut rows: Vec<Row> = if batch_mode {
            decoded
        } else {
            let dict = ctx.interner.lock();
            slot_rows
                .iter()
                .map(|r| decode_row(r, &planned.schema, &dict))
                .collect()
        };

        if !planned.order_by.is_empty() {
            sort_rows(&mut rows, &planned.order_by);
        }
        if planned.offset > 0 {
            rows.drain(..planned.offset.min(rows.len()));
        }
        if let Some(l) = planned.limit {
            rows.truncate(l);
        }

        // Feed this execution's link counters into the session health
        // registry: the next plan() call routes around what failed here.
        self.health.record_links(&links);

        let stats = FedStats::assemble(
            &self.config,
            planned,
            &links,
            &ctx.stats,
            &trace,
            rows.len() as u64,
            degraded,
        );
        qrec.complete(
            stats.execution_time,
            if degraded {
                crate::obs::CompletionKind::Degraded
            } else {
                crate::obs::CompletionKind::Ok
            },
            stats.execution_time,
            planned.report.estimated_rows,
            stats.answers,
        );
        let obs = sink.finish(&links, &stats);
        // EXPLAIN names the plan's origin only when the cache is in play,
        // so cache-off output stays byte-identical to previous releases.
        let mut explain = crate::explain::explain_plan(&planned.plan);
        if self.config.plan_cache {
            explain.push_str(&format!(
                "plan: {}[fp={:016x}]\n",
                if origin.cached { "cached" } else { "cold" },
                origin.fingerprint
            ));
        }
        Ok(FedResult {
            vars: Arc::clone(&planned.projection),
            rows,
            trace,
            stats,
            explain,
            obs,
        })
    }

    /// The session-wide term interner (shared with the serve loop).
    pub(crate) fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// The cross-execution lift cache (shared with the serve loop).
    pub(crate) fn lifts(&self) -> &crate::wrapper::SharedLiftCache {
        &self.lifts
    }

    // Node ids are assigned pre-order (node before children, children
    // left to right) — the same order `crate::obs::plan_nodes` walks, so a
    // trace's node `i` is line `i` of the analyzed tree. Service leaves
    // are claimed in the same pre-order by the flight recorder's
    // `service_estimates` slots.
    pub(crate) fn build_operator<'a>(
        &'a self,
        plan: &FedPlan,
        schema: &RowSchema,
        links: &HashMap<String, Arc<Link>>,
        sink: &crate::obs::TraceSink,
        qrec: &crate::obs::QueryRecorder,
        next_node: &mut u32,
    ) -> Result<BoxedOp<'a>, FedError> {
        let node = *next_node;
        *next_node += 1;
        let op: BoxedOp<'a> = match plan {
            FedPlan::Service(node) => {
                let route = route_for(&node.source_id, &node.route, links)?;
                let svc = open_service(node, &self.lake, route, self.config.rows_per_message)?;
                if qrec.is_enabled() {
                    Box::new(crate::obs::recorder::RecordServiceOp::new(svc, qrec))
                } else {
                    svc
                }
            }
            FedPlan::Join { left, right, on } => {
                let l = self.build_operator(left, schema, links, sink, qrec, next_node)?;
                let r = self.build_operator(right, schema, links, sink, qrec, next_node)?;
                Box::new(SymHashJoin::new(l, r, schema.slots_of(on)))
            }
            FedPlan::LeftJoin { left, right, on } => {
                let l = self.build_operator(left, schema, links, sink, qrec, next_node)?;
                let r = self.build_operator(right, schema, links, sink, qrec, next_node)?;
                Box::new(LeftHashJoin::new(l, r, schema.slots_of(on)))
            }
            FedPlan::BindJoin { left, right, batch_size } => {
                let l = self.build_operator(left, schema, links, sink, qrec, next_node)?;
                let db = match self.lake.source(&right.source_id) {
                    Some(crate::source::DataSource::Relational { db, .. }) => db,
                    _ => {
                        return Err(FedError::Internal(format!(
                            "bind join target {} is not relational",
                            right.source_id
                        )))
                    }
                };
                let route = route_for(&right.source_id, &right.route, links)?;
                Box::new(crate::wrapper::BindJoinOp::new(
                    l,
                    db,
                    right.clone(),
                    route,
                    self.config.rows_per_message,
                    *batch_size,
                ))
            }
            FedPlan::Filter { input, exprs } => {
                let i = self.build_operator(input, schema, links, sink, qrec, next_node)?;
                Box::new(FilterOp::new(i, exprs.clone()))
            }
            FedPlan::Union(branches) => {
                let ops = branches
                    .iter()
                    .map(|b| self.build_operator(b, schema, links, sink, qrec, next_node))
                    .collect::<Result<Vec<_>, _>>()?;
                Box::new(UnionOp::new(ops))
            }
        };
        Ok(if sink.is_enabled() {
            Box::new(crate::obs::span::SpanOp::new(op, node, sink.clone()))
        } else {
            op
        })
    }
}
