//! The three workloads, their end-to-end metrics and, in a traced run,
//! their per-layer split. Why each workload exists is in `NOTES.md`.

use crate::oracle::{repeat_fingerprint, Digests};
use crate::span::Tracer;
use crate::stats::{
    capacity, cell_means, cell_mins, geomean, latency_tail_ms, mean, median, nearest_rank,
    slowdown, tail_quantile, Served,
};
use fedlake_core::fedplan::{FedPlan, ServiceKind, SqlRequest};
use fedlake_core::planner::PlannedQuery;
use fedlake_core::serve::ServeOutcome;
use fedlake_core::wrapper::lift_result;
use fedlake_core::{DataLake, DataSource, FedResult, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake, LakeConfig};
use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::{Link, NetworkProfile};
use fedlake_serve::{build_jobs, ServeReport, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §3 matrix on fresh engines: every query pays source
    /// SQL, the lift and per-row link simulation.
    AdhocCold,
    /// Q1–Q5 re-sent as text to long-lived engines at 1024 rows per
    /// message: memoized sources, replanning every time.
    RepeatWarm,
    /// Seeded Q1–Q5 instances offered open-loop to `serve` at three rates.
    ServeOpen,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "adhoc_cold" => Ok(Workload::AdhocCold),
            "repeat_warm" => Ok(Workload::RepeatWarm),
            "serve_open" => Ok(Workload::ServeOpen),
            _ => Err(format!(
                "unknown workload {s:?} (adhoc_cold, repeat_warm, serve_open)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocCold => "adhoc_cold",
            Workload::RepeatWarm => "repeat_warm",
            Workload::ServeOpen => "serve_open",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Measurement time; at least one full pass always runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Serve instantiation and arrival seed.
    pub serve_seed: u64,
    /// Per-link delay seed (`PlanConfig::seed`).
    pub link_seed: u64,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures (answer digests, sim reruns, solo vs served).
    pub errors: Vec<String>,
    /// Queries run in the measured loop.
    pub attempted: u64,
    /// Queries that failed, timed out or degraded.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Default serve instantiation and arrival seed (`ServeSpec`'s). It does
/// not follow `--seed`: a different seed draws a different template mix,
/// which moves host and simulated figures by more than the benchmark's
/// bounds, so a second mix is an explicit `--serve-seed`.
pub const DEFAULT_SERVE_SEED: u64 = 7;
/// The paper's two plan types.
const MODES: [PlanMode; 2] = [PlanMode::Unaware, PlanMode::AWARE];
/// Serve offered rates, jobs per simulated second.
const RATES: [u32; 3] = [1, 2, 4];
/// Serve latency limit on the tail: twice the slowest solo query (Q5,
/// about 2 s under Gamma1).
const SERVE_TAIL_LIMIT_MS: f64 = 4000.0;
/// Set-up repetitions, spread over the run: one before the first pass,
/// then one after a pass whenever the run's share for the next is used
/// up. `setup_s` is their minimum, like every other host time (see
/// NOTES.md, "Why min-of-N for host time").
const SETUP_REPS: usize = 16;
/// Serve load: clients × queries per client jobs per rate.
const SERVE_CLIENTS: usize = 16;
const SERVE_QUERIES_PER_CLIENT: usize = 8;
const SERVE_JOBS: usize = SERVE_CLIENTS * SERVE_QUERIES_PER_CLIENT;
/// Serve passes per run, so that min-of-N has an N.
const SERVE_MIN_PASSES: usize = 3;

/// Every configuration field the workloads depend on, set explicitly.
fn config(
    mode: PlanMode,
    network: NetworkProfile,
    rows_per_message: usize,
    seed: u64,
    overlap: bool,
    plan_cache: bool,
) -> PlanConfig {
    let mut c = PlanConfig::new(mode, network);
    c.rows_per_message = rows_per_message;
    c.seed = seed;
    c.overlap = overlap;
    c.plan_cache = plan_cache;
    c
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-query counters of the traced run, summed.
#[derive(Debug, Default)]
struct Counts {
    queries: u64,
    services: u64,
    merged_services: u64,
    engine_operators: u64,
    rows_examined: u64,
    rows_output: u64,
    index_probes: u64,
    rows_lifted: u64,
    messages: u64,
    rows_transferred: u64,
    join_probes: u64,
    filter_evals: u64,
}

/// A solo query cell: one query under one configuration.
#[derive(Debug)]
struct Cell {
    label: String,
    sparql: String,
    /// Host ms of each untraced pass.
    host_ms: Vec<f64>,
    /// Host ms of each traced pass.
    traced_ms: Vec<f64>,
    /// Simulated execution time, first answer, answers, messages — must
    /// repeat exactly on every pass.
    sim: Option<(Duration, Option<Duration>, u64, u64)>,
    /// The first pass's answers (checked against the oracle).
    answers: Option<u64>,
}

/// Shared state of one run.
struct Bench<'a> {
    opts: &'a Options,
    digests: &'a Digests,
    lake: DataLake,
    tracer: Tracer,
    out: Outcome,
    counts: Counts,
    next_qid: u64,
    /// The configuration of the workload's first engine.
    setup_cfg: PlanConfig,
    /// Set-up times, s, and the lake-generation part of each, ms.
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
    /// Peak resident memory after the first pass, before any set-up
    /// repetition between passes.
    peak_rss_mb: Option<f64>,
}

impl<'a> Bench<'a> {
    fn qid(&mut self) -> u64 {
        self.next_qid += 1;
        self.next_qid
    }

    fn error(&mut self, msg: String) {
        if self.out.errors.len() < 20 {
            eprintln!("fedbench: {msg}");
        }
        self.out.errors.push(msg);
    }

    fn metric(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let name = name.into();
        match value {
            Some(v) if v.is_finite() => self.out.metrics.push(Metric {
                name,
                value: v,
                unit,
            }),
            _ => self.error(format!("metric {name} could not be computed")),
        }
    }

    /// Checks one solo result's answers and sim figures, and records its
    /// host time.
    fn check_cell(&mut self, cell: &mut Cell, result: &FedResult, host: Duration) {
        let answers = repeat_fingerprint(&result.vars, &result.rows);
        match cell.answers {
            None => {
                if let Err(e) = self.digests.check(&cell.sparql, &result.vars, &result.rows) {
                    self.error(format!("{}: {e}", cell.label));
                }
                cell.answers = Some(answers);
            }
            Some(first) if first != answers => {
                self.error(format!("{}: answers differ between passes", cell.label))
            }
            Some(_) => {}
        }
        let s = &result.stats;
        let sim = (s.execution_time, s.first_answer, s.answers, s.messages);
        match cell.sim {
            None => cell.sim = Some(sim),
            Some(first) if first != sim => self.error(format!(
                "{}: simulated figures differ between passes: {first:?} then {sim:?}",
                cell.label
            )),
            Some(_) => {}
        }
        if s.degraded {
            self.out.failed += 1;
        }
        if self.tracer.enabled() {
            cell.traced_ms.push(ms(host));
        } else {
            cell.host_ms.push(ms(host));
        }
    }

    /// Runs one solo query: parse → plan → execute (split into layer
    /// spans), or `execute_sparql` when `whole` and untraced. Returns the
    /// plan and result for the traced extras.
    fn solo(
        &mut self,
        engine: &FederatedEngine,
        cell: &mut Cell,
        whole: bool,
        exec_span: &'static str,
    ) -> Option<(u64, PlannedQuery, FedResult)> {
        let qid = self.qid();
        self.out.attempted += 1;
        let t0 = Instant::now();
        let result = if whole && !self.tracer.enabled() {
            engine.execute_sparql(&cell.sparql).map(|r| (None, r))
        } else {
            let tr = &mut self.tracer;
            let q = tr.begin("query", qid, None);
            let out = tr
                .time("sparql.parse", qid, Some(q), || parse_query(&cell.sparql))
                .map_err(fedlake_core::FedError::from)
                .and_then(|ast| tr.time("planner.plan", qid, Some(q), || engine.plan(&ast)))
                .and_then(|planned| {
                    let r = tr.time(exec_span, qid, Some(q), || engine.execute_planned(&planned));
                    r.map(|r| (Some(planned), r))
                });
            tr.end(q);
            out
        };
        let host = t0.elapsed();
        match result {
            Ok((planned, r)) => {
                self.check_cell(cell, &r, host);
                planned
                    .filter(|_| self.tracer.enabled())
                    .map(|p| (qid, p, r))
            }
            Err(e) => {
                self.out.failed += 1;
                eprintln!("fedbench: {} failed: {e}", cell.label);
                None
            }
        }
    }

    /// Replays one query's source work outside the engine: each SQL
    /// service's text through `Database::query` (uncached), its rows
    /// through `lift_result`, and the query's transferred rows through a
    /// fresh link with the query's profile, seed and message size.
    fn replay(
        &mut self,
        qid: u64,
        planned: &PlannedQuery,
        rows_transferred: u64,
        cfg: &PlanConfig,
    ) {
        let mut services = Vec::new();
        collect_services(&planned.plan, &mut services);
        let tr = &mut self.tracer;
        let c = &mut self.counts;
        let r = tr.begin("replay", qid, None);
        for (source_id, request) in services {
            let Some(DataSource::Relational { db, .. }) = self.lake.source(source_id) else {
                continue;
            };
            let rs = match tr.time("relational.sql", qid, Some(r), || db.query(request.sql())) {
                Ok(rs) => rs,
                Err(e) => {
                    self.out.errors.push(format!("replayed SQL failed: {e}"));
                    continue;
                }
            };
            c.rows_examined += rs.cost.rows_scanned + rs.cost.index_rows;
            c.rows_output += rs.cost.rows_output;
            c.index_probes += rs.cost.index_probes;
            let outputs = match request {
                SqlRequest::Single(q) | SqlRequest::MergedOptimized(q) => &q.outputs,
                SqlRequest::MergedNaive { outer, .. } => &outer.outputs,
            };
            let mut dict = fedlake_rdf::Dictionary::new();
            let rows = tr.time("wrapper.lift", qid, Some(r), || {
                lift_result(&rs, outputs, &planned.schema, &mut dict)
            });
            c.rows_lifted += rows.len() as u64;
        }
        let link = Link::new(cfg.network, shared_virtual(), cfg.cost, cfg.seed);
        tr.time("netsim.transfer", qid, Some(r), || {
            link.transfer_rows(rows_transferred as usize, cfg.rows_per_message)
        });
        let stats = link.stats();
        c.messages += stats.messages;
        c.rows_transferred += stats.rows;
        tr.end(r);
    }

    fn count_plan(&mut self, planned: &PlannedQuery, join_probes: u64, filter_evals: u64) {
        let c = &mut self.counts;
        c.queries += 1;
        c.services += planned.plan.service_count() as u64;
        c.merged_services += planned.plan.merged_service_count() as u64;
        c.engine_operators += planned.plan.engine_operator_count() as u64;
        c.join_probes += join_probes;
        c.filter_evals += filter_evals;
    }
}

fn collect_services<'p>(plan: &'p FedPlan, out: &mut Vec<(&'p str, &'p SqlRequest)>) {
    match plan {
        FedPlan::Service(s) => {
            if let ServiceKind::Sql { request, .. } = &s.kind {
                out.push((&s.source_id, request));
            }
        }
        FedPlan::Join { left, right, .. } | FedPlan::LeftJoin { left, right, .. } => {
            collect_services(left, out);
            collect_services(right, out);
        }
        FedPlan::BindJoin { left, .. } => collect_services(left, out),
        FedPlan::Filter { input, .. } => collect_services(input, out),
        FedPlan::Union(branches) => branches.iter().for_each(|b| collect_services(b, out)),
    }
}

/// Generates the lake and builds the first engine, timed; returns the
/// engine, the set-up time in s and the lake-generation part in ms.
fn set_up(cfg: PlanConfig) -> (FederatedEngine, f64, f64) {
    let t0 = Instant::now();
    let lake = build_lake(&LakeConfig::default());
    let built = t0.elapsed();
    let engine = black_box(FederatedEngine::new(lake, cfg));
    (engine, t0.elapsed().as_secs_f64(), ms(built))
}

/// Runs `opts` and returns its outcome.
pub fn run(opts: &Options, digests: &Digests) -> Outcome {
    let first_cfg = match opts.workload {
        Workload::AdhocCold => config(
            PlanMode::Unaware,
            NetworkProfile::NO_DELAY,
            1,
            opts.link_seed,
            false,
            false,
        ),
        Workload::RepeatWarm => config(
            PlanMode::Unaware,
            NetworkProfile::GAMMA1,
            1024,
            opts.link_seed,
            false,
            false,
        ),
        Workload::ServeOpen => config(
            PlanMode::AWARE,
            NetworkProfile::GAMMA1,
            1,
            opts.link_seed,
            true,
            true,
        ),
    };
    let (engine, setup_s, build_ms) = set_up(first_cfg);
    let mut b = Bench {
        opts,
        digests,
        lake: engine.lake().clone(),
        tracer: Tracer::new(opts.trace),
        out: Outcome::default(),
        counts: Counts::default(),
        next_qid: 0,
        setup_cfg: first_cfg,
        setup_s: vec![setup_s],
        build_ms: vec![build_ms],
        peak_rss_mb: None,
    };
    drop(engine);
    let clone_ms = {
        let mut v = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            drop(black_box(b.lake.clone()));
            v.push(ms(t0.elapsed()));
        }
        median(&v)
    };
    match opts.workload {
        Workload::AdhocCold | Workload::RepeatWarm => solo_workload(&mut b),
        Workload::ServeOpen => serve_workload(&mut b),
    }
    if opts.trace {
        let build_ms = fastest(&b.build_ms);
        b.metric("datagen.build_ms", build_ms, "ms");
        b.metric("lake.clone_ms", clone_ms, "ms");
        b.out.metrics.sort_by(|x, y| x.name.cmp(&y.name));
        b.out.tracer = Some(b.tracer);
    } else {
        let setup_s = fastest(&b.setup_s);
        b.metric("setup_s", setup_s, "s");
        b.metric(
            "ok_frac",
            Some(1.0 - b.out.failed as f64 / b.out.attempted.max(1) as f64),
            "frac",
        );
        let peak = b.peak_rss_mb;
        b.metric("peak_rss_mb", peak, "MB");
    }
    b.out
}

/// The fastest of some host samples (min-of-N).
fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Per-query mean of a span total, in `unit_ns` units.
fn per(total_ns: u64, n: u64, unit_ns: f64) -> Option<f64> {
    (n > 0).then(|| total_ns as f64 / n as f64 / unit_ns)
}

/// `adhoc_cold` and `repeat_warm`.
fn solo_workload(b: &mut Bench) {
    let queries = fedlake_datagen::workload::experiment_queries();
    let cold = b.opts.workload == Workload::AdhocCold;
    let (networks, rpm): (&[NetworkProfile], usize) = if cold {
        (&NetworkProfile::ALL, 1)
    } else {
        (&[NetworkProfile::GAMMA1], 1024)
    };
    let mut configs = Vec::new();
    for mode in MODES {
        for &network in networks {
            configs.push(config(mode, network, rpm, b.opts.link_seed, false, false));
        }
    }
    let mut cells: Vec<Cell> = configs
        .iter()
        .flat_map(|cfg| {
            queries.iter().map(move |q| Cell {
                label: format!("{}/{}/{}", q.id, cfg.mode.label(), cfg.network.name),
                sparql: q.sparql.clone(),
                host_ms: Vec::new(),
                traced_ms: Vec::new(),
                sim: None,
                answers: None,
            })
        })
        .collect();
    // repeat_warm: one long-lived engine per cell, warmed by one
    // execution outside the measurement (the traced run's cold sample).
    let mut warm_engines = Vec::new();
    if !cold {
        for (i, cfg) in configs.iter().enumerate() {
            for j in 0..queries.len() {
                let engine = FederatedEngine::new(b.lake.clone(), *cfg);
                let qid = b.qid();
                let cell = &mut cells[i * queries.len() + j];
                let r = b.tracer.time("engine.exec_cold", qid, None, || {
                    engine.execute_sparql(&cell.sparql)
                });
                match r {
                    Ok(r) => {
                        if let Err(e) = b.digests.check(&cell.sparql, &r.vars, &r.rows) {
                            b.error(format!("{}: {e}", cell.label));
                        }
                    }
                    Err(e) => b.error(format!("{}: warm-up failed: {e}", cell.label)),
                }
                warm_engines.push(engine);
            }
        }
    }
    let exec_span = if cold {
        "engine.exec_cold"
    } else {
        "engine.exec_warm"
    };
    let mut pass = |b: &mut Bench, cells: &mut [Cell]| {
        for (i, cfg) in configs.iter().enumerate() {
            let session = b.qid();
            let fresh = cold.then(|| {
                let lake = b
                    .tracer
                    .time("lake.clone", session, None, || b.lake.clone());
                FederatedEngine::new(lake, *cfg)
            });
            for j in 0..queries.len() {
                let k = i * queries.len() + j;
                let engine = match &fresh {
                    Some(engine) => engine,
                    None => &warm_engines[k],
                };
                let traced = b.solo(engine, &mut cells[k], !cold, exec_span);
                if let Some((qid, planned, r)) = traced {
                    if cold {
                        let warm = b.tracer.time("engine.exec_warm", qid, None, || {
                            engine.execute_planned(&planned)
                        });
                        if warm.is_err() {
                            b.error(format!("{}: warm re-execution failed", cells[k].label));
                        }
                    }
                    let s = &r.stats;
                    b.count_plan(&planned, s.engine_join_probes, s.engine_filter_evals);
                    b.replay(qid, &planned, s.rows_transferred, cfg);
                }
            }
        }
    };
    measure(b, &mut cells[..], 1, &mut pass);
    if b.opts.trace {
        let overhead = slowdown(
            &cell_mins(cells.iter().map(|c| &c.host_ms)),
            &cell_mins(cells.iter().map(|c| &c.traced_ms)),
        );
        trace_metrics(b, overhead);
        serve_layer_zeros(b);
        return;
    }
    let mins = cell_mins(cells.iter().map(|c| &c.host_ms));
    let mut pooled: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.host_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let p95 = tail_quantile(pooled.len()).and_then(|q| nearest_rank(&pooled, q.min(0.95)));
    let sims: Vec<_> = cells.iter().filter_map(|c| c.sim).collect();
    let exec: Vec<f64> = sims.iter().map(|s| ms(s.0)).collect();
    let first: Vec<f64> = sims.iter().filter_map(|s| s.1.map(ms)).collect();
    b.metric(
        "host_queries_per_s",
        Some(mins.len() as f64 * 1e3 / mins.iter().sum::<f64>()),
        "queries/s",
    );
    b.metric("host_query_ms_gmean", geomean(&mins), "ms");
    b.metric("host_query_ms_p95", p95, "ms");
    b.metric("sim_exec_ms_gmean", geomean(&exec), "ms");
    b.metric("sim_first_answer_ms_gmean", geomean(&first), "ms");
}

/// Runs passes for the requested time, and at least `min_passes`, with
/// the set-up repetitions between them. A traced run alternates untraced
/// and traced passes, starting untraced and ending traced, so that
/// `trace.overhead_frac` compares passes that saw the same host speed;
/// only the traced passes record spans.
fn measure<C: ?Sized>(
    b: &mut Bench,
    cells: &mut C,
    min_passes: usize,
    pass: &mut dyn FnMut(&mut Bench, &mut C),
) {
    let trace = b.opts.trace;
    let t0 = Instant::now();
    for passes in 1.. {
        if trace {
            b.tracer.set_enabled(passes % 2 == 0);
        }
        pass(b, cells);
        if passes == 1 {
            b.peak_rss_mb = peak_rss_mb();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let reps = b.setup_s.len();
        if reps < SETUP_REPS && elapsed >= reps as f64 * b.opts.seconds / SETUP_REPS as f64 {
            let (engine, setup_s, build_ms) = set_up(b.setup_cfg);
            drop(engine);
            b.setup_s.push(setup_s);
            b.build_ms.push(build_ms);
        }
        let done = passes >= min_passes && t0.elapsed().as_secs_f64() >= b.opts.seconds;
        if done && (!trace || passes % 2 == 0) {
            break;
        }
    }
}

/// The per-layer split of a traced solo or serve run.
/// `overhead` is the traced passes' slowdown over the untraced ones.
fn trace_metrics(b: &mut Bench, overhead: Option<f64>) {
    let totals = b.tracer.totals();
    let count = |name: &str| b.tracer.spans().iter().filter(|s| s.name == name).count() as u64;
    let t = |name: &str| totals.get(name).copied().unwrap_or(0);
    let c = &b.counts;
    let q = c.queries;
    let cold = per(t("engine.exec_cold"), count("engine.exec_cold"), 1e6);
    let warm = per(t("engine.exec_warm"), count("engine.exec_warm"), 1e6);
    let sql = per(t("relational.sql"), q, 1e6);
    let lift = per(t("wrapper.lift"), q, 1e6);
    let transfer_us = per(t("netsim.transfer"), q, 1e3);
    let counts = [
        ("planner.services", c.services),
        ("planner.merged_services", c.merged_services),
        ("planner.engine_operators", c.engine_operators),
        ("relational.index_probes", c.index_probes),
        ("wrapper.rows_lifted", c.rows_lifted),
        ("netsim.messages", c.messages),
        ("netsim.rows_transferred", c.rows_transferred),
        ("operators.join_probes", c.join_probes),
        ("operators.filter_evals", c.filter_evals),
    ];
    let examined = (c.rows_output > 0).then(|| c.rows_examined as f64 / c.rows_output as f64);
    for (name, v) in counts {
        b.metric(name, per(v, q, 1.0), "count");
    }
    b.metric("relational.rows_examined_per_row", examined, "ratio");
    let (parse, plan) = if b.opts.workload == Workload::ServeOpen {
        // Parsing and planning run inside `build_jobs` (plancache.build_jobs_ms).
        (Some(0.0), Some(0.0))
    } else {
        (
            per(t("sparql.parse"), q, 1e3),
            per(t("planner.plan"), q, 1e3),
        )
    };
    b.metric("sparql.parse_us", parse, "us");
    b.metric("planner.plan_us", plan, "us");
    b.metric("relational.sql_ms", sql, "ms");
    b.metric("wrapper.lift_ms", lift, "ms");
    b.metric("netsim.transfer_us", transfer_us, "us");
    b.metric("engine.exec_cold_ms", cold, "ms");
    b.metric("engine.exec_warm_ms", warm, "ms");
    let residual = (|| Some(cold? - warm? - sql? - lift?))();
    b.metric("engine.cold_residual_ms", residual, "ms");
    b.metric(
        "operators.residual_ms",
        (|| Some(warm? - transfer_us? / 1e3))(),
        "ms",
    );
    b.metric("trace.overhead_frac", overhead, "frac");
    if b.opts.workload != Workload::ServeOpen {
        for name in [
            "plancache.hit_rate",
            "plancache.misses",
            "plancache.evictions",
        ] {
            b.metric(
                name,
                Some(0.0),
                if name.ends_with("rate") {
                    "frac"
                } else {
                    "count"
                },
            );
        }
        b.metric("plancache.build_jobs_ms", Some(0.0), "ms");
    }
}

/// The serve-only layer metrics read zero on the solo workloads.
fn serve_layer_zeros(b: &mut Bench) {
    for r in RATES {
        for (name, unit) in SERVE_RATE_METRICS {
            b.metric(format!("{name}.r{r}"), Some(0.0), unit);
        }
    }
    b.metric("serve.sim_capacity_jobs_per_s", Some(0.0), "jobs/s");
}

const SERVE_RATE_METRICS: [(&str, &str); 6] = [
    ("serve.host_ms_per_job", "ms"),
    ("serve.solo_ratio", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.jain", "index"),
    ("serve.sim_p50_ms", "ms"),
    ("serve.sim_p90_ms", "ms"),
];

/// One rate's runs.
#[derive(Debug, Default)]
struct RateRuns {
    /// Host ms per job of each untraced run (`build_jobs` + `serve`).
    host_ms_per_job: Vec<f64>,
    /// The same, of each traced run.
    traced_ms_per_job: Vec<f64>,
    /// The first run's outcome, for the sim metrics.
    served: Vec<Served>,
    /// The first run's answers per job (checked against the oracle).
    answers: Vec<u64>,
    first_answers: Vec<Duration>,
    /// `serve` host time over the solo warm host time, per traced run.
    solo_ratio: Vec<f64>,
    jain: f64,
    plan_cache: (u64, u64, u64, u64),
    build_jobs_ms: Vec<f64>,
}

/// `serve_open`.
fn serve_workload(b: &mut Bench) {
    let cfg = config(
        PlanMode::AWARE,
        NetworkProfile::GAMMA1,
        1,
        b.opts.link_seed,
        true,
        true,
    );
    let mut runs: Vec<RateRuns> = RATES.iter().map(|_| RateRuns::default()).collect();
    let mut checked_solo = false;
    let mut pass = |b: &mut Bench, runs: &mut [RateRuns]| {
        for (i, &rate) in RATES.iter().enumerate() {
            let spec = ServeSpec {
                clients: SERVE_CLIENTS,
                queries_per_client: SERVE_QUERIES_PER_CLIENT,
                seed: b.opts.serve_seed,
                mean_interarrival: Duration::from_secs(1) / rate,
                max_in_flight: 8,
                deadline: None,
                ..Default::default()
            };
            let qid = b.qid();
            let lake = b.tracer.time("lake.clone", qid, None, || b.lake.clone());
            let engine = FederatedEngine::new(lake, cfg);
            let t0 = Instant::now();
            let run = b.tracer.begin("serve.run", qid, None);
            let built = b.tracer.time("plancache.build_jobs", qid, Some(run), || {
                build_jobs(&engine, &spec)
            });
            let built_ms = ms(t0.elapsed());
            let served = built.and_then(|(jobs, inst)| {
                let sc = spec.serve_config();
                let t = Instant::now();
                let o = b
                    .tracer
                    .time("serve.serve", qid, Some(run), || engine.serve(&jobs, &sc));
                o.map(|o| (jobs, inst, o, t.elapsed()))
            });
            b.tracer.end(run);
            let host = t0.elapsed();
            let (jobs, instances, outcome, serve_host) = match served {
                Ok(x) => x,
                Err(e) => {
                    b.out.attempted += SERVE_JOBS as u64;
                    b.out.failed += SERVE_JOBS as u64;
                    b.error(format!("serve at rate {rate} failed: {e}"));
                    continue;
                }
            };
            let r = &mut runs[i];
            let per_job = ms(host) / jobs.len() as f64;
            if b.tracer.enabled() {
                r.traced_ms_per_job.push(per_job);
            } else {
                r.host_ms_per_job.push(per_job);
            }
            r.build_jobs_ms.push(built_ms);
            check_served(b, r, &instances, &outcome, rate);
            let s = engine.plan_cache_stats();
            let pc = &mut runs[i].plan_cache;
            *pc = (
                pc.0 + s.lookups,
                pc.1 + s.hits,
                pc.2 + s.misses,
                pc.3 + s.evictions,
            );
            if b.tracer.enabled() || !checked_solo {
                solo_compare(
                    b,
                    &mut runs[i],
                    &cfg,
                    &jobs,
                    &instances,
                    &outcome,
                    serve_host,
                );
            }
        }
        checked_solo = true;
    };
    let min_passes = if b.opts.trace { 2 } else { SERVE_MIN_PASSES };
    measure(b, &mut runs[..], min_passes, &mut pass);
    let served: Vec<(f64, Vec<Served>)> = RATES
        .iter()
        .zip(&runs)
        .map(|(r, x)| (f64::from(*r), x.served.clone()))
        .collect();
    if b.opts.trace {
        let overhead = slowdown(
            &cell_means(runs.iter().map(|x| &x.host_ms_per_job)),
            &cell_means(runs.iter().map(|x| &x.traced_ms_per_job)),
        );
        trace_metrics(b, overhead);
        let (mut lookups, mut hits, mut misses, mut evictions) = (0, 0, 0, 0);
        for (r, x) in RATES.iter().zip(&runs) {
            let waits: Vec<f64> = x
                .served
                .iter()
                .map(|s| ms(s.admitted - s.arrival))
                .collect();
            let lat: Vec<f64> = x.served.iter().map(|s| ms(s.latency)).collect();
            b.metric(
                format!("serve.host_ms_per_job.r{r}"),
                mean(&x.host_ms_per_job),
                "ms",
            );
            b.metric(
                format!("serve.solo_ratio.r{r}"),
                median(&x.solo_ratio),
                "ratio",
            );
            b.metric(
                format!("serve.queue_wait_ms_p50.r{r}"),
                median(&waits),
                "ms",
            );
            b.metric(format!("serve.jain.r{r}"), Some(x.jain), "index");
            b.metric(format!("serve.sim_p50_ms.r{r}"), median(&lat), "ms");
            b.metric(
                format!("serve.sim_p90_ms.r{r}"),
                latency_tail_ms(&x.served),
                "ms",
            );
            lookups += x.plan_cache.0;
            hits += x.plan_cache.1;
            misses += x.plan_cache.2;
            evictions += x.plan_cache.3;
        }
        let passes =
            (runs[0].host_ms_per_job.len() + runs[0].traced_ms_per_job.len()).max(1) as f64;
        b.metric(
            "serve.sim_capacity_jobs_per_s",
            Some(capacity(&served, SERVE_TAIL_LIMIT_MS)),
            "jobs/s",
        );
        b.metric(
            "plancache.hit_rate",
            (lookups > 0).then(|| hits as f64 / lookups as f64),
            "frac",
        );
        b.metric("plancache.misses", Some(misses as f64 / passes), "count");
        b.metric(
            "plancache.evictions",
            Some(evictions as f64 / passes),
            "count",
        );
        let build: Vec<f64> = runs
            .iter()
            .filter_map(|x| median(&x.build_jobs_ms))
            .collect();
        b.metric("plancache.build_jobs_ms", Some(build.iter().sum()), "ms");
        return;
    }
    // Each host sample is a whole `serve` run of about a second, which
    // already averages over the host's speed changes, so a rate's figure
    // is its mean rather than its fastest run (see NOTES.md).
    let means = cell_means(runs.iter().map(|x| &x.host_ms_per_job));
    let samples: Vec<f64> = runs
        .iter()
        .flat_map(|x| x.host_ms_per_job.iter().copied())
        .collect();
    let latency: Vec<f64> = runs
        .iter()
        .flat_map(|x| x.served.iter().map(|s| ms(s.latency)))
        .collect();
    let first: Vec<f64> = runs
        .iter()
        .flat_map(|x| x.first_answers.iter().map(|d| ms(*d)))
        .collect();
    // Every sample is `SERVE_JOBS` jobs: jobs ÷ host seconds of all runs.
    b.metric(
        "host_queries_per_s",
        mean(&samples).map(|ms_per_job| 1e3 / ms_per_job),
        "queries/s",
    );
    b.metric("host_query_ms_gmean", geomean(&means), "ms");
    // No per-job host samples exist outside the engine: the tail is the
    // costliest rate's mean.
    b.metric(
        "host_query_ms_p95",
        means.iter().copied().reduce(f64::max),
        "ms",
    );
    b.metric("sim_exec_ms_gmean", geomean(&latency), "ms");
    b.metric("sim_first_answer_ms_gmean", geomean(&first), "ms");
}

/// Checks one serve run's answers against the oracle and its simulated
/// schedule against the rate's first run.
fn check_served(
    b: &mut Bench,
    r: &mut RateRuns,
    instances: &[fedlake_serve::InstantiatedQuery],
    outcome: &ServeOutcome,
    rate: u32,
) {
    let first_run = r.served.is_empty();
    let mut served = Vec::with_capacity(outcome.outcomes.len());
    let mut first = Vec::new();
    let mut answers = Vec::with_capacity(outcome.outcomes.len());
    for (o, inst) in outcome.outcomes.iter().zip(instances) {
        b.out.attempted += 1;
        if !o.completed() {
            b.out.failed += 1;
            continue;
        }
        if first_run {
            if let Err(e) = b.digests.check(&inst.sparql, &o.vars, &o.rows) {
                b.error(format!("served {} at rate {rate}: {e}", o.label));
            }
        }
        answers.push(repeat_fingerprint(&o.vars, &o.rows));
        served.push(Served {
            arrival: o.arrival,
            admitted: o.admitted,
            latency: o.latency,
        });
        first.extend(o.first_answer);
    }
    if first_run {
        r.served = served;
        r.first_answers = first;
        r.answers = answers;
        r.jain = ServeReport::from_outcome(outcome).jain;
    } else if r.served != served || r.first_answers != first {
        b.error(format!(
            "serve at rate {rate}: simulated schedule differs between passes"
        ));
    } else if r.answers != answers {
        b.error(format!(
            "serve at rate {rate}: answers differ between passes"
        ));
    }
}

/// Runs the served jobs one at a time on a fresh overlapped engine and
/// checks each answer set against the served one. A traced pass runs
/// every job twice (cold, then warm), replays each job's source work and
/// records the `serve` to solo-warm host ratio; an untraced pass checks
/// each distinct instance once.
#[allow(clippy::too_many_arguments)]
fn solo_compare(
    b: &mut Bench,
    r: &mut RateRuns,
    cfg: &PlanConfig,
    jobs: &[fedlake_core::ServeJob],
    instances: &[fedlake_serve::InstantiatedQuery],
    outcome: &ServeOutcome,
    serve_host: Duration,
) {
    let traced = b.tracer.enabled();
    let session = b.qid();
    let lake = b
        .tracer
        .time("lake.clone", session, None, || b.lake.clone());
    let engine = FederatedEngine::new(lake, *cfg);
    let mut warm_total = Duration::ZERO;
    let mut seen = std::collections::BTreeSet::new();
    let sweeps: &[(bool, &str)] = if traced {
        &[(false, "engine.exec_cold"), (true, "engine.exec_warm")]
    } else {
        &[(false, "")]
    };
    for &(warm, span) in sweeps {
        for ((job, inst), served) in jobs.iter().zip(instances).zip(&outcome.outcomes) {
            if !traced && !seen.insert(&inst.sparql) {
                continue;
            }
            let qid = b.qid();
            let t0 = Instant::now();
            let res = b
                .tracer
                .time(span, qid, None, || engine.execute_planned(&job.planned));
            if warm {
                warm_total += t0.elapsed();
            }
            let res = match res {
                Ok(res) => res,
                Err(e) => {
                    b.error(format!("solo {}: {e}", inst.label));
                    continue;
                }
            };
            if !warm {
                let want = crate::oracle::answer_digest(&served.vars, &served.rows);
                if crate::oracle::answer_digest(&res.vars, &res.rows) != want {
                    b.error(format!(
                        "{}: served answers differ from its solo run",
                        inst.label
                    ));
                }
            } else {
                let e = &served.stats.engine;
                b.count_plan(&job.planned, e.engine_join_probes, e.engine_filter_evals);
                b.replay(qid, &job.planned, e.service_rows, cfg);
            }
        }
    }
    if traced && !warm_total.is_zero() {
        r.solo_ratio
            .push(serve_host.as_secs_f64() / warm_total.as_secs_f64());
    }
}
