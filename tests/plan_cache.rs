//! The normalized-plan cache's correctness contract.
//!
//! A cache hit must be invisible except for speed: the replayed
//! [`PlannedQuery`] is byte-identical to what cold planning would have
//! produced, across the workload, both planning strategies, both join
//! schedules and replicated lakes. Mutating the catalog, drifting the
//! statistics or flipping an endpoint's health must invalidate exactly
//! the affected entries — and nothing else. The serving layer reuses
//! plans across runs on the same engine and reports the cache counters
//! in its metrics rollup.

use fedlake_core::obs::Metric;
use fedlake_core::{DataLake, DataSource, FedError, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_rdf::{Graph, Term};
use fedlake_serve::{run, sorted_csv, Mix, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

fn lake_cfg() -> LakeConfig {
    LakeConfig { scale: 0.1, ..Default::default() }
}

fn config(cost_based: bool, overlap: bool, plan_cache: bool) -> PlanConfig {
    let mut cfg = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    cfg.seed = 1;
    cfg.cost_based = cost_based;
    cfg.overlap = overlap;
    cfg.plan_cache = plan_cache;
    cfg
}

// --- byte-identity of replayed plans ---------------------------------------

/// The workload × {heuristic, cost-based} × {serialized, overlapped} ×
/// {1, 2 replicas} matrix: the second plan of every query is a cache
/// hit and its `Debug` rendering — routes, estimates, report and all —
/// is byte-identical to both the cold plan and a cache-off engine's.
#[test]
fn cache_hits_replay_byte_identical_plans() {
    for q in workload::experiment_queries() {
        for cost_based in [false, true] {
            for overlap in [false, true] {
                for replicas in [1u32, 2] {
                    let mut lake = build_lake_with(&lake_cfg(), q.datasets);
                    if replicas > 1 {
                        for id in q.datasets {
                            lake.set_replicas(*id, replicas);
                        }
                    }
                    let ast = parse_query(&q.sparql).unwrap();
                    let ctx = format!(
                        "{} cost={cost_based} overlap={overlap} replicas={replicas}",
                        q.id
                    );

                    let cached_engine = FederatedEngine::new(
                        lake.clone(),
                        config(cost_based, overlap, true),
                    );
                    let (cold, origin) = cached_engine.plan_cached(&ast).unwrap();
                    assert!(!origin.cached, "{ctx}: first plan must miss");
                    let (warm, origin) = cached_engine.plan_cached(&ast).unwrap();
                    assert!(origin.cached, "{ctx}: second plan must hit");
                    assert_eq!(warm, cold, "{ctx}: replay must be identical");
                    assert_eq!(
                        format!("{warm:?}"),
                        format!("{cold:?}"),
                        "{ctx}: replay must be byte-identical"
                    );

                    let off_engine =
                        FederatedEngine::new(lake, config(cost_based, overlap, false));
                    let (off, origin) = off_engine.plan_cached(&ast).unwrap();
                    assert!(!origin.cached, "{ctx}: cache off never hits");
                    // Structural equality across engines: the schema's
                    // index map renders in per-instance order, so the
                    // byte-level contract only binds the replay above.
                    assert_eq!(off, cold, "{ctx}: caching must not change what is planned");

                    let stats = cached_engine.plan_cache_stats();
                    assert_eq!(stats.lookups, 2, "{ctx}");
                    assert_eq!((stats.hits, stats.misses), (1, 1), "{ctx}");
                    assert_eq!(
                        off_engine.plan_cache_stats(),
                        Default::default(),
                        "{ctx}: cache off must not count lookups"
                    );
                }
            }
        }
    }
}

/// Executing a replayed plan produces the same answers, stats and
/// EXPLAIN body as the cold run, on both the streaming and the
/// vectorized executor.
#[test]
fn cached_execution_matches_cold_execution() {
    let q = workload::q3();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    for batch in [false, true] {
        for cost_based in [false, true] {
            let mut cfg = config(cost_based, true, true);
            cfg.batch = batch;
            let engine = FederatedEngine::new(lake.clone(), cfg);
            let cold = engine.execute_sparql(&q.sparql).unwrap();
            let warm = engine.execute_sparql(&q.sparql).unwrap();
            let ctx = format!("batch={batch} cost={cost_based}");
            assert_eq!(warm.rows, cold.rows, "{ctx}: answers");
            assert_eq!(warm.stats, cold.stats, "{ctx}: stats");
            assert!(
                cold.explain.contains("plan: cold["),
                "{ctx}: first EXPLAIN is cold:\n{}",
                cold.explain
            );
            assert!(
                warm.explain.contains("plan: cached["),
                "{ctx}: second EXPLAIN is cached:\n{}",
                warm.explain
            );
            let strip = |e: &str| {
                e.lines()
                    .filter(|l| !l.starts_with("plan: "))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(
                strip(&warm.explain),
                strip(&cold.explain),
                "{ctx}: EXPLAIN bodies must match"
            );
        }
    }
}

// --- invalidation ----------------------------------------------------------

/// Mutating a source bumps the lake epoch: the next plan is a miss that
/// replans against the refreshed catalog instead of replaying routes
/// over data that no longer exists.
#[test]
fn source_mutation_invalidates_the_entry() {
    let q = workload::q1();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false, true));

    engine.plan_cached(&ast).unwrap();
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached);

    // The mutable borrow alone bumps the lake epoch: whatever the caller
    // does with it, cached routes into the old catalog are suspect.
    engine.lake_mut().source_mut("chebi").expect("chebi exists");
    // Stale statistics refuse cost-based planning outright — the cache
    // cannot resurrect a plan the planner would no longer produce.
    assert!(matches!(
        engine.plan_cached(&ast),
        Err(FedError::StaleStatistics { .. })
    ));
    engine.lake_mut().refresh_templates();
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "the epoch moved: the entry must not replay");
    let stats = engine.plan_cache_stats();
    assert!(stats.invalidations >= 1, "{stats:?}");
    let (_, origin) = engine.plan_cached(&ast).unwrap();
    assert!(origin.cached, "the refreshed plan is cacheable again");
}

/// Mutating a source's data through the engine must also retire the
/// engine's lifted source results: the rerun sees the new triple under
/// both schedules, which share one lift cache.
#[test]
fn source_mutation_invalidates_lifted_results() {
    fn thing(n: u32) -> [Term; 3] {
        [
            Term::iri(format!("http://d/thing{n}")),
            Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            Term::iri("http://v/Thing"),
        ]
    }
    let query = "SELECT ?t WHERE { ?t a <http://v/Thing> . }";
    for overlap in [false, true] {
        let mut graph = Graph::new();
        let [s, p, o] = thing(0);
        graph.insert_terms(s, p, o);
        let mut lake = DataLake::new();
        lake.add_source(DataSource::sparql("things", graph));
        let mut engine = FederatedEngine::new(lake, config(false, overlap, false));
        assert_eq!(engine.execute_sparql(query).unwrap().rows.len(), 1, "overlap={overlap}");

        let Some(DataSource::Sparql { graph, .. }) = engine.lake_mut().source_mut("things")
        else {
            panic!("things is a SPARQL source")
        };
        let [s, p, o] = thing(1);
        graph.insert_terms(s, p, o);
        engine.lake_mut().refresh_templates();
        assert_eq!(
            engine.execute_sparql(query).unwrap().rows.len(),
            2,
            "overlap={overlap}: the rerun must see the inserted triple"
        );
    }
}

/// Catalog drift (statistics scaled after collection) bumps the epoch
/// too: the cached plan carries the old estimates and must not replay.
#[test]
fn statistics_drift_invalidates_the_entry() {
    let q = workload::q1();
    let lake = build_lake_with(&lake_cfg(), q.datasets);
    let ast = parse_query(&q.sparql).unwrap();
    let mut engine = FederatedEngine::new(lake, config(true, false, true));

    let (before, _) = engine.plan_cached(&ast).unwrap();
    engine
        .lake_mut()
        .statistics_mut()
        .source_mut("chebi")
        .expect("chebi statistics")
        .scale(1000);
    let (after, origin) = engine.plan_cached(&ast).unwrap();
    assert!(!origin.cached, "drifted statistics must not replay");
    assert!(
        after.report.estimated_rows > before.report.estimated_rows,
        "the replan must price the drifted catalog ({} vs {})",
        after.report.estimated_rows,
        before.report.estimated_rows
    );
}

/// A health flip invalidates exactly the entries whose plans touch the
/// flipped endpoint: the other query's entry revalidates and still
/// hits.
#[test]
fn health_flips_invalidate_only_affected_entries() {
    let lake = build_lake_with(&lake_cfg(), &["chebi", "drugbank"]);
    let q1 = parse_query(&workload::q1().sparql).unwrap(); // chebi only
    let q2 = parse_query(&workload::q2().sparql).unwrap(); // drugbank only
    let engine = FederatedEngine::new(lake, config(false, false, true));

    engine.plan_cached(&q1).unwrap();
    engine.plan_cached(&q2).unwrap();

    // Failures on chebi move the health generation *and* chebi's digest.
    engine.health().observe("chebi", 0, 9);

    let (_, origin) = engine.plan_cached(&q2).unwrap();
    assert!(origin.cached, "drugbank's plan never consulted chebi's health");
    let (_, origin) = engine.plan_cached(&q1).unwrap();
    assert!(!origin.cached, "chebi's plan must replan under the new health");

    let stats = engine.plan_cache_stats();
    assert_eq!(stats.lookups, 4, "{stats:?}");
    assert_eq!(stats.hits, 1, "{stats:?}");
    assert_eq!(stats.invalidations, 1, "{stats:?}");
}

// --- the serving layer -----------------------------------------------------

/// Serving the same spec twice on one cache-on engine: the second run's
/// jobs are all replays, every answer byte-matches the first run and a
/// cache-off engine, and the rollup's cache gauges reconcile with the
/// engine's counters.
#[test]
fn serve_runs_reuse_plans_without_changing_answers() {
    let spec = ServeSpec {
        clients: 8,
        queries_per_client: 2,
        mix: Mix::default(),
        seed: 21,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        deadline: None,
    };
    let lake = build_lake_with(&LakeConfig { scale: 0.05, ..Default::default() }, &spec.mix.datasets());

    let cached_engine = FederatedEngine::new(lake.clone(), config(false, false, true));
    let first = run(&cached_engine, &spec).unwrap();
    let second = run(&cached_engine, &spec).unwrap();
    let off = run(&FederatedEngine::new(lake, config(false, false, false)), &spec).unwrap();

    assert!(
        second.jobs.iter().all(|j| j.cached),
        "every second-run job replans a first-run query"
    );
    assert!(off.jobs.iter().all(|j| !j.cached));
    for ((a, b), c) in first
        .outcome
        .outcomes
        .iter()
        .zip(&second.outcome.outcomes)
        .zip(&off.outcome.outcomes)
    {
        assert_eq!(a.label, b.label);
        let csv = sorted_csv(&a.vars, &a.rows);
        assert_eq!(csv, sorted_csv(&b.vars, &b.rows), "{}: across runs", a.label);
        assert_eq!(csv, sorted_csv(&c.vars, &c.rows), "{}: vs cache off", a.label);
        assert_eq!(a.stats, b.stats, "{}", a.label);
    }
    assert_eq!(first.report, second.report, "the rollup is cache-invariant");

    let stats = cached_engine.plan_cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    assert!(stats.hits as usize >= second.jobs.len(), "{stats:?}");
    let gauge = |name: &str| match second.outcome.metrics.get(name) {
        Some(Metric::Gauge { last, .. }) => last,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(gauge("serve.plancache.lookups"), stats.lookups, "{stats:?}");
    assert_eq!(gauge("serve.plancache.hits"), stats.hits, "{stats:?}");
    assert_eq!(gauge("serve.plancache.misses"), stats.misses, "{stats:?}");
    let job_hits = second.outcome.metrics.counter("serve.plancache.job_hits");
    assert_eq!(job_hits as usize, second.jobs.len(), "all second-run jobs hit");
    assert!(
        !off.outcome
            .metrics
            .iter()
            .any(|(name, _)| name.starts_with("serve.plancache.")),
        "cache-off rollups must not mention the cache"
    );
}
