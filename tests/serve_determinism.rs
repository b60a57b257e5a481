//! Determinism contract of the serving layer.
//!
//! A serve run is a pure function of its seeds: the same [`ServeSpec`]
//! over the same lake reproduces byte-identical per-query answers,
//! per-session statistics, latencies, the metrics rollup and the summary
//! report. A *different* seed produces a different interleaving — but
//! every query's answer set still byte-matches its solo execution,
//! because contention moves answers in time, never across queries.
//!
//! Also pins the PR 7 lift-cache regression: the engine-persistent lift
//! cache is keyed by the schema's *slot-layout fingerprint* (not the
//! schema `Arc`'s address, which the allocator may reuse after a plan is
//! dropped), so cached and uncached sessions can interleave freely while
//! the reference executor stays cold.

use fedlake_core::{FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_serve::{run, solo_golden, sorted_csv, Mix, ServeSpec};
use fedlake_sparql::parser::parse_query;
use std::time::Duration;

fn spec(seed: u64) -> ServeSpec {
    ServeSpec {
        clients: 6,
        queries_per_client: 2,
        mix: Mix::default(),
        seed,
        mean_interarrival: Duration::from_micros(500),
        max_in_flight: 4,
        deadline: None,
    }
}

fn config() -> PlanConfig {
    let mut c = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
    c.seed = 1;
    c
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let s = spec(21);
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &s.mix.datasets());

    let a = run(&FederatedEngine::new(lake.clone(), config()), &s).unwrap();
    let b = run(&FederatedEngine::new(lake.clone(), config()), &s).unwrap();

    assert_eq!(a.instances, b.instances, "same seed must instantiate the same workload");
    assert_eq!(a.outcome.outcomes.len(), b.outcome.outcomes.len());
    for (x, y) in a.outcome.outcomes.iter().zip(&b.outcome.outcomes) {
        assert_eq!(x.label, y.label);
        assert_eq!(
            sorted_csv(&x.vars, &x.rows),
            sorted_csv(&y.vars, &y.rows),
            "{}: answers must be byte-identical across reruns",
            x.label
        );
        assert_eq!(x.stats, y.stats, "{}: per-session stats must match", x.label);
        assert_eq!(
            (x.arrival, x.admitted, x.finish, x.latency, x.first_answer),
            (y.arrival, y.admitted, y.finish, y.latency, y.first_answer),
            "{}: per-session timings must match",
            x.label
        );
        assert!(x.error.is_none(), "{}: fault-free run must complete: {:?}", x.label, x.error);
    }
    assert_eq!(a.outcome.makespan, b.outcome.makespan);
    assert_eq!(
        a.outcome.metrics.render(),
        b.outcome.metrics.render(),
        "server rollup must be byte-identical"
    );
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn every_seed_matches_the_solo_golden() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &Mix::default().datasets());
    let mut latency_sets = Vec::new();
    for seed in [3u64, 17] {
        let s = spec(seed);
        let r = run(&FederatedEngine::new(lake.clone(), config()), &s).unwrap();
        for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
            assert!(out.completed(), "{}: fault-free serve must complete", out.label);
            let golden = solo_golden(&lake, config(), &inst.sparql).unwrap();
            assert_eq!(
                sorted_csv(&out.vars, &out.rows),
                sorted_csv(&golden.vars, &golden.rows),
                "{}: served answers must byte-match the solo execution",
                out.label
            );
        }
        latency_sets.push(
            r.outcome.outcomes.iter().map(|o| (o.label.clone(), o.latency)).collect::<Vec<_>>(),
        );
    }
    assert_ne!(
        latency_sets[0], latency_sets[1],
        "different seeds must produce different interleavings"
    );
}

/// The lift cache must survive plans being dropped and re-created while
/// other sessions (with other schemas) run in between: its key is the
/// schema's slot-layout fingerprint, so a reused allocation can never
/// serve wrongly-slotted columns. Both schedules share the cache, so the
/// loop alternates them: entries one schedule warms, the other reads.
/// Each engine execution is compared to a fresh-engine golden, and the
/// reference executor — which never touches the cache — must agree
/// throughout.
#[test]
fn lift_cache_sessions_interleave_safely() {
    let lake_cfg = LakeConfig { scale: 0.05, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &Mix::default().datasets());
    let mut engine = FederatedEngine::new(lake.clone(), config());

    // Interleave two plan shapes that share a source (Q3 and Q5 both
    // read Diseasome) across repeated plan/execute/drop cycles, warming
    // and re-hitting the cache under allocator reuse. The schedule runs
    // serialized, overlapped, overlapped, serialized per four cycles:
    // Q3 is warmed serialized and re-read overlapped, Q5 the other way.
    for i in 0..8 {
        let q = if i % 2 == 0 { workload::q3() } else { workload::q5() };
        let mut cfg = config();
        cfg.overlap = matches!(i % 4, 1 | 2);
        engine.set_config(cfg);
        let ast = parse_query(&q.sparql).unwrap();
        let planned = engine.plan(&ast).unwrap();
        let warm = engine.execute_planned(&planned).unwrap();
        let golden = solo_golden(&lake, cfg, &q.sparql).unwrap();
        let overlap = cfg.overlap;
        assert_eq!(
            sorted_csv(&warm.vars, &warm.rows),
            sorted_csv(&golden.vars, &golden.rows),
            "{} iteration {i} (overlap={overlap}): cached session must match a cold engine",
            q.id
        );
        assert_eq!(
            warm.stats, golden.stats,
            "{} iteration {i} (overlap={overlap}): a cache hit must re-charge identical simulated cost",
            q.id
        );
        // The reference executor stays cold by construction: it never
        // consults the engine's lift cache, and must still agree.
        let reference = engine.execute_planned_reference(&planned).unwrap();
        assert_eq!(
            sorted_csv(&warm.vars, &warm.rows),
            sorted_csv(&reference.vars, &reference.rows),
            "{} iteration {i}: reference executor must agree while the cache is warm",
            q.id
        );
    }

    // A serve run on the same (warm) engine mixes cached and uncached
    // sessions; every answer still matches a cold solo run.
    engine.set_config(config());
    let s = spec(5);
    let r = run(&engine, &s).unwrap();
    for (inst, out) in r.instances.iter().zip(&r.outcome.outcomes) {
        let golden = solo_golden(&lake, config(), &inst.sparql).unwrap();
        assert_eq!(
            sorted_csv(&out.vars, &out.rows),
            sorted_csv(&golden.vars, &golden.rows),
            "{}: warm-engine serve must match cold solo execution",
            out.label
        );
    }
}

/// `FEDLAKE_SERVE=1` smoke: the fixed-seed mini-load tier-1 runs. Small
/// N, one pass, asserts the rollup adds up — fast enough for every gate.
#[test]
fn serve_smoke() {
    if std::env::var("FEDLAKE_SERVE").map(|v| v != "1").unwrap_or(false) {
        return;
    }
    let s = ServeSpec {
        clients: 4,
        queries_per_client: 1,
        seed: 7,
        mean_interarrival: Duration::from_millis(1),
        max_in_flight: 2,
        ..Default::default()
    };
    let lake_cfg = LakeConfig { scale: 0.02, ..Default::default() };
    let lake = build_lake_with(&lake_cfg, &s.mix.datasets());
    let r = run(&FederatedEngine::new(lake, config()), &s).unwrap();
    assert_eq!(r.report.jobs, 4);
    assert_eq!(r.report.completed, 4);
    assert_eq!(
        r.outcome.metrics.counter("serve.admitted"),
        r.report.completed + r.report.timeouts + r.report.degraded + r.report.failed
    );
    assert!(r.report.jain > 0.0 && r.report.jain <= 1.0 + 1e-12);
}
