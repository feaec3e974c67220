//! `adhoc_read`: one-shot reads beside writes.
//!
//! A §5 fleet with no standing queries. One connection sends an
//! open-loop mix of one-shot statements; query objects come mostly from
//! a hot set that fits the 128-engine cache and sometimes from the whole
//! fleet, which misses it. A second connection sends random §5 updates,
//! each bumping the epoch, so reads pay for snapshot patching, cache
//! carry or rebuild, planning, envelopes and the one-shot kernel.

use std::sync::Arc;
use std::time::Instant;

use unn_core::kernel::ColumnKernel;
use unn_modb::net::{NetClient, NetServer, WireOutput};
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::ql::parse_statement;
use unn_modb::server::{ModServer, QueryOutput};
use unn_modb::subscription::PROB_ROW_SAMPLES;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

use crate::common::*;
use crate::layers::LayerValues;
use crate::stats::{median, ms, ratio, tail, us, Report};

const FLEET: usize = 400;
/// Hot query objects: one forward engine each, well inside the
/// server's 128-entry engine cache. Four queries in five go to them.
const HOT: usize = 16;
const QUERY_RATE: f64 = 6.0;
const WRITE_RATE: f64 = 2.0;
/// Closed-loop writes of the `write_ops_s` burst: half before the open
/// loop (a replacement and its restore per object), half after it.
const BURST: usize = 24_000;
const BURST_CHUNK: usize = 1000;
/// Statements of the stream re-checked against a fresh exhaustive
/// evaluation after the run: the first few of each kind.
const CHECKED_PER_KIND: usize = 2;
const KINDS: usize = 5;
/// Open-loop statements the traced run replays (the first ones, with
/// the writes due before them), half before the wire phase and half
/// after it.
const REPLAYED: usize = 90;

/// Statement kind `k` on query object `q`; `at` is the `AT` instant.
fn statement(kind: usize, q: Oid, at: f64) -> String {
    let q = q.0;
    match kind {
        0 => format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0"),
        1 => format!("SELECT * FROM MOD WHERE ATLEAST 50% OF TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0"),
        2 => format!("SELECT * FROM MOD WHERE AT {at:.1} TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0"),
        3 => format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME, RANK 2) > 0"),
        _ => format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0.3"),
    }
}

/// The query and write schedules. Writes fall due halfway between two
/// queries: a write sent at the same instant as a query races that
/// query's dispatch on a two-core host, and its ack takes one of two
/// modes (≈0.45 or ≈1.1 ms) by which one the server serves first.
fn schedules() -> (Schedule, Schedule) {
    let q = Schedule::new(QUERY_RATE);
    let w = Schedule {
        start: q.start + q.interval / 2,
        interval: std::time::Duration::from_secs_f64(1.0 / WRITE_RATE),
    };
    (q, w)
}

struct Query {
    kind: usize,
    oid: Oid,
    text: String,
}

/// The hot set: the query objects whose prefiltered candidate count is
/// nearest the fleet's median, so hot queries cost alike in every run.
fn hot_set(fleet: &[UncertainTrajectory]) -> Vec<Oid> {
    let snapshot = Arc::new(unn_modb::snapshot::QuerySnapshot::new(0, fleet.to_vec()));
    let planner = QueryPlanner::default();
    let mut by_band: Vec<(usize, Oid)> = fleet
        .iter()
        .map(|tr| {
            let plan = planner.plan(Arc::clone(&snapshot), tr.oid(), window());
            (plan.map(|p| p.candidate_count()).unwrap_or(0), tr.oid())
        })
        .collect();
    by_band.sort();
    by_band[(fleet.len() - HOT) / 2..][..HOT]
        .iter()
        .map(|(_, o)| *o)
        .collect()
}

/// The run's inputs. Queries come in blocks of five, one of each kind
/// in a seeded order (threshold last); four of a block go to the hot
/// set (cycling
/// through it) and one to an object drawn from the whole fleet, which
/// keeps the mix of kinds and of cache hits alike across seeds. Writes
/// replace a seeded object with a fresh §5 trajectory.
fn streams(
    seed: u64,
    hot: &[Oid],
    n_queries: usize,
    n_writes: usize,
) -> (Vec<Query>, Vec<UncertainTrajectory>) {
    let mut rng = Rng::new(seed, 1);
    let mut order = Vec::new();
    let mut cold_slot = 0;
    let queries = (0..n_queries)
        .map(|i| {
            if order.is_empty() {
                // The threshold kind (the heaviest) closes every block,
                // so no seed lines two of them up back to back.
                order = vec![KINDS - 1];
                order.extend(rng.distinct(KINDS - 1, KINDS - 1));
                cold_slot = rng.below(KINDS);
            }
            let kind = order.pop().expect("refilled");
            let oid = if order.len() == cold_slot {
                Oid(rng.below(FLEET) as u64)
            } else {
                hot[(i * 4 / KINDS) % hot.len()]
            };
            let at = 60.0 * rng.unit();
            Query {
                kind,
                oid,
                text: statement(kind, oid, at),
            }
        })
        .collect();
    let mut rng = Rng::new(seed, 2);
    let writes = (0..n_writes)
        .map(|_| {
            let oid = Oid(rng.below(FLEET) as u64);
            let fresh = fleet(1, rng.next_u64(), 0).remove(0);
            with_oid(&fresh, oid)
        })
        .collect();
    (queries, writes)
}

struct Setup {
    server: Arc<ModServer>,
    net: NetServer,
    reader: NetClient,
    writer: NetClient,
}

impl Setup {
    /// Loads the fleet, connects, and warms the hot set's engines.
    fn new(queries: &[Query], report: &mut Report) -> Setup {
        let server = Arc::new(ModServer::new());
        server
            .register_all(fleet(FLEET, FLEET_SEED, 0))
            .expect("fleet registers");
        let net = bind(&server);
        let mut reader = NetClient::connect(net.local_addr()).expect("reader connects");
        let mut writer = NetClient::connect(net.local_addr()).expect("writer connects");
        warm(&mut reader, queries, report);
        rtt(&mut writer);
        Setup {
            server,
            net,
            reader,
            writer,
        }
    }

    fn close(self) {
        let _ = self.reader.close();
        let _ = self.writer.close();
        self.net.shutdown();
    }
}

/// Builds the hot set's engines: the first `EXISTS` statement on each
/// hot object.
fn warm(reader: &mut NetClient, queries: &[Query], report: &mut Report) {
    let mut warmed = std::collections::BTreeSet::new();
    for q in queries.iter().filter(|q| q.kind == 0) {
        if warmed.insert(q.oid) && warmed.len() <= HOT {
            check(report, "warm-up query", reader.execute(&q.text));
        }
    }
}

fn same(wire: &WireOutput, local: &QueryOutput) -> bool {
    match (wire, local) {
        (WireOutput::Objects(a), QueryOutput::Objects(b)) => a == b,
        (WireOutput::Boolean(a), QueryOutput::Boolean(b)) => a == b,
        _ => false,
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let n_q = (QUERY_RATE * seconds as f64).round() as usize;
    let n_w = (WRITE_RATE * seconds as f64).round() as usize;
    let loaded = fleet(FLEET, FLEET_SEED, 0);
    let hot = hot_set(&loaded);
    let (queries, writes) = streams(seed, &hot, n_q, n_w + BURST / 4 + BURST / 2);
    let reps = if trace { 1 } else { crate::SETUP_REPS / 2 };
    let mut setup_s = Vec::new();
    let mut live: Option<Setup> = None;
    for _ in 0..reps {
        // The previous set-up goes first, so each one starts from the
        // same process state.
        if let Some(old) = live.take() {
            old.close();
        }
        let t0 = Instant::now();
        live = Some(Setup::new(&queries, report));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        net,
        mut reader,
        mut writer,
    } = live.expect("at least one setup");
    let replay = trace.then(|| {
        let mut r = Replay::new(&queries[..n_q.min(REPLAYED)], &writes[..n_w], report);
        r.run_to(REPLAYED / 2, report);
        r
    });
    // The first half of the write burst, before the open loop, so that
    // `write_ops_s` spans the run's stretch of host time. Each write
    // there replaces an object and the next restores it, so the open
    // loop starts from the loaded fleet; the hot set is warmed again.
    let base_epoch = server.store().epoch();
    let (mut burst_rates, mut burst_ok) = burst(BURST / 2, BURST_CHUNK, |i| {
        let tr = &writes[n_w + i / 2];
        let tr = if i % 2 == 0 {
            tr
        } else {
            &loaded[tr.oid().0 as usize]
        };
        writer.update(tr.clone()).is_ok()
    });
    warm(&mut reader, &queries, report);
    let cache0 = server.cache_stats();
    let delta0 = server.store().delta_stats();

    let (q_schedule, w_schedule) = schedules();
    let mut q_late = Lateness::default();
    let mut w_late = Lateness::default();
    let mut rtt_us = Vec::new();
    let (q_ops, w_ops) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            let writer = &std::cell::RefCell::new(&mut writer);
            open_loop(
                n_w,
                &w_schedule,
                &mut w_late,
                |i| writer.borrow_mut().update(writes[i].clone()).is_ok(),
                // One query interval after a write is the next midpoint
                // between queries, where the writes land too.
                |i| {
                    let w = &mut writer.borrow_mut();
                    probe(trace, &w_schedule, i, q_schedule.interval, w, &mut rtt_us)
                },
            )
        });
        let q_ops = open_loop(
            n_q,
            &q_schedule,
            &mut q_late,
            |i| reader.execute(&queries[i].text).is_ok(),
            |_| {},
        );
        (q_ops, w.join().expect("writer thread"))
    });
    let q_late_us = median(&q_late.late_ms) * 1e3;
    let w_late_us = median(&w_late.late_ms) * 1e3;
    q_late.late_ms.append(&mut w_late.late_ms);
    let cache1 = server.cache_stats();
    let delta1 = server.store().delta_stats();
    let (after, ok) = burst(BURST / 2, BURST_CHUNK, |i| {
        writer.update(writes[n_w + BURST / 4 + i].clone()).is_ok()
    });
    burst_rates.extend(after);
    burst_ok += ok;

    // Correctness gates, outside the timed section.
    report.attempted += (n_q + n_w + BURST) as u64;
    for op in q_ops.iter().chain(&w_ops).filter(|o| !o.ok) {
        report.fail(format!(
            "op due at +{:.0}ms failed",
            ms(op.due - q_schedule.start)
        ));
    }
    for _ in burst_ok..BURST {
        report.fail("burst write failed".into());
    }
    let final_epoch = server.store().epoch();
    if final_epoch != base_epoch + (n_w + BURST) as u64 {
        report.fail(format!(
            "epoch {final_epoch} != {base_epoch} + {} writes",
            n_w + BURST
        ));
    }
    let reference = ModServer::with_policy(PrefilterPolicy::Exhaustive);
    reference
        .register_all(server.store().snapshot().to_vec())
        .expect("reference loads");
    for kind in 0..KINDS {
        for q in queries
            .iter()
            .filter(|q| q.kind == kind)
            .take(CHECKED_PER_KIND)
        {
            report.attempted += 1;
            let wire = reader.execute(&q.text);
            let local = reference.execute(&q.text);
            match (&wire, &local) {
                (Ok(w), Ok(l)) if same(w, l) => {}
                _ => report.fail(format!(
                    "`{}`: wire {wire:?} vs fresh exhaustive {local:?}",
                    q.text
                )),
            }
        }
    }

    let query_ms: Vec<f64> = q_ops.iter().map(|o| ms(o.done - o.due)).collect();
    let write_ms: Vec<f64> = w_ops.iter().map(|o| ms(o.done - o.due)).collect();
    let pct = tail(&query_ms).1;
    let write_pct = tail(&write_ms).1;
    let span = q_ops
        .last()
        .map(|o| o.sent - q_schedule.start)
        .unwrap_or_default();
    report.meta(
        "offered_ops_s",
        format!("{QUERY_RATE} queries + {WRITE_RATE} writes"),
    );
    report.meta(
        "achieved_query_ops_s",
        format!(
            "{:.3}",
            ratio(n_q.saturating_sub(1) as f64, span.as_secs_f64())
        ),
    );
    report.meta("queries", n_q);
    report.meta("writes", n_w);
    report.meta("tail_percentile", pct);
    report.meta("write_tail_percentile", write_pct);
    meta_latency(report, "write", &write_ms);
    meta_latency(report, "query", &query_ms);

    if !trace {
        Setup {
            server,
            net,
            reader,
            writer,
        }
        .close();
        time_setups(
            crate::SETUP_REPS - reps,
            &mut setup_s,
            |_| Setup::new(&queries, report),
            Setup::close,
        );
        end_to_end(report, &setup_s, &query_ms, &burst_rates);
        return;
    }

    let mut v = LayerValues::default();
    v.set("harness.gen_late_ms.tail", tail(&q_late.late_ms).0);
    v.set(
        "harness.backlog_max",
        q_late.backlog_max.max(w_late.backlog_max) as f64,
    );
    let lookups = (cache1.hits + cache1.misses - cache0.hits - cache0.misses) as f64;
    v.set(
        "cache.hit_frac",
        ratio((cache1.hits - cache0.hits) as f64, lookups),
    );
    v.set(
        "cache.carried_frac",
        ratio((cache1.carried - cache0.carried) as f64, lookups),
    );
    v.patched_frac(&delta0, &delta1);
    Setup {
        server,
        net,
        reader,
        writer,
    }
    .close();

    let mut replay = replay.expect("traced run");
    replay.run_to(REPLAYED, report);
    let layers = replay.finish(&mut v);
    for (name, key) in [
        ("store.commit_us.p50", "commit"),
        ("snapshot.refresh_us.p50", "snapshot"),
        ("subscription.round_us.p50", "round"),
        ("kernel.rows_us.p50", "rows"),
        ("core.engine_build_us.p50", "build"),
        ("core.answer_us.p50", "answer"),
        ("plan.plan_us.p50", "plan"),
        ("plan.candidates_per_result", "candidates_per_result"),
        ("ql.parse_us.p50", "parse"),
        ("server.execute_us.p50", "execute"),
    ] {
        v.set(name, layers.p50(key));
    }
    v.set("store.commit_us.tail", layers.tail("commit"));
    v.set("subscription.round_us.tail", layers.tail("round"));
    v.set("server.execute_us.tail", layers.tail("execute"));
    v.set(
        "telemetry.commit_ns.outside_p50",
        layers.p50("write_path") * 1e3,
    );
    v.set(
        "telemetry.maintenance_round_ns.outside_p50",
        layers.p50("round") * 1e3,
    );
    let rtt = median(&rtt_us);
    v.set("net.rtt_us.p50", rtt);
    // Both paths count from the due time, so the generator's own send
    // delay is covered too.
    v.reconcile(
        report,
        "write",
        median(&write_ms) * 1e3,
        w_late_us + layers.p50("write_path") + rtt,
    );
    v.reconcile(
        report,
        "query",
        median(&query_ms) * 1e3,
        q_late_us + layers.p50("query_path") + rtt,
    );
    v.emit(report);
}

/// The traced run: queries and writes merged in due-time order and
/// replayed one at a time on this thread against a fresh server. Each
/// query runs through `ModServer::execute` (the timed server layer) and
/// is then decomposed into parse, plan, engine build, answer and, for
/// threshold statements, the row kernel. It replays in two halves, one
/// before the wire phase and one after it, so the layer timings and the
/// end-to-end figures they are reconciled with span the same stretch of
/// a host whose speed drifts.
struct Replay<'a> {
    queries: &'a [Query],
    writes: &'a [UncertainTrajectory],
    /// Only the relative order of the two schedules is used.
    order: (Schedule, Schedule),
    setup: Setup,
    kernel: ColumnKernel,
    planner: QueryPlanner,
    qi: usize,
    wi: usize,
    l: Layers,
}

impl<'a> Replay<'a> {
    fn new(queries: &'a [Query], writes: &'a [UncertainTrajectory], report: &mut Report) -> Self {
        let setup = Setup::new(queries, report);
        let kernel = kernel(&setup.server);
        Replay {
            queries,
            writes,
            order: schedules(),
            setup,
            kernel,
            planner: QueryPlanner::default(),
            qi: 0,
            wi: 0,
            l: Layers::default(),
        }
    }

    /// Replays the queries before `end` and the writes due before them.
    fn run_to(&mut self, end: usize, report: &mut Report) {
        let Replay {
            queries,
            writes,
            order: (q_order, w_order),
            setup,
            kernel,
            planner,
            qi,
            wi,
            l,
        } = self;
        let (server, store) = (&setup.server, setup.server.store());
        while *qi < end.min(queries.len()) {
            if *wi < writes.len() && w_order.due(*wi) <= q_order.due(*qi) {
                let t0 = Instant::now();
                l.time("commit", || store.update(writes[*wi].clone()));
                l.time("round", || store.flush_maintenance());
                l.push("write_path", us(t0.elapsed()));
                l.time("snapshot", || store.snapshot());
                *wi += 1;
                continue;
            }
            let q = &queries[*qi];
            *qi += 1;
            l.time("parse", || parse_statement(&q.text).expect("parses"));
            let out = l.time("execute", || server.execute(&q.text));
            if let Err(e) = out {
                report.fail(format!("replay `{}`: {e}", q.text));
                continue;
            }
            l.push(
                "query_path",
                l.get("execute").last().copied().unwrap_or(0.0),
            );
            let plan = l.time("plan", || {
                planner
                    .plan(store.snapshot(), q.oid, window())
                    .expect("plans")
            });
            let engine = l.time("build", || plan.build_engine().expect("builds"));
            let answer = l.time("answer", || engine.answer_set());
            l.push(
                "candidates_per_result",
                ratio(plan.candidate_count() as f64, answer.len().max(1) as f64),
            );
            if q.kind == 4 {
                l.time("rows", || {
                    engine.prob_row_set_kernel(kernel, PROB_ROW_SAMPLES)
                });
            }
        }
    }

    fn finish(self, v: &mut LayerValues) -> Layers {
        v.registry(&self.setup.server);
        self.setup.close();
        self.l
    }
}
