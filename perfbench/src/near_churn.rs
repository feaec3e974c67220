//! `near_churn`: one commit through every stage of the pipeline.
//!
//! A §5 fleet carries interval and threshold standing queries, several
//! names per share, all held by one subscriber connection; far-away city
//! lanes carry 2000 more names that every write's guard-index lookup
//! prunes. A writer connection sends open-loop GPS corrections to
//! objects inside the near answers. Each write commits, is journaled to
//! a WAL (default `every-8` fsync), runs the skip/patch/rebuild ladder
//! and the column kernel on the server worker before its ack, pushes
//! the changed answers to the subscriber, and streams to a follower
//! mirror that the writer connection feeds.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unn_modb::durability::{open_store, recover, Wal, WalOptions};
use unn_modb::net::wire::{encode_frame_bytes, Frame};
use unn_modb::net::{FollowStart, NetClient, NetServer, ReplEvent};
use unn_modb::plan::QueryPlanner;
use unn_modb::ql::parse_statement;
use unn_modb::server::ModServer;
use unn_modb::store::ModStore;
use unn_modb::subscription::{DeltaSink, FeedEvent, SubAnswer, SubDelta, PROB_ROW_SAMPLES};
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

use crate::common::*;
use crate::layers::{Ladder, LayerValues};
use crate::stats::{median, ms, ratio, tail, us, Report};

const FLEET: usize = 200;
const INTERVAL_SHARES: usize = 16;
const THRESHOLD_SHARES: usize = 4;
const NAMES_PER_SHARE: usize = 3;
/// Far standing names: eight per city lane query object (six interval,
/// two row), on lanes `CITY_BASE_Y + q * CITY_LANE` miles north of the
/// 40 x 40 mile fleet region, outside every near write's reach.
const CITY_NAMES: usize = 2000;
const CITY_NAMES_PER_QUERY: usize = 8;
const CITY_BASE_Y: f64 = 1_000.0;
const CITY_LANE: f64 = 10.0;
const CITY_BASE_OID: u64 = 1_000_000;
/// City names compared with a fresh evaluation after the run.
const CITY_SAMPLED: usize = 4;
/// Offered writes per second: about a third of the closed-loop write
/// rate on a 2-core host, so queueing stays a small part of the latency.
const RATE: f64 = 5.0;
/// Closed-loop writes of the `write_ops_s` burst: five cycles over the
/// shares, timed one cycle per chunk so every chunk does the same work.
const BURST: usize = 100;
const BURST_CHUNK: usize = INTERVAL_SHARES + THRESHOLD_SHARES;
/// Largest GPS correction, miles per axis.
const SHIFT: f64 = 0.05;
/// How long the subscriber waits for a frame before it treats the
/// stream as drained once the writer is done.
const DRAIN_IDLE: Duration = Duration::from_millis(300);
/// Open-loop writes the traced run replays (the first ones: three
/// cycles over the shares), half before the wire phase and half after.
const REPLAYED: usize = 60;
/// How long a write waits for its commit to reach the follower mirror.
const REPLICA_WAIT: Duration = Duration::from_secs(10);

struct Name {
    name: String,
    query: Oid,
    rows: bool,
}

fn statement(query: Oid, rows: bool) -> String {
    format!(
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{}, TIME) > {}",
        query.0,
        if rows { "0.3" } else { "0" }
    )
}

/// Name `i` of the city: its lane query object and whether it
/// maintains probability rows.
fn city_name(i: usize) -> (Oid, bool) {
    (
        Oid(CITY_BASE_OID + 2 * (i / CITY_NAMES_PER_QUERY) as u64),
        i % 4 == 3,
    )
}

/// The city lanes: one query object and one in-band companion per lane.
fn city_lanes() -> Vec<UncertainTrajectory> {
    (0..CITY_NAMES.div_ceil(CITY_NAMES_PER_QUERY) as u64)
        .flat_map(|q| {
            let y = CITY_BASE_Y + CITY_LANE * q as f64;
            let oid = CITY_BASE_OID + 2 * q;
            [straight(oid, 0.0, y), straight(oid + 1, 0.0, y + 0.4)]
        })
        .collect()
}

/// A follower mirror fed from the writer connection: every commit the
/// leader streams is applied to a local store through the normal
/// replicated-commit path.
struct Mirror {
    store: ModStore,
}

impl Mirror {
    /// Starts following on `client` from the leader's first epoch.
    fn follow(client: &mut NetClient) -> Result<Mirror, String> {
        let store = ModStore::new();
        match client.follow(0).map_err(|e| e.to_string())? {
            FollowStart::Continue { .. } => {}
            FollowStart::Resync { epoch, objects } => store.restore(objects, epoch),
        }
        Ok(Mirror { store })
    }

    /// Applies streamed commits until the mirror reaches `epoch`.
    fn catch_up(&mut self, client: &mut NetClient, epoch: u64) -> Result<(), String> {
        let deadline = Instant::now() + REPLICA_WAIT;
        while self.store.epoch() < epoch {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "follower stalled at {} awaiting {epoch}",
                    self.store.epoch()
                ));
            }
            match client
                .next_replication(Some(left))
                .map_err(|e| e.to_string())?
            {
                Some(ReplEvent::Delta { epoch: e, ops }) if e == self.store.epoch() + 1 => {
                    self.store.apply_replicated(&ops);
                }
                Some(ReplEvent::Delta { epoch: e, .. }) if e <= self.store.epoch() => {}
                Some(other) => return Err(format!("replication gap or lag: {other:?}")),
                None => {}
            }
        }
        Ok(())
    }
}

struct Setup {
    dir: PathBuf,
    server: Arc<ModServer>,
    wal: Arc<Wal>,
    net: NetServer,
    sub: NetClient,
    writer: NetClient,
    mirror: Mirror,
    names: Vec<Name>,
    /// Each name's answer and epoch at registration: the fold base.
    bases: BTreeMap<String, (SubAnswer, u64)>,
    /// Per share, whether it maintains rows, and the objects inside its
    /// answer at registration (query objects excluded): the write targets.
    targets: Vec<(bool, Vec<Oid>)>,
}

impl Setup {
    /// Loads the journaled fleet and city, registers every name, and
    /// connects. `prefill` unchanged re-commits of fleet objects go into
    /// the WAL before any name exists (the traced run uses them to put a
    /// checkpoint inside its replay).
    fn new(dir: PathBuf, prefill: usize, report: &mut Report) -> Setup {
        let _ = std::fs::remove_dir_all(&dir);
        let (store, wal, _) = open_store(&dir, WalOptions::default()).expect("opens the WAL");
        let server = Arc::new(ModServer::with_store(store));
        let trs = fleet(FLEET, FLEET_SEED, 0);
        server
            .register_all(trs.iter().cloned().chain(city_lanes()))
            .expect("fleet registers");
        for tr in trs.iter().cycle().take(prefill) {
            server.store().update(tr.clone());
        }
        for i in 0..CITY_NAMES {
            let (q, rows) = city_name(i);
            server
                .subscribe(&format!("c{i}"), &statement(q, rows))
                .expect("city name registers");
        }
        let net = bind(&server);
        let mut sub = NetClient::connect(net.local_addr()).expect("subscriber connects");
        let mut names = Vec::new();
        for (s, q) in query_objects(&server).into_iter().enumerate() {
            let rows = s >= INTERVAL_SHARES;
            for k in 0..NAMES_PER_SHARE {
                let name = format!("s{s}n{k}");
                let stmt = format!("REGISTER CONTINUOUS {} AS {name}", statement(q, rows));
                check(report, "register", sub.execute(&stmt));
                names.push(Name {
                    name,
                    query: q,
                    rows,
                });
            }
        }
        let mut bases = BTreeMap::new();
        for n in &names {
            if let Some(base) = check(report, "base answer", sub.subscription_answer(&n.name)) {
                bases.insert(n.name.clone(), base);
            }
        }
        let queries: BTreeSet<Oid> = names.iter().map(|n| n.query).collect();
        let targets = names
            .iter()
            .step_by(NAMES_PER_SHARE)
            .map(|n| {
                let members = bases
                    .get(&n.name)
                    .map(|b| answer_oids(&b.0))
                    .unwrap_or_default();
                let members = members.into_iter().filter(|o| !queries.contains(o));
                (n.rows, members.collect())
            })
            .collect();
        let mut writer = NetClient::connect(net.local_addr()).expect("writer connects");
        let mut mirror = Mirror::follow(&mut writer).expect("follows");
        check(
            report,
            "follower bootstrap",
            mirror.catch_up(&mut writer, server.store().epoch()),
        );
        rtt(&mut writer);
        rtt(&mut sub);
        Setup {
            dir,
            server,
            wal,
            net,
            sub,
            writer,
            mirror,
            names,
            bases,
            targets,
        }
    }

    fn close(self) {
        let _ = self.sub.close();
        let _ = self.writer.close();
        self.net.shutdown();
        drop((self.server, self.wal));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run_dir(tag: &str) -> PathBuf {
    Path::new(crate::RUN_DIR).join(format!("near-{}-{tag}", std::process::id()))
}

/// The standing queries' objects: the twenty whose prefiltered
/// candidate count is nearest the fleet's median, so no share sits in
/// an unusually crowded or empty part of the map.
fn query_objects(server: &ModServer) -> Vec<Oid> {
    let planner = QueryPlanner::default();
    let snapshot = server.store().snapshot();
    let mut by_band: Vec<(usize, Oid)> = (0..FLEET as u64)
        .map(|i| {
            let plan = planner.plan(Arc::clone(&snapshot), Oid(i), window());
            (plan.map(|p| p.candidate_count()).unwrap_or(0), Oid(i))
        })
        .collect();
    by_band.sort();
    let shares = INTERVAL_SHARES + THRESHOLD_SHARES;
    by_band[(FLEET - shares) / 2..][..shares]
        .iter()
        .map(|(_, oid)| *oid)
        .collect()
}

/// The writes of one run, GPS corrections applied cumulatively per
/// object. Writes visit the shares in cycles; cycle `c` corrects the
/// `c`-th member (wrapping) of each share's answer. The seed orders the
/// shares within each cycle and picks each correction's direction, so
/// runs on different seeds write the same objects in a different order
/// and the maintenance work per run stays alike. The threshold shares
/// sit at evenly spaced places in every cycle, so no seed lines their
/// (heavier) writes up back to back.
fn write_stream(
    seed: u64,
    server: &ModServer,
    targets: &[(bool, Vec<Oid>)],
    n: usize,
) -> Vec<UncertainTrajectory> {
    let mut rng = Rng::new(seed, 2);
    let mut current: BTreeMap<Oid, UncertainTrajectory> = BTreeMap::new();
    let live: Vec<&(bool, Vec<Oid>)> = targets.iter().filter(|t| !t.1.is_empty()).collect();
    let (heavy, light): (Vec<usize>, Vec<usize>) = (0..live.len()).partition(|&s| live[s].0);
    let spacing = live.len() / heavy.len().max(1);
    let cycle = |rng: &mut Rng| -> Vec<usize> {
        let mut h: Vec<usize> = rng
            .distinct(heavy.len(), heavy.len())
            .into_iter()
            .map(|k| heavy[k])
            .collect();
        let mut l: Vec<usize> = rng
            .distinct(light.len(), light.len())
            .into_iter()
            .map(|k| light[k])
            .collect();
        (0..live.len())
            .map(|k| {
                let slot = (k + 1) % spacing == 0;
                let pick = if slot { h.pop() } else { l.pop() };
                pick.or_else(|| h.pop())
                    .or_else(|| l.pop())
                    .expect("one per share")
            })
            .collect()
    };
    let mut order: Vec<usize> = Vec::new();
    (0..n)
        .map(|i| {
            if order.is_empty() {
                order = cycle(&mut rng);
                order.reverse();
            }
            let share = &live[order.pop().expect("refilled")].1;
            let oid = share[(i / live.len()) % share.len()];
            let cur = current
                .remove(&oid)
                .unwrap_or_else(|| server.store().get(oid).expect("target exists"));
            let mut sign = || {
                if rng.next_u64() & 1 == 0 {
                    SHIFT
                } else {
                    -SHIFT
                }
            };
            let next = shifted(&cur, sign(), sign());
            current.insert(oid, next.clone());
            next
        })
        .collect()
}

/// What the subscriber connection saw.
struct Received {
    client: NetClient,
    folded: BTreeMap<String, (SubAnswer, u64)>,
    /// Arrival of the last frame tagged with each epoch.
    last_arrival: BTreeMap<u64, Instant>,
    frames: u64,
    lagged: u64,
    errors: Vec<String>,
}

/// The subscriber's loop: stamps each frame's arrival and keeps it;
/// folding waits until the stream ends, so the generator's own work
/// does not delay the next frame's stamp. A `lagged` frame triggers an
/// immediate resync, kept in order with the deltas.
fn subscribe(
    mut client: NetClient,
    mut folded: BTreeMap<String, (SubAnswer, u64)>,
    writer_done: &AtomicBool,
) -> Received {
    let mut seen: Vec<(FeedEvent, Option<(SubAnswer, u64)>)> = Vec::new();
    let mut last_arrival = BTreeMap::new();
    let mut lagged = 0;
    let mut errors = Vec::new();
    loop {
        let done = writer_done.load(Ordering::Acquire);
        let ev = match client.next_event(Some(if done {
            DRAIN_IDLE
        } else {
            Duration::from_millis(50)
        })) {
            Ok(Some(ev)) => ev,
            Ok(None) if done => break,
            Ok(None) => continue,
            Err(e) => {
                errors.push(format!("subscriber: {e}"));
                break;
            }
        };
        let at = Instant::now();
        if ev.lagged {
            lagged += 1;
            match client.subscription_answer(&ev.subscription) {
                Ok(fresh) => seen.push((ev, Some(fresh))),
                Err(e) => errors.push(format!("resync {}: {e}", ev.subscription)),
            }
            continue;
        }
        last_arrival
            .entry(ev.delta.epoch())
            .and_modify(|t: &mut Instant| *t = (*t).max(at))
            .or_insert(at);
        seen.push((ev, None));
    }
    let frames = seen.len() as u64;
    for (ev, resync) in seen {
        let Some(state) = folded.get_mut(&ev.subscription) else {
            errors.push(format!("frame for unknown name {}", ev.subscription));
            continue;
        };
        match resync {
            Some(fresh) => *state = fresh,
            None if ev.delta.epoch() > state.1 => {
                state.0 = state.0.apply(&ev.delta);
                state.1 = ev.delta.epoch();
            }
            None => {}
        }
    }
    Received {
        client,
        folded,
        last_arrival,
        frames,
        lagged,
        errors,
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let reps = if trace { 1 } else { crate::SETUP_REPS / 2 };
    let mut setup_s = Vec::new();
    let mut live: Option<Setup> = None;
    for rep in 0..reps {
        // The previous set-up goes first, so each one starts from the
        // same process state.
        if let Some(old) = live.take() {
            old.close();
        }
        let t0 = Instant::now();
        live = Some(Setup::new(run_dir(&rep.to_string()), 0, report));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        dir,
        server,
        wal,
        net,
        sub,
        mut writer,
        mut mirror,
        names,
        bases,
        targets,
    } = live.expect("at least one setup");
    let n = (RATE * seconds as f64).round() as usize;
    let writes = write_stream(seed, &server, &targets, n + BURST);
    let replay = trace.then(|| {
        let replayed = &writes[..n.min(REPLAYED)];
        let mut r = Replay::new(replayed.len(), report);
        r.run(&replayed[..replayed.len() / 2], report);
        r
    });
    let base_epoch = server.store().epoch();
    let ladder0 = Ladder::of(&server);
    let delta0 = server.store().delta_stats();
    let wal0 = wal.status();
    let tel = server.store().telemetry();
    let (refined0, rounds0) = (
        tel.kernel_columns_refined.get(),
        tel.maintenance_rounds.get(),
    );

    // Each write waits for its ack, then feeds the follower mirror the
    // commit it streamed; both times are kept per write.
    let mut visible: Vec<Option<Instant>> = vec![None; n + BURST];
    let mut replica_errors = Vec::new();
    let mut write = |i: usize, writer: &mut NetClient| -> bool {
        if writer.update(writes[i].clone()).is_err() {
            return false;
        }
        match mirror.catch_up(writer, base_epoch + i as u64 + 1) {
            Ok(()) => visible[i] = Some(Instant::now()),
            Err(e) => replica_errors.push(e),
        }
        true
    };
    let schedule = Schedule::new(RATE);
    let mut lateness = Lateness::default();
    let writer_done = AtomicBool::new(false);
    let mut rtt_us = Vec::new();
    let (ops, burst, received) = std::thread::scope(|scope| {
        let subscriber = scope.spawn(|| subscribe(sub, bases, &writer_done));
        let writer = &std::cell::RefCell::new(&mut writer);
        let ops = open_loop(
            n,
            &schedule,
            &mut lateness,
            |i| write(i, &mut writer.borrow_mut()),
            |i| {
                let w = &mut writer.borrow_mut();
                probe(trace, &schedule, i, schedule.interval / 2, w, &mut rtt_us)
            },
        );
        let burst = burst(BURST, BURST_CHUNK, |i| {
            write(n + i, &mut writer.borrow_mut())
        });
        writer_done.store(true, Ordering::Release);
        (ops, burst, subscriber.join().expect("subscriber thread"))
    });
    let Received {
        client: mut sub,
        folded,
        last_arrival,
        frames,
        lagged,
        errors,
    } = received;
    let wal1 = wal.status();

    // Correctness gates, outside the timed section.
    report.attempted += (n + BURST) as u64;
    for op in ops.iter().filter(|o| !o.ok) {
        report.fail(format!(
            "write due at +{:.0}ms failed",
            ms(op.due - schedule.start)
        ));
    }
    for _ in burst.1..BURST {
        report.fail("burst write failed".into());
    }
    for e in errors.into_iter().chain(replica_errors) {
        report.fail(e);
    }
    let final_epoch = server.store().epoch();
    if final_epoch != base_epoch + (n + BURST) as u64 {
        report.fail(format!(
            "epoch {final_epoch} != {} + {} writes",
            base_epoch,
            n + BURST
        ));
    }
    let mut fresh: BTreeMap<Oid, SubAnswer> = BTreeMap::new();
    for name in &names {
        report.attempted += 1;
        let Some((maintained, epoch)) = check(
            report,
            "maintained answer",
            sub.subscription_answer(&name.name),
        ) else {
            continue;
        };
        let want = fresh.entry(name.query).or_insert_with(|| {
            if name.rows {
                fresh_rows(&server, name.query)
            } else {
                fresh_intervals(&server, name.query)
            }
        });
        let pushed = folded.get(&name.name).map(|(answer, _)| answer);
        if epoch != final_epoch || &maintained != want || pushed != Some(&maintained) {
            report.fail(format!(
                "{}: pushed fold / maintained (epoch {epoch}) / fresh exhaustive disagree",
                name.name
            ));
        }
    }
    for i in Rng::new(seed, 4).distinct(CITY_NAMES, CITY_SAMPLED) {
        report.attempted += 1;
        let (q, rows) = city_name(i);
        let want = if rows {
            fresh_rows(&server, q)
        } else {
            fresh_intervals(&server, q)
        };
        if server.subscription_answer(&format!("c{i}")).ok() != Some(want) {
            report.fail(format!("city name c{i} differs from a fresh evaluation"));
        }
    }
    let leader = server.store().snapshot();
    report.attempted += 2;
    let replica = mirror.store.snapshot();
    if replica.epoch() != leader.epoch() || replica.objects() != leader.objects() {
        report.fail(format!(
            "follower at {} differs from the leader at {}",
            replica.epoch(),
            leader.epoch()
        ));
    }
    check(report, "wal sync", wal.sync());
    let t0 = Instant::now();
    let recovered = check(report, "recover", recover(&dir));
    let recover_time = t0.elapsed();
    let mut replayed = 0;
    if let Some((store, rep)) = recovered {
        replayed = rep.replayed_records;
        let snap = store.snapshot();
        if snap.epoch() != leader.epoch() || snap.objects() != leader.objects() {
            report.fail(format!(
                "recovered store at {} differs from the leader",
                snap.epoch()
            ));
        }
    }

    let write_ms: Vec<f64> = ops.iter().map(|o| ms(o.done - o.due)).collect();
    let push_ms: Vec<f64> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            let at = last_arrival.get(&(base_epoch + i as u64 + 1))?;
            Some(ms(*at - o.due))
        })
        .collect();
    let visible_ms: Vec<f64> = ops
        .iter()
        .zip(&visible)
        .filter_map(|(o, at)| Some(ms((*at)? - o.due)))
        .collect();
    let pct = tail(&push_ms).1;
    let span = ops
        .last()
        .map(|o| o.sent - schedule.start)
        .unwrap_or_default();
    report.meta("offered_ops_s", RATE);
    report.meta(
        "achieved_ops_s",
        format!(
            "{:.3}",
            ratio(n.saturating_sub(1) as f64, span.as_secs_f64())
        ),
    );
    report.meta("writes", n);
    report.meta("push_samples", push_ms.len());
    report.meta("tail_percentile", pct);
    report.meta("backlog_max", lateness.backlog_max);
    report.meta("frames", frames);
    meta_latency(report, "write", &write_ms);
    meta_latency(report, "push", &push_ms);
    meta_latency(report, "replica_visible", &visible_ms);
    report.meta("recover_s", format!("{:.4}", recover_time.as_secs_f64()));
    report.meta("recovered_records", replayed);

    let close = |sub: NetClient, writer: NetClient, net: NetServer| {
        let _ = sub.close();
        let _ = writer.close();
        net.shutdown();
    };
    if !trace {
        close(sub, writer, net);
        drop((server, wal));
        let _ = std::fs::remove_dir_all(&dir);
        time_setups(
            crate::SETUP_REPS - reps,
            &mut setup_s,
            |k| Setup::new(run_dir(&(reps + k).to_string()), 0, report),
            Setup::close,
        );
        end_to_end(report, &setup_s, &push_ms, &burst.0);
        return;
    }

    let commits = (n + BURST) as u64;
    let mut v = LayerValues::default();
    v.set("harness.gen_late_ms.tail", tail(&lateness.late_ms).0);
    v.set("harness.backlog_max", lateness.backlog_max as f64);
    v.set(
        "net.frames_per_commit",
        ratio(frames as f64, commits as f64),
    );
    v.set("net.lagged_events", lagged as f64);
    Ladder::of(&server).record(&ladder0, commits, &mut v);
    v.set(
        "kernel.columns_refined_per_round",
        ratio(
            (tel.kernel_columns_refined.get() - refined0) as f64,
            (tel.maintenance_rounds.get() - rounds0) as f64,
        ),
    );
    v.patched_frac(&delta0, &server.store().delta_stats());
    let appended = (wal1.appended - wal0.appended) as f64;
    v.set(
        "durability.fsyncs_per_commit",
        ratio((wal1.syncs - wal0.syncs) as f64, appended),
    );
    v.set(
        "durability.wal_append_us.p50",
        tel.wal_append_ns.snapshot().p50() as f64 / 1e3,
    );
    v.set(
        "durability.wal_fsync_us.tail",
        tel.wal_fsync_ns.snapshot().quantile(pct / 100.0) as f64 / 1e3,
    );
    v.set(
        "durability.recover_us_per_record",
        us(recover_time) / replayed.max(1) as f64,
    );
    close(sub, writer, net);
    drop((server, wal));
    let _ = std::fs::remove_dir_all(&dir);

    let mut replay = replay.expect("traced run");
    replay.run(&writes[n.min(REPLAYED) / 2..n.min(REPLAYED)], report);
    let layers = replay.finish(&mut v);
    fill(&mut v, &layers);
    let rtt = median(&rtt_us);
    v.set("net.rtt_us.p50", rtt);
    // A write's ack covers the request and response legs; a push covers
    // the request leg and the frame's own trip. Both count from the due
    // time, so the generator's own send delay is covered too.
    let late_us = median(&lateness.late_ms) * 1e3;
    v.reconcile(
        report,
        "write",
        median(&write_ms) * 1e3,
        late_us + layers.p50("write_path") + rtt,
    );
    v.reconcile(
        report,
        "push",
        median(&push_ms) * 1e3,
        late_us + layers.p50("commit_to_push") + rtt / 2.0,
    );
    v.emit(report);
}

/// Sets the catalogue entries the replay measured.
fn fill(v: &mut LayerValues, l: &Layers) {
    for (name, key) in [
        ("store.commit_us.p50", "commit"),
        ("snapshot.refresh_us.p50", "snapshot"),
        ("durability.wal_bytes_per_commit", "wal_bytes"),
        ("subscription.round_us.p50", "round"),
        ("kernel.rows_us.p50", "rows"),
        ("core.engine_build_us.p50", "build"),
        ("core.answer_us.p50", "answer"),
        ("plan.plan_us.p50", "plan"),
        ("plan.candidates_per_result", "candidates_per_result"),
        ("ql.parse_us.p50", "parse"),
        ("net.frame_bytes.p50", "frame_bytes"),
        ("net.encode_us.p50", "encode"),
        ("net.push_us.p50", "push"),
        ("net.follower_apply_us.p50", "apply"),
    ] {
        v.set(name, l.p50(key));
    }
    v.set("store.commit_us.tail", l.tail("commit"));
    v.set("subscription.round_us.tail", l.tail("round"));
    v.set("net.push_us.tail", l.tail("push"));
    v.set("durability.checkpoints", l.get("checkpoints").len() as f64);
    v.set("telemetry.commit_ns.outside_p50", l.p50("write_path") * 1e3);
    v.set(
        "telemetry.maintenance_round_ns.outside_p50",
        l.p50("round") * 1e3,
    );
    v.set(
        "telemetry.commit_to_push_ns.outside_p50",
        l.p50("commit_to_push") * 1e3,
    );
}

/// The traced run: the same writes, replayed one at a time on this
/// thread against a fresh server with maintenance deferred, so commit
/// (with its WAL append), snapshot refresh, maintenance round, push
/// delivery and the follower's apply are timed as separate calls. The
/// WAL is pre-filled so that a checkpoint (default cadence) falls in
/// the middle of the replay. It replays in two halves, one before the
/// wire phase and one after it, so the layer timings and the end-to-end
/// figures they are reconciled with span the same stretch of a host
/// whose speed drifts.
struct Replay {
    setup: Setup,
    sink: Arc<DeltaSink>,
    kernel: unn_core::kernel::ColumnKernel,
    planner: QueryPlanner,
    interval_queries: Vec<Oid>,
    row_queries: Vec<Oid>,
    /// Writes replayed so far.
    done: usize,
    l: Layers,
}

impl Replay {
    /// A fresh server for a replay of `total` writes.
    fn new(total: usize, report: &mut Report) -> Replay {
        let every = WalOptions::default().checkpoint_every as usize;
        let prefill = every.saturating_sub(1 + total / 2);
        let setup = Setup::new(run_dir("replay"), prefill, report);
        // The in-process sink sees each round's events synchronously,
        // which tells the replay how many frames to await on the socket.
        let sink = Arc::new(DeltaSink::bounded(1 << 16));
        for n in &setup.names {
            setup
                .server
                .subscription_registry()
                .attach_sink(&n.name, &sink);
        }
        setup.server.store().set_maintenance_batch(usize::MAX);
        let kernel = kernel(&setup.server);
        let queries = |rows: bool| -> Vec<Oid> {
            setup
                .names
                .iter()
                .filter(|n| n.rows == rows)
                .map(|n| n.query)
                .collect()
        };
        Replay {
            interval_queries: queries(false),
            row_queries: queries(true),
            setup,
            sink,
            kernel,
            planner: QueryPlanner::default(),
            done: 0,
            l: Layers::default(),
        }
    }

    /// Replays `writes`, the next ones of the stream.
    fn run(&mut self, writes: &[UncertainTrajectory], report: &mut Report) {
        let Replay {
            setup,
            sink,
            kernel,
            planner,
            interval_queries,
            row_queries,
            done,
            l,
        } = self;
        let Setup {
            server,
            wal,
            sub,
            writer,
            mirror,
            ..
        } = setup;
        let store = server.store();
        for (i, tr) in (*done..).zip(writes) {
            let before = wal.status();
            let t0 = Instant::now();
            l.time("commit", || store.update(tr.clone()));
            let after = wal.status();
            if after.checkpoints > before.checkpoints {
                l.push("checkpoints", 1.0);
            } else if after.total_bytes > before.total_bytes {
                l.push("wal_bytes", (after.total_bytes - before.total_bytes) as f64);
            }
            l.time("snapshot", || store.snapshot());
            l.time("round", || store.flush_maintenance());
            let flushed = Instant::now();
            let expected = std::iter::from_fn(|| sink.try_recv()).count();
            let mut events: Vec<FeedEvent> = Vec::with_capacity(expected);
            while events.len() < expected {
                match sub.next_event(Some(Duration::from_secs(30))) {
                    Ok(Some(ev)) => events.push(ev),
                    other => {
                        report.fail(format!("replay push {i}: {other:?}"));
                        break;
                    }
                }
            }
            let last = Instant::now();
            l.push("write_path", us(flushed - t0));
            if expected > 0 {
                l.push("push", us(last - flushed));
                l.push("commit_to_push", us(last - t0));
            }
            let a0 = Instant::now();
            match mirror.catch_up(writer, store.epoch()) {
                Ok(()) => l.push("apply", us(a0.elapsed())),
                Err(e) => report.fail(format!("replay follower {i}: {e}")),
            }
            for ev in &events {
                let frame = match &ev.delta {
                    SubDelta::Intervals(d) => Frame::Event {
                        subscription: ev.subscription.clone(),
                        delta: d.clone(),
                        lagged: ev.lagged,
                    },
                    SubDelta::Rows(d) => Frame::RowEvent {
                        subscription: ev.subscription.clone(),
                        delta: d.clone(),
                        lagged: ev.lagged,
                    },
                };
                let bytes = l.time("encode", || encode_frame_bytes(&frame).expect("encodes"));
                l.push("frame_bytes", bytes.len() as f64);
            }
            // One-shot layers on a standing query's object, round robin.
            let q = interval_queries[i % interval_queries.len()];
            let snapshot = store.snapshot();
            let plan = l.time("plan", || {
                planner.plan(snapshot, q, window()).expect("plans")
            });
            let engine = l.time("build", || plan.build_engine().expect("builds"));
            let answer = l.time("answer", || engine.answer_set());
            l.push(
                "candidates_per_result",
                ratio(plan.candidate_count() as f64, answer.len().max(1) as f64),
            );
            let rq = row_queries[i % row_queries.len()];
            let rplan = planner.plan(store.snapshot(), rq, window()).expect("plans");
            let rengine = rplan.build_engine().expect("builds");
            l.time("rows", || {
                rengine.prob_row_set_kernel(kernel, PROB_ROW_SAMPLES)
            });
            let stmt = statement(q, i % 2 == 1);
            l.time("parse", || parse_statement(&stmt).expect("parses"));
        }
        *done += writes.len();
    }

    fn finish(self, v: &mut LayerValues) -> Layers {
        v.registry(&self.setup.server);
        self.setup.close();
        self.l
    }
}
