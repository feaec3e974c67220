//! Pieces every workload shares: the seeded input generator, the
//! open-loop schedule, fresh exhaustive evaluation (the correctness
//! reference) and the layer timers of the traced replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unn_core::kernel::ColumnKernel;
use unn_geom::interval::TimeInterval;
use unn_modb::net::NetClient;
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::ModServer;
use unn_modb::subscription::SubAnswer;
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory, TrajectorySample};
use unn_traj::uncertain::{common_pdf_kind, UncertainTrajectory};

use crate::stats::{median, quantile, tail, us, Report};

/// The §5 uncertainty radius (miles) and query window (minutes).
pub const RADIUS: f64 = 0.5;
pub const WINDOW: (f64, f64) = (0.0, 60.0);

pub fn window() -> TimeInterval {
    TimeInterval::new(WINDOW.0, WINDOW.1)
}

/// splitmix64: the benchmark's own seeded generator, so the inputs
/// depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..k.min(n))
            .map(|i| {
                let j = i + self.below(n - i);
                pool.swap(i, j);
                pool[i]
            })
            .collect()
    }
}

/// The §5 generator's own default seed. Workloads whose cost follows
/// the fleet's geometry (how dense the bands around their query objects
/// are) load the fleet from it, and draw their op streams from
/// `--seed`: a run then varies what is written and queried, not how
/// crowded the map is, which keeps runs on different seeds comparable.
pub const FLEET_SEED: u64 = 0xEDB7_2009;

/// A §5 random-waypoint fleet of `n` objects with ids from `first_oid`.
pub fn fleet(n: usize, seed: u64, first_oid: u64) -> Vec<UncertainTrajectory> {
    generate_uncertain(&WorkloadConfig::with_objects(n, seed), RADIUS)
        .into_iter()
        .map(|tr| with_oid(&tr, Oid(first_oid + tr.oid().0)))
        .collect()
}

fn rebuild(oid: Oid, samples: Vec<TrajectorySample>) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::new(oid, samples).expect("shifted samples stay valid"),
        RADIUS,
    )
    .expect("valid radius")
}

pub fn with_oid(tr: &UncertainTrajectory, oid: Oid) -> UncertainTrajectory {
    rebuild(oid, tr.trajectory().samples().to_vec())
}

/// A GPS correction: the same motion displaced by `(dx, dy)` miles.
pub fn shifted(tr: &UncertainTrajectory, dx: f64, dy: f64) -> UncertainTrajectory {
    let samples = tr
        .trajectory()
        .samples()
        .iter()
        .map(|s| TrajectorySample::new(s.position.x + dx, s.position.y + dy, s.time))
        .collect();
    rebuild(tr.oid(), samples)
}

/// A two-sample straight trajectory at height `y` over the window.
pub fn straight(oid: u64, x0: f64, y: f64) -> UncertainTrajectory {
    rebuild(
        Oid(oid),
        vec![
            TrajectorySample::new(x0, y, WINDOW.0),
            TrajectorySample::new(x0 + 30.0, y, WINDOW.1),
        ],
    )
}

/// A writer's open-loop schedule: op `i` is due `i / rate` seconds after
/// `start`, whatever happened to earlier ops.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(rate_per_s: f64) -> Schedule {
        Schedule {
            start: Instant::now() + Duration::from_millis(20),
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Sleeps until op `i` is due; returns its due time.
    pub fn wait(&self, i: usize) -> Instant {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return due;
            }
            std::thread::sleep(due - now);
        }
    }

    /// Ops already due but not yet sent when op `i` is sent at `now`.
    pub fn backlog(&self, i: usize, now: Instant) -> usize {
        let passed =
            now.saturating_duration_since(self.start).as_secs_f64() / self.interval.as_secs_f64();
        (passed.floor() as usize + 1).saturating_sub(i)
    }
}

/// One open-loop op as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

/// The generator's own health over its open-loop streams.
#[derive(Debug, Default)]
pub struct Lateness {
    /// Send time minus due time of every op, in ms.
    pub late_ms: Vec<f64>,
    /// Most ops ever due but not yet sent.
    pub backlog_max: usize,
}

/// Runs `op` on `schedule` for `n` ops and records its timings; `after`
/// runs once each op is timed (the traced run probes the round trip
/// there, between ops, as idle as the ops find the server).
pub fn open_loop(
    n: usize,
    schedule: &Schedule,
    lateness: &mut Lateness,
    mut op: impl FnMut(usize) -> bool,
    mut after: impl FnMut(usize),
) -> Vec<OpTimes> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let due = schedule.wait(i);
        let sent = Instant::now();
        lateness.backlog_max = lateness.backlog_max.max(schedule.backlog(i, sent));
        lateness.late_ms.push(crate::stats::ms(sent - due));
        let ok = op(i);
        out.push(OpTimes {
            due,
            sent,
            done: Instant::now(),
            ok,
        });
        after(i);
    }
    out
}

/// Runs `op(i)` for `i < n` back to back in chunks of `chunk` ops;
/// returns each chunk's ops/s and how many ops succeeded. `write_ops_s`
/// is the median of the chunk rates, so a host stall shorter than half
/// the burst moves a few chunks, not the metric.
pub fn burst(n: usize, chunk: usize, mut op: impl FnMut(usize) -> bool) -> (Vec<f64>, usize) {
    let mut rates = Vec::with_capacity(n.div_ceil(chunk));
    let mut ok = 0;
    for start in (0..n).step_by(chunk) {
        let end = (start + chunk).min(n);
        let t0 = Instant::now();
        ok += (start..end).filter(|&i| op(i)).count();
        rates.push((end - start) as f64 / t0.elapsed().as_secs_f64());
    }
    (rates, ok)
}

/// Times `n` set-ups made by `make(k)`, each torn down by `close`
/// before the next starts, and appends their times to `setup_s`. The
/// workloads time half their set-ups before the measured phase and half
/// after it, so `setup_s` spans the run's stretch of host time.
pub fn time_setups<S>(
    n: usize,
    setup_s: &mut Vec<f64>,
    mut make: impl FnMut(usize) -> S,
    mut close: impl FnMut(S),
) {
    for k in 0..n {
        let t0 = Instant::now();
        let setup = make(k);
        setup_s.push(t0.elapsed().as_secs_f64());
        close(setup);
    }
}

/// Fresh exhaustive evaluation of an interval standing query — the
/// ground truth maintained answers must equal bit for bit.
pub fn fresh_intervals(server: &ModServer, query: Oid) -> SubAnswer {
    let engine = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(server.store().snapshot(), query, window())
        .expect("plans")
        .build_engine()
        .expect("builds");
    SubAnswer::Intervals(engine.answer_set())
}

/// Fresh exhaustive probability rows at the registry's row density.
pub fn fresh_rows(server: &ModServer, query: Oid) -> SubAnswer {
    let samples = server.subscription_registry().row_samples();
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(snapshot.objects())
        .expect("one pdf kind")
        .expect("populated");
    let model = server.store().difference_model(&kind);
    let engine = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, query, window())
        .expect("plans")
        .build_engine()
        .expect("builds");
    SubAnswer::Rows(engine.prob_row_set(model.pdf.as_ref(), samples))
}

/// The column kernel the server's threshold paths evaluate with.
pub fn kernel(server: &ModServer) -> ColumnKernel {
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(snapshot.objects())
        .expect("one pdf kind")
        .expect("populated");
    ColumnKernel::from_profile(server.store().difference_model(&kind).profile)
}

/// Oids appearing in a maintained answer.
pub fn answer_oids(answer: &SubAnswer) -> Vec<Oid> {
    match answer {
        SubAnswer::Intervals(a) => a.entries().iter().map(|e| e.oid).collect(),
        SubAnswer::Rows(r) => r.rows().iter().map(|r| r.oid).collect(),
    }
}

/// The end-to-end metrics of a `--trace 0` run. `path_ms` holds the
/// latencies of the workload's primary path in op order: pushes on
/// near_churn, queries on adhoc_read.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], path_ms: &[f64], burst_rates: &[f64]) {
    report.meta(
        "setups_s",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.metric("setup_s", median(setup_s), "s");
    report.metric("path_p50_ms", median(path_ms), "ms");
    report.metric("path_tail_ms", tail(path_ms).0, "ms");
    report.metric("write_ops_s", median(burst_rates), "1/s");
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    for p in [90, 95, 99] {
        report.meta(
            &format!("path_p{p}_ms"),
            format!("{:.4}", quantile(path_ms, p as f64 / 100.0)),
        );
    }
}

/// A latency's median and tail, for the metadata line.
pub fn meta_latency(report: &mut Report, name: &str, ms: &[f64]) {
    report.meta(&format!("{name}_p50_ms"), format!("{:.4}", median(ms)));
    report.meta(&format!("{name}_tail_ms"), format!("{:.4}", tail(ms).0));
}

/// Peak resident set of this process (server and generator), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The round trip of a trivial statement (an empty trace lookup).
pub fn rtt(client: &mut NetClient) -> Option<Duration> {
    let t0 = Instant::now();
    client.execute("TRACE EPOCH 0").ok()?;
    Some(t0.elapsed())
}

/// When `on`, waits until `offset` after op `i` is due and records a
/// round-trip probe in microseconds. The offset puts the probe where
/// the ops themselves land: clear of the workload's other streams.
pub fn probe(
    on: bool,
    schedule: &Schedule,
    i: usize,
    offset: Duration,
    client: &mut NetClient,
    samples: &mut Vec<f64>,
) {
    if !on {
        return;
    }
    let at = schedule.due(i) + offset;
    let now = Instant::now();
    if now >= at {
        return;
    }
    std::thread::sleep(at - now);
    if let Some(d) = rtt(client) {
        samples.push(us(d));
    }
}

/// Named per-layer sample sets of the traced replay, in microseconds
/// unless the name says otherwise.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Times `f` and records its duration under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(name, us(t0.elapsed()));
        out
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn q(&self, name: &str, q: f64) -> f64 {
        quantile(self.get(name), q)
    }

    pub fn p50(&self, name: &str) -> f64 {
        self.q(name, 0.5)
    }

    pub fn tail(&self, name: &str) -> f64 {
        crate::stats::tail(self.get(name)).0
    }
}

/// Starts a run's NetServer over `server`.
pub fn bind(server: &Arc<ModServer>) -> unn_modb::net::NetServer {
    unn_modb::net::NetServer::bind("127.0.0.1:0", Arc::clone(server)).expect("binds loopback")
}

/// Records a failed op in the report (with its error text).
pub fn check<T, E: std::fmt::Debug>(report: &mut Report, what: &str, r: Result<T, E>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            report.fail(format!("{what}: {e:?}"));
            None
        }
    }
}
