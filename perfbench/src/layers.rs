//! The per-layer metric catalogue of the traced run. Every workload
//! prints every name; a layer a workload does not exercise reads `0`,
//! which is that workload's "predicted flat" (see `LAYERS.md`).

use std::collections::BTreeMap;

use unn_modb::server::ModServer;
use unn_modb::store::DeltaStats;

use crate::stats::Report;

/// `(name, unit)` of every per-layer metric, in print order.
pub const ALL: &[(&str, &str)] = &[
    ("store.commit_us.p50", "us"),
    ("store.commit_us.tail", "us"),
    ("snapshot.refresh_us.p50", "us"),
    ("snapshot.patched_frac", "frac"),
    ("durability.wal_bytes_per_commit", "bytes"),
    ("durability.fsyncs_per_commit", "count"),
    ("durability.wal_append_us.p50", "us"),
    ("durability.wal_fsync_us.tail", "us"),
    ("durability.checkpoints", "count"),
    ("durability.recover_us_per_record", "us"),
    ("subscription.round_us.p50", "us"),
    ("subscription.round_us.tail", "us"),
    ("subscription.visited_per_commit", "count"),
    ("subscription.unvisited_frac", "frac"),
    ("subscription.skip_frac", "frac"),
    ("subscription.patch_frac", "frac"),
    ("subscription.rebuild_frac", "frac"),
    ("kernel.columns_refined_per_round", "count"),
    ("kernel.rows_us.p50", "us"),
    ("core.engine_build_us.p50", "us"),
    ("core.answer_us.p50", "us"),
    ("plan.plan_us.p50", "us"),
    ("plan.candidates_per_result", "count"),
    ("cache.hit_frac", "frac"),
    ("cache.carried_frac", "frac"),
    ("ql.parse_us.p50", "us"),
    ("server.execute_us.p50", "us"),
    ("server.execute_us.tail", "us"),
    ("net.rtt_us.p50", "us"),
    ("net.frames_per_commit", "count"),
    ("net.frame_bytes.p50", "bytes"),
    ("net.encode_us.p50", "us"),
    ("net.push_us.p50", "us"),
    ("net.push_us.tail", "us"),
    ("net.lagged_events", "count"),
    ("net.follower_apply_us.p50", "us"),
    ("harness.gen_late_ms.tail", "ms"),
    ("harness.backlog_max", "count"),
    ("reconcile.write.unattributed_frac", "frac"),
    ("reconcile.push.unattributed_frac", "frac"),
    ("reconcile.query.unattributed_frac", "frac"),
    ("telemetry.commit_ns.p50", "ns"),
    ("telemetry.commit_ns.outside_p50", "ns"),
    ("telemetry.maintenance_round_ns.p50", "ns"),
    ("telemetry.maintenance_round_ns.outside_p50", "ns"),
    ("telemetry.commit_to_push_ns.p50", "ns"),
    ("telemetry.commit_to_push_ns.outside_p50", "ns"),
];

/// The largest share of an end-to-end median the layer self-times may
/// leave unexplained (either way) before the traced run fails. What
/// remains is queueing behind the open-loop schedule, thread wake-ups
/// and the client side of the socket, none of which a layer owns.
pub const RECONCILE_BOUND: f64 = 0.6;

/// Values of one traced run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            ALL.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Records `reconcile.<path>.unattributed_frac` as `1 - covered/e2e`
    /// and fails the run when it leaves the stated bound.
    pub fn reconcile(
        &mut self,
        report: &mut Report,
        path: &'static str,
        e2e_us: f64,
        covered_us: f64,
    ) {
        let frac = if e2e_us > 0.0 {
            1.0 - covered_us / e2e_us
        } else {
            0.0
        };
        let name = match path {
            "write" => "reconcile.write.unattributed_frac",
            "push" => "reconcile.push.unattributed_frac",
            _ => "reconcile.query.unattributed_frac",
        };
        self.set(name, frac);
        report.meta(
            &format!("reconcile.{path}"),
            format!("e2e {e2e_us:.0}us covered {covered_us:.0}us"),
        );
        report.attempted += 1;
        if frac.abs() > RECONCILE_BOUND {
            report.fail(format!(
                "reconcile.{path}: layers cover {covered_us:.0}us of a {e2e_us:.0}us median \
                 (unattributed {frac:.3}, bound {RECONCILE_BOUND})"
            ));
        }
    }

    /// Registry histograms beside the benchmark's outside figures.
    pub fn registry(&mut self, server: &ModServer) {
        let t = server.store().telemetry();
        self.set(
            "telemetry.commit_ns.p50",
            t.commit_ns.snapshot().p50() as f64,
        );
        self.set(
            "telemetry.maintenance_round_ns.p50",
            t.maintenance_round_ns.snapshot().p50() as f64,
        );
        self.set(
            "telemetry.commit_to_push_ns.p50",
            t.commit_to_push_ns.snapshot().p50() as f64,
        );
    }

    /// `snapshot.patched_frac`: refreshes that patched rather than
    /// rebuilt between two `DeltaStats` readings.
    pub fn patched_frac(&mut self, before: &DeltaStats, after: &DeltaStats) {
        let patched = (after.snapshots_delta_applied - before.snapshots_delta_applied) as f64;
        let rebuilt = (after.snapshots_rebuilt - before.snapshots_rebuilt) as f64;
        self.set(
            "snapshot.patched_frac",
            crate::stats::ratio(patched, patched + rebuilt),
        );
    }

    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in ALL {
            report.metric(name, self.get(name), unit);
        }
    }
}

/// Summed ladder counters of every distinct share (names riding one
/// share report the same share-level counts, so one name per statement
/// is counted).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ladder {
    pub visited: u64,
    pub unvisited: u64,
    pub skipped: u64,
    pub patched: u64,
    pub rebuilt: u64,
}

impl Ladder {
    pub fn of(server: &ModServer) -> Ladder {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Ladder::default();
        for info in server.subscriptions() {
            if !seen.insert(info.statement.clone()) {
                continue;
            }
            let s = info.stats;
            out.visited += s.visited;
            out.unvisited += s.skipped_unvisited;
            out.skipped += s.skipped;
            out.patched += s.patched;
            out.rebuilt += s.rebuilt;
        }
        out
    }

    /// Sets the subscription-layer ratios for the span `self - before`
    /// over `commits` commits.
    pub fn record(&self, before: &Ladder, commits: u64, values: &mut LayerValues) {
        let visited = (self.visited - before.visited) as f64;
        let unvisited = (self.unvisited - before.unvisited) as f64;
        let skipped = (self.skipped - before.skipped) as f64;
        let patched = (self.patched - before.patched) as f64;
        let rebuilt = (self.rebuilt - before.rebuilt) as f64;
        let rungs = skipped + patched + rebuilt;
        use crate::stats::ratio;
        values.set(
            "subscription.visited_per_commit",
            ratio(visited, commits as f64),
        );
        values.set(
            "subscription.unvisited_frac",
            ratio(unvisited, visited + unvisited),
        );
        values.set("subscription.skip_frac", ratio(skipped, rungs));
        values.set("subscription.patch_frac", ratio(patched, rungs));
        values.set("subscription.rebuild_frac", ratio(rebuilt, rungs));
    }
}
