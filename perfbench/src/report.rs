//! Metric names, the per-layer arithmetic over before/after counter
//! snapshots, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use esm_engine::{Engine, MetricsSnapshot, Phase, TelemetrySnapshot};
use esm_net::{NetServer, NetStats};

use crate::harness::{Samples, SpanRec};

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("commit_p10_us", "us"),
    ("read_p10_us", "us"),
    ("setup_s", "s"),
    ("setup_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by the traced run of every workload; a
/// layer the workload does not pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.snapshot_us", "us"),
    ("shard.validate_us", "us"),
    ("shard.lock_hold_us", "us"),
    ("shard.unattributed_us", "us"),
    ("shard.commits", "count"),
    ("shard.conflicts", "count"),
    ("shard.retries", "count"),
    ("shard.cross_shard_frac", "frac"),
    ("twopc.prepare_us", "us"),
    ("twopc.resolve_us", "us"),
    ("twopc.participant_fsync_us", "us"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.fsyncs_per_commit", "1/commit"),
    ("wal.bytes_per_commit", "B/commit"),
    ("wal.checkpoints", "count"),
    ("wal.segments_compacted", "count"),
    ("disk_bytes_per_commit", "B/commit"),
    ("recovery_ms", "ms"),
    ("recovery.checkpoint_load_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.records_replayed", "count"),
    ("recovery.checkpoint_bytes", "B"),
    ("view.drain_us", "us"),
    ("view.fold_us", "us"),
    ("view.rebuild_us", "us"),
    ("view.rebuilds", "count"),
    ("view.deltas_per_read", "1/read"),
    ("push_lag_p50_us", "us"),
    ("sub.drain_us", "us"),
    ("sub.resync_frac", "frac"),
    ("sub.push_bytes", "B"),
    ("net.decode_us", "us"),
    ("net.queue_wait_us", "us"),
    ("net.handler_us", "us"),
    ("net.write_us", "us"),
    ("net.push_write_us", "us"),
    ("net.client_unattributed_us", "us"),
    ("net.requests_per_commit", "1/commit"),
    ("net.bytes_out_per_request", "B/request"),
    ("net.bytes_in_per_request", "B/request"),
    ("store.table_clone_us", "us"),
    ("store.delta_between_us", "us"),
    ("obs.trace_overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("client.commit_tail_us", "us"),
    ("client.read_tail_us", "us"),
    ("client.push_lag_tail_us", "us"),
    ("client.commit_p50_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.commit_tput", "1/s"),
    ("client.read_tput", "1/s"),
];

/// One measured value with the count it was averaged or counted over.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub base: u64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, Value>,
    /// Free-form lines for the traced table (tails with their percentile
    /// and sample counts, the unattributed share).
    pub notes: Vec<String>,
    pub spans: Vec<SpanRec>,
    /// Raw counter deltas, written next to the spans.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn fail(&mut self, n: u64, why: impl AsRef<str>) {
        if n > 0 {
            self.failed += n;
            eprintln!("check failed ({n}): {}", why.as_ref());
        }
    }

    /// Verified operations over attempted ones.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    pub fn layer(&mut self, name: &'static str, value: f64, base: u64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, Value { value, base });
    }

    /// The client-observed latencies every workload reports alike. The
    /// end-to-end ones are the 10th percentiles: on a shared host,
    /// interference only ever adds time, so the fast end of the
    /// distribution tracks the program's own cost, while the median
    /// moves with how much of the run the host was busy (see README.md).
    /// The medians and rates are per-layer diagnostics.
    pub fn client_latency(&mut self, commits: &Samples, reads: &Samples, rates: [f64; 2]) {
        self.end_to_end
            .insert("commit_p10_us", commits.percentile_us(10.0));
        self.end_to_end
            .insert("read_p10_us", reads.percentile_us(10.0));
        let (nc, nr) = (commits.len() as u64, reads.len() as u64);
        self.layer("client.commit_p50_us", commits.median_us(), nc);
        self.layer("client.read_p50_us", reads.median_us(), nr);
        self.layer("client.commit_tput", rates[0], nc);
        self.layer("client.read_tput", rates[1], nr);
    }

    /// The client-side diagnostics every workload reports alike: each
    /// tail at the highest percentile with ten samples beyond it.
    pub fn client_tails(&mut self, commits: &Samples, reads: &Samples, push_lag: &Samples) {
        for (name, samples) in [
            ("client.commit_tail_us", commits),
            ("client.read_tail_us", reads),
            ("client.push_lag_tail_us", push_lag),
        ] {
            match samples.tail() {
                Some((p, us, beyond)) => {
                    self.layer(name, us, samples.len() as u64);
                    self.notes.push(format!(
                        "{name}: p{p} = {us:.1} us over {} samples ({beyond} beyond)",
                        samples.len()
                    ));
                }
                None => self.layer(name, 0.0, samples.len() as u64),
            }
        }
    }

    /// The program's tracing cost: the p50 of ops run under a program
    /// trace root (every request sampled) over the p50 of the
    /// interleaved ops run without one, minus 1.
    pub fn trace_overhead(&mut self, traced: &Samples, untraced: &Samples) {
        let (t, u) = (traced.median_us(), untraced.median_us());
        let frac = if u > 0.0 { t / u - 1.0 } else { 0.0 };
        self.layer("obs.trace_overhead_frac", frac, traced.len() as u64);
        self.notes.push(format!(
            "obs.trace_overhead_frac: p50 {t:.1} us under a program trace root ({} ops) vs {u:.1} us without ({} ops)",
            traced.len(),
            untraced.len()
        ));
    }

    /// The share of client time no engine or net phase accounts for.
    pub fn unattributed(&mut self, client_ns: u64, attributed_ns: u64, ops: u64, what: &str) {
        let frac = if client_ns > 0 {
            1.0 - attributed_ns as f64 / client_ns as f64
        } else {
            0.0
        };
        self.layer("trace.unattributed_frac", frac, ops);
        self.notes.push(format!(
            "unattributed share: {:.1}% of {:.1} ms client time ({what})",
            frac * 100.0,
            client_ns as f64 / 1e6
        ));
    }
}

/// Engine (and optionally net-server) counters at one instant.
#[derive(Debug, Clone)]
pub struct Probe {
    pub tel: TelemetrySnapshot,
    pub metrics: MetricsSnapshot,
    pub net: Option<(TelemetrySnapshot, NetStats)>,
}

impl Probe {
    pub fn take(engine: &dyn Engine, net: Option<&NetServer>) -> Probe {
        Probe {
            tel: engine.telemetry().expect("in-process telemetry"),
            metrics: engine.metrics().expect("in-process metrics"),
            net: net.map(|n| (n.telemetry(), n.stats())),
        }
    }
}

/// `(count, sum ns)` a phase gained between two snapshots.
pub fn phase_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    phase: Phase,
) -> (u64, u64) {
    let get = |t: &TelemetrySnapshot| t.phase(phase).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Mean microseconds of a [`phase_delta`]; 0 when nothing was recorded.
pub fn mean_us((count, sum): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Engine phases that together cover one commit without nesting: the
/// snapshot, then either the single-shard lock hold (validate, WAL
/// append and fsync run inside it) or the 2PC protocol's phases.
pub const COMMIT_PHASES: &[Phase] = &[
    Phase::CommitSnapshot,
    Phase::CommitLockHold,
    Phase::TwopcPrepare,
    Phase::TwopcResolve,
    Phase::TwopcParticipantFsync,
];

/// View-maintenance phases of a read.
pub const VIEW_PHASES: &[Phase] = &[Phase::ViewDrain, Phase::ViewDeltaFold, Phase::ViewRebuild];

/// Server-side phases of one request (the handler includes the engine).
pub const NET_PHASES: &[Phase] = &[
    Phase::NetFrameDecode,
    Phase::NetQueueWait,
    Phase::NetHandler,
    Phase::NetResponseWrite,
];

/// Summed nanoseconds of `phases` between two snapshots.
pub fn phases_ns(before: &TelemetrySnapshot, after: &TelemetrySnapshot, phases: &[Phase]) -> u64 {
    phases
        .iter()
        .map(|&p| phase_delta(before, after, p).1)
        .sum()
}

/// The engine-side per-layer metrics (`engine::shard`, coordinator,
/// WAL, view maintenance, `engine::sub`) from two probes, with the
/// client commit samples for the unattributed remainder.
pub fn engine_layers(out: &mut Outcome, before: &Probe, after: &Probe, commits: &Samples) {
    let (t0, t1) = (&before.tel, &after.tel);
    let (m0, m1) = (&before.metrics, &after.metrics);
    let timed = [
        ("shard.snapshot_us", Phase::CommitSnapshot),
        ("shard.validate_us", Phase::CommitValidate),
        ("shard.lock_hold_us", Phase::CommitLockHold),
        ("twopc.prepare_us", Phase::TwopcPrepare),
        ("twopc.resolve_us", Phase::TwopcResolve),
        ("twopc.participant_fsync_us", Phase::TwopcParticipantFsync),
        ("wal.append_us", Phase::CommitWalAppend),
        ("wal.fsync_us", Phase::CommitFsync),
        ("view.drain_us", Phase::ViewDrain),
        ("view.fold_us", Phase::ViewDeltaFold),
        ("view.rebuild_us", Phase::ViewRebuild),
        ("sub.drain_us", Phase::SubDrain),
    ];
    for (name, phase) in timed {
        let d = phase_delta(t0, t1, phase);
        out.layer(name, mean_us(d), d.0);
    }
    let commits_n = m1.commits - m0.commits;
    let single = m1.shard.single_shard_commits - m0.shard.single_shard_commits;
    let cross = m1.shard.cross_shard_commits - m0.shard.cross_shard_commits;
    out.layer("shard.commits", commits_n as f64, commits_n);
    out.layer(
        "shard.conflicts",
        (m1.conflicts - m0.conflicts) as f64,
        commits_n,
    );
    out.layer("shard.retries", (m1.retries - m0.retries) as f64, commits_n);
    out.layer(
        "shard.cross_shard_frac",
        ratio(cross, single + cross),
        single + cross,
    );
    let engine_ns = phases_ns(t0, t1, COMMIT_PHASES);
    let unattributed = commits.mean_us() - ratio(engine_ns, commits.len() as u64) / 1e3;
    out.layer("shard.unattributed_us", unattributed, commits.len() as u64);

    let (w0, w1) = (&m0.wal, &m1.wal);
    out.layer(
        "wal.fsyncs_per_commit",
        ratio(w1.syncs - w0.syncs, commits_n),
        commits_n,
    );
    out.layer(
        "wal.bytes_per_commit",
        ratio(w1.bytes_written - w0.bytes_written, commits_n),
        commits_n,
    );
    out.layer(
        "wal.checkpoints",
        (w1.checkpoints - w0.checkpoints) as f64,
        commits_n,
    );
    out.layer(
        "wal.segments_compacted",
        (w1.segments_compacted - w0.segments_compacted) as f64,
        commits_n,
    );

    let reads = m1.view_reads - m0.view_reads;
    out.layer(
        "view.rebuilds",
        (m1.view.rebuilds - m0.view.rebuilds) as f64,
        reads,
    );
    out.layer(
        "view.deltas_per_read",
        ratio(m1.view.deltas_applied - m0.view.deltas_applied, reads),
        reads,
    );

    for (k, v) in [
        ("engine.commits", commits_n),
        ("engine.single_shard_commits", single),
        ("engine.cross_shard_commits", cross),
        ("engine.view_reads", reads),
        ("engine.wal_syncs", w1.syncs - w0.syncs),
        (
            "engine.wal_bytes_written",
            w1.bytes_written - w0.bytes_written,
        ),
        ("engine.wal_checkpoints", w1.checkpoints - w0.checkpoints),
    ] {
        out.counters.insert(k.to_string(), v);
    }
    for &phase in Phase::ALL.iter() {
        let (n, ns) = phase_delta(t0, t1, phase);
        out.counters
            .insert(format!("phase.{}.count", phase.name()), n);
        out.counters
            .insert(format!("phase.{}.sum_ns", phase.name()), ns);
    }
}

/// Fill every per-layer metric the workload did not set with 0: that
/// layer is not on this workload's path.
pub fn fill_absent_layers(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        out.layers.entry(name).or_insert(Value {
            value: 0.0,
            base: 0,
        });
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// the end-to-end metrics (untraced run) or the per-layer ones (traced).
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let mut metrics = String::new();
    let table = if traced { PER_LAYER } else { END_TO_END };
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = if traced {
            out.layers.get(name).map(|v| v.value)
        } else {
            out.end_to_end.get(name).copied()
        }
        .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    )
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; `null` for a non-finite value, which is a measurement bug.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The per-layer table of the traced run: each metric with its unit and
/// the count it is based on, then the notes.
pub fn layer_table(workload: &str, out: &Outcome) -> String {
    let mut s = format!("per-layer attribution, workload {workload}\n");
    for (name, unit) in PER_LAYER {
        let v = out.layers[name];
        writeln!(
            s,
            "  {name:<30} {:>14.3} {unit:<10} base {}",
            v.value, v.base
        )
        .expect("write to String");
    }
    for note in &out.notes {
        writeln!(s, "  {note}").expect("write to String");
    }
    s
}

/// The trace file: layer table, counter deltas and every recorded span.
pub fn trace_json(workload: &str, seed: u64, out: &Outcome) -> String {
    let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"layers\": [");
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let v = out.layers[name];
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}{{\"name\": \"{name}\", \"value\": {}, \"unit\": \"{unit}\", \"base\": {}}}",
            json_num(v.value),
            v.base
        )
        .expect("write to String");
    }
    s.push_str("], \"counters\": {");
    for (i, (k, v)) in out.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{k}\": {v}").expect("write to String");
    }
    s.push_str("}, \"spans\": [\n");
    for (i, sp) in out.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            s,
            "{sep}{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id, sp.parent, sp.request, sp.name, sp.start_ns, sp.end_ns
        )
        .expect("write to String");
    }
    s.push_str("\n]}\n");
    s
}
