//! `socket_small`: a loopback `NetServer` (default config) over a
//! memory-only one-shard engine with a 2k-row table and four 200-row
//! views. Thread A drives one `RemoteEngine` connection with a seeded
//! 90/10 mix of view reads and single-row commits, every write landing
//! in view `v0`; thread B holds one `SubscriptionClient` on `v0` and
//! folds each push into a local replica. Store work is small at this
//! size, so `esm-net` (frame decode, queue, handler, response write,
//! codec, loopback) and subscription fan-out dominate. The views hold
//! 200 rows, not 20: a 20-row read is ~80 µs, about half of it thread
//! wake-ups, which a busy host stretches by tens of µs; a 200-row read
//! spends most of its time in the codec and handler.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esm_engine::{ArcEngine, Engine, ShardedEngineServer};
use esm_net::{NetServer, NetServerConfig, PushEvent, RemoteEngine, Response, SubscriptionClient};
use esm_store::Table;

use crate::fixture::{
    define_views, run_client, seed_db, sorted_rows, store_layers, view_name, Layout, TABLE, VIEWS,
};
use crate::harness::{median, pin_to_one_cpu, rss_mb, OpMix, OpStream, Recorder, Samples, Window};
use crate::report::{engine_layers, mean_us, phase_delta, phases_ns, Outcome, Probe, NET_PHASES};
use crate::Config;

/// How long the subscriber waits for the last pushes after the writer
/// stops before counting them as lost.
const PUSH_GRACE: Duration = Duration::from_secs(3);

struct Stack {
    engine: ArcEngine,
    server: NetServer,
    remote: RemoteEngine,
    sub: SubscriptionClient,
    replica: Table,
}

/// Engine, server, one request connection and one subscription on
/// `v0` whose initial resync push has arrived.
fn setup(layout: Layout, seed: u64) -> Stack {
    let engine = ShardedEngineServer::new(seed_db(layout, seed), 1)
        .expect("one-shard engine")
        .as_engine();
    define_views(&*engine).expect("views compile");
    let server = NetServer::bind(engine.clone(), "127.0.0.1:0", NetServerConfig::default())
        .expect("loopback bind");
    let remote = RemoteEngine::connect(server.local_addr()).expect("request connection");
    let mut sub =
        SubscriptionClient::connect(server.local_addr()).expect("subscription connection");
    sub.subscribe(&view_name(0), None).expect("subscribe");
    let first = sub
        .next_push(Duration::from_secs(10))
        .expect("subscription alive")
        .expect("initial resync push");
    let mut replica = Table::new(
        first
            .resync
            .as_ref()
            .expect("initial push resyncs")
            .schema()
            .clone(),
    );
    first.apply(&mut replica).expect("resync applies");
    Stack {
        engine,
        server,
        remote,
        sub,
        replica,
    }
}

fn teardown(stack: Stack) {
    drop(stack.sub);
    drop(stack.remote);
    stack.server.shutdown();
}

/// Writes whose push has not arrived yet: value → (start, request id).
type Pending = Mutex<HashMap<i64, (Instant, u64)>>;

/// What the subscriber thread saw.
#[derive(Debug, Default)]
struct SubLog {
    lag: Samples,
    pushes: u64,
    resyncs: u64,
    push_bytes: u64,
    errors: u64,
}

fn int(v: &esm_store::Value) -> Option<i64> {
    match v {
        esm_store::Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// Fold pushes into `replica` until the writer is done and every write
/// it started has been seen (or the grace period ran out). A write is
/// seen when a push carries its value; its lag runs from the writer's
/// `transact` call to that push's arrival, and is a sample when the
/// write started inside the measured window. A traced run records each
/// received push and each lag interval (under the write's request id).
fn subscriber(
    sub: &mut SubscriptionClient,
    replica: &mut Table,
    pending: &Pending,
    writer_done: &AtomicBool,
    window: Window,
    rec: &mut Recorder,
) -> SubLog {
    let mut log = SubLog::default();
    let mut done_at: Option<Instant> = None;
    loop {
        if writer_done.load(Ordering::SeqCst) {
            let done = *done_at.get_or_insert_with(Instant::now);
            if pending.lock().expect("pending lock").is_empty() || done.elapsed() > PUSH_GRACE {
                return log;
            }
        }
        let start = Instant::now();
        let ev: PushEvent = match sub.next_push(Duration::from_millis(20)) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(e) => {
                eprintln!("subscription failed: {e}");
                log.errors += 1;
                return log;
            }
        };
        let now = Instant::now();
        let request = rec.fresh_id();
        rec.record("sub.next_push", 0, request, start, now);
        log.pushes += 1;
        if ev.resync.is_some() {
            log.resyncs += 1;
        }
        if rec.enabled() {
            let frame = Response::Push {
                view: ev.view.clone(),
                from_seq: ev.from_seq,
                to_seq: ev.to_seq,
                delta: ev.delta.clone(),
                resync: ev.resync.clone(),
            };
            log.push_bytes += frame.encode().len() as u64;
        }
        if let Err(e) = ev.apply(replica) {
            eprintln!("push did not apply: {e}");
            log.errors += 1;
        }
        let carried: Vec<i64> = match &ev.resync {
            Some(w) => w.rows().filter_map(|r| int(&r[2])).collect(),
            None => ev
                .delta
                .inserted
                .iter()
                .filter_map(|r| int(&r[2]))
                .collect(),
        };
        let mut pending = pending.lock().expect("pending lock");
        for val in carried {
            match pending.remove(&val) {
                Some((start, request)) if start >= window.start => {
                    log.lag.push(now - start);
                    rec.record("client.push_lag", 0, request, start, now);
                }
                _ => {}
            }
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    // Every thread of this run, the program's included, shares one CPU
    // (see `pin_to_one_cpu`).
    let _pin = pin_to_one_cpu();
    let rows: i64 = if cfg.tiny { 400 } else { 2_000 };
    let layout = Layout { rows, bands: 10 };
    let setups = if cfg.tiny { 2 } else { 60 };
    let mut out = Outcome::default();

    let t0 = Instant::now();
    let stack = setup(layout, cfg.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    out.end_to_end.insert("setup_rss_mb", rss_mb());
    setup_s.extend((1..setups).map(|_| {
        let t = Instant::now();
        let extra = setup(layout, cfg.seed);
        let took = t.elapsed().as_secs_f64();
        teardown(extra);
        took
    }));
    out.end_to_end.insert("setup_s", median(setup_s));

    // Writes only touch band 0, the subscribed view's keys.
    let mix = OpMix {
        read_permille: 900,
        views: VIEWS,
        key_groups: vec![(0..rows).filter(|&id| layout.band(id) == 0).collect()],
        keys_per_write: 1,
    };
    let pending: Pending = Mutex::new(HashMap::new());
    let writer_done = AtomicBool::new(false);
    let window = Window::new(cfg.warmup(), cfg.seconds);
    let epoch = Instant::now();
    let Stack {
        engine,
        server,
        remote,
        mut sub,
        mut replica,
    } = stack;
    // The traced run roots every other request in the client's trace
    // registry; the server roots its own tree under the wire context.
    let registry = remote.telemetry_registry().clone();
    if cfg.trace {
        registry.set_trace_sample_every(1);
    }
    let (before, alog, (slog, sub_spans)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut rec = Recorder::new(cfg.trace, epoch, 1).with_program_traces(registry);
            let ops = OpStream::new(cfg.seed, 0, mix);
            let log = run_client(
                &remote,
                ops,
                window,
                layout,
                &mut rec,
                |val, start, request| {
                    pending
                        .lock()
                        .expect("pending lock")
                        .insert(val, (start, request));
                },
            );
            writer_done.store(true, Ordering::SeqCst);
            log
        });
        let subscriber = s.spawn(|| {
            let mut rec = Recorder::new(cfg.trace, epoch, 2);
            let log = subscriber(
                &mut sub,
                &mut replica,
                &pending,
                &writer_done,
                window,
                &mut rec,
            );
            (log, rec.spans)
        });
        window.wait_start();
        let before = Probe::take(&*engine, Some(&server));
        (
            before,
            writer.join().expect("writer thread"),
            subscriber.join().expect("subscriber thread"),
        )
    });
    let after = Probe::take(&*engine, Some(&server));

    out.client_latency(
        &alog.commits,
        &alog.reads,
        [
            alog.rate(&alog.commits, &window),
            alog.rate(&alog.reads, &window),
        ],
    );

    // Correctness: every commit's push arrived, and the replica built
    // from pushes equals the final view.
    let lost = pending.lock().expect("pending lock").len() as u64;
    out.attempted = alog.ops + 1;
    out.fail(
        alog.errors + slog.errors,
        "engine or subscription calls returned errors",
    );
    out.fail(
        alog.bad_reads,
        "view reads returned rows outside their band",
    );
    out.fail(lost, "commits whose push never arrived");
    let final_view = remote.read_view(&view_name(0)).expect("final read");
    out.fail(
        u64::from(sorted_rows(&replica) != sorted_rows(&final_view)),
        "push-built replica differs from the final view",
    );

    if cfg.trace {
        engine_layers(&mut out, &before, &after, &alog.commits);
        net_layers(
            &mut out,
            &before,
            &after,
            &alog.reads,
            alog.client_ns(),
            alog.commits.len() as u64,
        );
        out.layer(
            "push_lag_p50_us",
            slog.lag.median_us(),
            slog.lag.len() as u64,
        );
        out.layer(
            "sub.resync_frac",
            slog.resyncs as f64 / slog.pushes.max(1) as f64,
            slog.pushes,
        );
        out.layer(
            "sub.push_bytes",
            slog.push_bytes as f64 / slog.pushes.max(1) as f64,
            slog.pushes,
        );
        out.client_tails(&alog.commits, &alog.reads, &slog.lag);
        out.trace_overhead(&alog.reads_by_trace[1], &alog.reads_by_trace[0]);
        let db = engine.snapshot().expect("snapshot");
        store_layers(&mut out, db.table(TABLE).expect("kv table"), epoch, 50);
        out.spans.extend(alog.spans);
        out.spans.extend(sub_spans);
    }
    drop(remote);
    drop(sub);
    server.shutdown();
    out
}

/// `esm-net` per-layer metrics: server phases per request, request and
/// byte counts per commit/request, and the client time no server phase
/// covers.
fn net_layers(
    out: &mut Outcome,
    before: &Probe,
    after: &Probe,
    reads: &Samples,
    client_ns: u64,
    commits: u64,
) {
    let ((n0, s0), (n1, s1)) = (
        before.net.as_ref().expect("net probe"),
        after.net.as_ref().expect("net probe"),
    );
    let requests = s1.requests - s0.requests;
    let pushes = s1.pushes - s0.pushes;
    for (name, phase) in [
        ("net.decode_us", esm_engine::Phase::NetFrameDecode),
        ("net.queue_wait_us", esm_engine::Phase::NetQueueWait),
        ("net.handler_us", esm_engine::Phase::NetHandler),
        ("net.write_us", esm_engine::Phase::NetResponseWrite),
        ("net.push_write_us", esm_engine::Phase::NetPushWrite),
    ] {
        let d = phase_delta(n0, n1, phase);
        out.layer(name, mean_us(d), d.0);
    }
    let server_ns = phases_ns(n0, n1, NET_PHASES);
    out.layer(
        "net.client_unattributed_us",
        (client_ns as f64 - server_ns as f64) / requests.max(1) as f64 / 1e3,
        requests,
    );
    let commit_requests = requests.saturating_sub(reads.len() as u64);
    out.layer(
        "net.requests_per_commit",
        commit_requests as f64 / commits.max(1) as f64,
        commits,
    );
    out.layer(
        "net.bytes_out_per_request",
        (s1.bytes_written - s0.bytes_written) as f64 / (requests + pushes).max(1) as f64,
        requests + pushes,
    );
    out.layer(
        "net.bytes_in_per_request",
        (s1.bytes_read - s0.bytes_read) as f64 / requests.max(1) as f64,
        requests,
    );
    out.unattributed(
        client_ns,
        server_ns,
        requests,
        "net decode + queue + handler + write, per request",
    );
    for (k, v) in [
        ("net.requests", requests),
        ("net.pushes", pushes),
        ("net.bytes_read", s1.bytes_read - s0.bytes_read),
        ("net.bytes_written", s1.bytes_written - s0.bytes_written),
    ] {
        out.counters.insert(k.to_string(), v);
    }
}
