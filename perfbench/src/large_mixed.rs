//! `large_mixed`: an in-process, memory-only, one-shard engine over a
//! 20k-row table with four ~1% views. One writer commits single-row
//! `transact`s on uniform keys while one reader reads random views.
//! Every commit today copies the whole database (snapshot, working copy,
//! `Delta::between`), so `esm-store` and the `engine::shard` commit path
//! do nearly all the work; the reads beside the writes show what a
//! commit-path change costs view reads. 20k rows keeps a commit
//! O(database) (~16–25 ms) while a run still holds hundreds of commits, so
//! their percentiles are steady; at 100k rows a run held ~120.

use std::time::Instant;

use esm_engine::{Engine, ShardedEngineServer};

use crate::fixture::{
    check_acked, check_views, define_views, run_client, seed_db, store_layers, Layout, TABLE, VIEWS,
};
use crate::harness::{median, rss_mb, OpMix, OpStream, Recorder, Samples, Window};
use crate::report::{engine_layers, phases_ns, Outcome, Probe, COMMIT_PHASES, VIEW_PHASES};
use crate::Config;

fn setup(layout: Layout, seed: u64) -> ShardedEngineServer {
    let engine = ShardedEngineServer::new(seed_db(layout, seed), 1).expect("one-shard engine");
    define_views(&engine).expect("views compile");
    engine
}

pub fn run(cfg: &Config) -> Outcome {
    let rows: i64 = if cfg.tiny { 2_000 } else { 20_000 };
    let layout = Layout { rows, bands: 100 };
    let setups = if cfg.tiny { 2 } else { 11 };
    let mut out = Outcome::default();

    // The first engine serves the timed phase; RSS is read right after
    // it is built, before later set-ups churn the allocator.
    let t0 = Instant::now();
    let server = setup(layout, cfg.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    out.end_to_end.insert("setup_rss_mb", rss_mb());
    setup_s.extend((1..setups).map(|_| {
        let t = Instant::now();
        drop(setup(layout, cfg.seed));
        t.elapsed().as_secs_f64()
    }));
    out.end_to_end.insert("setup_s", median(setup_s));
    let registry = server.telemetry_registry().clone();
    if cfg.trace {
        registry.set_trace_sample_every(1);
    }
    let engine = server.as_engine();

    let writes = OpMix {
        read_permille: 0,
        views: VIEWS,
        key_groups: vec![(0..rows).collect()],
        keys_per_write: 1,
    };
    let reads = OpMix {
        read_permille: 1000,
        ..writes.clone()
    };
    let window = Window::new(cfg.warmup(), cfg.seconds);
    let epoch = Instant::now();
    let (before, wlog, rlog) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut rec = Recorder::new(cfg.trace, epoch, 1).with_program_traces(registry.clone());
            let ops = OpStream::new(cfg.seed, 0, writes);
            run_client(&*engine, ops, window, layout, &mut rec, |_, _, _| {})
        });
        let reader = s.spawn(|| {
            let mut rec = Recorder::new(cfg.trace, epoch, 2).with_program_traces(registry.clone());
            let ops = OpStream::new(cfg.seed, 1, reads);
            run_client(&*engine, ops, window, layout, &mut rec, |_, _, _| {})
        });
        window.wait_start();
        let before = Probe::take(&*engine, None);
        (
            before,
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let after = Probe::take(&*engine, None);

    out.client_latency(
        &wlog.commits,
        &rlog.reads,
        [
            wlog.rate(&wlog.commits, &window),
            rlog.rate(&rlog.reads, &window),
        ],
    );

    // Correctness: every acknowledged write is in the final table, and
    // every view equals the filtered final table.
    let db = engine.snapshot().expect("snapshot");
    let table = db.table(TABLE).expect("kv table");
    out.attempted = wlog.ops + rlog.ops + VIEWS as u64;
    out.fail(wlog.errors + rlog.errors, "engine calls returned errors");
    out.fail(
        rlog.bad_reads,
        "view reads returned rows outside their band",
    );
    out.fail(
        check_acked(table, &wlog.last_acked),
        "acknowledged writes missing",
    );
    out.fail(
        check_views(&*engine, table),
        "final views differ from the table",
    );

    if cfg.trace {
        engine_layers(&mut out, &before, &after, &wlog.commits);
        let attributed = phases_ns(&before.tel, &after.tel, COMMIT_PHASES)
            + phases_ns(&before.tel, &after.tel, VIEW_PHASES);
        out.unattributed(
            wlog.client_ns() + rlog.client_ns(),
            attributed,
            (wlog.commits.len() + rlog.reads.len()) as u64,
            "commit snapshot + lock hold, view drain/fold/rebuild",
        );
        out.client_tails(&wlog.commits, &rlog.reads, &Samples::default());
        out.trace_overhead(&rlog.reads_by_trace[1], &rlog.reads_by_trace[0]);
        store_layers(&mut out, table, epoch, 5);
        out.spans.extend(wlog.spans);
        out.spans.extend(rlog.spans);
    }
    out
}
