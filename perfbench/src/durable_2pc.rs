//! `durable_2pc`: a durable four-shard engine with the default
//! `DurabilityConfig` (fsync every record, checkpoint every 256 records
//! on the maintenance thread) over a 2k-row table split evenly. Two
//! writers, each on its own keys, commit two-row `transact`s whose keys
//! sit on different shards, so every commit is a 2PC; every other op
//! reads view `v0`. Afterwards the engine is synced and dropped, and
//! copies of its directory are recovered repeatedly. fsyncs, WAL
//! appends, 2PC prepare/resolve, background checkpoints, checkpoint load
//! and tail replay dominate; store copying is small. The only workload
//! on disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use esm_engine::checkpoint::{latest_valid_checkpoint, parse_checkpoint_name};
use esm_engine::{DurabilityConfig, Engine, ShardRouter, ShardedEngineServer};

use crate::fixture::{
    check_acked, check_views, define_views, run_client, seed_db, store_layers, Layout, TABLE, VIEWS,
};
use crate::harness::{
    median, pin_to_one_cpu, rss_mb, OpMix, OpStream, Recorder, Samples, Window, MAX_GENERATORS,
};
use crate::report::{engine_layers, phases_ns, Outcome, Probe, COMMIT_PHASES, VIEW_PHASES};
use crate::Config;

const SHARDS: usize = 4;

fn setup(layout: Layout, seed: u64, dir: &Path) -> ShardedEngineServer {
    let _ = std::fs::remove_dir_all(dir);
    let router = ShardRouter::uniform_int(SHARDS, 0, layout.rows).expect("even split");
    let engine = ShardedEngineServer::with_durability(
        seed_db(layout, seed),
        router,
        DurabilityConfig::new(dir),
    )
    .expect("durable engine");
    define_views(&engine).expect("views compile");
    engine
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn shard_dirs(base: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(base)
        .expect("engine directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

/// The size of each shard's newest checkpoint file: what recovery loads.
fn checkpoint_sizes(base: &Path) -> Vec<u64> {
    shard_dirs(base)
        .iter()
        .filter_map(|d| {
            std::fs::read_dir(d)
                .expect("shard directory")
                .filter_map(Result::ok)
                .filter_map(|e| {
                    let seq = parse_checkpoint_name(e.file_name().to_str()?)?;
                    Some((seq, e.metadata().ok()?.len()))
                })
                .max()
                .map(|(_, len)| len)
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    // Every thread of this run, the program's included, shares one CPU
    // (see `pin_to_one_cpu`).
    let _pin = pin_to_one_cpu();
    let rows: i64 = if cfg.tiny { 400 } else { 2_000 };
    let layout = Layout { rows, bands: 10 };
    let setups = if cfg.tiny { 2 } else { 60 };
    let recoveries = if cfg.tiny { 2 } else { 15 };
    let base = cfg
        .work_dir
        .join(format!("durable_2pc-{}", std::process::id()));
    let dir = base.join("engine");
    let mut out = Outcome::default();

    let t0 = Instant::now();
    let server = setup(layout, cfg.seed, &dir);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    out.end_to_end.insert("setup_rss_mb", rss_mb());
    setup_s.extend((1..setups).map(|i| {
        let extra_dir = base.join(format!("setup-{i}"));
        let t = Instant::now();
        let extra = setup(layout, cfg.seed, &extra_dir);
        let took = t.elapsed().as_secs_f64();
        drop(extra);
        std::fs::remove_dir_all(&extra_dir).expect("remove set-up copy");
        took
    }));
    out.end_to_end.insert("setup_s", median(setup_s));
    let registry = server.telemetry_registry().clone();
    if cfg.trace {
        registry.set_trace_sample_every(1);
    }
    let engine = server.as_engine();
    drop(server);

    // Writer t owns the keys with `id % 2 == t`; its key groups are the
    // shards, and each write takes two distinct groups: always a 2PC.
    // Half the ops read view `v0`, so many reads follow another read and
    // find no records to drain. The fast end of the read latencies is
    // then the fixed cost of a four-shard view read, not a number of
    // drained records that varies from run to run.
    let width = rows / SHARDS as i64;
    let mixes: Vec<OpMix> = (0..MAX_GENERATORS as i64)
        .map(|t| OpMix {
            read_permille: 500,
            views: 1,
            key_groups: (0..SHARDS as i64)
                .map(|s| {
                    (s * width..(s + 1) * width)
                        .filter(|id| id % 2 == t)
                        .collect()
                })
                .collect(),
            keys_per_write: 2,
        })
        .collect();
    let window = Window::new(cfg.warmup(), cfg.seconds);
    let epoch = Instant::now();
    let (before, mut log) = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .into_iter()
            .enumerate()
            .map(|(t, mix)| {
                let (engine, registry) = (&engine, &registry);
                s.spawn(move || {
                    let mut rec = Recorder::new(cfg.trace, epoch, t as u64 + 1)
                        .with_program_traces(registry.clone());
                    let ops = OpStream::new(cfg.seed, t as u64, mix);
                    run_client(&**engine, ops, window, layout, &mut rec, |_, _, _| {})
                })
            })
            .collect();
        window.wait_start();
        let before = Probe::take(&*engine, None);
        let mut logs = handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"));
        let mut first = logs.next().expect("two writers");
        for other in logs {
            first.merge(other);
        }
        (before, first)
    });
    engine.sync_wal().expect("sync");
    let after = Probe::take(&*engine, None);

    out.client_latency(
        &log.commits,
        &log.reads,
        [
            log.rate(&log.commits, &window),
            log.rate(&log.reads, &window),
        ],
    );

    let pre_drop = engine.snapshot().expect("snapshot");
    let table = pre_drop.table(TABLE).expect("kv table");
    out.attempted = log.ops + VIEWS as u64 + recoveries as u64;
    out.fail(log.errors, "engine calls returned errors");
    out.fail(log.bad_reads, "view reads returned rows outside their band");
    out.fail(
        check_acked(table, &log.last_acked),
        "acknowledged writes missing before drop",
    );
    out.fail(
        check_views(&*engine, table),
        "final views differ from the table",
    );
    drop(engine);

    // Recover copies of the dropped engine's directory: recovery may
    // append and checkpoint, and every repetition must start from the
    // same bytes.
    let mut recovery_ms = Vec::new();
    let mut replayed = 0u64;
    let mut rec = Recorder::new(cfg.trace, epoch, 8);
    for i in 0..recoveries {
        let copy = base.join(format!("recover-{i}"));
        copy_dir(&dir, &copy).expect("copy engine directory");
        let request = rec.fresh_id();
        let start = Instant::now();
        let recovered = ShardedEngineServer::recover_with(DurabilityConfig::new(&copy));
        let end = Instant::now();
        rec.record("engine.recover_with", 0, request, start, end);
        match recovered {
            Ok((engine, report)) => {
                recovery_ms.push((end - start).as_secs_f64() * 1e3);
                replayed = report.shards.iter().map(|r| r.records_replayed).sum();
                let back = engine.as_engine().snapshot().expect("snapshot");
                out.fail(
                    u64::from(back != pre_drop),
                    "recovered snapshot differs from pre-drop",
                );
                let table = back.table(TABLE).expect("kv table");
                out.fail(
                    check_acked(table, &log.last_acked),
                    "acknowledged writes missing after recovery",
                );
            }
            Err(e) => out.fail(1, format!("recovery failed: {e}")),
        }
        std::fs::remove_dir_all(&copy).expect("remove recovery copy");
    }
    let recovery_median = median(recovery_ms.clone());

    if cfg.trace {
        engine_layers(&mut out, &before, &after, &log.commits);
        // Checkpoint bytes written = checkpoints taken × the mean size of
        // the newest checkpoints (every checkpoint of a shard holds the
        // same number of rows).
        let sizes = checkpoint_sizes(&dir);
        let mean_ckpt = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
        let checkpoints = after.metrics.wal.checkpoints - before.metrics.wal.checkpoints;
        let segment = after.metrics.wal.bytes_written - before.metrics.wal.bytes_written;
        let commits = log.commits.len() as u64;
        out.layer(
            "disk_bytes_per_commit",
            (segment as f64 + checkpoints as f64 * mean_ckpt) / commits.max(1) as f64,
            commits,
        );
        out.layer("recovery_ms", recovery_median, recovery_ms.len() as u64);
        // `recover_with` loads each shard's newest valid checkpoint; the
        // same call timed alone splits recovery into load and replay.
        let load_ms: Vec<f64> = (0..recoveries)
            .map(|_| {
                let request = rec.fresh_id();
                let start = Instant::now();
                for shard in shard_dirs(&dir) {
                    let t = Instant::now();
                    latest_valid_checkpoint(&shard).expect("readable checkpoint");
                    rec.record(
                        "checkpoint.latest_valid_checkpoint",
                        0,
                        request,
                        t,
                        Instant::now(),
                    );
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let load = median(load_ms);
        out.layer("recovery.checkpoint_load_ms", load, recoveries as u64);
        out.layer(
            "recovery.replay_ms",
            recovery_median - load,
            recoveries as u64,
        );
        out.layer("recovery.records_replayed", replayed as f64, SHARDS as u64);
        out.layer(
            "recovery.checkpoint_bytes",
            sizes.iter().sum::<u64>() as f64,
            sizes.len() as u64,
        );
        let attributed = phases_ns(&before.tel, &after.tel, COMMIT_PHASES)
            + phases_ns(&before.tel, &after.tel, VIEW_PHASES);
        out.unattributed(
            log.client_ns(),
            attributed,
            (log.commits.len() + log.reads.len()) as u64,
            "commit snapshot + 2PC prepare/resolve/participant fsync, view phases; prepare fsyncs overlap",
        );
        out.client_tails(&log.commits, &log.reads, &Samples::default());
        let [untraced, traced] = std::mem::take(&mut log.commits_by_trace);
        out.trace_overhead(&traced, &untraced);
        store_layers(&mut out, table, epoch, 50);
        out.spans.extend(std::mem::take(&mut log.spans));
        out.spans.extend(rec.spans);
    }
    let _ = std::fs::remove_dir_all(&base);
    out
}
