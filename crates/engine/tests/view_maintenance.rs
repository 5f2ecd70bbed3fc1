//! The incremental/recompute equivalence law for materialized views.
//!
//! `read_view` serves a maintained window (deltas folded in since the
//! last read, shard-pruned under key bounds); the law says that after
//! *any* sequence of commits, shard splits and merges, that window
//! equals a fresh lens `get` over the assembled base — the two read
//! paths may never be observably different.
//!
//! The law body lives in [`esm_engine::testkit`] and is written against
//! `&dyn Engine`, so **one code path** checks every implementation: the
//! proptests here drive it against a one-shard and a multi-shard
//! [`ShardedEngineServer`]; the `esm-net` crate's suite drives the very
//! same function against a `RemoteEngine` over a loopback socket. A
//! sharded-only proptest keeps the topology churn (splits/merges are
//! operator surface, not `Engine` surface).

use proptest::prelude::*;

use esm_engine::testkit::{
    self, check_view_maintenance, decode_op, recompute, seed_db, view_defs, Op, KEYS,
};
use esm_engine::{DurabilityConfig, Engine, Phase, ShardRouter, ShardedEngineServer};
use esm_relational::ViewDef;
use esm_store::{row, Table};

fn arb_ops() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..10, 0i64..10_000, 0i64..10_000), 1..30)
}

/// The scripted op families (0..8) plus online splits (8), merges (9)
/// and in-memory WAL truncation (10).
fn arb_sub_ops() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..11, 0i64..10_000, 0i64..10_000), 1..30)
}

fn four_shards() -> ShardedEngineServer {
    ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
    )
    .expect("sharded engine")
}

/// A subscriber per view folds `view_deltas_since` batches into its own
/// copy of the window while `ops` run. After every step each copy must
/// equal `read_view`, and every batch with no split/merge since the
/// previous drain must be a delta, not a resync. Returns the number of
/// non-empty delta batches and of resyncs seen.
fn check_subscriber_drains(engine: &ShardedEngineServer, ops: &[(u8, i64, i64)]) -> (u64, u64) {
    let defs = view_defs();
    let mut subs: Vec<(u64, Table)> = Vec::new();
    for (name, def) in &defs {
        engine.define_view(*name, "t", def).expect("compiles");
        let cursor = engine.view_cursor(name).expect("cursor");
        subs.push((cursor, engine.read_view(name).expect("readable")));
    }
    let (mut deltas, mut resyncs) = (0, 0);
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let reshaped = match kind {
            8 => engine.split_shard(row![a.rem_euclid(KEYS)]).is_ok(),
            9 if engine.shard_count() > 1 => {
                let left = (a.unsigned_abs() as usize) % (engine.shard_count() - 1);
                engine.merge_shards(left).expect("adjacent shards merge");
                true
            }
            9 => false,
            10 => {
                engine.truncate_wals().expect("truncates");
                false
            }
            _ => {
                testkit::apply_op(engine, decode_op(kind, a, b));
                false
            }
        };
        for ((name, _), (cursor, copy)) in defs.iter().zip(subs.iter_mut()) {
            let batch = engine.view_deltas_since(name, *cursor).expect("drains");
            assert_eq!(batch.from_seq, *cursor);
            match batch.resync {
                Some(window) => {
                    assert!(
                        reshaped,
                        "view {name}: resync without a split/merge at op {i}"
                    );
                    *copy = window;
                    resyncs += 1;
                }
                None => {
                    batch.delta.apply_in_place(copy).expect("delta applies");
                    if !batch.delta.is_empty() {
                        deltas += 1;
                    }
                }
            }
            *cursor = batch.to_seq;
            assert_eq!(
                *copy,
                engine.read_view(name).expect("readable"),
                "view {name}: subscriber copy diverged at op {i}"
            );
        }
    }
    (deltas, resyncs)
}

proptest! {
    #[test]
    fn unsharded_views_equal_fresh_recompute(ops in arb_ops()) {
        let engine = ShardedEngineServer::new(seed_db(), 1).unwrap();
        check_view_maintenance(&engine, &ops);
    }

    #[test]
    fn sharded_views_equal_fresh_recompute(ops in arb_ops()) {
        let engine = ShardedEngineServer::with_router(
            seed_db(),
            ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
        )
        .expect("sharded engine");
        check_view_maintenance(&engine, &ops);
        // The key-bounded views pruned shards along the way (the seed
        // router has 4 shards and `low` touches at most two).
        prop_assert!(Engine::metrics(&engine).expect("metrics").view.shards_pruned > 0);
    }

    /// Topology churn stays a sharded-only concern: interleave the
    /// scripted ops with online splits and merges and re-check the law
    /// after every step (epoch bumps invalidate windows; reads must
    /// rebuild correctly).
    #[test]
    fn sharded_views_survive_splits_and_merges(ops in arb_ops()) {
        let engine = ShardedEngineServer::with_router(
            seed_db(),
            ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
        )
        .expect("sharded engine");
        let defs = view_defs();
        for (name, def) in &defs {
            engine.define_view(*name, "t", def).expect("compiles");
        }

        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            match kind {
                8 => {
                    // Splitting at an existing boundary is a scripted
                    // no-op, not a failure.
                    let _ = engine.split_shard(row![a.rem_euclid(KEYS)]);
                }
                9 => {
                    if engine.shard_count() > 1 {
                        let left =
                            (a.unsigned_abs() as usize) % (engine.shard_count() - 1);
                        engine.merge_shards(left).expect("adjacent shards merge");
                    }
                }
                _ => testkit::apply_op(&engine, decode_op(kind % 8, a, b)),
            }
            let snap = engine.snapshot();
            let base = snap.table("t").expect("exists");
            for (name, def) in &defs {
                prop_assert_eq!(
                    Engine::read_view(&engine, name).expect("readable"),
                    recompute(def, base),
                    "view {} diverged from recomputation at op {}", name, i
                );
            }
        }

        // Steady state: the topology is now stable, so repeated reads
        // rebuild nothing and apply nothing.
        let before = Engine::metrics(&engine).expect("metrics").view;
        for _ in 0..3 {
            for (name, _) in &defs {
                Engine::read_view(&engine, name).expect("readable");
            }
        }
        let after = Engine::metrics(&engine).expect("metrics").view;
        prop_assert_eq!(after.rebuilds, before.rebuilds);
        prop_assert_eq!(after.deltas_applied, before.deltas_applied);
    }

    /// Subscriptions are O(delta) on every shard count: folding drained
    /// batches reproduces `read_view` across commits, 2PCs, truncations
    /// and topology churn, resyncing only across a split/merge.
    #[test]
    fn subscriber_drains_equal_read_view(ops in arb_sub_ops()) {
        check_subscriber_drains(&ShardedEngineServer::new(seed_db(), 1).unwrap(), &ops);
        check_subscriber_drains(&four_shards(), &ops);
    }

    /// The conformance suite also runs through `dyn Engine` handles —
    /// the exact shape the network server holds.
    #[test]
    fn dyn_engine_handles_satisfy_the_law(ops in arb_ops()) {
        let concrete = ShardedEngineServer::new(seed_db(), 1).unwrap();
        let dynamic: esm_engine::ArcEngine = concrete.as_engine();
        check_view_maintenance(&*dynamic, &ops);
    }
}

/// Scripted (non-proptest) run so a plain `cargo test` exercises every
/// op shape deterministically on both hosts.
#[test]
fn scripted_ops_cover_all_shapes() {
    let script: Vec<(u8, i64, i64)> = (0..40u8)
        .map(|i| (i % 10, i as i64 * 7, i as i64 * 13))
        .collect();
    let one_shard = ShardedEngineServer::new(seed_db(), 1).unwrap();
    check_view_maintenance(&one_shard, &script);
    let sharded = ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
    )
    .expect("sharded engine");
    check_view_maintenance(&sharded, &script);
}

/// Scripted subscriber run: commits (2PCs on four shards) and
/// truncations drain as deltas, recorded under the `SubDrain` phase.
#[test]
fn scripted_subscriber_drains_are_deltas() {
    let script: Vec<(u8, i64, i64)> = (0..40u8)
        .map(|i| {
            (
                if i % 9 == 8 { 10 } else { i % 8 },
                i as i64 * 7,
                i as i64 * 13,
            )
        })
        .collect();
    for engine in [
        ShardedEngineServer::new(seed_db(), 1).unwrap(),
        four_shards(),
    ] {
        let (deltas, resyncs) = check_subscriber_drains(&engine, &script);
        assert!(deltas > 0, "subscribers drained delta batches");
        assert_eq!(resyncs, 0, "no split/merge, so no resync");
        assert!(engine.telemetry().count(Phase::SubDrain) > 0);
    }
}

/// Cursors the stamp index cannot map resync: the `u64::MAX` sentinel,
/// a cursor ahead of the current stamp, and one from before a split.
#[test]
fn unmappable_cursors_resync() {
    let engine = four_shards();
    engine.define_view("all", "t", &ViewDef::base()).unwrap();
    let cursor = engine.view_cursor("all").unwrap();
    testkit::apply_op(&engine, decode_op(0, 1, 2));
    for unmappable in [u64::MAX, cursor + 1000] {
        let batch = engine.view_deltas_since("all", unmappable).unwrap();
        assert!(batch.resync.is_some(), "cursor {unmappable}");
    }
    let batch = engine.view_deltas_since("all", cursor).unwrap();
    assert!(batch.resync.is_none(), "an in-range cursor drains a delta");
    // A split restarts every shard's stamp index.
    engine.split_shard(row![5]).unwrap();
    let after = engine.view_deltas_since("all", batch.to_seq).unwrap();
    assert_eq!(after.resync, Some(engine.read_view("all").unwrap()));
    // Cursors taken after it drain deltas again.
    let cursor = engine.view_cursor("all").unwrap();
    testkit::apply_op(&engine, decode_op(0, 3, 4));
    let batch = engine.view_deltas_since("all", cursor).unwrap();
    assert!(batch.resync.is_none() && !batch.delta.is_empty());
}

/// A cursor from another engine instance resyncs, even once this
/// instance has issued more stamps than the cursor's issuer: first a
/// durable engine recovered from the same directory, then an unrelated
/// engine that ran the same commits.
#[test]
fn cursors_from_another_instance_resync() {
    let dir = std::env::temp_dir().join(format!("esm-view-cursor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
    let router = || ShardRouter::uniform_int(4, 0, KEYS).expect("router");
    let engine = ShardedEngineServer::with_durability(seed_db(), router(), cfg.clone()).unwrap();
    engine.define_view("all", "t", &ViewDef::base()).unwrap();
    let first = engine.view_cursor("all").unwrap();
    for i in 0..3 {
        testkit::apply_op(&engine, decode_op(0, i, i));
    }
    let last = engine.view_cursor("all").unwrap();
    drop(engine);

    let (recovered, _) = ShardedEngineServer::recover_with(cfg).unwrap();
    recovered.define_view("all", "t", &ViewDef::base()).unwrap();
    for i in 0..8 {
        testkit::apply_op(&recovered, decode_op(0, 100 + i, i));
    }
    for old in [first, last] {
        let batch = recovered.view_deltas_since("all", old).unwrap();
        assert_eq!(batch.resync, Some(recovered.read_view("all").unwrap()));
    }
    let fresh = recovered.view_cursor("all").unwrap();
    testkit::apply_op(&recovered, decode_op(0, 200, 1));
    assert!(recovered
        .view_deltas_since("all", fresh)
        .unwrap()
        .resync
        .is_none());
    // In range, but with another instance's tag in its low bits.
    let batch = recovered.view_deltas_since("all", fresh + 1).unwrap();
    assert!(batch.resync.is_some(), "a stamp with another tag resyncs");

    let other = four_shards();
    other.define_view("all", "t", &ViewDef::base()).unwrap();
    let theirs = other.view_cursor("all").unwrap();
    for i in 0..8 {
        testkit::apply_op(&other, decode_op(0, 100 + i, i));
    }
    let batch = recovered.view_deltas_since("all", theirs).unwrap();
    assert!(batch.resync.is_some(), "a foreign cursor resyncs");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A cross-shard 2PC drains as one delta carrying both shards' rows,
/// and advances the cursor to the transaction's stamp.
#[test]
fn cross_shard_commits_drain_as_one_delta() {
    let engine = four_shards();
    engine.define_view("all", "t", &ViewDef::base()).unwrap();
    let cursor = engine.view_cursor("all").unwrap();
    let receipt = engine
        .transact_keys(&[row![2], row![70]], 4, |db| {
            let t = db.table_mut("t")?;
            t.upsert(row![2, "g1", -1])?;
            t.upsert(row![70, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    assert!(receipt.gtx.is_some(), "the commit crossed shards");
    let batch = engine.view_deltas_since("all", cursor).unwrap();
    assert!(batch.resync.is_none());
    assert_eq!(batch.to_seq, receipt.stamp);
    assert_eq!(
        batch.delta.inserted,
        vec![row![2, "g1", -1], row![70, "g1", 1]]
    );
    assert_eq!(batch.delta.deleted.len(), 2);
    // Resuming from the 2PC's stamp drains only what came after it.
    engine
        .transact_keys(&[row![4]], 4, |db| {
            db.table_mut("t")?.upsert(row![4, "g2", 4])?;
            Ok(())
        })
        .unwrap();
    let next = engine.view_deltas_since("all", batch.to_seq).unwrap();
    assert_eq!(next.delta.inserted, vec![row![4, "g2", 4]]);
}

/// The trait-level concurrency oracle on both in-process hosts: racing
/// optimistic editors over clones of one engine must lose no update.
#[test]
fn concurrent_editors_match_the_oracle_in_process() {
    for sharded in [false, true] {
        let engine: esm_engine::ArcEngine = if sharded {
            ShardedEngineServer::with_router(
                seed_db(),
                ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
            )
            .expect("sharded engine")
            .as_engine()
        } else {
            ShardedEngineServer::new(seed_db(), 1).unwrap().as_engine()
        };
        let clients: Vec<esm_engine::ArcEngine> = (0..8).map(|_| engine.as_engine()).collect();
        let total = testkit::check_concurrent_edits(clients, 12);
        assert_eq!(total, 8 * 12);
    }
}

/// Decoded ops stay within the documented families.
#[test]
fn op_decoding_is_total() {
    for kind in 0..=255u8 {
        match decode_op(kind, 123, 456) {
            Op::Upsert { id, .. } | Op::Delete { id } | Op::Transfer { a: id, .. } => {
                assert!((0..KEYS).contains(&id));
            }
        }
    }
}
