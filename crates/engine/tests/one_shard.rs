//! Transaction and view basics on the one-shard engine
//! (`ShardedEngineServer::new(db, 1)`): commits report their deltas and
//! log them, failed bodies change nothing, snapshots are isolated,
//! first-committer-wins admits disjoint writers, multi-table commits
//! chain in the WAL, durable engines survive a restart, and views read,
//! write and maintain against the live state.

use esm_engine::{DurabilityConfig, EngineError, ShardRouter, ShardedEngineServer, WalOp};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Schema, Table, Value, ValueType};

/// One table `t(id, v)` holding two rows.
fn kv_db() -> Database {
    let schema = Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
    let t = Table::from_rows(schema, vec![row![1, "a"], row![2, "b"]]).unwrap();
    let mut db = Database::new();
    db.create_table("t", t).unwrap();
    db
}

fn kv_engine() -> ShardedEngineServer {
    ShardedEngineServer::new(kv_db(), 1).unwrap()
}

fn upsert(engine: &ShardedEngineServer, r: esm_store::Row) -> Result<(), EngineError> {
    engine
        .transact(1, |db| {
            db.table_mut("t")?.upsert(r.clone())?;
            Ok(())
        })
        .map(|_| ())
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-one-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn commit_publishes_and_reports_deltas() {
    let e = kv_engine();
    let receipt = e
        .transact(1, |db| {
            db.table_mut("t")?.upsert(row![3, "c"])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(receipt.deltas["t"].inserted, vec![row![3, "c"]]);
    assert!(e.table("t").unwrap().contains(&row![3, "c"]));
    assert_eq!(e.shard_wals()[0].len(), 1);
    assert_eq!(e.metrics().commits, 1);
}

#[test]
fn failed_transactions_change_nothing() {
    let e = kv_engine();
    let err = e
        .transact(1, |db| {
            db.table_mut("t")?.upsert(row![9, "x"])?;
            Err(EngineError::NoSuchView("abort".into()))
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::NoSuchView(_)));
    assert_eq!(e.table("t").unwrap().len(), 2);
    assert!(e.shard_wals()[0].is_empty());
}

#[test]
fn snapshots_are_isolated() {
    let e = kv_engine();
    e.transact(1, |db| {
        // Another transaction commits after this one's snapshot …
        if db.table("t")?.len() == 2 {
            upsert(&e, row![3, "c"])?;
        }
        // … and this body still sees the snapshot, not the commit.
        assert_eq!(db.table("t")?.len(), 2);
        Ok(())
    })
    .unwrap();
    assert_eq!(e.table("t").unwrap().len(), 3);
}

#[test]
fn disjoint_concurrent_commits_both_land() {
    let e = kv_engine();
    e.transact(1, |db| {
        db.table_mut("t")?.upsert(row![10, "from a"])?;
        if !db.table("t")?.contains(&row![20, "from b"]) {
            upsert(&e, row![20, "from b"])?; // commits first, disjoint key
        }
        Ok(())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    assert!(t.contains(&row![10, "from a"]) && t.contains(&row![20, "from b"]));
    assert_eq!(e.metrics().conflicts, 0);
}

#[test]
fn transact_retries_until_clean() {
    let e = kv_engine();
    let attempts = std::sync::atomic::AtomicU32::new(0);
    let receipt = e
        .transact(3, |db| {
            let cur = db.table("t")?.len() as i64;
            if attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                upsert(&e, row![100 + cur, "racer"])?; // same key: conflict
            }
            db.table_mut("t")?.upsert(row![100 + cur, "n"])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(receipt.deltas.len(), 1);
    assert_eq!(e.metrics().conflicts, 1);
    assert_eq!(e.metrics().retries, 1);
    assert_eq!(e.metrics().commits, 2);
}

#[test]
fn multi_table_commits_chain_in_the_wal() {
    let schema = Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
    let mut db = Database::new();
    db.create_table("a", Table::new(schema.clone())).unwrap();
    db.create_table("b", Table::new(schema)).unwrap();
    let e = ShardedEngineServer::new(db.clone(), 1).unwrap();
    e.transact(1, |db| {
        db.table_mut("a")?.upsert(row![1, "x"])?;
        db.table_mut("b")?.upsert(row![1, "y"])?;
        Ok(())
    })
    .unwrap();
    let wal = e.shard_wals().remove(0);
    assert_eq!(wal.len(), 2);
    // First record chained, terminator unchained: one atomic unit.
    assert!(matches!(
        wal.records()[0].op,
        WalOp::Delta { chained: true, .. }
    ));
    assert!(matches!(
        wal.records()[1].op,
        WalOp::Delta { chained: false, .. }
    ));
    assert_eq!(wal.replay(&db).unwrap(), e.snapshot());
}

#[test]
fn wal_replay_matches_live_state() {
    let e = kv_engine();
    for i in 0..5i64 {
        e.transact(1, |db| {
            db.table_mut("t")?.upsert(row![i + 10, format!("r{i}")])?;
            if i % 2 == 0 {
                db.table_mut("t")?.delete_by_key(&row![i + 9]);
            }
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(e.recovered_database().unwrap(), e.snapshot());
}

#[test]
fn durable_engines_survive_restart() {
    let dir = fresh_dir("durable");
    let cfg = DurabilityConfig::new(&dir)
        .group_commit(4)
        .checkpoint_every(0);
    let e =
        ShardedEngineServer::with_durability(kv_db(), ShardRouter::single(), cfg.clone()).unwrap();
    for i in 0..9i64 {
        upsert(&e, row![10 + i, format!("r{i}")]).unwrap();
    }
    e.sync_wal().unwrap();
    let live = e.snapshot();
    let m = e.metrics();
    assert_eq!(m.wal.appends, 9);
    assert!(
        m.wal.syncs >= 2,
        "group commit batched {} syncs",
        m.wal.syncs
    );
    drop(e);

    let (recovered, report) = ShardedEngineServer::recover_with(cfg).unwrap();
    assert_eq!(recovered.snapshot(), live);
    assert_eq!(report.shards[0].records_replayed, 9);
    // The recovered engine keeps committing with continuous seqs.
    upsert(&recovered, row![99, "post"]).unwrap();
    assert_eq!(recovered.shard_wals()[0].records()[0].seq, 10);
    assert_eq!(recovered.checkpoint().unwrap(), Some(vec![10]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_maintenance_checkpoints_off_the_commit_path() {
    let dir = fresh_dir("maintenance");
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(4)
        .maintenance_interval_ms(1);
    let e = ShardedEngineServer::with_durability(kv_db(), ShardRouter::single(), cfg).unwrap();
    for i in 0..12i64 {
        upsert(&e, row![i + 10, "r"]).unwrap();
    }
    // The committing thread never checkpointed; the background loop
    // catches up on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while e.metrics().wal.checkpoints < 2 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(
        e.metrics().wal.checkpoints >= 2,
        "the maintenance thread checkpointed: {:?}",
        e.metrics().wal
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn employees() -> Database {
    let schema = Schema::build(
        &[
            ("eid", ValueType::Int),
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
            ("salary", ValueType::Int),
        ],
        &["eid"],
    )
    .unwrap();
    let t = Table::from_rows(
        schema,
        vec![
            row![1, "ada", "research", 90_000],
            row![2, "alan", "ops", 80_000],
            row![3, "grace", "research", 95_000],
        ],
    )
    .unwrap();
    let mut db = Database::new();
    db.create_table("employees", t).unwrap();
    db
}

/// A select view (`research`) and a projection hiding two columns
/// (`directory`) over one `employees` table.
fn engine_with_views() -> ShardedEngineServer {
    let engine = ShardedEngineServer::new(employees(), 1).unwrap();
    let research = Predicate::eq(Operand::col("dept"), Operand::val("research"));
    engine
        .define_view("research", "employees", &ViewDef::base().select(research))
        .unwrap();
    let hidden = [
        ("dept", Value::str("unknown")),
        ("salary", Value::Int(50_000)),
    ];
    engine
        .define_view(
            "directory",
            "employees",
            &ViewDef::base().project(&["eid", "name"], &hidden),
        )
        .unwrap();
    engine
}

#[test]
fn views_read_against_live_state() {
    let e = engine_with_views();
    assert_eq!(e.view_names(), vec!["directory", "research"]);
    assert_eq!(e.read_view("research").unwrap().len(), 2);
    assert_eq!(e.read_view("directory").unwrap().len(), 3);
    assert!(matches!(
        e.read_view("ghost"),
        Err(EngineError::NoSuchView(_))
    ));
    // The select view auto-indexed its predicate column.
    assert_eq!(
        e.table("employees").unwrap().indexed_columns(),
        vec!["dept"]
    );
}

#[test]
fn whole_window_writes_report_base_deltas_and_wal() {
    let e = engine_with_views();
    let mut v = e.read_view("research").unwrap();
    v.upsert(row![4, "barbara", "research", 70_000]).unwrap();
    let delta = e.write_view("research", v).unwrap();
    assert_eq!(delta.inserted, vec![row![4, "barbara", "research", 70_000]]);
    // Visible through the other entangled view.
    assert!(e
        .read_view("directory")
        .unwrap()
        .contains(&row![4, "barbara"]));
    assert_eq!(e.shard_wals()[0].len(), 1);
    assert_eq!(e.metrics().commits, 1);
    // Hippocratic: writing a view back unchanged is a no-op.
    let v = e.read_view("research").unwrap();
    assert!(e.write_view("research", v).unwrap().is_empty());
    assert_eq!(e.shard_wals()[0].len(), 1);
}

#[test]
fn optimistic_edits_commit_and_recover() {
    let e = engine_with_views();
    e.edit_view_optimistic("research", 4, |v| {
        v.upsert(row![5, "edsger", "research", 88_000])?;
        Ok(())
    })
    .unwrap();
    e.edit_view_optimistic("directory", 4, |v| {
        v.upsert(row![1, "ada lovelace"])?;
        Ok(())
    })
    .unwrap();
    // Hidden salary survives the projection edit.
    assert!(e
        .table("employees")
        .unwrap()
        .contains(&row![1, "ada lovelace", "research", 90_000]));
    // WAL replay reproduces the live state.
    assert_eq!(e.recovered_database().unwrap(), e.snapshot());
}

#[test]
fn ill_fitting_view_writes_error_without_wedging_the_engine() {
    let e = engine_with_views();
    // A view table with the wrong arity: the lens put would panic; the
    // engine must surface an error and stay fully usable.
    let bad = Table::from_rows(
        Schema::build(&[("eid", ValueType::Int)], &["eid"]).unwrap(),
        vec![row![1]],
    )
    .unwrap();
    assert!(matches!(
        e.write_view("research", bad),
        Err(EngineError::Store(_))
    ));
    // Locks are not poisoned: reads and writes still work.
    assert_eq!(e.read_view("research").unwrap().len(), 2);
    let mut v = e.read_view("research").unwrap();
    v.upsert(row![9, "ok", "research", 1]).unwrap();
    assert!(!e.write_view("research", v).unwrap().is_empty());
}

#[test]
fn steady_state_reads_are_materialized_not_recomputed() {
    let e = engine_with_views();
    // The first read of each view materializes its window once.
    e.read_view("research").unwrap();
    e.read_view("directory").unwrap();
    let materialized_rebuilds = e.metrics().view.rebuilds;
    assert_eq!(materialized_rebuilds, 2);

    for i in 0..10i64 {
        e.edit_view_optimistic("research", 4, move |v| {
            v.upsert(row![100 + i, format!("r{i}"), "research", 60_000])?;
            Ok(())
        })
        .unwrap();
        // Reads pick the commit up through delta maintenance…
        assert_eq!(e.read_view("research").unwrap().len() as i64, 3 + i);
        // …and the entangled sibling view stays in lockstep too.
        assert_eq!(e.read_view("directory").unwrap().len() as i64, 4 + i);
    }

    let m = e.metrics();
    // Repeated reads under a write workload never re-run the
    // whole-base lens get.
    assert_eq!(
        m.view.rebuilds, materialized_rebuilds,
        "steady-state reads must not rebuild"
    );
    assert_eq!(m.view.materialized_reads, 20);
    assert!(m.view.deltas_applied >= 20, "both windows drained deltas");

    // Quiescent re-reads stay flat and cheap.
    let before = e.metrics().view.deltas_applied;
    for _ in 0..5 {
        assert_eq!(e.read_view("research").unwrap().len(), 12);
    }
    assert_eq!(e.metrics().view.deltas_applied, before);
    assert_eq!(e.metrics().view.rebuilds, materialized_rebuilds);
}

#[test]
fn duplicate_views_and_unknown_tables_are_rejected() {
    let e = engine_with_views();
    assert!(matches!(
        e.define_view("research", "employees", &ViewDef::base()),
        Err(EngineError::ViewExists(_))
    ));
    assert!(matches!(
        e.define_view("x", "ghost", &ViewDef::base()),
        Err(EngineError::NoSuchTable(_))
    ));
}
