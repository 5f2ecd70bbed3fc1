//! The table, views and client loop the three workloads share.

use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

use esm_engine::{Engine, EngineError};
use esm_relational::ViewDef;
use esm_store::{row, Database, Delta, Operand, Predicate, Row, Schema, Table, Value, ValueType};

use crate::harness::{Op, OpStream, Recorder, Rng, Samples, SpanRec, Window};
use crate::report::Outcome;

pub const TABLE: &str = "kv";
pub const VIEWS: usize = 4;
/// Conflicts are retried this many times before the op counts as failed.
pub const ATTEMPTS: u32 = 8;

pub fn view_name(view: usize) -> String {
    format!("v{view}")
}

/// The shape of a workload's `kv(id, band, val)` table: `rows` rows with
/// `band = id % bands`, so each `band = b` view holds `rows / bands` rows.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub rows: i64,
    pub bands: i64,
}

impl Layout {
    pub fn band(&self, id: i64) -> i64 {
        id % self.bands
    }

    pub fn view_rows(&self) -> usize {
        (self.rows / self.bands) as usize
    }
}

/// The `kv` table of `layout`: each row's `val` is a seeded negative
/// number (written values are positive, so every write changes its row).
pub fn seed_db(layout: Layout, seed: u64) -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let mut rng = Rng::stream(seed, 0xDB);
    let rows: Vec<Row> = (0..layout.rows)
        .map(|id| row![id, layout.band(id), -1 - (rng.below(1 << 30) as i64)])
        .collect();
    let mut db = Database::new();
    db.create_table(TABLE, Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh database");
    db
}

/// Register the `VIEWS` equality-select views and read each once, so the
/// timed phase starts from materialized windows.
pub fn define_views(engine: &dyn Engine) -> Result<(), EngineError> {
    for b in 0..VIEWS {
        let def =
            ViewDef::base().select(Predicate::eq(Operand::col("band"), Operand::val(b as i64)));
        engine.define_view(&view_name(b), TABLE, &def)?;
        engine.read_view(&view_name(b))?;
    }
    Ok(())
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an int column, got {other:?}"),
    }
}

pub fn sorted_rows(t: &Table) -> Vec<Row> {
    let mut rows = t.to_rows();
    rows.sort();
    rows
}

/// A read is verified when every row is in the view's band and the
/// window has the view's fixed size (writes never move a row's band).
pub fn read_ok(t: &Table, view: usize, view_rows: usize) -> bool {
    t.len() == view_rows && t.rows().all(|r| int(&r[1]) == view as i64)
}

/// Every view read equals the filtered final table. Returns the number
/// of views that differ.
pub fn check_views(engine: &dyn Engine, table: &Table) -> u64 {
    (0..VIEWS)
        .filter(|&b| {
            let expected: Vec<Row> = sorted_rows(table)
                .into_iter()
                .filter(|r| int(&r[1]) == b as i64)
                .collect();
            engine
                .read_view(&view_name(b))
                .map_or(true, |v| sorted_rows(&v) != expected)
        })
        .count() as u64
}

/// Every acknowledged write's value is present, where no later write to
/// the same key overtook it. Returns the number of keys that differ.
pub fn check_acked(table: &Table, last: &HashMap<i64, i64>) -> u64 {
    last.iter()
        .filter(|(&k, &val)| table.get_by_key(&row![k]).map(|r| int(&r[2])) != Some(val))
        .count() as u64
}

/// What one closed-loop client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub commits: Samples,
    pub reads: Samples,
    /// Reads and commits split by whether a program trace root covered
    /// them (index 1; traced run with a program registry only): the
    /// `obs.trace_overhead_frac` comparison.
    pub reads_by_trace: [Samples; 2],
    pub commits_by_trace: [Samples; 2],
    /// Last acknowledged value per key, in commit order.
    pub last_acked: HashMap<i64, i64>,
    /// When the last measured op returned: throughput is measured ops
    /// over `busy_until - window.start`.
    pub busy_until: Option<Instant>,
    pub ops: u64,
    pub errors: u64,
    pub bad_reads: u64,
    pub spans: Vec<SpanRec>,
}

impl ClientLog {
    pub fn client_ns(&self) -> u64 {
        self.commits.sum_ns() + self.reads.sum_ns()
    }

    /// Measured ops per second of measured time.
    pub fn rate(&self, samples: &Samples, window: &Window) -> f64 {
        let secs = self.busy_until.map_or(0.0, |t| {
            t.saturating_duration_since(window.start).as_secs_f64()
        });
        if secs > 0.0 {
            samples.len() as f64 / secs
        } else {
            0.0
        }
    }

    pub fn merge(&mut self, other: ClientLog) {
        self.commits.extend(other.commits);
        self.reads.extend(other.reads);
        for (mine, theirs) in self.reads_by_trace.iter_mut().zip(other.reads_by_trace) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.commits_by_trace.iter_mut().zip(other.commits_by_trace) {
            mine.extend(theirs);
        }
        self.last_acked.extend(other.last_acked);
        self.busy_until = self.busy_until.max(other.busy_until);
        self.ops += other.ops;
        self.errors += other.errors;
        self.bad_reads += other.bad_reads;
        self.spans.extend(other.spans);
    }
}

/// Run one closed-loop client over `ops` until `window` closes; only
/// ops that start inside the measured window are timed. Writes upsert
/// `(key, layout.band(key), val)` for each key in one `transact`; `on_write`
/// sees each write's value, start instant and request id before the
/// call. In a traced run every other op runs under a program trace root
/// (see [`Recorder::root`]), so rooted and unrooted ops interleave.
pub fn run_client(
    engine: &dyn Engine,
    ops: OpStream,
    window: Window,
    layout: Layout,
    rec: &mut Recorder,
    mut on_write: impl FnMut(i64, Instant, u64),
) -> ClientLog {
    let mut log = ClientLog::default();
    for (i, op) in ops.enumerate() {
        if !window.open() {
            break;
        }
        log.ops += 1;
        let measured = Instant::now() >= window.start;
        let rooted = rec.roots_program_traces() && i % 2 == 0;
        match op {
            Op::Read { view } => {
                let (res, took) = rec.time("engine.read_view", rooted, || {
                    engine.read_view(&view_name(view))
                });
                if measured {
                    log.reads.push(took);
                    log.busy_until = Some(Instant::now());
                    if rec.roots_program_traces() {
                        log.reads_by_trace[usize::from(rooted)].push(took);
                    }
                }
                match res {
                    Ok(t) if read_ok(&t, view, layout.view_rows()) => {}
                    Ok(_) => log.bad_reads += 1,
                    Err(e) => {
                        eprintln!("read_view failed: {e}");
                        log.errors += 1;
                    }
                }
            }
            Op::Write { keys, val } => {
                let body_span: Cell<Option<(Instant, Instant)>> = Cell::new(None);
                let body = |db: &mut Database| -> Result<(), EngineError> {
                    let start = Instant::now();
                    let t = db.table_mut(TABLE)?;
                    for &k in &keys {
                        t.upsert(row![k, layout.band(k), val])?;
                    }
                    body_span.set(Some((start, Instant::now())));
                    Ok(())
                };
                let request = rec.fresh_id();
                let start = Instant::now();
                on_write(val, start, request);
                let program_root = rec.root(rooted, "engine.transact");
                let res = engine.transact(ATTEMPTS, &body);
                drop(program_root);
                let end = Instant::now();
                let root = rec.record("engine.transact", 0, request, start, end);
                if let Some((b0, b1)) = body_span.get() {
                    rec.record("txn.body", root, request, b0, b1);
                }
                if measured {
                    log.commits.push(end - start);
                    log.busy_until = Some(end);
                    if rec.roots_program_traces() {
                        log.commits_by_trace[usize::from(rooted)].push(end - start);
                    }
                }
                match res {
                    Ok(_) => {
                        for k in keys {
                            log.last_acked.insert(k, val);
                        }
                    }
                    Err(e) => {
                        eprintln!("transact failed: {e}");
                        log.errors += 1;
                    }
                }
            }
        }
    }
    log.spans = std::mem::take(&mut rec.spans);
    log
}

/// `esm-store` costs at the workload's table size, timed by the
/// benchmark: one `Table::clone` and one `Delta::between` of two
/// versions a single row apart, `reps` times each (mean).
pub fn store_layers(out: &mut Outcome, table: &Table, epoch: Instant, reps: usize) {
    let mut rec = Recorder::new(true, epoch, 9);
    let mut clone = Samples::default();
    let mut between = Samples::default();
    for _ in 0..reps {
        let (copy, took) = rec.time("store.table_clone", false, || table.clone());
        clone.push(took);
        let mut changed = copy;
        let first = changed.rows().next().cloned().expect("non-empty table");
        changed
            .upsert(row![first[0].clone(), first[1].clone(), i64::MAX])
            .expect("same arity");
        let (delta, took) = rec.time("store.delta_between", false, || {
            Delta::between(table, &changed).expect("same schema")
        });
        assert_eq!(delta.len(), 2, "one modified row = delete + insert");
        between.push(took);
    }
    out.layer("store.table_clone_us", clone.mean_us(), clone.len() as u64);
    out.layer(
        "store.delta_between_us",
        between.mean_us(),
        between.len() as u64,
    );
    out.spans.extend(rec.spans);
}
