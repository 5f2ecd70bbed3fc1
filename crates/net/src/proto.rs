//! The wire protocol: requests and responses for the full
//! [`esm_engine::Engine`] surface.
//!
//! Every payload rides inside one CRC-checked frame ([`crate::frame`])
//! and is binary: [`BINARY_WIRE_MAGIC`] (`0xB7`), a one-byte message
//! tag, then the message's fields — little-endian integers and
//! `u32`-length-prefixed strings, with tables, databases, deltas and
//! predicates in the store codec ([`esm_store::codec`]) that the WAL,
//! checkpoints and topology file use too. A payload that does not start
//! with the magic (a text-era peer, or another protocol) decodes to
//! [`WireError::UnsupportedProtocol`]; the server answers it with a
//! structured [`EngineError::UnsupportedProtocol`] and keeps serving the
//! connection.
//!
//! ## Grammar (revision 5)
//!
//! ```text
//! request  := 0xB7 req-tag body [u64 trace id, u32 parent span]
//! response := 0xB7 resp-tag body
//!
//! req-tag  body
//!  0 ping, 1 table_names, 3 snapshot, 6 view_names, 11 metrics, 12 stats,
//!  13 checkpoint, 14 sync_wal, 15 server_ping, 16 traces,
//!  19 repl_manifest                          (empty)
//!  2 table, 5 open_view, 7 read_view,
//!  18 unsubscribe                            str name
//!  4 define_view    str name, str table, viewdef
//!  8 write_view     str name, table
//!  9 edit_cas       str name, table expect, table edited
//!  10 commit        u32 n, (str table, delta)*
//!  17 subscribe     str view, flag, [u64 cursor]
//!  20 repl_fetch    u64 shard, str file, u64 offset, u64 len
//!
//! resp-tag body
//!  0 unit
//!  1 names          u32 n, str*
//!  2 table | 3 database | 4 delta
//!  5 receipt        u64 stamp, u32 n, u64 shard*, flag, [str gtx]
//!  6 metrics        u64 counter*29, u32 n, (u64*4 load)*,
//!                   u32 n, (u64*3 lag)*, u64*3 repl
//!  7 stats          u64 slow threshold, u32 n, phase*, u32 n, slow-op*,
//!                   u32 n, (str gauge, u64)*
//!  8 seq            flag, [u64]
//!  9 err            u8 error tag, the variant's fields
//!  10 server_info   u64 uptime ms, u32 revision, u32 workers
//!  11 traces        u32 n, trace* (recent), u32 n, trace* (slow)
//!  12 suback        u64 cursor
//!  13 push          str view, u64 from, u64 to, delta, flag, [table]
//!  14 repl_manifest str primary, bytes topology,
//!                   u32 n, (u64 id, u64 last seq, u32 n, (str file, u64 len)*)*
//!  15 repl_chunk    bytes
//!
//! viewdef := u32 n, stage*  (base outward; base first and only first)
//! stage   := 0 base | 1 select predicate
//!          | 2 project u32 n, str*, u32 n, (str col, cell default)*
//!          | 3 rename u32 n, (str old, str new)*
//! phase   := str name, u64 count, u64 sum, u64 max, u32 n, (u32 bin, u64 n)*
//! slow-op := str op, u64 total ns, u32 n, (str phase, u64 ns)*
//! trace   := u64 id, str root, u64 ns, u32 n,
//!            (u32 id, u32 parent, str name, str tag, u64 start, u64 ns, u64 bytes)*
//! ```
//!
//! `flag` is one byte, `0` absent or `1` present. Predicates are flat
//! postfix token streams that decode on an explicit stack; every count
//! is checked against the bytes that remain before it sizes anything.

use esm_engine::{
    EngineError, FileEntry, MetricsSnapshot, ReplManifest, ReplStats, ReplicaLag, ShardLoad,
    ShardManifest, ShardStats, ViewStats, WalStats,
};
use esm_obs::{
    HistogramSnapshot, Phase, SlowOp, SpanRecord, TelemetrySnapshot, TraceId, TraceRecord,
    TraceReport,
};
use esm_relational::ViewDef;
use esm_store::codec::{self, put_str, put_u32, put_u64, BinReader};
use esm_store::{Database, Delta, StoreError, Table};

/// A payload that failed to parse as a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload does not start with [`BINARY_WIRE_MAGIC`]: a peer
    /// speaking the text protocol of revisions 1–4, or something else
    /// entirely. Carries the payload's first byte (`None` when empty).
    UnsupportedProtocol(Option<u8>),
    /// A binary payload whose body does not decode.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnsupportedProtocol(first) => {
                write!(f, "unsupported protocol: payload starts with ")?;
                match first {
                    Some(b) => write!(f, "{b:#04x}")?,
                    None => write!(f, "nothing")?,
                }
                write!(
                    f,
                    ", revision {PROTOCOL_REV} payloads start with {BINARY_WIRE_MAGIC:#04x}"
                )
            }
            WireError::Malformed(msg) => write!(f, "wire protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<StoreError> for WireError {
    fn from(e: StoreError) -> WireError {
        WireError::Malformed(e.to_string())
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> EngineError {
        match e {
            WireError::UnsupportedProtocol(_) => EngineError::UnsupportedProtocol(e.to_string()),
            WireError::Malformed(_) => EngineError::Io(e.to_string()),
        }
    }
}

fn err(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// One client request — the full [`esm_engine::Engine`] surface.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// `Engine::table_names`.
    TableNames,
    /// `Engine::table`.
    Table(String),
    /// `Engine::snapshot`.
    Snapshot,
    /// `Engine::define_view` (the handle stays client-side).
    DefineView {
        /// View name.
        name: String,
        /// Base table.
        table: String,
        /// The view definition.
        def: ViewDef,
    },
    /// `Engine::view` — existence check; the handle stays client-side.
    OpenView(String),
    /// `Engine::view_names`.
    ViewNames,
    /// `Engine::read_view`.
    ReadView(String),
    /// `Engine::write_view`.
    WriteView {
        /// View name.
        name: String,
        /// The edited view table.
        view: Table,
    },
    /// One optimistic-edit attempt as a compare-and-swap: commit the
    /// edited window iff the view still reads as `expect`. The client
    /// drives the retry loop (`Engine::edit_view_optimistic` needs a
    /// closure; closures do not serialize — equality of the observed
    /// window does).
    EditViewCas {
        /// View name.
        name: String,
        /// The window the client's edit was computed against.
        expect: Table,
        /// The edited window to install.
        edited: Table,
    },
    /// One snapshot-transaction commit attempt: per-table deltas whose
    /// `deleted` rows are the client's pre-images (exactly what
    /// [`Delta::between`] produces), validated row-for-row before
    /// applying atomically — first-committer-wins against the client's
    /// snapshot, without shipping the snapshot back.
    Commit {
        /// Per-table deltas, client-snapshot pre-images included.
        deltas: Vec<(String, Delta)>,
    },
    /// `Engine::metrics`.
    Metrics,
    /// `Engine::telemetry` — the phase-latency histograms and slow-op
    /// log. On the wire the server's net-layer phases ride along merged
    /// into the engine's snapshot.
    Stats,
    /// `Engine::checkpoint`.
    Checkpoint,
    /// `Engine::sync_wal`.
    SyncWal,
    /// Server identity and liveness: answered by the network layer
    /// itself ([`Response::ServerInfo`]) without touching any engine
    /// lock — safe to poll while the engine is wedged.
    ServerPing,
    /// `Engine::traces` — the recent and slow trace rings. On the wire
    /// the server merges its net-layer traces in, the way `Stats`
    /// merges telemetry.
    Traces,
    /// Register this connection as a subscriber of a named view
    /// (revision 3). Answered by the network layer with
    /// [`Response::SubAck`]; from then on the server pushes
    /// [`Response::Push`] frames as commits settle past the
    /// subscriber's cursor. `cursor: None` means "from now": the server
    /// acks the current cursor and sends one initial resync push.
    Subscribe {
        /// View name.
        view: String,
        /// Resume cursor from a previous session, or `None` for "now".
        cursor: Option<u64>,
    },
    /// Drop this connection's subscription on a named view (revision
    /// 3). Acknowledged with [`Response::Unit`]; already-buffered
    /// pushes may still arrive before the ack.
    Unsubscribe(String),
    /// The primary's shippable WAL surface (revision 4): topology
    /// bytes, advertised address and per-shard file listings
    /// ([`Engine::repl_source`][rs]). Answered with
    /// [`Response::ReplManifest`].
    ///
    /// [rs]: esm_engine::Engine::repl_source
    ReplManifest,
    /// Up to `len` bytes of one shard's WAL file starting at `offset`
    /// (revision 4). Answered with [`Response::ReplChunk`]; a short
    /// chunk means EOF, an empty one means nothing new yet.
    ReplFetch {
        /// Shard id (its directory is `shard-<id>`).
        shard: u64,
        /// File name within the shard directory, as the manifest
        /// listed it.
        file: String,
        /// Byte offset to start from.
        offset: u64,
        /// Maximum bytes to return.
        len: u64,
    },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with nothing to return.
    Unit,
    /// A list of names.
    Names(Vec<String>),
    /// A table (snapshot, view read).
    Table(Table),
    /// A whole database snapshot.
    Database(Database),
    /// A committed delta.
    Delta(Delta),
    /// A commit receipt.
    Receipt {
        /// Commit stamp.
        stamp: u64,
        /// Shards touched (empty for a commit that wrote nothing).
        shards: Vec<usize>,
        /// Cross-shard transaction id, if any.
        gtx: Option<String>,
    },
    /// Engine counters.
    Metrics(MetricsSnapshot),
    /// Phase-latency telemetry (histograms + slow-op log).
    Stats(TelemetrySnapshot),
    /// A checkpoint floor (`None` for in-memory engines).
    Seq(Option<u64>),
    /// A structured engine error.
    Err(EngineError),
    /// The network server's identity ([`Request::ServerPing`]).
    ServerInfo {
        /// Milliseconds since the server started accepting.
        uptime_ms: u64,
        /// The protocol revision the server speaks ([`PROTOCOL_REV`]).
        protocol_rev: u32,
        /// Size of the server's worker pool.
        workers: u32,
    },
    /// Recent and slow causal traces ([`Request::Traces`]).
    Traces(TraceReport),
    /// Subscription accepted (revision 3): the cursor pushes will
    /// advance from. Echoes the requested cursor, or the current one
    /// when the client subscribed "from now".
    SubAck {
        /// The subscriber's starting cursor.
        cursor: u64,
    },
    /// A server-initiated delta push (revision 3): everything settled
    /// on `view` in `(from_seq, to_seq]`, coalesced. When the
    /// incremental path was unavailable — cursor truncated out of the
    /// log, a propagation escape hatch, or a drop-for-backpressure
    /// resync — `resync` carries the full window (reflecting `to_seq`)
    /// and `delta` is empty: adopt it and discard local state.
    Push {
        /// The subscribed view this batch belongs to.
        view: String,
        /// The cursor this batch starts after.
        from_seq: u64,
        /// The subscriber's next cursor.
        to_seq: u64,
        /// Coalesced view-level delta covering `(from_seq, to_seq]`.
        delta: Delta,
        /// Full-window resync, when incremental delivery was impossible.
        resync: Option<Table>,
    },
    /// The primary's WAL-shipping manifest (revision 4,
    /// [`Request::ReplManifest`]).
    ReplManifest(ReplManifest),
    /// One ranged WAL read (revision 4, [`Request::ReplFetch`]).
    ReplChunk(Vec<u8>),
}

/// The wire protocol revision this build speaks. Revision 2 added the
/// trace-context suffix on requests, `server_ping` and `traces`;
/// revision 3 cursor subscriptions (`subscribe` / `unsubscribe`,
/// `suback` / `push`); revision 4 WAL-shipping replication
/// (`repl_manifest` / `repl_fetch`) and the `not_primary` redirect.
/// Revision 5 is binary only: every structured payload (view
/// definitions, metrics, telemetry, traces, manifests, errors) has its
/// own binary form, and the text codec of revisions 1–4 is gone — a text
/// payload gets [`EngineError::UnsupportedProtocol`]. The revision is
/// surfaced by [`Response::ServerInfo`].
pub const PROTOCOL_REV: u32 = 5;

/// First byte of every wire payload.
pub const BINARY_WIRE_MAGIC: u8 = 0xB7;

/// Deepest view definition (stages) a decoder accepts: building,
/// compiling and dropping a view definition recurse over its stages.
const MAX_VIEW_STAGES: usize = codec::MAX_PREDICATE_DEPTH;

const REQ_PING: u8 = 0;
const REQ_TABLE_NAMES: u8 = 1;
const REQ_TABLE: u8 = 2;
const REQ_SNAPSHOT: u8 = 3;
const REQ_DEFINE_VIEW: u8 = 4;
const REQ_OPEN_VIEW: u8 = 5;
const REQ_VIEW_NAMES: u8 = 6;
const REQ_READ_VIEW: u8 = 7;
const REQ_WRITE_VIEW: u8 = 8;
const REQ_EDIT_CAS: u8 = 9;
const REQ_COMMIT: u8 = 10;
const REQ_METRICS: u8 = 11;
const REQ_STATS: u8 = 12;
const REQ_CHECKPOINT: u8 = 13;
const REQ_SYNC_WAL: u8 = 14;
const REQ_SERVER_PING: u8 = 15;
const REQ_TRACES: u8 = 16;
const REQ_SUBSCRIBE: u8 = 17;
const REQ_UNSUBSCRIBE: u8 = 18;
const REQ_REPL_MANIFEST: u8 = 19;
const REQ_REPL_FETCH: u8 = 20;

/// Byte length of the optional trace-context suffix on requests: a u64
/// trace id plus a u32 parent span id. A decoder that finds exactly this
/// many bytes left after the body reads them as the context.
const TRACE_CTX_BYTES: usize = 12;

const RESP_UNIT: u8 = 0;
const RESP_NAMES: u8 = 1;
const RESP_TABLE: u8 = 2;
const RESP_DATABASE: u8 = 3;
const RESP_DELTA: u8 = 4;
const RESP_RECEIPT: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_STATS: u8 = 7;
const RESP_SEQ: u8 = 8;
const RESP_ERR: u8 = 9;
const RESP_SERVER_INFO: u8 = 10;
const RESP_TRACES: u8 = 11;
const RESP_SUBACK: u8 = 12;
const RESP_PUSH: u8 = 13;
const RESP_REPL_MANIFEST: u8 = 14;
const RESP_REPL_CHUNK: u8 = 15;

const STAGE_BASE: u8 = 0;
const STAGE_SELECT: u8 = 1;
const STAGE_PROJECT: u8 = 2;
const STAGE_RENAME: u8 = 3;

// ---------------------------------------------------------------------
// Small field helpers.
// ---------------------------------------------------------------------

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        put_u64(out, *v);
    }
}

fn u64s<const N: usize>(r: &mut BinReader<'_>) -> Result<[u64; N], WireError> {
    let mut out = [0u64; N];
    for slot in &mut out {
        *slot = r.u64()?;
    }
    Ok(out)
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(v) => {
            out.push(1);
            put(out, v);
        }
        None => out.push(0),
    }
}

fn opt<'a, T>(
    r: &mut BinReader<'a>,
    read: impl FnOnce(&mut BinReader<'a>) -> Result<T, StoreError>,
) -> Result<Option<T>, WireError> {
    Ok(if r.flag()? { Some(read(r)?) } else { None })
}

fn put_strs(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn strs(r: &mut BinReader<'_>) -> Result<Vec<String>, WireError> {
    let mut out = Vec::new();
    for _ in 0..r.count(4)? {
        out.push(r.str()?);
    }
    Ok(out)
}

fn read_phase(r: &mut BinReader<'_>) -> Result<Phase, WireError> {
    let name = r.str()?;
    Phase::from_name(&name).ok_or_else(|| err(format!("unknown phase `{name}`")))
}

// ---------------------------------------------------------------------
// View definitions.
// ---------------------------------------------------------------------

/// Render a view definition as its stage list, base outward.
fn put_viewdef(out: &mut Vec<u8>, def: &ViewDef) {
    let mut chain = Vec::new();
    let mut cur = def;
    loop {
        chain.push(cur);
        match cur {
            ViewDef::Base => break,
            ViewDef::Select(inner, _)
            | ViewDef::Project(inner, _, _)
            | ViewDef::Rename(inner, _) => cur = inner,
        }
    }
    put_u32(out, chain.len() as u32);
    for stage in chain.into_iter().rev() {
        match stage {
            ViewDef::Base => out.push(STAGE_BASE),
            ViewDef::Select(_, pred) => {
                out.push(STAGE_SELECT);
                codec::put_predicate(out, pred);
            }
            ViewDef::Project(_, cols, defaults) => {
                out.push(STAGE_PROJECT);
                put_strs(out, cols);
                put_u32(out, defaults.len() as u32);
                for (col, v) in defaults {
                    put_str(out, col);
                    codec::put_cell(out, v);
                }
            }
            ViewDef::Rename(_, renames) => {
                out.push(STAGE_RENAME);
                put_u32(out, renames.len() as u32);
                for (old, new) in renames {
                    put_str(out, old);
                    put_str(out, new);
                }
            }
        }
    }
}

fn viewdef(r: &mut BinReader<'_>) -> Result<ViewDef, WireError> {
    let n = r.count(1)?;
    if n > MAX_VIEW_STAGES {
        return Err(err(format!(
            "view definition has {n} stages, over {MAX_VIEW_STAGES}"
        )));
    }
    let mut def: Option<ViewDef> = None;
    for i in 0..n {
        def = Some(match (r.u8()?, def.take()) {
            (STAGE_BASE, None) => ViewDef::Base,
            (STAGE_SELECT, Some(inner)) => ViewDef::Select(Box::new(inner), r.predicate()?),
            (STAGE_PROJECT, Some(inner)) => {
                let cols = strs(r)?;
                let mut defaults = Vec::new();
                for _ in 0..r.count(6)? {
                    defaults.push((r.str()?, r.cell()?));
                }
                ViewDef::Project(Box::new(inner), cols, defaults)
            }
            (STAGE_RENAME, Some(inner)) => {
                let mut renames = Vec::new();
                for _ in 0..r.count(8)? {
                    renames.push((r.str()?, r.str()?));
                }
                ViewDef::Rename(Box::new(inner), renames)
            }
            (tag, _) => return Err(err(format!("bad view stage tag {tag} at position {i}"))),
        });
    }
    def.ok_or_else(|| err("empty view definition"))
}

// ---------------------------------------------------------------------
// Metrics, telemetry, traces and replication manifests.
// ---------------------------------------------------------------------

fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    let (w, s, v) = (&m.wal, &m.shard, &m.view);
    put_u64s(
        out,
        &[
            m.commits,
            m.conflicts,
            m.retries,
            m.view_reads,
            m.rows_written,
            m.wal_truncations,
            m.wal_records_truncated,
            w.appends,
            w.syncs,
            w.bytes_written,
            w.rotations,
            w.checkpoints,
            w.segments_compacted,
            s.single_shard_commits,
            s.cross_shard_commits,
            s.prepares,
            s.recovery_commits,
            s.recovery_aborts,
            s.splits,
            s.merges,
            s.rows_migrated,
            s.auto_splits,
            s.auto_merges,
            s.commit_rate_ewma_milli,
            s.commit_rate_skew_milli,
            v.materialized_reads,
            v.deltas_applied,
            v.rebuilds,
            v.shards_pruned,
        ],
    );
    put_u32(out, m.shard_load.len() as u32);
    for l in &m.shard_load {
        put_u64s(out, &[l.shard, l.rows, l.commits, l.rate_ewma_milli]);
    }
    put_u32(out, m.repl.lag.len() as u32);
    for l in &m.repl.lag {
        put_u64s(out, &[l.shard, l.primary_seq, l.applied_seq]);
    }
    let r = &m.repl;
    put_u64s(
        out,
        &[r.ship_passes, r.records_applied, r.transactions_applied],
    );
}

fn metrics(r: &mut BinReader<'_>) -> Result<MetricsSnapshot, WireError> {
    let [commits, conflicts, retries, view_reads, rows_written, wal_truncations, wal_records_truncated, appends, syncs, bytes_written, rotations, checkpoints, segments_compacted, single_shard_commits, cross_shard_commits, prepares, recovery_commits, recovery_aborts, splits, merges, rows_migrated, auto_splits, auto_merges, commit_rate_ewma_milli, commit_rate_skew_milli, materialized_reads, deltas_applied, rebuilds, shards_pruned] =
        u64s::<29>(r)?;
    let mut shard_load = Vec::new();
    for _ in 0..r.count(32)? {
        let [shard, rows, commits, rate_ewma_milli] = u64s(r)?;
        shard_load.push(ShardLoad {
            shard,
            rows,
            commits,
            rate_ewma_milli,
        });
    }
    let mut lag = Vec::new();
    for _ in 0..r.count(24)? {
        let [shard, primary_seq, applied_seq] = u64s(r)?;
        lag.push(ReplicaLag {
            shard,
            primary_seq,
            applied_seq,
        });
    }
    let [ship_passes, records_applied, transactions_applied] = u64s(r)?;
    Ok(MetricsSnapshot {
        commits,
        conflicts,
        retries,
        view_reads,
        rows_written,
        wal_truncations,
        wal_records_truncated,
        wal: WalStats {
            appends,
            syncs,
            bytes_written,
            rotations,
            checkpoints,
            segments_compacted,
        },
        shard: ShardStats {
            single_shard_commits,
            cross_shard_commits,
            prepares,
            recovery_commits,
            recovery_aborts,
            splits,
            merges,
            rows_migrated,
            auto_splits,
            auto_merges,
            commit_rate_ewma_milli,
            commit_rate_skew_milli,
        },
        view: ViewStats {
            materialized_reads,
            deltas_applied,
            rebuilds,
            shards_pruned,
        },
        shard_load,
        repl: ReplStats {
            lag,
            ship_passes,
            records_applied,
            transactions_applied,
        },
    })
}

/// Render a telemetry snapshot: sparse histogram bins, max, sum and
/// per-phase slow-op breakdowns all survive bit-exactly.
fn put_telemetry(out: &mut Vec<u8>, t: &TelemetrySnapshot) {
    put_u64(out, t.slow_threshold_ns);
    put_u32(out, t.phases.len() as u32);
    for (phase, h) in &t.phases {
        put_str(out, phase.name());
        put_u64s(out, &[h.count, h.sum, h.max]);
        put_u32(out, h.bins.len() as u32);
        for (idx, n) in &h.bins {
            put_u32(out, *idx);
            put_u64(out, *n);
        }
    }
    put_u32(out, t.slow_ops.len() as u32);
    for slow in &t.slow_ops {
        put_str(out, &slow.op);
        put_u64(out, slow.total_ns);
        put_u32(out, slow.phases.len() as u32);
        for (phase, ns) in &slow.phases {
            put_str(out, phase.name());
            put_u64(out, *ns);
        }
    }
    put_u32(out, t.gauges.len() as u32);
    for (name, value) in &t.gauges {
        put_str(out, name);
        put_u64(out, *value);
    }
}

fn telemetry(r: &mut BinReader<'_>) -> Result<TelemetrySnapshot, WireError> {
    let slow_threshold_ns = r.u64()?;
    let mut phases = Vec::new();
    for _ in 0..r.count(32)? {
        let phase = read_phase(r)?;
        let [count, sum, max] = u64s(r)?;
        let mut bins = Vec::new();
        for _ in 0..r.count(12)? {
            bins.push((r.u32()?, r.u64()?));
        }
        phases.push((
            phase,
            HistogramSnapshot {
                count,
                sum,
                max,
                bins,
            },
        ));
    }
    let mut slow_ops = Vec::new();
    for _ in 0..r.count(16)? {
        let op = r.str()?;
        let total_ns = r.u64()?;
        let mut slow_phases = Vec::new();
        for _ in 0..r.count(12)? {
            slow_phases.push((read_phase(r)?, r.u64()?));
        }
        slow_ops.push(SlowOp {
            op,
            total_ns,
            phases: slow_phases,
        });
    }
    let mut gauges = Vec::new();
    for _ in 0..r.count(12)? {
        gauges.push((r.str()?, r.u64()?));
    }
    Ok(TelemetrySnapshot {
        phases,
        slow_threshold_ns,
        slow_ops,
        gauges,
    })
}

fn put_traces(out: &mut Vec<u8>, records: &[TraceRecord]) {
    put_u32(out, records.len() as u32);
    for trace in records {
        put_u64(out, trace.id.0);
        put_str(out, &trace.root);
        put_u64(out, trace.duration_ns);
        put_u32(out, trace.spans.len() as u32);
        for s in &trace.spans {
            put_u32(out, s.id);
            put_u32(out, s.parent);
            put_str(out, &s.name);
            put_str(out, &s.tag);
            put_u64s(out, &[s.start_ns, s.duration_ns, s.bytes]);
        }
    }
}

fn traces(r: &mut BinReader<'_>) -> Result<Vec<TraceRecord>, WireError> {
    let mut records = Vec::new();
    for _ in 0..r.count(24)? {
        let id = TraceId(r.u64()?);
        let root = r.str()?;
        let duration_ns = r.u64()?;
        let mut spans = Vec::new();
        for _ in 0..r.count(40)? {
            let (id, parent) = (r.u32()?, r.u32()?);
            let (name, tag) = (r.str()?, r.str()?);
            let [start_ns, duration_ns, bytes] = u64s(r)?;
            spans.push(SpanRecord {
                id,
                parent,
                name,
                tag,
                start_ns,
                duration_ns,
                bytes,
            });
        }
        records.push(TraceRecord {
            id,
            root,
            duration_ns,
            spans,
        });
    }
    Ok(records)
}

fn put_manifest(out: &mut Vec<u8>, m: &ReplManifest) {
    put_str(out, &m.primary_addr);
    codec::put_bytes(out, &m.topology);
    put_u32(out, m.shards.len() as u32);
    for shard in &m.shards {
        put_u64s(out, &[shard.id, shard.last_seq]);
        put_u32(out, shard.files.len() as u32);
        for f in &shard.files {
            put_str(out, &f.name);
            put_u64(out, f.len);
        }
    }
}

fn manifest(r: &mut BinReader<'_>) -> Result<ReplManifest, WireError> {
    let primary_addr = r.str()?;
    let topology = r.bytes()?;
    let mut shards = Vec::new();
    for _ in 0..r.count(20)? {
        let [id, last_seq] = u64s(r)?;
        let mut files = Vec::new();
        for _ in 0..r.count(12)? {
            files.push(FileEntry {
                name: r.str()?,
                len: r.u64()?,
            });
        }
        shards.push(ShardManifest {
            id,
            last_seq,
            files,
        });
    }
    Ok(ReplManifest {
        topology,
        primary_addr,
        shards,
    })
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

const ERR_STORE: u8 = 0;
const ERR_CONFLICT: u8 = 1;
const ERR_NO_SUCH_VIEW: u8 = 2;
const ERR_VIEW_EXISTS: u8 = 3;
const ERR_NO_SUCH_TABLE: u8 = 4;
const ERR_WAL_CORRUPT: u8 = 5;
const ERR_DUPLICATE_SEQ: u8 = 6;
const ERR_IO: u8 = 7;
const ERR_RETRIES_EXHAUSTED: u8 = 8;
const ERR_RESERVED_TABLE: u8 = 9;
const ERR_SHARD_TOPOLOGY: u8 = 10;
const ERR_NOT_PRIMARY: u8 = 11;
const ERR_UNSUPPORTED_PROTOCOL: u8 = 12;

/// Render an engine error. Every variant round-trips structurally, so
/// clients branch on conflicts, redirects and missing names exactly as
/// in-process callers do; store errors cross as their message (the
/// client rebuilds a [`StoreError::BadQuery`] carrying it).
fn put_error(out: &mut Vec<u8>, e: &EngineError) {
    let (tag, text) = match e {
        EngineError::Store(e) => (ERR_STORE, e.to_string()),
        EngineError::Conflict { table, detail } => {
            out.push(ERR_CONFLICT);
            put_str(out, table);
            put_str(out, detail);
            return;
        }
        EngineError::NoSuchView(v) => (ERR_NO_SUCH_VIEW, v.clone()),
        EngineError::ViewExists(v) => (ERR_VIEW_EXISTS, v.clone()),
        EngineError::NoSuchTable(t) => (ERR_NO_SUCH_TABLE, t.clone()),
        EngineError::WalCorrupt(msg) => (ERR_WAL_CORRUPT, msg.clone()),
        EngineError::DuplicateSeq { seq, last } => {
            out.push(ERR_DUPLICATE_SEQ);
            put_u64s(out, &[*seq, *last]);
            return;
        }
        EngineError::Io(msg) => (ERR_IO, msg.clone()),
        EngineError::RetriesExhausted { view, attempts } => {
            out.push(ERR_RETRIES_EXHAUSTED);
            put_str(out, view);
            put_u32(out, *attempts);
            return;
        }
        EngineError::ReservedTableName(t) => (ERR_RESERVED_TABLE, t.clone()),
        EngineError::ShardTopology(msg) => (ERR_SHARD_TOPOLOGY, msg.clone()),
        EngineError::NotPrimary { primary } => (ERR_NOT_PRIMARY, primary.clone()),
        EngineError::UnsupportedProtocol(msg) => (ERR_UNSUPPORTED_PROTOCOL, msg.clone()),
    };
    out.push(tag);
    put_str(out, &text);
}

fn error(r: &mut BinReader<'_>) -> Result<EngineError, WireError> {
    Ok(match r.u8()? {
        ERR_CONFLICT => EngineError::Conflict {
            table: r.str()?,
            detail: r.str()?,
        },
        ERR_DUPLICATE_SEQ => EngineError::DuplicateSeq {
            seq: r.u64()?,
            last: r.u64()?,
        },
        ERR_RETRIES_EXHAUSTED => EngineError::RetriesExhausted {
            view: r.str()?,
            attempts: r.u32()?,
        },
        tag => {
            let text = r.str()?;
            match tag {
                ERR_STORE => EngineError::Store(StoreError::BadQuery(text)),
                ERR_NO_SUCH_VIEW => EngineError::NoSuchView(text),
                ERR_VIEW_EXISTS => EngineError::ViewExists(text),
                ERR_NO_SUCH_TABLE => EngineError::NoSuchTable(text),
                ERR_WAL_CORRUPT => EngineError::WalCorrupt(text),
                ERR_IO => EngineError::Io(text),
                ERR_RESERVED_TABLE => EngineError::ReservedTableName(text),
                ERR_SHARD_TOPOLOGY => EngineError::ShardTopology(text),
                ERR_NOT_PRIMARY => EngineError::NotPrimary { primary: text },
                ERR_UNSUPPORTED_PROTOCOL => EngineError::UnsupportedProtocol(text),
                _ => return Err(err(format!("unknown error tag {tag}"))),
            }
        }
    })
}

/// The body of a payload after [`BINARY_WIRE_MAGIC`], or
/// [`WireError::UnsupportedProtocol`].
fn body(payload: &[u8]) -> Result<BinReader<'_>, WireError> {
    match payload.split_first() {
        Some((&BINARY_WIRE_MAGIC, body)) => Ok(BinReader::new(body)),
        first => Err(WireError::UnsupportedProtocol(first.map(|(b, _)| *b))),
    }
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

impl Request {
    /// Render this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![BINARY_WIRE_MAGIC];
        let o = &mut out;
        match self {
            Request::Ping => o.push(REQ_PING),
            Request::TableNames => o.push(REQ_TABLE_NAMES),
            Request::Table(name) => {
                o.push(REQ_TABLE);
                put_str(o, name);
            }
            Request::Snapshot => o.push(REQ_SNAPSHOT),
            Request::DefineView { name, table, def } => {
                o.push(REQ_DEFINE_VIEW);
                put_str(o, name);
                put_str(o, table);
                put_viewdef(o, def);
            }
            Request::OpenView(name) => {
                o.push(REQ_OPEN_VIEW);
                put_str(o, name);
            }
            Request::ViewNames => o.push(REQ_VIEW_NAMES),
            Request::ReadView(name) => {
                o.push(REQ_READ_VIEW);
                put_str(o, name);
            }
            Request::WriteView { name, view } => {
                o.push(REQ_WRITE_VIEW);
                put_str(o, name);
                codec::put_table(o, view);
            }
            Request::EditViewCas {
                name,
                expect,
                edited,
            } => {
                o.push(REQ_EDIT_CAS);
                put_str(o, name);
                codec::put_table(o, expect);
                codec::put_table(o, edited);
            }
            Request::Commit { deltas } => {
                o.push(REQ_COMMIT);
                put_u32(o, deltas.len() as u32);
                for (name, delta) in deltas {
                    put_str(o, name);
                    codec::put_delta(o, delta);
                }
            }
            Request::Metrics => o.push(REQ_METRICS),
            Request::Stats => o.push(REQ_STATS),
            Request::Checkpoint => o.push(REQ_CHECKPOINT),
            Request::SyncWal => o.push(REQ_SYNC_WAL),
            Request::ServerPing => o.push(REQ_SERVER_PING),
            Request::Traces => o.push(REQ_TRACES),
            Request::Subscribe { view, cursor } => {
                o.push(REQ_SUBSCRIBE);
                put_str(o, view);
                put_opt(o, *cursor, put_u64);
            }
            Request::Unsubscribe(view) => {
                o.push(REQ_UNSUBSCRIBE);
                put_str(o, view);
            }
            Request::ReplManifest => o.push(REQ_REPL_MANIFEST),
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => {
                o.push(REQ_REPL_FETCH);
                put_u64(o, *shard);
                put_str(o, file);
                put_u64s(o, &[*offset, *len]);
            }
        }
        out
    }

    /// [`Request::encode`] with a trace context — the trace id and the
    /// client-side parent span — appended as a fixed-width suffix; the
    /// server roots a server-side trace under the same id. `None`
    /// encodes identically to [`Request::encode`].
    pub fn encode_with_trace(&self, ctx: Option<(u64, u32)>) -> Vec<u8> {
        let mut out = self.encode();
        if let Some((trace_id, parent)) = ctx {
            put_u64(&mut out, trace_id);
            put_u32(&mut out, parent);
        }
        out
    }

    /// Parse a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_with_trace(payload).map(|(req, _)| req)
    }

    /// [`Request::decode`], also surfacing the trace context when the
    /// payload carries the suffix (the trace id and the sender's parent
    /// span id).
    pub fn decode_with_trace(payload: &[u8]) -> Result<(Request, Option<(u64, u32)>), WireError> {
        let mut r = body(payload)?;
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_TABLE_NAMES => Request::TableNames,
            REQ_TABLE => Request::Table(r.str()?),
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_DEFINE_VIEW => Request::DefineView {
                name: r.str()?,
                table: r.str()?,
                def: viewdef(&mut r)?,
            },
            REQ_OPEN_VIEW => Request::OpenView(r.str()?),
            REQ_VIEW_NAMES => Request::ViewNames,
            REQ_READ_VIEW => Request::ReadView(r.str()?),
            REQ_WRITE_VIEW => Request::WriteView {
                name: r.str()?,
                view: r.table()?,
            },
            REQ_EDIT_CAS => Request::EditViewCas {
                name: r.str()?,
                expect: r.table()?,
                edited: r.table()?,
            },
            REQ_COMMIT => {
                let mut deltas = Vec::new();
                for _ in 0..r.count(12)? {
                    deltas.push((r.str()?, r.delta()?));
                }
                Request::Commit { deltas }
            }
            REQ_METRICS => Request::Metrics,
            REQ_STATS => Request::Stats,
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_SYNC_WAL => Request::SyncWal,
            REQ_SERVER_PING => Request::ServerPing,
            REQ_TRACES => Request::Traces,
            REQ_SUBSCRIBE => Request::Subscribe {
                view: r.str()?,
                cursor: opt(&mut r, BinReader::u64)?,
            },
            REQ_UNSUBSCRIBE => Request::Unsubscribe(r.str()?),
            REQ_REPL_MANIFEST => Request::ReplManifest,
            REQ_REPL_FETCH => Request::ReplFetch {
                shard: r.u64()?,
                file: r.str()?,
                offset: r.u64()?,
                len: r.u64()?,
            },
            other => return Err(err(format!("unknown request tag {other}"))),
        };
        // Exactly TRACE_CTX_BYTES past the body is the trace context;
        // zero is an untraced request; anything else is garbage.
        let ctx = if r.remaining() == TRACE_CTX_BYTES {
            Some((r.u64()?, r.u32()?))
        } else {
            None
        };
        r.end()?;
        Ok((req, ctx))
    }
}

// ---------------------------------------------------------------------
// Response codec.
// ---------------------------------------------------------------------

impl Response {
    /// Render this response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![BINARY_WIRE_MAGIC];
        let o = &mut out;
        match self {
            Response::Unit => o.push(RESP_UNIT),
            Response::Names(names) => {
                o.push(RESP_NAMES);
                put_strs(o, names);
            }
            Response::Table(t) => {
                o.push(RESP_TABLE);
                codec::put_table(o, t);
            }
            Response::Database(db) => {
                o.push(RESP_DATABASE);
                codec::put_database(o, db);
            }
            Response::Delta(d) => {
                o.push(RESP_DELTA);
                codec::put_delta(o, d);
            }
            Response::Receipt { stamp, shards, gtx } => {
                o.push(RESP_RECEIPT);
                put_u64(o, *stamp);
                put_u32(o, shards.len() as u32);
                for shard in shards {
                    put_u64(o, *shard as u64);
                }
                put_opt(o, gtx.as_deref(), put_str);
            }
            Response::Metrics(m) => {
                o.push(RESP_METRICS);
                put_metrics(o, m);
            }
            Response::Stats(t) => {
                o.push(RESP_STATS);
                put_telemetry(o, t);
            }
            Response::Seq(seq) => {
                o.push(RESP_SEQ);
                put_opt(o, *seq, put_u64);
            }
            Response::Err(e) => {
                o.push(RESP_ERR);
                put_error(o, e);
            }
            Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers,
            } => {
                o.push(RESP_SERVER_INFO);
                put_u64(o, *uptime_ms);
                put_u32(o, *protocol_rev);
                put_u32(o, *workers);
            }
            Response::Traces(report) => {
                o.push(RESP_TRACES);
                put_traces(o, &report.recent);
                put_traces(o, &report.slow);
            }
            Response::SubAck { cursor } => {
                o.push(RESP_SUBACK);
                put_u64(o, *cursor);
            }
            Response::Push {
                view,
                from_seq,
                to_seq,
                delta,
                resync,
            } => {
                o.push(RESP_PUSH);
                put_str(o, view);
                put_u64s(o, &[*from_seq, *to_seq]);
                codec::put_delta(o, delta);
                put_opt(o, resync.as_ref(), codec::put_table);
            }
            Response::ReplManifest(m) => {
                o.push(RESP_REPL_MANIFEST);
                put_manifest(o, m);
            }
            Response::ReplChunk(bytes) => {
                o.push(RESP_REPL_CHUNK);
                codec::put_bytes(o, bytes);
            }
        }
        out
    }

    /// Parse a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = body(payload)?;
        let resp = match r.u8()? {
            RESP_UNIT => Response::Unit,
            RESP_NAMES => Response::Names(strs(&mut r)?),
            RESP_TABLE => Response::Table(r.table()?),
            RESP_DATABASE => Response::Database(r.database()?),
            RESP_DELTA => Response::Delta(r.delta()?),
            RESP_RECEIPT => {
                let stamp = r.u64()?;
                let mut shards = Vec::new();
                for _ in 0..r.count(8)? {
                    let shard = r.u64()?;
                    shards.push(usize::try_from(shard).map_err(|_| err("shard index overflows"))?);
                }
                let gtx = opt(&mut r, BinReader::str)?;
                Response::Receipt { stamp, shards, gtx }
            }
            RESP_METRICS => Response::Metrics(metrics(&mut r)?),
            RESP_STATS => Response::Stats(telemetry(&mut r)?),
            RESP_SEQ => Response::Seq(opt(&mut r, BinReader::u64)?),
            RESP_ERR => Response::Err(error(&mut r)?),
            RESP_SERVER_INFO => Response::ServerInfo {
                uptime_ms: r.u64()?,
                protocol_rev: r.u32()?,
                workers: r.u32()?,
            },
            RESP_TRACES => Response::Traces(TraceReport {
                recent: traces(&mut r)?,
                slow: traces(&mut r)?,
            }),
            RESP_SUBACK => Response::SubAck { cursor: r.u64()? },
            RESP_PUSH => Response::Push {
                view: r.str()?,
                from_seq: r.u64()?,
                to_seq: r.u64()?,
                delta: r.delta()?,
                resync: opt(&mut r, BinReader::table)?,
            },
            RESP_REPL_MANIFEST => Response::ReplManifest(manifest(&mut r)?),
            RESP_REPL_CHUNK => Response::ReplChunk(r.bytes()?),
            other => return Err(err(format!("unknown response tag {other}"))),
        };
        r.end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// The server-side request handler.
// ---------------------------------------------------------------------

/// Execute one request against a per-connection [`esm_engine::Session`].
/// Every engine error becomes a structured [`Response::Err`]; transport
/// problems never reach here.
pub fn handle(session: &esm_engine::Session, req: Request) -> Response {
    let engine = session.engine();
    let result: Result<Response, EngineError> = (|| {
        Ok(match req {
            Request::Ping => Response::Unit,
            Request::TableNames => Response::Names(engine.table_names()?),
            Request::Table(name) => Response::Table(engine.table(&name)?),
            Request::Snapshot => Response::Database(engine.snapshot()?),
            Request::DefineView { name, table, def } => {
                session.define_view(&name, &table, &def)?;
                Response::Unit
            }
            Request::OpenView(name) => {
                session.view(&name)?;
                Response::Unit
            }
            Request::ViewNames => Response::Names(engine.view_names()?),
            Request::ReadView(name) => Response::Table(engine.read_view(&name)?),
            Request::WriteView { name, view } => Response::Delta(engine.write_view(&name, view)?),
            Request::EditViewCas {
                name,
                expect,
                edited,
            } => {
                let table = name.clone();
                let delta = engine.edit_view_optimistic(&name, 1, &move |v: &mut Table| {
                    if *v != expect {
                        return Err(EngineError::Conflict {
                            table: table.clone(),
                            detail: "view window changed since the client's read".into(),
                        });
                    }
                    *v = edited.clone();
                    Ok(())
                })?;
                Response::Delta(delta)
            }
            Request::Commit { deltas } => {
                // Delta-direct checked commit: pre-image validation is
                // the first-committer-wins check against the client's
                // snapshot, and engines prune the work to the touched
                // shards — no whole-database snapshot or
                // re-diff on the server hot path.
                let receipt = engine.commit_checked(&deltas)?;
                Response::Receipt {
                    stamp: receipt.stamp,
                    shards: receipt.shards,
                    gtx: receipt.gtx,
                }
            }
            Request::Metrics => Response::Metrics(engine.metrics()?),
            Request::Stats => Response::Stats(engine.telemetry()?),
            Request::Checkpoint => Response::Seq(engine.checkpoint()?),
            Request::SyncWal => {
                engine.sync_wal()?;
                Response::Unit
            }
            // The network layer intercepts ServerPing before handle()
            // and answers with its real identity; this arm covers
            // direct (serverless) use of the handler.
            Request::ServerPing => Response::ServerInfo {
                uptime_ms: 0,
                protocol_rev: PROTOCOL_REV,
                workers: 0,
            },
            Request::Traces => Response::Traces(engine.traces()?),
            // The network layer intercepts Subscribe/Unsubscribe before
            // handle() — the subscription registry is connection-scoped.
            // These arms cover direct (serverless) use: ack with the
            // engine's cursor; nothing will push without a server.
            Request::Subscribe { view, cursor } => Response::SubAck {
                cursor: match cursor {
                    Some(c) => c,
                    None => engine.view_cursor(&view)?,
                },
            },
            Request::Unsubscribe(_) => Response::Unit,
            // Replication verbs route through the engine's shippable
            // WAL surface; in-memory engines have none.
            Request::ReplManifest => match engine.repl_source() {
                Some(source) => Response::ReplManifest(source.manifest()?),
                None => {
                    return Err(EngineError::Io(
                        "replication source unavailable: engine is not durable".into(),
                    ))
                }
            },
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => match engine.repl_source() {
                Some(source) => Response::ReplChunk(source.fetch(shard, &file, offset, len)?),
                None => {
                    return Err(EngineError::Io(
                        "replication source unavailable: engine is not durable".into(),
                    ))
                }
            },
        })
    })();
    result.unwrap_or_else(Response::Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Operand, Predicate, Schema, Value, ValueType};

    fn table() -> Table {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap();
        Table::from_rows(schema, vec![row![1, "a\tb"], row![2, "nl\nhere"]]).unwrap()
    }

    fn telemetry() -> TelemetrySnapshot {
        let tel = esm_obs::Telemetry::new();
        for v in [3, 90, 4000, 4096, u64::MAX] {
            tel.record(Phase::CommitFsync, v);
            tel.record(Phase::NetHandler, v / 3);
        }
        tel.record_slow(
            "commit:we\tird\nop".to_string(),
            77_000_000,
            &[(Phase::CommitFsync, 70_000_000), (Phase::CommitLockHold, 5)],
        );
        tel.record_slow("plain".to_string(), 12_345_678, &[]);
        tel.snapshot()
    }

    fn traces() -> TraceReport {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "net:commit".into(),
                tag: String::new(),
                start_ns: 0,
                duration_ns: 5_000,
                bytes: 0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "we\tird\nname".into(),
                tag: "shard:0\tλ".into(),
                start_ns: 10,
                duration_ns: 4_000,
                bytes: 512,
            },
            SpanRecord {
                id: 3,
                parent: 2,
                name: "commit_fsync".into(),
                tag: String::new(),
                start_ns: 100,
                duration_ns: 3_000,
                bytes: u64::MAX,
            },
        ];
        TraceReport {
            recent: vec![
                TraceRecord {
                    id: TraceId(0xfeed_face_0000_0001),
                    root: "net:commit".into(),
                    duration_ns: 5_000,
                    spans,
                },
                TraceRecord {
                    id: TraceId(0),
                    root: "empty".into(),
                    duration_ns: 0,
                    spans: vec![],
                },
            ],
            slow: vec![TraceRecord {
                id: TraceId(u64::MAX),
                root: "slo\tw".into(),
                duration_ns: u64::MAX,
                spans: vec![SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "session:transact".into(),
                    tag: String::new(),
                    start_ns: 0,
                    duration_ns: u64::MAX,
                    bytes: 7,
                }],
            }],
        }
    }

    fn def() -> ViewDef {
        ViewDef::base()
            .select(
                Predicate::lt(Operand::col("id"), Operand::val(30)).and(Predicate::ne(
                    Operand::col("name"),
                    Operand::val("we\tird\nname"),
                )),
            )
            .project(&["id", "name"], &[("extra", Value::str("d\\efault"))])
            .rename(&[("name", "renamed")])
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::TableNames,
            Request::Table("ta ble".into()),
            Request::Snapshot,
            Request::DefineView {
                name: "v\tiew".into(),
                table: "t".into(),
                def: def(),
            },
            Request::OpenView("v".into()),
            Request::ViewNames,
            Request::ReadView("v".into()),
            Request::WriteView {
                name: "v".into(),
                view: table(),
            },
            Request::EditViewCas {
                name: "v".into(),
                expect: table(),
                edited: table(),
            },
            Request::Commit {
                deltas: vec![(
                    "t".into(),
                    Delta {
                        inserted: vec![row![3, "c"]],
                        deleted: vec![row![1, "a\tb"]],
                    },
                )],
            },
            Request::Metrics,
            Request::Stats,
            Request::Checkpoint,
            Request::SyncWal,
            Request::ServerPing,
            Request::Traces,
            Request::Subscribe {
                view: "v\tiew".into(),
                cursor: Some(u64::MAX),
            },
            Request::Subscribe {
                view: "v".into(),
                cursor: None,
            },
            Request::Subscribe {
                view: String::new(),
                cursor: Some(0),
            },
            Request::Unsubscribe("v\niew".into()),
            Request::ReplManifest,
            Request::ReplFetch {
                shard: 3,
                file: "wal-00000000000000000001.seg".into(),
                offset: 4096,
                len: u64::MAX,
            },
        ]
    }

    fn responses() -> Vec<Response> {
        let mut db = Database::new();
        db.replace_table("t", table());
        let metrics = MetricsSnapshot {
            commits: 7,
            view: ViewStats {
                rebuilds: 2,
                ..Default::default()
            },
            shard: ShardStats {
                prepares: 3,
                ..Default::default()
            },
            wal: WalStats {
                appends: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut resps = vec![
            Response::Unit,
            Response::Names(vec![]),
            Response::Names(vec!["a".into(), "with\ttab".into()]),
            Response::Table(table()),
            Response::Database(db),
            Response::Database(Database::new()),
            Response::Delta(Delta {
                inserted: vec![row![9, "i"]],
                deleted: vec![],
            }),
            Response::Receipt {
                stamp: 42,
                shards: vec![0, 3],
                gtx: Some("g17".into()),
            },
            Response::Receipt {
                stamp: 1,
                shards: vec![],
                gtx: None,
            },
            Response::Metrics(metrics),
            Response::Metrics(MetricsSnapshot::default()),
            Response::Stats(telemetry()),
            Response::Stats(TelemetrySnapshot {
                phases: vec![],
                slow_threshold_ns: 1,
                slow_ops: vec![],
                gauges: vec![],
            }),
            Response::Stats({
                let mut t = telemetry();
                t.set_gauge("repl_lag_records", u64::MAX);
                t.set_gauge("we\tird gauge", 0);
                t
            }),
            Response::Seq(Some(12)),
            Response::Seq(None),
            Response::ServerInfo {
                uptime_ms: 123_456,
                protocol_rev: PROTOCOL_REV,
                workers: 8,
            },
            Response::Traces(traces()),
            Response::Traces(TraceReport::default()),
            Response::SubAck { cursor: u64::MAX },
            Response::SubAck { cursor: 0 },
            Response::Push {
                view: "v\tiew".into(),
                from_seq: 3,
                to_seq: u64::MAX,
                delta: Delta {
                    inserted: vec![row![9, "i"]],
                    deleted: vec![row![1, "a\tb"]],
                },
                resync: None,
            },
            Response::Push {
                view: "v".into(),
                from_seq: 0,
                to_seq: 7,
                delta: Delta::empty(),
                resync: Some(table()),
            },
            Response::Metrics(MetricsSnapshot {
                shard: ShardStats {
                    auto_splits: 2,
                    auto_merges: 1,
                    commit_rate_ewma_milli: 123_456,
                    commit_rate_skew_milli: 1_900,
                    ..Default::default()
                },
                shard_load: vec![
                    ShardLoad {
                        shard: 0,
                        rows: 10,
                        commits: 100,
                        rate_ewma_milli: 5_000,
                    },
                    ShardLoad {
                        shard: 7,
                        rows: 0,
                        commits: 0,
                        rate_ewma_milli: 0,
                    },
                ],
                repl: ReplStats {
                    lag: vec![ReplicaLag {
                        shard: 0,
                        primary_seq: 42,
                        applied_seq: 40,
                    }],
                    ship_passes: 9,
                    records_applied: 80,
                    transactions_applied: 33,
                },
                ..Default::default()
            }),
            Response::ReplManifest(ReplManifest {
                topology: vec![0x00, 0xFF, 0x7B, b'\n', b'\t'],
                primary_addr: "127.0.0.1:4400".into(),
                shards: vec![
                    ShardManifest {
                        id: 0,
                        last_seq: 17,
                        files: vec![
                            FileEntry {
                                name: "checkpoint-00000000000000000004.ckpt".into(),
                                len: 321,
                            },
                            FileEntry {
                                name: "wal-00000000000000000005.seg".into(),
                                len: 4096,
                            },
                        ],
                    },
                    ShardManifest {
                        id: 3,
                        last_seq: 0,
                        files: vec![],
                    },
                ],
            }),
            Response::ReplManifest(ReplManifest::default()),
            Response::ReplChunk(vec![0xB7, 0x00, 0xFF, 1, 2, 3]),
            Response::ReplChunk(vec![]),
        ];
        // Every error variant crosses structurally.
        resps.extend(
            [
                EngineError::Conflict {
                    table: "t".into(),
                    detail: "de\ttail".into(),
                },
                EngineError::NoSuchView("v".into()),
                EngineError::ViewExists("v".into()),
                EngineError::NoSuchTable("t".into()),
                EngineError::WalCorrupt("crc".into()),
                EngineError::DuplicateSeq {
                    seq: 3,
                    last: u64::MAX,
                },
                EngineError::Io("disk".into()),
                EngineError::RetriesExhausted {
                    view: "v".into(),
                    attempts: 4,
                },
                EngineError::ReservedTableName("!t".into()),
                EngineError::ShardTopology("no shard 9".into()),
                EngineError::NotPrimary {
                    primary: "10.0.0.2:4400".into(),
                },
                EngineError::NotPrimary {
                    primary: String::new(),
                },
                EngineError::UnsupportedProtocol("text".into()),
            ]
            .map(Response::Err),
        );
        resps
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let back = Request::decode(&req.encode()).unwrap();
            // ViewDef has no PartialEq; compare through re-encoding.
            assert_eq!(back.encode(), req.encode(), "{req:?}");
        }
    }

    #[test]
    fn trace_context_round_trips() {
        for req in requests() {
            // With a context: it survives and the request is unchanged.
            let ctx = Some((0xdead_beef_cafe_f00d_u64, 17_u32));
            let (back, got) = Request::decode_with_trace(&req.encode_with_trace(ctx)).unwrap();
            assert_eq!(got, ctx, "{req:?}");
            assert_eq!(back.encode(), req.encode(), "{req:?}");
            // Without one: encode_with_trace(None) is byte-identical to
            // the plain encoding, and decodes with no context.
            assert_eq!(req.encode_with_trace(None), req.encode(), "{req:?}");
            let (_, got) = Request::decode_with_trace(&req.encode()).unwrap();
            assert_eq!(got, None, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
        // Store errors cross as their message.
        let store = EngineError::Store(StoreError::NoSuchColumn("c\tol".into()));
        assert_eq!(
            Response::decode(&Response::Err(store.clone()).encode()).unwrap(),
            Response::Err(EngineError::Store(StoreError::BadQuery(
                StoreError::NoSuchColumn("c\tol".into()).to_string()
            )))
        );
    }

    #[test]
    fn binary_garbage_is_rejected_not_panicked() {
        let truncated_commit = {
            // A commit header promising deltas that never arrive.
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_COMMIT];
            put_u32(&mut b, 3);
            b
        };
        let trailing = {
            let mut b = Request::Ping.encode();
            b.push(0);
            b
        };
        let bad_cursor_flag = {
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_SUBSCRIBE];
            put_str(&mut b, "v");
            b.push(7); // neither 0 nor 1
            b
        };
        let base_twice = {
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_DEFINE_VIEW];
            put_str(&mut b, "v");
            put_str(&mut b, "t");
            put_u32(&mut b, 2);
            b.extend([STAGE_BASE, STAGE_BASE]);
            b
        };
        let too_many_stages = {
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_DEFINE_VIEW];
            put_str(&mut b, "v");
            put_str(&mut b, "t");
            let n = MAX_VIEW_STAGES + 1;
            put_u32(&mut b, n as u32);
            b.push(STAGE_BASE);
            for _ in 1..n {
                b.push(STAGE_RENAME);
                put_u32(&mut b, 0);
            }
            b
        };
        for bad in [
            vec![BINARY_WIRE_MAGIC],
            vec![BINARY_WIRE_MAGIC, 0xEE],
            vec![BINARY_WIRE_MAGIC, REQ_TABLE],
            vec![BINARY_WIRE_MAGIC, REQ_TABLE, 0xFF, 0xFF, 0xFF, 0xFF],
            truncated_commit,
            trailing,
            bad_cursor_flag,
            base_twice,
            too_many_stages,
        ] {
            assert!(
                matches!(Request::decode(&bad), Err(WireError::Malformed(_))),
                "{bad:?} must not decode"
            );
        }
        let bad_resync_flag = {
            let mut b = vec![BINARY_WIRE_MAGIC, RESP_PUSH];
            put_str(&mut b, "v");
            put_u64s(&mut b, &[1, 2]);
            codec::put_delta(&mut b, &Delta::empty());
            b.push(9); // neither 0 nor 1
            b
        };
        let bad_phase = {
            let mut b = vec![BINARY_WIRE_MAGIC, RESP_STATS];
            put_u64(&mut b, 1);
            put_u32(&mut b, 1);
            put_str(&mut b, "not_a_phase");
            put_u64s(&mut b, &[1, 1, 1]);
            put_u32(&mut b, 0);
            put_u32(&mut b, 0);
            put_u32(&mut b, 0);
            b
        };
        for bad in [
            vec![BINARY_WIRE_MAGIC],
            vec![BINARY_WIRE_MAGIC, 0xEE],
            vec![BINARY_WIRE_MAGIC, RESP_RECEIPT, 1],
            vec![BINARY_WIRE_MAGIC, RESP_SEQ, 7],
            vec![BINARY_WIRE_MAGIC, RESP_ERR, 0, 0, 0, 0],
            vec![BINARY_WIRE_MAGIC, RESP_ERR, 0xEE, 0, 0, 0, 0],
            vec![BINARY_WIRE_MAGIC, RESP_SUBACK, 1, 2],
            vec![BINARY_WIRE_MAGIC, RESP_TRACES, 0xFF, 0xFF, 0xFF, 0xFF],
            bad_resync_flag,
            bad_phase,
        ] {
            assert!(
                matches!(Response::decode(&bad), Err(WireError::Malformed(_))),
                "{bad:?} must not decode"
            );
        }
        // Every truncation of every real payload errors cleanly: all
        // lengths are prefixed, so a missing tail is always caught.
        for full in requests().iter().map(Request::encode) {
            for cut in 0..full.len() {
                assert!(
                    Request::decode(&full[..cut]).is_err(),
                    "cut {cut} of {full:?}"
                );
            }
        }
        for full in responses().iter().map(Response::encode) {
            for cut in 0..full.len() {
                assert!(
                    Response::decode(&full[..cut]).is_err(),
                    "cut {cut} of {full:?}"
                );
            }
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // Every count-bearing message announcing u32::MAX elements in a
        // tiny payload fails at the count, not after an allocation or a
        // four-billion-step loop.
        let huge = u32::MAX.to_le_bytes();
        let with = |prefix: &[u8]| {
            let mut b = vec![BINARY_WIRE_MAGIC];
            b.extend_from_slice(prefix);
            b.extend_from_slice(&huge);
            b.extend_from_slice(&[0; 16]);
            b
        };
        let mut define = vec![REQ_DEFINE_VIEW];
        put_str(&mut define, "v");
        put_str(&mut define, "t");
        for bad in [with(&[REQ_COMMIT]), with(&define)] {
            assert!(Request::decode(&bad).is_err(), "{bad:?}");
        }
        let mut metrics = vec![RESP_METRICS];
        put_u64s(&mut metrics, &[0; 29]);
        let mut manifest = vec![RESP_REPL_MANIFEST];
        put_str(&mut manifest, "");
        codec::put_bytes(&mut manifest, &[]);
        let mut stats = vec![RESP_STATS];
        put_u64(&mut stats, 0);
        for bad in [
            with(&[RESP_NAMES]),
            with(&[RESP_RECEIPT, 0, 0, 0, 0, 0, 0, 0, 0]),
            with(&[RESP_TABLE]),
            with(&[RESP_DATABASE]),
            with(&[RESP_DELTA]),
            with(&metrics),
            with(&stats),
            with(&[RESP_TRACES]),
            with(&manifest),
        ] {
            assert!(
                matches!(Response::decode(&bad), Err(WireError::Malformed(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn predicates_round_trip_structurally() {
        let pred = Predicate::lt(Operand::col("a b"), Operand::val(3))
            .and(Predicate::eq(Operand::col("s"), Operand::val("x\ty")).not())
            .or(Predicate::True.and(Predicate::False));
        let req = Request::DefineView {
            name: "v".into(),
            table: "t".into(),
            def: ViewDef::base().select(pred.clone()),
        };
        let Request::DefineView {
            def: ViewDef::Select(base, back),
            ..
        } = Request::decode(&req.encode()).unwrap()
        else {
            panic!("expected a select view definition");
        };
        assert!(matches!(*base, ViewDef::Base));
        assert_eq!(back, pred);
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        // Payloads of the text protocol (revisions 1-4) and of nothing
        // at all are an unsupported protocol, with the byte that said so.
        for (bad, first) in [
            (&b""[..], None),
            (b"ping\n", Some(b'p')),
            (b"commit\tNaN", Some(b'c')),
            (b"\xff\xfe", Some(0xFF)),
            (b"\xb5\x00", Some(0xB5)),
        ] {
            assert_eq!(
                Request::decode(bad).unwrap_err(),
                WireError::UnsupportedProtocol(first)
            );
            assert_eq!(
                Response::decode(bad).unwrap_err(),
                WireError::UnsupportedProtocol(first)
            );
        }
        // Engines surface it as the typed error the server sends back.
        let e = EngineError::from(Request::decode(b"ping\n").unwrap_err());
        assert!(
            matches!(&e, EngineError::UnsupportedProtocol(msg) if msg.contains("0xb7")),
            "{e}"
        );
    }
}
