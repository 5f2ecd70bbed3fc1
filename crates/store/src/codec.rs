//! The binary codec: one length-prefixed, little-endian encoding of
//! cells, rows, schemas, tables, databases, deltas and predicates.
//!
//! Every surface that persists or ships state encodes it here and
//! nowhere else: the engine's WAL segment records, checkpoints and shard
//! topology file, and the `esm-net` wire protocol. One codec means one
//! set of edge cases and one set of malformed-input checks.
//!
//! ```text
//! cell      := 0x00 bool-byte | 0x01 i64 | 0x02 str
//! str       := u32 len, UTF-8 bytes (no escaping: the length delimits)
//! row       := u32 cells, cell*
//! schema    := u32 cols, (str name, type-byte)*, u32 keys, str*
//! table     := schema, u32 rows, row*
//! database  := u32 tables, (str name, table)*        (name order)
//! delta     := u32 inserted, u32 deleted, row*        (inserted first)
//! predicate := u32 tokens, token*                     (postfix)
//! token     := 0x00 true | 0x01 false | 0x02 str col | 0x03 cell
//!            | 0x04 cmp-byte | 0x05 and | 0x06 or | 0x07 not
//! ```
//!
//! Integers are little-endian (`u32` counts and lengths, `u64`/`i64`
//! payloads); type bytes are `0` bool, `1` int, `2` str; comparison bytes
//! are `0..=5` for `= != < <= > >=`.
//!
//! Decoding is cursor-based ([`BinReader`]) and rejects malformed input
//! with [`StoreError::Codec`], never a panic: every read is bounds
//! checked, and every announced element count is checked against the
//! bytes that remain before anything is allocated or looped over
//! ([`BinReader::count`]), so a corrupt or hostile count fails at once.
//! Predicates decode on an explicit stack with a nesting bound
//! ([`MAX_PREDICATE_DEPTH`]): no recursion is driven by input bytes.
//! Secondary indexes are derived data and are not encoded; callers
//! rebuild them after decoding.

use crate::database::Database;
use crate::delta::Delta;
use crate::error::StoreError;
use crate::predicate::{Cmp, Operand, Predicate};
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::{Value, ValueType};

const CELL_BOOL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_STR: u8 = 2;

const TOK_TRUE: u8 = 0;
const TOK_FALSE: u8 = 1;
const TOK_COL: u8 = 2;
const TOK_VAL: u8 = 3;
const TOK_CMP: u8 = 4;
const TOK_AND: u8 = 5;
const TOK_OR: u8 = 6;
const TOK_NOT: u8 = 7;

/// Deepest predicate nesting a decoder accepts. Evaluating and dropping
/// a predicate recurse over its tree, so a remote peer must not be able
/// to build one deep enough to exhaust a thread's stack.
pub const MAX_PREDICATE_DEPTH: usize = 512;

fn bad(msg: impl Into<String>) -> StoreError {
    StoreError::Codec(msg.into())
}

// ---------------------------------------------------------------------
// Encoders.
// ---------------------------------------------------------------------

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append a `u32`-length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append one cell: tag byte, then payload.
pub fn put_cell(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(CELL_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(CELL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(CELL_STR);
            put_str(out, s);
        }
    }
}

/// Append one row: `u32` cell count, then the cells.
pub fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_cell(out, v);
    }
}

fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Bool => 0,
        ValueType::Int => 1,
        ValueType::Str => 2,
    });
}

/// Append a schema: typed columns, then the key column names.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns().len() as u32);
    for c in schema.columns() {
        put_str(out, &c.name);
        put_value_type(out, c.ty);
    }
    put_u32(out, schema.key().len() as u32);
    for k in schema.key() {
        put_str(out, k);
    }
}

/// Append a table: its schema, then its rows in key order.
pub fn put_table(out: &mut Vec<u8>, table: &Table) {
    put_schema(out, table.schema());
    put_u32(out, table.len() as u32);
    for row in table.rows() {
        put_row(out, row);
    }
}

/// Append a database: its tables in name order.
pub fn put_database(out: &mut Vec<u8>, db: &Database) {
    let names = db.table_names();
    put_u32(out, names.len() as u32);
    for name in names {
        put_str(out, name);
        put_table(out, db.table(name).expect("name came from the database"));
    }
}

/// Append a delta: both counts, then inserted rows, then deleted rows.
pub fn put_delta(out: &mut Vec<u8>, delta: &Delta) {
    put_u32(out, delta.inserted.len() as u32);
    put_u32(out, delta.deleted.len() as u32);
    for row in delta.inserted.iter().chain(&delta.deleted) {
        put_row(out, row);
    }
}

fn put_operand(tokens: &mut Vec<u8>, op: &Operand) {
    match op {
        Operand::Col(name) => {
            tokens.push(TOK_COL);
            put_str(tokens, name);
        }
        Operand::Const(v) => {
            tokens.push(TOK_VAL);
            put_cell(tokens, v);
        }
    }
}

fn predicate_tokens(tokens: &mut Vec<u8>, count: &mut u32, pred: &Predicate) {
    *count += 1;
    match pred {
        Predicate::True => tokens.push(TOK_TRUE),
        Predicate::False => tokens.push(TOK_FALSE),
        Predicate::Compare(cmp, lhs, rhs) => {
            put_operand(tokens, lhs);
            put_operand(tokens, rhs);
            *count += 2;
            tokens.push(TOK_CMP);
            tokens.push(match cmp {
                Cmp::Eq => 0,
                Cmp::Ne => 1,
                Cmp::Lt => 2,
                Cmp::Le => 3,
                Cmp::Gt => 4,
                Cmp::Ge => 5,
            });
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            predicate_tokens(tokens, count, a);
            predicate_tokens(tokens, count, b);
            tokens.push(if matches!(pred, Predicate::And(..)) {
                TOK_AND
            } else {
                TOK_OR
            });
        }
        Predicate::Not(p) => {
            predicate_tokens(tokens, count, p);
            tokens.push(TOK_NOT);
        }
    }
}

/// Append a predicate as a counted postfix token stream.
pub fn put_predicate(out: &mut Vec<u8>, pred: &Predicate) {
    let mut tokens = Vec::new();
    let mut count = 0u32;
    predicate_tokens(&mut tokens, &mut count, pred);
    put_u32(out, count);
    out.extend_from_slice(&tokens);
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a binary payload. Every read advances
/// the cursor; running past the end is a [`StoreError::Codec`], never a
/// panic — a torn or corrupt payload must decode to an error.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

enum Slot {
    Pred(Predicate, usize),
    Op(Operand),
}

impl<'a> BinReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> BinReader<'a> {
        BinReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error unless the whole payload was consumed.
    pub fn end(&self) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(bad(format!("{n} trailing bytes after binary payload"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(bad(format!(
                "binary payload truncated: needed {n} bytes, had {}",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a presence flag: `0` is `false`, `1` is `true`, anything else
    /// is corrupt.
    pub fn flag(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("bad flag byte {b}"))),
        }
    }

    /// Read a `u32` element count for elements of at least `min_bytes`
    /// bytes each, refusing a count the remaining payload cannot hold.
    /// Decoders size loops and allocations only from counts read here.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(bad(format!(
                "binary payload announces {n} elements, only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| bad(format!("binary string not UTF-8: {e}")))
    }

    /// Read one cell.
    pub fn cell(&mut self) -> Result<Value, StoreError> {
        match self.u8()? {
            CELL_BOOL => Ok(Value::Bool(self.flag()?)),
            CELL_INT => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8"),
            ))),
            CELL_STR => Ok(Value::Str(self.str()?)),
            tag => Err(bad(format!("unknown binary cell tag {tag}"))),
        }
    }

    /// Read one row. Each cell is at least 2 bytes, so the capacity is
    /// bounded by the payload, not by the announced count.
    pub fn row(&mut self) -> Result<Row, StoreError> {
        let n = self.count(2)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.cell()?);
        }
        Ok(row)
    }

    fn value_type(&mut self) -> Result<ValueType, StoreError> {
        Ok(match self.u8()? {
            0 => ValueType::Bool,
            1 => ValueType::Int,
            2 => ValueType::Str,
            t => return Err(bad(format!("unknown value-type tag {t}"))),
        })
    }

    /// Read a schema (validated: known key columns, no duplicates).
    pub fn schema(&mut self) -> Result<Schema, StoreError> {
        let mut columns = Vec::new();
        for _ in 0..self.count(5)? {
            let name = self.str()?;
            columns.push(Column::new(name, self.value_type()?));
        }
        let mut key = Vec::new();
        for _ in 0..self.count(4)? {
            key.push(self.str()?);
        }
        Schema::new(columns, key)
    }

    /// Read a table; every row is checked against the schema and key.
    pub fn table(&mut self) -> Result<Table, StoreError> {
        let mut table = Table::new(self.schema()?);
        for _ in 0..self.count(4)? {
            table.insert(self.row()?)?;
        }
        Ok(table)
    }

    /// Read a database; a repeated table name is corrupt.
    pub fn database(&mut self) -> Result<Database, StoreError> {
        let mut db = Database::new();
        for _ in 0..self.count(8)? {
            let name = self.str()?;
            let table = self.table()?;
            db.create_table(name, table)?;
        }
        Ok(db)
    }

    /// Read a delta.
    pub fn delta(&mut self) -> Result<Delta, StoreError> {
        let ins = self.u32()? as usize;
        let del = self.u32()? as usize;
        if ins.saturating_add(del).saturating_mul(4) > self.remaining() {
            return Err(bad(format!(
                "binary delta announces {ins}+{del} rows, only {} bytes remain",
                self.remaining()
            )));
        }
        let mut delta = Delta::empty();
        for _ in 0..ins {
            delta.inserted.push(self.row()?);
        }
        for _ in 0..del {
            delta.deleted.push(self.row()?);
        }
        Ok(delta)
    }

    /// Read a postfix predicate on an explicit stack: no recursion, and
    /// nesting deeper than [`MAX_PREDICATE_DEPTH`] is refused.
    pub fn predicate(&mut self) -> Result<Predicate, StoreError> {
        let mut stack: Vec<Slot> = Vec::new();
        fn pop_pred(stack: &mut Vec<Slot>) -> Result<(Predicate, usize), StoreError> {
            match stack.pop() {
                Some(Slot::Pred(p, depth)) => Ok((p, depth)),
                _ => Err(bad("predicate stack underflow")),
            }
        }
        fn pop_op(stack: &mut Vec<Slot>) -> Result<Operand, StoreError> {
            match stack.pop() {
                Some(Slot::Op(o)) => Ok(o),
                _ => Err(bad("operand stack underflow")),
            }
        }
        for _ in 0..self.count(1)? {
            let slot = match self.u8()? {
                TOK_TRUE => Slot::Pred(Predicate::True, 1),
                TOK_FALSE => Slot::Pred(Predicate::False, 1),
                TOK_COL => Slot::Op(Operand::Col(self.str()?)),
                TOK_VAL => Slot::Op(Operand::Const(self.cell()?)),
                TOK_CMP => {
                    let cmp = match self.u8()? {
                        0 => Cmp::Eq,
                        1 => Cmp::Ne,
                        2 => Cmp::Lt,
                        3 => Cmp::Le,
                        4 => Cmp::Gt,
                        5 => Cmp::Ge,
                        c => return Err(bad(format!("unknown comparison byte {c}"))),
                    };
                    let rhs = pop_op(&mut stack)?;
                    let lhs = pop_op(&mut stack)?;
                    Slot::Pred(Predicate::Compare(cmp, lhs, rhs), 1)
                }
                tok @ (TOK_AND | TOK_OR) => {
                    let (b, db) = pop_pred(&mut stack)?;
                    let (a, da) = pop_pred(&mut stack)?;
                    let pred = if tok == TOK_AND { a.and(b) } else { a.or(b) };
                    Slot::Pred(pred, da.max(db) + 1)
                }
                TOK_NOT => {
                    let (p, depth) = pop_pred(&mut stack)?;
                    Slot::Pred(p.not(), depth + 1)
                }
                t => return Err(bad(format!("unknown predicate token {t}"))),
            };
            if let Slot::Pred(_, depth) = &slot {
                if *depth > MAX_PREDICATE_DEPTH {
                    return Err(bad(format!(
                        "predicate nests deeper than {MAX_PREDICATE_DEPTH}"
                    )));
                }
            }
            stack.push(slot);
        }
        match (stack.pop(), stack.is_empty()) {
            (Some(Slot::Pred(p, _)), true) => Ok(p),
            _ => Err(bad(
                "predicate token stream did not reduce to one predicate",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn encoded(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        put(&mut buf);
        buf
    }

    fn sample() -> Database {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("ok", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap();
        let t = Table::from_rows(
            schema,
            vec![
                row![1, "ada", true],
                row![2, "tab\there\nand newline", false],
            ],
        )
        .unwrap();
        let unkeyed = Table::from_rows(
            Schema::build(&[("x", ValueType::Int)], &[]).unwrap(),
            vec![row![7], row![8]],
        )
        .unwrap();
        let mut db = Database::new();
        db.create_table("people", t).unwrap();
        db.create_table("odd\tname", unkeyed).unwrap();
        db.create_table("empty", Table::new(Schema::build(&[], &[]).unwrap()))
            .unwrap();
        db
    }

    fn decode_db(bytes: &[u8]) -> Result<Database, StoreError> {
        let mut r = BinReader::new(bytes);
        let db = r.database()?;
        r.end()?;
        Ok(db)
    }

    const CELLS: [fn() -> Value; 8] = [
        || Value::Bool(true),
        || Value::Bool(false),
        || Value::Int(-42),
        || Value::Int(i64::MIN),
        || Value::Int(i64::MAX),
        || Value::str(""),
        || Value::str("plain"),
        || Value::str("tab\t nl\n cr\r bs\\ quote\" nul\0 λ done"),
    ];

    #[test]
    fn cells_round_trip() {
        for v in CELLS.map(|f| f()) {
            let buf = encoded(|b| put_cell(b, &v));
            let mut r = BinReader::new(&buf);
            assert_eq!(r.cell().unwrap(), v);
            r.end().unwrap();
        }
    }

    #[test]
    fn rows_round_trip_including_empty() {
        for row in [row![], row![1, "a\tb", true, ""]] {
            let buf = encoded(|b| put_row(b, &row));
            let mut r = BinReader::new(&buf);
            assert_eq!(r.row().unwrap(), row);
            r.end().unwrap();
        }
    }

    #[test]
    fn binary_cells_and_rows_round_trip() {
        // Every cell kind side by side in one row, back to back with a
        // second row: rows delimit themselves.
        let wide: Row = CELLS.map(|f| f()).to_vec();
        let buf = encoded(|b| {
            put_row(b, &wide);
            put_row(b, &row![]);
        });
        let mut r = BinReader::new(&buf);
        assert_eq!(r.row().unwrap(), wide);
        assert_eq!(r.row().unwrap(), row![]);
        r.end().unwrap();
    }

    #[test]
    fn binary_primitives_round_trip() {
        let buf = encoded(|b| {
            put_u32(b, u32::MAX);
            put_u64(b, 0x0123_4567_89ab_cdef);
            put_str(b, "héllo");
            put_bytes(b, &[0, 0xFF]);
            b.push(1);
        });
        let mut r = BinReader::new(&buf);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![0, 0xFF]);
        assert!(r.flag().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn malformed_cells_are_rejected() {
        for bad in [
            vec![99],               // unknown cell tag
            vec![0, 2],             // bool byte out of range
            vec![2, 1, 0, 0, 0],    // string shorter than its length
            vec![2, 1, 0, 0, 0xff], // non-UTF-8 string
            vec![1, 0, 0, 0],       // int cut short
        ] {
            let mut r = BinReader::new(&bad);
            assert!(
                matches!(r.cell(), Err(StoreError::Codec(_))),
                "{bad:?} should not decode"
            );
        }
    }

    #[test]
    fn malformed_binary_is_rejected_not_panicked() {
        // Truncations of a valid row at every byte boundary.
        let buf = encoded(|b| put_row(b, &row![7, "seven", false]));
        for cut in 0..buf.len() {
            let mut r = BinReader::new(&buf[..cut]);
            let decoded = r.row().and_then(|row| r.end().map(|()| row));
            assert!(decoded.is_err(), "truncation at {cut} should not decode");
        }
        // Absurd counts fail before any allocation or loop.
        for bad in [
            vec![0xff, 0xff, 0xff, 0xff], // cells
            vec![0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0],
        ] {
            assert!(BinReader::new(&bad).row().is_err(), "{bad:?}");
            assert!(BinReader::new(&bad).delta().is_err(), "{bad:?}");
            assert!(BinReader::new(&bad).database().is_err(), "{bad:?}");
            assert!(BinReader::new(&bad).table().is_err(), "{bad:?}");
            assert!(BinReader::new(&bad).predicate().is_err(), "{bad:?}");
        }
        // Trailing garbage is an error too.
        let mut buf = encoded(|b| put_row(b, &row![1]));
        buf.push(0);
        let mut r = BinReader::new(&buf);
        assert!(r.row().and_then(|row| r.end().map(|()| row)).is_err());
    }

    #[test]
    fn database_round_trips() {
        let db = sample();
        assert_eq!(decode_db(&encoded(|b| put_database(b, &db))).unwrap(), db);
    }

    #[test]
    fn empty_database_round_trips() {
        let db = Database::new();
        assert_eq!(decode_db(&encoded(|b| put_database(b, &db))).unwrap(), db);
    }

    #[test]
    fn truncated_snapshots_are_rejected() {
        // Every length is prefixed, so every proper prefix of an encoded
        // database fails to decode.
        let bytes = encoded(|b| put_database(b, &sample()));
        for cut in 0..bytes.len() {
            assert!(decode_db(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Decoded rows are checked against their schema and key.
        let schema =
            Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &["a"]).unwrap();
        let dup = encoded(|b| {
            put_u32(b, 1);
            put_str(b, "t");
            put_schema(b, &schema);
            put_u32(b, 2);
            put_row(b, &row![1, 1]);
            put_row(b, &row![1, 2]);
        });
        assert!(matches!(decode_db(&dup), Err(StoreError::KeyViolation(_))));
        let mistyped = encoded(|b| {
            put_u32(b, 1);
            put_str(b, "t");
            put_schema(b, &schema);
            put_u32(b, 1);
            put_row(b, &row!["not an int", 1]);
        });
        assert!(decode_db(&mistyped).is_err());
        // A repeated table name is refused, not silently merged.
        let twice = encoded(|b| {
            put_u32(b, 2);
            for _ in 0..2 {
                put_str(b, "t");
                put_table(b, &Table::new(schema.clone()));
            }
        });
        assert!(decode_db(&twice).is_err());
    }

    #[test]
    fn indexes_are_not_serialized() {
        let mut db = sample();
        db.table_mut("people")
            .unwrap()
            .create_index("name")
            .unwrap();
        let back = decode_db(&encoded(|b| put_database(b, &db))).unwrap();
        assert!(back.table("people").unwrap().indexed_columns().is_empty());
        assert_eq!(back, db); // equality ignores indexes
    }

    #[test]
    fn deltas_round_trip() {
        for delta in [
            Delta::empty(),
            Delta {
                inserted: vec![row![1, "a\nb"], row![]],
                deleted: vec![row![true]],
            },
        ] {
            let buf = encoded(|b| put_delta(b, &delta));
            let mut r = BinReader::new(&buf);
            assert_eq!(r.delta().unwrap(), delta);
            r.end().unwrap();
        }
    }

    #[test]
    fn predicates_round_trip_and_decode_without_recursion() {
        let pred = Predicate::lt(Operand::col("a b"), Operand::val(3))
            .and(Predicate::eq(Operand::col("s"), Operand::val("x\ty")).not())
            .or(Predicate::True.and(Predicate::False));
        let buf = encoded(|b| put_predicate(b, &pred));
        let mut r = BinReader::new(&buf);
        assert_eq!(r.predicate().unwrap(), pred);
        r.end().unwrap();

        // Streams that do not reduce to exactly one predicate.
        for tokens in [
            vec![TOK_AND],
            vec![TOK_CMP, 0],
            vec![TOK_TRUE, TOK_FALSE],
            vec![TOK_TRUE, TOK_CMP, 0],
            vec![TOK_TRUE, 99],
        ] {
            let mut buf = encoded(|b| put_u32(b, tokens.len() as u32));
            buf.extend_from_slice(&tokens);
            assert!(BinReader::new(&buf).predicate().is_err(), "{tokens:?}");
        }

        // A deep `not` chain is refused at the nesting bound; one level
        // less decodes.
        let chain = |depth: usize| {
            let mut buf = encoded(|b| put_u32(b, depth as u32));
            buf.push(TOK_TRUE);
            buf.extend(std::iter::repeat_n(TOK_NOT, depth - 1));
            buf
        };
        assert!(BinReader::new(&chain(MAX_PREDICATE_DEPTH))
            .predicate()
            .is_ok());
        assert!(BinReader::new(&chain(MAX_PREDICATE_DEPTH + 1))
            .predicate()
            .is_err());
        assert!(BinReader::new(&chain(1_000_000)).predicate().is_err());
    }
}
