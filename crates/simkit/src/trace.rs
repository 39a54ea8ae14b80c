//! Epoch-structured observability: one typed record per epoch, the
//! [`TraceSink`] seam with the in-memory [`MemSink`] the sweeps run, and
//! a dependency-free JSONL serialization.
//!
//! The paper's evaluation reads everything off per-epoch signals — the
//! multiplier `M`, its step `δM`, the wired-OR SAT bit, per-class
//! delivered bytes, per-tile throttle counts — so the simulator emits
//! exactly one [`EpochRecord`] per epoch boundary to whatever sinks are
//! attached. Records are integers and booleans only: the serializer must
//! round-trip bit-exactly and stay deterministic across platforms, so
//! floating point is banned here (the `float-math` simlint rule covers
//! this file).
//!
//! Serialization is hand-rolled (the workspace has a zero-dependency
//! rule): [`EpochRecord::to_json`] writes one flat JSON object,
//! [`parse_line`] reads one back. The grammar is the subset the records
//! need — unsigned integers, `true`/`false`, and arrays of unsigned
//! integers — with keys accepted in any order.
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::trace::{parse_line, EpochRecord};
//!
//! let rec = EpochRecord { epoch: 3, m: 2048, sat: true, ..EpochRecord::default() };
//! let line = rec.to_json();
//! assert_eq!(parse_line(&line), Ok(rec));
//! ```

use std::fmt::Write as _;

use crate::jsonl;

/// One structured observation of the whole system at an epoch boundary.
///
/// Field order here is the serialization order of [`EpochRecord::to_json`].
/// All vectors are indexed the obvious way (`class_bytes` by QoS class,
/// `tile_throttles` by tile, the `mc_*` fields by memory controller).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochRecord {
    /// Zero-based index of the epoch that just ended.
    pub epoch: u64,
    /// Simulated cycle of the boundary.
    pub cycle: u64,
    /// Governor multiplier `M` after this epoch's update.
    pub m: u64,
    /// Governor step magnitude `δM` after this epoch's update.
    pub dm: u64,
    /// Consecutive epochs without a rate-direction switch (the paper's E).
    pub e: u64,
    /// Phase, rate half: `true` when the goal request rate is increasing.
    pub rate_up: bool,
    /// Phase, step half: `true` when `δM` grew this epoch.
    pub delta_up: bool,
    /// The wired-OR saturation bit observed for the epoch.
    pub sat: bool,
    /// Provenance hash of the mechanism selection (governor + target
    /// arbiter + regulation knobs) that produced this record, so merged
    /// trace files identify which mechanism pair each line ran under.
    /// Zero when the emitter predates or does not carry provenance.
    pub mechanism_hash: u64,
    /// Bytes delivered per QoS class during the epoch.
    pub class_bytes: Vec<u64>,
    /// Pacer NACKs per tile during the epoch (summed over the tile's
    /// pacers in the per-MC-regulation variant).
    pub tile_throttles: Vec<u64>,
    /// Read-queue depth per memory controller at the boundary.
    pub mc_read_depth: Vec<u64>,
    /// Write-queue depth per memory controller at the boundary.
    pub mc_write_depth: Vec<u64>,
    /// Total outstanding requests per memory controller at the boundary.
    pub mc_pending: Vec<u64>,
}

impl EpochRecord {
    /// Serializes the record as one flat JSON object (no trailing newline).
    ///
    /// Keys are emitted in declaration order, so equal records serialize
    /// to byte-identical lines — the determinism check diffs trace files
    /// directly.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let _ = write!(s, "\"epoch\":{}", self.epoch);
        let _ = write!(s, ",\"cycle\":{}", self.cycle);
        let _ = write!(s, ",\"m\":{}", self.m);
        let _ = write!(s, ",\"dm\":{}", self.dm);
        let _ = write!(s, ",\"e\":{}", self.e);
        let _ = write!(s, ",\"rate_up\":{}", self.rate_up);
        let _ = write!(s, ",\"delta_up\":{}", self.delta_up);
        let _ = write!(s, ",\"sat\":{}", self.sat);
        let _ = write!(s, ",\"mechanism_hash\":{}", self.mechanism_hash);
        write_u64_array(&mut s, "class_bytes", &self.class_bytes);
        write_u64_array(&mut s, "tile_throttles", &self.tile_throttles);
        write_u64_array(&mut s, "mc_read_depth", &self.mc_read_depth);
        write_u64_array(&mut s, "mc_write_depth", &self.mc_write_depth);
        write_u64_array(&mut s, "mc_pending", &self.mc_pending);
        s.push('}');
        s
    }
}

fn write_u64_array(s: &mut String, key: &str, vals: &[u64]) {
    let _ = write!(s, ",\"{key}\":[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

/// Why a trace line failed to parse, with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Byte offset into the line where parsing stopped.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses one JSONL trace line back into an [`EpochRecord`].
///
/// Accepts the grammar [`EpochRecord::to_json`] emits — a flat object of
/// unsigned integers, booleans, and arrays of unsigned integers — with
/// keys in any order and optional ASCII whitespace between tokens. Keys
/// absent from the line keep their [`Default`] value; unknown keys are an
/// error.
///
/// # Errors
///
/// Returns [`TraceParseError`] on any syntax violation, unknown key, or
/// type mismatch, pointing at the offending byte.
pub fn parse_line(line: &str) -> Result<EpochRecord, TraceParseError> {
    let mut rec = EpochRecord::default();
    jsonl::parse_object(line, |key, cur| {
        match key {
            "epoch" => rec.epoch = cur.parse_u64()?,
            "cycle" => rec.cycle = cur.parse_u64()?,
            "m" => rec.m = cur.parse_u64()?,
            "dm" => rec.dm = cur.parse_u64()?,
            "e" => rec.e = cur.parse_u64()?,
            "rate_up" => rec.rate_up = cur.parse_bool()?,
            "delta_up" => rec.delta_up = cur.parse_bool()?,
            "sat" => rec.sat = cur.parse_bool()?,
            "mechanism_hash" => rec.mechanism_hash = cur.parse_u64()?,
            "class_bytes" => rec.class_bytes = cur.parse_u64_array()?,
            "tile_throttles" => rec.tile_throttles = cur.parse_u64_array()?,
            "mc_read_depth" => rec.mc_read_depth = cur.parse_u64_array()?,
            "mc_write_depth" => rec.mc_write_depth = cur.parse_u64_array()?,
            "mc_pending" => rec.mc_pending = cur.parse_u64_array()?,
            other => return Err(cur.err(&format!("unknown key {other:?}"))),
        }
        Ok(())
    })
    .map_err(|e| TraceParseError { offset: e.offset, message: e.message })?;
    Ok(rec)
}

/// A consumer of epoch records.
///
/// Sinks are attached to the system before a run and receive every
/// subsequent boundary record. `Debug` is required so systems holding
/// boxed sinks stay debuggable.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one epoch record.
    fn record(&mut self, rec: &EpochRecord);
}

/// A sink accumulating JSONL text in a shared in-memory buffer.
///
/// The parallel sweep harness runs many systems concurrently and must
/// merge their traces in submission order, byte-identical to a serial
/// run; each run therefore records into its own `MemSink` and the
/// harness concatenates the buffers afterwards. Clones share one buffer,
/// so the caller keeps a handle while the system owns the attached sink.
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    buf: std::sync::Arc<std::sync::Mutex<String>>,
}

impl MemSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated JSONL text (one record per line).
    ///
    /// A poisoned lock cannot corrupt the plain `String` inside, so the
    /// buffer is recovered rather than propagating the panic.
    pub fn contents(&self) -> String {
        match self.buf.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Takes the accumulated text, leaving the buffer empty.
    pub fn take(&self) -> String {
        match self.buf.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        }
    }
}

impl TraceSink for MemSink {
    fn record(&mut self, rec: &EpochRecord) {
        let mut g = match self.buf.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        g.push_str(&rec.to_json());
        g.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EpochRecord {
        EpochRecord {
            epoch: 41,
            cycle: 840_000,
            m: 2048,
            dm: 16,
            e: 5,
            rate_up: true,
            delta_up: false,
            sat: true,
            mechanism_hash: 0x51ab_90de,
            class_bytes: vec![123_456, 0, 64],
            tile_throttles: vec![9, 0, 0, 17],
            mc_read_depth: vec![3],
            mc_write_depth: vec![0],
            mc_pending: vec![12],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let rec = sample();
        assert_eq!(parse_line(&rec.to_json()), Ok(rec));
    }

    #[test]
    fn default_round_trips_with_empty_arrays() {
        let rec = EpochRecord::default();
        let line = rec.to_json();
        assert!(line.contains("\"class_bytes\":[]"), "{line}");
        assert_eq!(parse_line(&line), Ok(rec));
    }

    #[test]
    fn equal_records_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn parser_accepts_any_key_order_and_whitespace() {
        let line = " { \"sat\" : true , \"m\" : 7 , \"class_bytes\" : [ 1 , 2 ] } ";
        let rec = parse_line(line).expect("reordered keys parse");
        assert!(rec.sat);
        assert_eq!(rec.m, 7);
        assert_eq!(rec.class_bytes, vec![1, 2]);
        assert_eq!(rec.epoch, 0, "absent keys default");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"epoch\":}",
            "{\"epoch\":1,}",
            "{\"epoch\":true}",
            "{\"sat\":2}",
            "{\"mystery\":1}",
            "{\"class_bytes\":[1,]}",
            "{\"epoch\":1} extra",
            "{\"epoch\":99999999999999999999999999}",
        ] {
            assert!(parse_line(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = parse_line("{\"epoch\":x}").expect_err("bad value");
        assert_eq!(err.offset, 9);
        assert!(err.to_string().contains("byte 9"), "{err}");
    }

    #[test]
    fn mem_sink_clones_share_one_buffer() {
        let handle = MemSink::new();
        let mut attached = handle.clone();
        attached.record(&sample());
        attached.record(&EpochRecord::default());
        let text = handle.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse_line(lines[0]), Ok(sample()));
        assert_eq!(handle.take(), text, "take drains what contents saw");
        assert!(handle.contents().is_empty(), "take leaves the buffer empty");
    }
}
