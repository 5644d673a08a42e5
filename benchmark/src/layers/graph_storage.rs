//! `graph::storage`: budget planning, the part codec and the part file.

use crate::spans::Spans;
use std::hint::black_box;
use std::path::Path;
use tempopr::graph::{
    plan_parts_for_budget, CompressedPart, DecodeScratch, EventLog, MultiWindowSet,
    PartitionStrategy, StorageProfile, TcsrFile, TcsrFileWriter, WindowSpec,
};

/// Raw measurements of the storage replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageReplay {
    /// `plan_parts_for_budget` (trial builds and trial encodes).
    pub plan_s: f64,
    /// The part count the planner chose.
    pub planned_parts: usize,
    /// `CompressedPart::encode`, summed over the parts.
    pub encode_s: f64,
    /// Resident bytes of the parts.
    pub resident_bytes: usize,
    /// Encoded bytes of the parts.
    pub encoded_bytes: usize,
    /// `CompressedPart::decode`, summed.
    pub decode_s: f64,
    /// `TcsrFileWriter` create + appends + finish.
    pub file_write_s: f64,
    /// `TcsrFile::open` + `read_part` of every part.
    pub file_read_s: f64,
}

/// Replays planning, codec and file over `set` (the parts at the engine's
/// part count), writing the part file into `dir`.
pub fn replay(
    spans: &Spans,
    log: &EventLog,
    spec: &WindowSpec,
    set: &MultiWindowSet,
    budget: usize,
    slots: usize,
    dir: &Path,
) -> Result<StorageReplay, String> {
    let mut r = StorageReplay::default();
    let (planned, plan_s) = spans.time("graph.storage.plan_parts_for_budget", || {
        plan_parts_for_budget(
            log,
            spec,
            budget,
            true,
            PartitionStrategy::EqualWindows,
            StorageProfile::OnDisk,
            slots,
        )
    });
    r.plan_s = plan_s;
    r.planned_parts = planned.map_err(|e| format!("budget planning: {e}"))?;

    let mut encoded = Vec::with_capacity(set.num_parts());
    for part in set.graphs() {
        let (blob, s) = spans.time("graph.storage.encode", || CompressedPart::encode(part));
        r.encode_s += s;
        r.resident_bytes += part.storage_bytes();
        r.encoded_bytes += blob.payload_len();
        encoded.push(blob);
    }
    for blob in &encoded {
        let (part, s) = spans.time("graph.storage.decode", || blob.decode());
        r.decode_s += s;
        drop(black_box(part.map_err(|e| format!("decode: {e}"))?));
    }

    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("replay.tcsr");
    let (written, s) = spans.time("graph.storage.file_write", || {
        let mut writer = TcsrFileWriter::create(&path, encoded.len(), log.num_vertices())?;
        for blob in &encoded {
            writer.append(blob)?;
        }
        writer.finish()
    });
    written.map_err(|e| format!("writing the part file: {e}"))?;
    r.file_write_s = s;
    let (read, s) = spans.time("graph.storage.file_read", || {
        let file = TcsrFile::open(&path)?;
        let mut scratch = DecodeScratch::default();
        for p in 0..file.num_parts() {
            drop(black_box(file.read_part(p, &mut scratch)?));
        }
        Ok::<(), tempopr::graph::StorageError>(())
    });
    read.map_err(|e| format!("reading the part file: {e}"))?;
    r.file_read_s = s;
    Ok(r)
}
