//! The file a child leaves for the parent: its arm's timings, then the
//! first pass's cells (statuses, fingerprints, ranks), in a flat
//! little-endian layout.
//! Parent and child are one executable, so the format has no version; a
//! short or malformed file is an error, never a panic.

use crate::e2e::{ArmOutput, Cell};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tempopr::core::SparseRanks;

const MAGIC: &[u8; 8] = b"TPRARM01";

/// Lengths read from the file are bounded before anything is allocated for
/// them: timed passes per arm, cells per pass, ranks per cell (the vertex
/// universe bounds the last).
const MAX_PASSES: u64 = 1 << 20;
const MAX_CELLS: u64 = 1 << 24;
const MAX_RANKS_PER_CELL: u64 = 1 << 28;

fn put(w: &mut impl Write, x: u64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Writes `out` to `path`.
pub fn write(path: &Path, out: &ArmOutput) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    put(&mut w, out.cold_e2e_s.to_bits())?;
    for samples in [&out.e2e_s, &out.setup_s] {
        put(&mut w, samples.len() as u64)?;
        for s in samples {
            put(&mut w, s.to_bits())?;
        }
    }
    put(&mut w, out.peak_rss_kib)?;
    put(&mut w, out.windows as u64)?;
    put(&mut w, out.parts as u64)?;
    put(&mut w, out.peak_resident_bytes as u64)?;
    put(&mut w, out.resume_mismatches as u64)?;
    put(&mut w, out.repeat_mismatches as u64)?;
    put(&mut w, out.cells.len() as u64)?;
    for c in &out.cells {
        w.write_all(&c.window.to_le_bytes())?;
        w.write_all(&c.query.to_le_bytes())?;
        w.write_all(&[u8::from(c.ok), u8::from(c.converged)])?;
        w.write_all(&c.iterations.to_le_bytes())?;
        put(&mut w, c.fingerprint)?;
        put(&mut w, c.ranks.vertices.len() as u64)?;
        for v in &c.ranks.vertices {
            w.write_all(&v.to_le_bytes())?;
        }
        for x in &c.ranks.values {
            put(&mut w, x.to_bits())?;
        }
    }
    w.flush()
}

fn take<const N: usize>(r: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn get(r: &mut impl Read) -> std::io::Result<u64> {
    Ok(u64::from_le_bytes(take(r)?))
}

/// A length field, refused above `max`.
fn get_len(r: &mut impl Read, what: &str, max: u64) -> std::io::Result<usize> {
    let len = get(r)?;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("pass file: {len} {what}"),
        ));
    }
    Ok(len as usize)
}

/// Reads back what [`write`] wrote.
pub fn read(path: &Path) -> std::io::Result<ArmOutput> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    if &take::<8>(&mut r)? != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "pass file: bad magic",
        ));
    }
    let cold_e2e_s = f64::from_bits(get(&mut r)?);
    let mut samples = || {
        (0..get_len(&mut r, "timed passes", MAX_PASSES)?)
            .map(|_| get(&mut r).map(f64::from_bits))
            .collect::<std::io::Result<Vec<f64>>>()
    };
    let e2e_s = samples()?;
    let setup_s = samples()?;
    let peak_rss_kib = get(&mut r)?;
    let windows = get(&mut r)? as usize;
    let parts = get(&mut r)? as usize;
    let peak_resident_bytes = get(&mut r)? as usize;
    let resume_mismatches = get(&mut r)? as usize;
    let repeat_mismatches = get(&mut r)? as usize;
    let mut cells = Vec::new();
    for _ in 0..get_len(&mut r, "cells", MAX_CELLS)? {
        let window = u32::from_le_bytes(take(&mut r)?);
        let query = u32::from_le_bytes(take(&mut r)?);
        let [ok, converged] = take::<2>(&mut r)?;
        let iterations = u32::from_le_bytes(take(&mut r)?);
        let fingerprint = get(&mut r)?;
        let len = get_len(&mut r, "ranks in one cell", MAX_RANKS_PER_CELL)?;
        let vertices = (0..len)
            .map(|_| take(&mut r).map(u32::from_le_bytes))
            .collect::<std::io::Result<Vec<u32>>>()?;
        let values = (0..len)
            .map(|_| get(&mut r).map(f64::from_bits))
            .collect::<std::io::Result<Vec<f64>>>()?;
        cells.push(Cell {
            window,
            query,
            ok: ok != 0,
            converged: converged != 0,
            iterations,
            fingerprint,
            ranks: SparseRanks { vertices, values },
        });
    }
    Ok(ArmOutput {
        cold_e2e_s,
        e2e_s,
        setup_s,
        peak_rss_kib,
        windows,
        parts,
        peak_resident_bytes,
        resume_mismatches,
        repeat_mismatches,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_file_round_trips_and_refuses_truncation() {
        let out = ArmOutput {
            cold_e2e_s: 1.5,
            e2e_s: vec![1.25, 1.0],
            setup_s: vec![0.5, 0.25],
            peak_rss_kib: 1234,
            windows: 2,
            parts: 1,
            peak_resident_bytes: 7,
            resume_mismatches: 0,
            repeat_mismatches: 3,
            cells: vec![Cell {
                window: 1,
                query: 3,
                ok: true,
                converged: false,
                iterations: 17,
                fingerprint: 0.5f64.to_bits(),
                ranks: SparseRanks {
                    vertices: vec![2, 9],
                    values: vec![0.25, 0.75],
                },
            }],
        };
        let dir = crate::work_root().join(format!("cells-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pass.bin");
        write(&path, &out).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.cells, out.cells);
        assert_eq!(back.setup_s, out.setup_s);
        assert_eq!(back.e2e_s, out.e2e_s);
        assert_eq!(back.cold_e2e_s, 1.5);
        assert_eq!(back.peak_resident_bytes, 7);
        assert_eq!(back.repeat_mismatches, 3);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
