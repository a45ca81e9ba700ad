//! Dataset persistence: a compact little-endian binary format (`.qsd`) and
//! a CSV interchange format for MBB datasets. Used by the `quasii` CLI so
//! generated datasets can be reused across runs (the paper's datasets are
//! 21–45 GB on disk; ours are laptop-scale but the workflow is the same).
//!
//! Binary layout: magic `QSD1`, `u32` dimensionality, `u64` record count,
//! then per record `D` lows, `D` highs (f64) and the `u64` id.

use crate::fsx::{self, SnapshotStore};
use crate::geom::{Aabb, Record};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Magic prefix of the binary `.qsd` dataset format.
pub const QSD_MAGIC: &[u8; 4] = b"QSD1";

const MAGIC: &[u8; 4] = QSD_MAGIC;

/// Header bytes before the record section: magic + `u32` dims + `u64` count.
const QSD_HEADER: usize = 16;

/// Serializes a dataset into the binary `.qsd` byte layout.
pub(crate) fn encode_qsd<const D: usize>(data: &[Record<D>]) -> Vec<u8> {
    let rec_bytes = 2 * D * 8 + 8;
    let mut out = Vec::with_capacity(QSD_HEADER + data.len() * rec_bytes);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(D as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for r in data {
        for k in 0..D {
            out.extend_from_slice(&r.mbb.lo[k].to_le_bytes());
        }
        for k in 0..D {
            out.extend_from_slice(&r.mbb.hi[k].to_le_bytes());
        }
        out.extend_from_slice(&r.id.to_le_bytes());
    }
    out
}

/// Deserializes a `.qsd` buffer, validating magic, dimensionality, the
/// declared record count against the actual buffer size (a corrupt header
/// yields `Err`, never an over-allocation), and box validity.
pub fn decode_qsd<const D: usize>(bytes: &[u8]) -> io::Result<Vec<Record<D>>> {
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    if bytes.len() < QSD_HEADER {
        return Err(bad(format!("QSD header truncated: {} bytes", bytes.len())));
    }
    if &bytes[..4] != MAGIC {
        return Err(bad("not a QSD file".into()));
    }
    let dims = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if dims != D {
        return Err(bad(format!("dataset is {dims}-d, expected {D}-d")));
    }
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let rec_bytes = (2 * D * 8 + 8) as u64;
    let body = (bytes.len() - QSD_HEADER) as u64;
    // Guard the count before any allocation sized from it: the header is
    // attacker-controlled bytes until proven consistent with the payload.
    if n.checked_mul(rec_bytes) != Some(body) {
        return Err(bad(format!(
            "record count {n} needs {} payload bytes, file has {body}",
            n.saturating_mul(rec_bytes),
        )));
    }
    let n = n as usize;
    let mut out = Vec::with_capacity(n);
    let mut at = QSD_HEADER;
    let f64_at = |at: &mut usize| {
        let v = f64::from_le_bytes(bytes[*at..*at + 8].try_into().unwrap());
        *at += 8;
        v
    };
    for _ in 0..n {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for slot in lo.iter_mut() {
            *slot = f64_at(&mut at);
        }
        for slot in hi.iter_mut() {
            *slot = f64_at(&mut at);
        }
        let id = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        at += 8;
        let mbb = Aabb { lo, hi };
        if !mbb.is_valid() {
            return Err(bad(format!("record {id} has an invalid box")));
        }
        out.push(Record { mbb, id });
    }
    Ok(out)
}

/// Writes a dataset in the binary `.qsd` format, atomically (see
/// [`crate::fsx`]): a crash mid-write leaves the previous file intact.
pub fn write_qsd<const D: usize>(path: impl AsRef<Path>, data: &[Record<D>]) -> io::Result<()> {
    write_qsd_to(&fsx::FsStore, path.as_ref(), data)
}

/// [`write_qsd`] through an explicit [`SnapshotStore`] (fault injection,
/// in-memory tests).
pub(crate) fn write_qsd_to<S: SnapshotStore + ?Sized, const D: usize>(
    store: &S,
    path: &Path,
    data: &[Record<D>],
) -> io::Result<()> {
    fsx::write_atomic(store, path, &encode_qsd(data))
}

/// Reads a `.qsd` dataset, validating magic, dimensionality, declared
/// record count vs file size, and box validity.
pub fn read_qsd<const D: usize>(path: impl AsRef<Path>) -> io::Result<Vec<Record<D>>> {
    decode_qsd(&std::fs::read(path)?)
}

/// Writes boxes as CSV: `id,lo0,…,lo{D-1},hi0,…,hi{D-1}` with a header.
pub fn write_csv_boxes<const D: usize>(
    path: impl AsRef<Path>,
    data: &[Record<D>],
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "id")?;
    for k in 0..D {
        write!(w, ",lo{k}")?;
    }
    for k in 0..D {
        write!(w, ",hi{k}")?;
    }
    writeln!(w)?;
    for r in data {
        write!(w, "{}", r.id)?;
        for k in 0..D {
            write!(w, ",{}", r.mbb.lo[k])?;
        }
        for k in 0..D {
            write!(w, ",{}", r.mbb.hi[k])?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads boxes from CSV (the format of [`write_csv_boxes`]; header optional).
pub fn read_csv_boxes<const D: usize>(path: impl AsRef<Path>) -> io::Result<Vec<Record<D>>> {
    let r = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with("id") || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 1 + 2 * D {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: expected {} fields, found {}",
                    lineno + 1,
                    1 + 2 * D,
                    fields.len()
                ),
            ));
        }
        let parse = |s: &str| -> io::Result<f64> {
            s.trim().parse::<f64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })
        };
        let id: u64 = fields[0].trim().parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for k in 0..D {
            lo[k] = parse(fields[1 + k])?;
            hi[k] = parse(fields[1 + D + k])?;
        }
        let mbb = Aabb { lo, hi };
        if !mbb.is_valid() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: lo > hi", lineno + 1),
            ));
        }
        out.push(Record { mbb, id });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::uniform_boxes_in;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("quasii-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn qsd_round_trip() {
        let data = uniform_boxes_in::<3>(500, 100.0, 1);
        let p = tmp("rt.qsd");
        write_qsd(&p, &data).unwrap();
        let back = read_qsd::<3>(&p).unwrap();
        assert_eq!(data, back);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn qsd_rejects_wrong_dims_and_magic() {
        let data = uniform_boxes_in::<2>(10, 10.0, 2);
        let p = tmp("wrongdim.qsd");
        write_qsd(&p, &data).unwrap();
        assert!(read_qsd::<3>(&p).is_err(), "2-d file read as 3-d");
        std::fs::write(&p, b"NOPE").unwrap();
        assert!(read_qsd::<2>(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn qsd_rejects_corrupt_length_header() {
        // A header declaring 2^60 records over a 16-byte body must fail
        // fast with InvalidData — not attempt a huge allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = decode_qsd::<2>(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated payload (count says 3, body holds 1) also fails.
        let data = uniform_boxes_in::<2>(3, 10.0, 5);
        let mut bytes = encode_qsd(&data);
        bytes.truncate(QSD_HEADER + (2 * 2 * 8 + 8));
        assert!(decode_qsd::<2>(&bytes).is_err());
    }

    #[test]
    fn qsd_write_is_atomic_under_injected_crash() {
        use crate::fault::{FaultPlan, FaultStore, MemStore};
        let old = uniform_boxes_in::<2>(20, 10.0, 1);
        let new = uniform_boxes_in::<2>(30, 10.0, 2);
        let path = std::path::Path::new("/d/data.qsd");
        for k in 0..4 {
            let store = MemStore::new();
            write_qsd_to(&store, path, &old).unwrap();
            let store = FaultStore::new(
                store,
                FaultPlan {
                    crash_at_op: Some(k),
                    seed: k,
                    transient_ops: 0,
                },
            );
            assert!(write_qsd_to(&store, path, &new).is_err());
            let store = store.into_inner();
            store.crash(k * 17 + 3);
            // A crash before the rename leaves the old file; at/after the
            // rename (e.g. during the directory fsync) the new one may
            // already be visible. Never a torn mix.
            let back = decode_qsd::<2>(&store.read_file(path).unwrap()).unwrap();
            assert!(
                back == old || back == new,
                "crash at op {k} left a torn file"
            );
        }
    }

    #[test]
    fn csv_round_trip() {
        let data = uniform_boxes_in::<2>(200, 50.0, 3);
        let p = tmp("rt.csv");
        write_csv_boxes(&p, &data).unwrap();
        let back = read_csv_boxes::<2>(&p).unwrap();
        assert_eq!(data.len(), back.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            for k in 0..2 {
                assert!((a.mbb.lo[k] - b.mbb.lo[k]).abs() < 1e-9);
                assert!((a.mbb.hi[k] - b.mbb.hi[k]).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let p = tmp("bad.csv");
        std::fs::write(&p, "id,lo0,lo1,hi0,hi1\n0,1.0,2.0,3.0\n").unwrap();
        assert!(read_csv_boxes::<2>(&p).is_err(), "missing field");
        std::fs::write(&p, "0,5.0,5.0,1.0,1.0\n").unwrap();
        assert!(read_csv_boxes::<2>(&p).is_err(), "inverted box");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn csv_skips_header_and_comments() {
        let p = tmp("hdr.csv");
        std::fs::write(&p, "# comment\nid,lo0,hi0\n7,1.5,2.5\n\n").unwrap();
        let back = read_csv_boxes::<1>(&p).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].id, 7);
        std::fs::remove_file(&p).ok();
    }
}
