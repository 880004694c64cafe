//! FIMI `.dat` I/O — the interchange format of the FIMI'03/'04 workshop
//! repositories the paper draws its kernels and datasets from: one
//! transaction per line, items as whitespace-separated decimal integers.

use crate::db::TransactionDb;
use crate::types::{Item, ItemsetCount};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a FIMI `.dat` database from any reader. Blank lines are skipped;
/// malformed tokens are reported with their line number.
pub fn read_dat<R: Read>(reader: R) -> io::Result<TransactionDb> {
    let mut transactions = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut t = Vec::new();
        for tok in line.split_ascii_whitespace() {
            let item: Item = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad item {tok:?}: {e}", lineno + 1),
                )
            })?;
            t.push(item);
        }
        transactions.push(t);
    }
    Ok(TransactionDb::from_transactions(transactions))
}

/// Reads a FIMI `.dat` file from disk.
pub fn read_dat_file(path: impl AsRef<Path>) -> io::Result<TransactionDb> {
    read_dat(std::fs::File::open(path)?)
}

/// Writes a database in FIMI `.dat` format.
pub fn write_dat<W: Write>(writer: W, db: &TransactionDb) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut buf = String::new();
    for t in db.transactions() {
        buf.clear();
        for (k, &i) in t.iter().enumerate() {
            if k > 0 {
                buf.push(' ');
            }
            buf.push_str(itoa(i).as_str());
        }
        buf.push('\n');
        w.write_all(buf.as_bytes())?;
    }
    w.flush()
}

/// Writes a database to a `.dat` file on disk.
pub fn write_dat_file(path: impl AsRef<Path>, db: &TransactionDb) -> io::Result<()> {
    write_dat(std::fs::File::create(path)?, db)
}

/// Writes mined patterns in the FIMI output convention:
/// `item item … (support)` per line.
pub fn write_patterns<W: Write>(writer: W, patterns: &[ItemsetCount]) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in patterns {
        for (k, &i) in p.items.iter().enumerate() {
            if k > 0 {
                write!(w, " ")?;
            }
            write!(w, "{i}")?;
        }
        writeln!(w, " ({})", p.support)?;
    }
    w.flush()
}

/// Magic + version header of the binary database format.
const BIN_MAGIC: &[u8; 8] = b"FPMDB\x00\x00\x01";

/// Writes a database in a compact little-endian binary format (used by
/// the dataset cache: parsing multi-hundred-megabyte `.dat` text on
/// every bench run would dominate the harness).
pub fn write_bin<W: Write>(mut writer: W, db: &TransactionDb) -> io::Result<()> {
    let mut buf = Vec::with_capacity(BIN_MAGIC.len() + 8 + db.len() * 4 + db.nnz() as usize * 4);
    buf.extend_from_slice(BIN_MAGIC);
    buf.extend_from_slice(&(db.len() as u64).to_le_bytes());
    for t in db.transactions() {
        buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for &i in t {
            buf.extend_from_slice(&i.to_le_bytes());
        }
    }
    writer.write_all(&buf)?;
    writer.flush()
}

/// Reads a database written by [`write_bin`].
pub fn read_bin<R: Read>(mut reader: R) -> io::Result<TransactionDb> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an FPMDB binary database (bad magic)",
        ));
    }
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    let mut at = 0usize;
    let take_u32 = |at: &mut usize| -> io::Result<u32> {
        let b: [u8; 4] = data
            .get(*at..*at + 4)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated FPMDB"))?
            .try_into()
            .expect("4-byte slice");
        *at += 4;
        Ok(u32::from_le_bytes(b))
    };
    let n = {
        let lo = take_u32(&mut at)? as u64;
        let hi = take_u32(&mut at)? as u64;
        lo | hi << 32
    };
    let mut transactions = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let len = take_u32(&mut at)? as usize;
        let mut t = Vec::with_capacity(len);
        for _ in 0..len {
            t.push(take_u32(&mut at)?);
        }
        transactions.push(t);
    }
    Ok(TransactionDb::from_transactions(transactions))
}

/// Binary file convenience wrappers.
pub fn write_bin_file(path: impl AsRef<Path>, db: &TransactionDb) -> io::Result<()> {
    write_bin(std::fs::File::create(path)?, db)
}

/// Reads a binary database file written by [`write_bin_file`].
pub fn read_bin_file(path: impl AsRef<Path>) -> io::Result<TransactionDb> {
    read_bin(std::fs::File::open(path)?)
}

fn itoa(mut v: u32) -> String {
    // Tiny formatter to avoid the fmt machinery in the bulk writer path.
    if v == 0 {
        return "0".into();
    }
    let mut b = [0u8; 10];
    let mut i = b.len();
    while v > 0 {
        i -= 1;
        b[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    String::from_utf8_lossy(&b[i..]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_basic() {
        let input = "1 2 3\n\n5 1\n7\n";
        let db = read_dat(input.as_bytes()).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.transactions()[0], vec![1, 2, 3]);
        assert_eq!(db.transactions()[1], vec![1, 5]); // sorted
        assert_eq!(db.n_items(), 8);
    }

    #[test]
    fn read_rejects_garbage() {
        let err = read_dat("1 x 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn roundtrip() {
        let db = TransactionDb::from_transactions(vec![vec![0, 10, 200], vec![5], vec![3, 4]]);
        let mut buf = Vec::new();
        write_dat(&mut buf, &db).unwrap();
        let back = read_dat(buf.as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn pattern_output_format() {
        let ps = vec![
            ItemsetCount { items: vec![1, 2], support: 10 },
            ItemsetCount { items: vec![7], support: 3 },
        ];
        let mut buf = Vec::new();
        write_patterns(&mut buf, &ps).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1 2 (10)\n7 (3)\n");
    }

    #[test]
    fn itoa_matches_display() {
        for v in [0u32, 1, 9, 10, 99, 12345, u32::MAX] {
            assert_eq!(itoa(v), v.to_string());
        }
    }

    #[test]
    fn bin_roundtrip() {
        let db = TransactionDb::from_transactions(vec![
            vec![0, 10, 200_000],
            vec![],
            vec![5],
            (0..100).collect(),
        ]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &db).unwrap();
        assert_eq!(read_bin(buf.as_slice()).unwrap(), db);

        // The exact on-disk layout: cached `.fpmdb` files written by
        // earlier builds must keep reading back.
        let two_rows = TransactionDb::from_transactions(vec![vec![3, 258], vec![70_000]]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &two_rows).unwrap();
        #[rustfmt::skip]
        let want: &[u8] = &[
            b'F', b'P', b'M', b'D', b'B', 0, 0, 1, // magic + version
            2, 0, 0, 0, 0, 0, 0, 0,                // u64 row count
            2, 0, 0, 0, 3, 0, 0, 0, 2, 1, 0, 0,    // len 2: 3, 258
            1, 0, 0, 0, 0x70, 0x11, 1, 0,          // len 1: 70000
        ];
        assert_eq!(buf, want);
        assert_eq!(read_bin(want).unwrap(), two_rows);
    }

    #[test]
    fn bin_rejects_bad_magic() {
        let err = read_bin(&b"NOTFPMDB123"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bin_rejects_truncation() {
        let db = TransactionDb::from_transactions(vec![vec![1, 2, 3]]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &db).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_bin(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fpm_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dat");
        let db = TransactionDb::from_transactions(vec![vec![1, 2], vec![3]]);
        write_dat_file(&path, &db).unwrap();
        assert_eq!(read_dat_file(&path).unwrap(), db);
        std::fs::remove_file(&path).ok();
    }
}
