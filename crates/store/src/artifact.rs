//! The on-disk artifact: sectioned, versioned, checksummed.
//!
//! # Layout (format version 3)
//!
//! ```text
//! magic "FPMSTOR1" (8)  version u32  section_count u32
//! section table: { id u32, offset u64, len u64, crc u32 } × count
//! table_crc u32            — CRC-32 over every byte above
//! payloads                 — contiguous, in table order
//! ```
//!
//! Offsets are absolute file offsets; the payloads are written
//! contiguously right after the table and the decoder *requires* that
//! layout, so **every byte of the file is covered by exactly one
//! checksum** (the table CRC or a section CRC) and any truncation or
//! bit-flip — anywhere — reads as a named [`LoadError`]. Readers never
//! panic on damage: the bounds-checked cursor turns overruns into
//! [`LoadError::Corrupt`] and the caller falls back to a cold rebuild.
//!
//! # Sections
//!
//! | id | name    | contents                                           |
//! |----|---------|----------------------------------------------------|
//! | 1  | meta    | generation, fingerprint, spec                      |
//! | 2  | rawdb   | normalized raw transactions (original item ids)    |
//! | 3  | results | cached results keyed (kernel, minsup, query, gen)  |
//!
//! These are exactly what a warm start reads: the raw rows rebuild the
//! database (skipping dataset generation), and the results seed the
//! cache (skipping the mine). Every mine prepares its own remapped
//! forms for its own minsup, so none are persisted.
//!
//! Section 3 entries are only served when their recorded generation
//! matches the artifact's current generation; `append` bumps the
//! generation and drops the entries. Each entry carries a **query
//! tag**, the [`fpm::QueryKey`] of the query it answers (class code,
//! top-k flag + value, rules flag + two `f64` bit patterns; this module
//! is the layout's only definition), so a warm start can seed the serve
//! cache under the full key `(fingerprint, kernel, minsup, query)`.
//!
//! The decoder accepts only [`FORMAT_VERSION`]. Any other version reads
//! as [`LoadError::BadVersion`], which callers treat like any other
//! detected damage: serve re-mines, and its next flush rewrites the
//! artifact in the current format.

use crate::fmt::{crc32, put_str, put_u32, put_u64, Rd};
use fpm::types::MineKind;
use fpm::{Item, ItemsetCount, QueryKey, TransactionDb};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File magic, identifying the artifact family; the version field right
/// after it carries the format version.
pub const MAGIC: [u8; 8] = *b"FPMSTOR1";
/// The on-disk format version, written by [`Artifact::encode`] and the
/// only one [`Artifact::decode`] accepts; bump on any incompatible
/// layout change.
pub const FORMAT_VERSION: u32 = 3;
/// Artifact file extension (`<stem>.fpa`).
pub const EXTENSION: &str = "fpa";

const SEC_META: u32 = 1;
const SEC_RAWDB: u32 = 2;
const SEC_RESULTS: u32 = 3;

/// Canonical section order; the decoder requires exactly these ids in
/// exactly this order.
const SECTION_IDS: [u32; 3] = [SEC_META, SEC_RAWDB, SEC_RESULTS];

/// Human name of a section id, for error taxonomy and `inspect`.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_RAWDB => "rawdb",
        SEC_RESULTS => "results",
        _ => "unknown",
    }
}

/// Why an artifact failed to load. Every variant is a *detected* failure:
/// the caller's contract is to fall back to a cold rebuild, never to
/// trust partial bytes.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The first eight bytes are not [`MAGIC`] (wrong file, or damage
    /// that reached the magic itself).
    BadMagic,
    /// A magic-valid file with a format version this reader does not
    /// speak.
    BadVersion(u32),
    /// A checksum, bounds, or structure violation, attributed to the
    /// innermost section being read when it was detected.
    Corrupt {
        /// The section (or `"header"` / `"trailer"`) that failed.
        section: &'static str,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "artifact io error: {e}"),
            LoadError::BadMagic => write!(f, "artifact magic mismatch"),
            LoadError::BadVersion(v) => write!(f, "artifact format version {v} unsupported"),
            LoadError::Corrupt { section } => write!(f, "artifact corrupt in section `{section}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// FNV-1a over the full transaction content — shape and items — so two
/// datasets collide only with 64-bit-hash probability. Deterministic
/// across runs and platforms. The serve layer keys its result cache with
/// this same function, so an artifact's recorded fingerprint can be
/// cross-checked against the database the service rebuilds from the raw
/// section.
pub fn fingerprint(db: &TransactionDb) -> u64 {
    let mut h = fpm::FNV_OFFSET;
    let mut eat = |v: u64| h = fpm::fnv1a(h, &v.to_le_bytes());
    eat(db.len() as u64);
    for t in db.transactions() {
        eat(t.len() as u64);
        for &item in t {
            eat(item as u64);
        }
    }
    h
}

/// How the dataset behind an artifact was specified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// A named quest dataset at a named scale (warm-startable by serve).
    Named,
    /// An inline transaction list.
    Inline,
    /// A FIMI file path.
    Path,
}

impl SpecKind {
    /// Stable one-byte wire code.
    pub fn code(&self) -> u8 {
        match self {
            SpecKind::Named => 0,
            SpecKind::Inline => 1,
            SpecKind::Path => 2,
        }
    }

    /// Inverse of [`SpecKind::code`].
    pub fn from_code(c: u8) -> Option<SpecKind> {
        match c {
            0 => Some(SpecKind::Named),
            1 => Some(SpecKind::Inline),
            2 => Some(SpecKind::Path),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SpecKind::Named => "named",
            SpecKind::Inline => "inline",
            SpecKind::Path => "path",
        }
    }
}

/// The dataset identity an artifact was built for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecMeta {
    /// Spec family.
    pub kind: SpecKind,
    /// Dataset label (`ds1`…) for [`SpecKind::Named`], the source path
    /// for [`SpecKind::Path`], empty for inline.
    pub dataset: String,
    /// Scale label (`smoke`/`ci`/`full`) for named specs, else empty.
    pub scale: String,
}

impl SpecMeta {
    /// A named-dataset spec, the only kind serve warm-starts from.
    pub fn named(dataset: &str, scale: &str) -> SpecMeta {
        SpecMeta {
            kind: SpecKind::Named,
            dataset: dataset.to_string(),
            scale: scale.to_string(),
        }
    }
}

/// One persisted result-cache entry (section 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultEntry {
    /// Kernel code (`fpm::Kernel::code`).
    pub kernel: u8,
    /// Minimum support the result was mined at.
    pub min_support: u64,
    /// The pattern query the result answers, in its hashable key form
    /// ([`fpm::PatternQuery::key`]); [`QueryKey::default`] is the
    /// identity query.
    pub query: QueryKey,
    /// Artifact generation the result belongs to; only entries of the
    /// artifact's current generation are served.
    pub generation: u64,
    /// The complete mined pattern list, serial order.
    pub patterns: Vec<ItemsetCount>,
}

/// A fully materialized artifact: everything the store persists for one
/// dataset, in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Dataset identity.
    pub spec: SpecMeta,
    /// Append generation, bumped by every [`crate::append()`].
    pub generation: u64,
    /// FNV fingerprint of the raw database ([`fingerprint`]).
    pub fingerprint: u64,
    /// Normalized raw transactions (sorted, deduplicated items).
    pub raw: Vec<Vec<Item>>,
    /// Persisted result-cache entries.
    pub results: Vec<ResultEntry>,
}

impl Artifact {
    /// Builds a fresh artifact (generation 0, no results) from a raw
    /// database.
    pub fn build(spec: SpecMeta, db: &TransactionDb) -> Artifact {
        Artifact {
            spec,
            generation: 0,
            fingerprint: fingerprint(db),
            raw: db.transactions().to_vec(),
            results: Vec::new(),
        }
    }

    /// Records a result at the artifact's current generation, replacing
    /// any entry for the same `(kernel, min_support, query)`.
    pub fn push_result(
        &mut self,
        kernel: u8,
        min_support: u64,
        query: QueryKey,
        patterns: Vec<ItemsetCount>,
    ) {
        self.results
            .retain(|e| !(e.kernel == kernel && e.min_support == min_support && e.query == query));
        self.results.push(ResultEntry {
            kernel,
            min_support,
            query,
            generation: self.generation,
            patterns,
        });
    }

    /// Result entries whose generation matches the artifact's current
    /// generation — the only ones a warm start may serve.
    pub fn live_results(&self) -> impl Iterator<Item = &ResultEntry> {
        self.results.iter().filter(|e| e.generation == self.generation)
    }

    /// Deterministic file stem for this artifact, e.g. `named-ds1-smoke`.
    pub fn stem(&self) -> String {
        match self.spec.kind {
            SpecKind::Named => format!("named-{}-{}", self.spec.dataset, self.spec.scale),
            SpecKind::Inline => format!("inline-{:016x}", self.fingerprint),
            SpecKind::Path => format!("path-{:016x}", self.fingerprint),
        }
    }

    /// The artifact's path under `dir`: `<dir>/<stem>.fpa`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.{}", self.stem(), EXTENSION))
    }

    /// Serializes to the sectioned format documented at module level.
    pub fn encode(&self) -> Vec<u8> {
        let payloads: Vec<(u32, Vec<u8>)> = vec![
            (SEC_META, self.enc_meta()),
            (SEC_RAWDB, enc_rows(&self.raw)),
            (SEC_RESULTS, self.enc_results()),
        ];
        let header_len = 8 + 4 + 4 + payloads.len() * 24 + 4;
        let mut out = Vec::with_capacity(
            header_len + payloads.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, payloads.len() as u32);
        let mut offset = header_len as u64;
        for (id, payload) in &payloads {
            put_u32(&mut out, *id);
            put_u64(&mut out, offset);
            put_u64(&mut out, payload.len() as u64);
            put_u32(&mut out, crc32(payload));
            offset += payload.len() as u64;
        }
        let table_crc = crc32(&out);
        put_u32(&mut out, table_crc);
        for (_, payload) in &payloads {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and integrity-checks a serialized artifact. Any damage —
    /// header, table, any section, truncation, trailing bytes — returns
    /// an error naming the innermost failing region; nothing panics.
    pub fn decode(bytes: &[u8]) -> Result<Artifact, LoadError> {
        let corrupt = |section| LoadError::Corrupt { section };
        if bytes.len() < 8 || bytes[..8] != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let mut rd = Rd::new(bytes);
        let _ = rd.bytes(8); // magic, just checked
        let version = rd.u32().ok_or(corrupt("header"))?;
        if version != FORMAT_VERSION {
            return Err(LoadError::BadVersion(version));
        }
        let count = rd.u32().ok_or(corrupt("header"))? as usize;
        if count != SECTION_IDS.len() {
            return Err(corrupt("header"));
        }
        let table_end = 8 + 4 + 4 + count * 24;
        if bytes.len() < table_end + 4 {
            return Err(corrupt("header"));
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let id = rd.u32().ok_or(corrupt("header"))?;
            let offset = rd.u64().ok_or(corrupt("header"))?;
            let len = rd.u64().ok_or(corrupt("header"))?;
            let crc = rd.u32().ok_or(corrupt("header"))?;
            table.push((id, offset, len, crc));
        }
        let stored_table_crc = rd.u32().ok_or(corrupt("header"))?;
        if crc32(&bytes[..table_end]) != stored_table_crc {
            return Err(corrupt("header"));
        }
        // Enforce the canonical contiguous layout: known ids in order,
        // payloads exactly filling the rest of the file. This is what
        // makes every byte checksum-covered.
        let mut expect_offset = (table_end + 4) as u64;
        for (i, &(id, offset, len, _)) in table.iter().enumerate() {
            if id != SECTION_IDS[i] || offset != expect_offset {
                return Err(corrupt("header"));
            }
            expect_offset = offset.checked_add(len).ok_or(corrupt("header"))?;
        }
        if expect_offset != bytes.len() as u64 {
            return Err(corrupt("trailer"));
        }
        let mut sections: Vec<&[u8]> = Vec::with_capacity(count);
        for &(id, offset, len, crc) in &table {
            let name = section_name(id);
            let payload = bytes
                .get(offset as usize..(offset + len) as usize)
                .ok_or(corrupt(name))?;
            if crc32(payload) != crc {
                return Err(corrupt(name));
            }
            sections.push(payload);
        }
        let (spec, generation, fingerprint) = dec_meta(sections[0])?;
        let raw = dec_rows(sections[1])?;
        let results = dec_results(sections[2])?;
        Ok(Artifact {
            spec,
            generation,
            fingerprint,
            raw,
            results,
        })
    }

    /// Reads and decodes `path`. Crosses the chaos harness's
    /// artifact-corruption site first, so the fault campaign can damage
    /// the bytes between disk and decoder exactly where real rot would.
    pub fn load(path: &Path) -> Result<Artifact, LoadError> {
        let mut bytes = fs::read(path).map_err(LoadError::Io)?;
        fpm::faults::corrupt_artifact(&mut bytes);
        Artifact::decode(&bytes)
    }

    /// Writes atomically: serialize, write `<path>.tmp`, fsync-free
    /// rename over `path`. A crash mid-write leaves either the old
    /// artifact or a stray `.tmp`, never a torn file under `path`.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let bytes = self.encode();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, path)
    }

    /// Recomputes the fingerprint of the raw section and compares it
    /// with the recorded one: the deep half of `store verify`, catching
    /// a stale raw section with a valid CRC (a buggy producer) that
    /// checksums cannot.
    pub fn verify_deep(&self) -> Result<(), String> {
        let db = TransactionDb::from_transactions(self.raw.clone());
        if fingerprint(&db) != self.fingerprint {
            return Err("fingerprint does not match raw section".to_string());
        }
        Ok(())
    }

    fn enc_meta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.generation);
        put_u64(&mut out, self.fingerprint);
        out.push(self.spec.kind.code());
        put_str(&mut out, &self.spec.dataset);
        put_str(&mut out, &self.spec.scale);
        out
    }

    fn enc_results(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.results.len() as u64);
        for e in &self.results {
            out.push(e.kernel);
            put_u64(&mut out, e.min_support);
            enc_query(&mut out, &e.query);
            put_u64(&mut out, e.generation);
            put_u64(&mut out, e.patterns.len() as u64);
            for p in &e.patterns {
                put_u32(&mut out, p.items.len() as u32);
                for &it in &p.items {
                    put_u32(&mut out, it);
                }
                put_u64(&mut out, p.support);
            }
        }
        out
    }
}

/// Writes a query tag: class code `u8`, top-k flag `u8` (+ `u64` LE
/// when set), rules flag `u8` (+ two `f64` bit patterns LE when set).
/// Existing artifacts hold these bytes; a unit test below pins them.
fn enc_query(out: &mut Vec<u8>, q: &QueryKey) {
    out.push(q.class);
    match q.top_k {
        Some(k) => {
            out.push(1);
            put_u64(out, k);
        }
        None => out.push(0),
    }
    match q.rules {
        Some((c, l)) => {
            out.push(1);
            put_u64(out, c);
            put_u64(out, l);
        }
        None => out.push(0),
    }
}

/// Reads [`enc_query`]'s layout, validating the class code and flag
/// bytes; `None` on anything malformed.
fn dec_query(rd: &mut Rd) -> Option<QueryKey> {
    let class = rd.u8()?;
    MineKind::from_code(class)?;
    let top_k = match rd.u8()? {
        0 => None,
        1 => Some(rd.u64()?),
        _ => return None,
    };
    let rules = match rd.u8()? {
        0 => None,
        1 => Some((rd.u64()?, rd.u64()?)),
        _ => return None,
    };
    Some(QueryKey { class, top_k, rules })
}

/// A conservative cap on decoded element counts: no section of a real
/// artifact approaches it, and honoring a corrupted length prefix of
/// e.g. `u64::MAX` must fail fast instead of attempting the allocation.
const SANE_MAX: u64 = 1 << 32;

fn take_len(n: u64, section: &'static str) -> Result<usize, LoadError> {
    if n > SANE_MAX {
        Err(LoadError::Corrupt { section })
    } else {
        Ok(n as usize)
    }
}

fn enc_rows(rows: &[Vec<Item>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, rows.len() as u64);
    for t in rows {
        put_u32(&mut out, t.len() as u32);
        for &i in t {
            put_u32(&mut out, i);
        }
    }
    out
}

fn dec_rows(bytes: &[u8]) -> Result<Vec<Vec<Item>>, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "rawdb" };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "rawdb")?;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let len = rd.u32().ok_or_else(corrupt)? as usize;
        let mut row = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            row.push(rd.u32().ok_or_else(corrupt)?);
        }
        rows.push(row);
    }
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok(rows)
}

fn dec_meta(bytes: &[u8]) -> Result<(SpecMeta, u64, u64), LoadError> {
    let corrupt = || LoadError::Corrupt { section: "meta" };
    let mut rd = Rd::new(bytes);
    let generation = rd.u64().ok_or_else(corrupt)?;
    let fingerprint = rd.u64().ok_or_else(corrupt)?;
    let kind = SpecKind::from_code(rd.u8().ok_or_else(corrupt)?).ok_or_else(corrupt)?;
    let dataset = rd.str().ok_or_else(corrupt)?;
    let scale = rd.str().ok_or_else(corrupt)?;
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok((SpecMeta { kind, dataset, scale }, generation, fingerprint))
}

fn dec_results(bytes: &[u8]) -> Result<Vec<ResultEntry>, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "results" };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "results")?;
    let mut results = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let kernel = rd.u8().ok_or_else(corrupt)?;
        let min_support = rd.u64().ok_or_else(corrupt)?;
        let query = dec_query(&mut rd).ok_or_else(corrupt)?;
        let generation = rd.u64().ok_or_else(corrupt)?;
        let np = take_len(rd.u64().ok_or_else(corrupt)?, "results")?;
        let mut patterns = Vec::with_capacity(np.min(1 << 20));
        for _ in 0..np {
            let len = rd.u32().ok_or_else(corrupt)? as usize;
            let mut items = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                items.push(rd.u32().ok_or_else(corrupt)?);
            }
            let support = rd.u64().ok_or_else(corrupt)?;
            patterns.push(ItemsetCount { items, support });
        }
        results.push(ResultEntry { kernel, min_support, query, generation, patterns });
    }
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok(results)
}

/// Lists every artifact (`*.fpa`) under `dir`, sorted by path so warm
/// starts visit artifacts in a deterministic order.
pub fn scan(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (TransactionDb, Artifact) {
        let db = TransactionDb::from_transactions(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![5, 2, 1],
            vec![4],
        ]);
        let mut a = Artifact::build(SpecMeta::named("ds1", "smoke"), &db);
        a.push_result(
            0,
            2,
            QueryKey::default(),
            vec![
                ItemsetCount { items: vec![1], support: 3 },
                ItemsetCount { items: vec![1, 2], support: 3 },
            ],
        );
        // A query-tagged entry (closed, top-2).
        a.push_result(
            0,
            2,
            fpm::PatternQuery::class(fpm::types::MineKind::Closed)
                .top_k(2)
                .key(),
            vec![ItemsetCount { items: vec![1, 2], support: 3 }],
        );
        (db, a)
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Artifacts record this number and warm start re-checks it, so
        // it must be bit-identical across releases.
        let db = TransactionDb::from_transactions(vec![vec![1, 2, 3], vec![7]]);
        assert_eq!(fingerprint(&db), 0x0c48_e2fd_7e89_c762);
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let (_, a) = sample();
        let bytes = a.encode();
        let back = Artifact::decode(&bytes).expect("clean bytes decode");
        assert_eq!(back, a);
        assert!(back.verify_deep().is_ok());
    }

    #[test]
    fn build_is_consistent_with_verify_deep() {
        let (_, a) = sample();
        assert!(a.verify_deep().is_ok());
        let mut tampered = a.clone();
        tampered.raw[1].push(9); // raw rows no longer match the fingerprint
        assert!(tampered.verify_deep().is_err());
        let mut stale = a;
        stale.fingerprint ^= 1; // the recorded fingerprint names another dataset
        assert!(stale.verify_deep().is_err());
    }

    #[test]
    fn every_truncation_is_detected() {
        let (_, a) = sample();
        let bytes = a.encode();
        for cut in 0..bytes.len() {
            assert!(
                Artifact::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (_, a) = sample();
        let bytes = a.encode();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x40;
            assert!(
                Artifact::decode(&flipped).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn version_and_magic_get_their_own_taxonomy() {
        let (_, a) = sample();
        let mut bytes = a.encode();
        bytes[0] = b'X';
        assert!(matches!(Artifact::decode(&bytes), Err(LoadError::BadMagic)));
        // The version field, one below and one above the current format.
        for version in [2u32, 4] {
            let mut stamped = a.encode();
            stamped[8..12].copy_from_slice(&version.to_le_bytes());
            match Artifact::decode(&stamped) {
                Err(LoadError::BadVersion(v)) => assert_eq!(v, version),
                other => panic!("version {version}: expected BadVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn query_tag_bytes_are_pinned() {
        // Existing artifacts hold these bytes, so the layout is pinned
        // as literals: class, top-k flag + u64 LE, rules flag + the
        // confidence and lift bit patterns LE.
        let maximal = fpm::PatternQuery::class(MineKind::Maximal)
            .top_k(7)
            .rules(fpm::RuleSpec { min_confidence: 0.75, min_lift: 1.1 });
        let cases: [(fpm::PatternQuery, &[u8]); 3] = [
            (fpm::PatternQuery::all(), &[0, 0, 0]),
            (fpm::PatternQuery::class(MineKind::Closed), &[1, 0, 0]),
            (
                maximal,
                &[
                    2, 1, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xe8, 0x3f, 0x9a, 0x99,
                    0x99, 0x99, 0x99, 0x99, 0xf1, 0x3f,
                ],
            ),
        ];
        for (q, bytes) in cases {
            let mut tagged = Vec::new();
            enc_query(&mut tagged, &q.key());
            assert_eq!(tagged, bytes, "{}", q.label());
            let mut rd = Rd::new(&tagged);
            assert_eq!(dec_query(&mut rd), Some(q.key()));
            assert!(rd.exhausted());
        }
        // Malformed tags are rejected, not misread.
        for bad in [&[9u8, 0, 0][..], &[0, 2, 0], &[0, 0, 7], &[0, 1, 0]] {
            let mut rd = Rd::new(bad);
            assert!(dec_query(&mut rd).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn push_result_replaces_per_query_slot() {
        let (_, mut a) = sample();
        let closed = fpm::PatternQuery::class(fpm::types::MineKind::Closed).key();
        assert_eq!(a.results.len(), 2);
        // Same (kernel, minsup), third query: a new slot.
        a.push_result(0, 2, closed, vec![]);
        assert_eq!(a.results.len(), 3);
        // Same triple again: replaced, not appended.
        a.push_result(0, 2, closed, vec![ItemsetCount { items: vec![2], support: 4 }]);
        assert_eq!(a.results.len(), 3);
        let entry = a
            .results
            .iter()
            .find(|e| e.query == closed)
            .expect("closed-query slot exists");
        assert_eq!(entry.patterns.len(), 1);
    }

    #[test]
    fn generation_gates_live_results() {
        let (_, mut a) = sample();
        assert_eq!(a.live_results().count(), 2);
        a.generation += 1;
        assert_eq!(a.live_results().count(), 0, "stale-generation entries are dead");
        a.push_result(1, 2, QueryKey::default(), vec![]);
        assert_eq!(a.live_results().count(), 1);
    }

    #[test]
    fn store_writes_atomically_and_scan_finds_it() {
        let (_, a) = sample();
        let dir = std::env::temp_dir().join(format!(
            "fpm-store-unit-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = a.path_in(&dir);
        a.store(&path).unwrap();
        assert!(!path.with_extension("fpa.tmp").exists());
        let paths = scan(&dir).unwrap();
        assert_eq!(paths, vec![path.clone()]);
        let back = Artifact::load(&path).unwrap();
        assert_eq!(back, a);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_matches_shape_and_content() {
        let a = TransactionDb::from_transactions(vec![vec![1, 2], vec![3]]);
        let b = TransactionDb::from_transactions(vec![vec![1], vec![2, 3]]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = TransactionDb::from_transactions(vec![vec![2, 1], vec![3]]);
        assert_eq!(fingerprint(&a), fingerprint(&c), "normalization first, then hash");
    }
}
