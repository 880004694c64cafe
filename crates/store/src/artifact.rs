//! The on-disk artifact: sectioned, versioned, checksummed.
//!
//! # Layout (format version 2; version 1 still decodes)
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
//! | 1  | meta    | generation, fingerprint, prepared minsup, spec     |
//! | 2  | rawdb   | normalized raw transactions (original item ids)    |
//! | 3  | freq    | per-original-item support counts (the border map)  |
//! | 4  | ranked  | remapped DB: rank→orig, supports, ranked rows      |
//! | 5  | vbm     | vertical bit-matrix, column-major u64 words        |
//! | 6  | fpt     | serialized prefix tree (item, parent, count) rows  |
//! | 7  | results | cached results keyed (kernel, minsup, query, gen)  |
//!
//! Sections 4–6 are the paper's P2 *prepared* forms — persisting them
//! is the point: a warm start costs a checksum pass, not a rebuild.
//! Section 7 entries are only served when their recorded generation
//! matches the artifact's current generation; `append` bumps the
//! generation, which invalidates every dependent cached result without
//! touching their bytes.
//!
//! # Version 2: query-tagged results
//!
//! Version 2 adds a **query tag** to every results entry — the
//! canonical [`fpm::PatternQuery::encode`] byte layout (class code,
//! top-k flag + value, rules flag + two `f64` bit patterns), so a
//! warm start can seed the serve cache under the full widened key
//! `(fingerprint, kernel, minsup, query)`. Version 1 files carry no
//! tag; the decoder reads them with every entry tagged as the identity
//! query ([`fpm::QueryKey::default`]), which is exactly what a v1
//! producer meant. The writer always emits version 2.

use crate::fmt::{crc32, put_str, put_u32, put_u64, Rd};
use fpm::types::MineKind;
use fpm::{remap, Item, ItemsetCount, QueryKey, TransactionDb};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File magic, identifying the artifact family; the version field right
/// after it carries the format version.
pub const MAGIC: [u8; 8] = *b"FPMSTOR1";
/// On-disk format version written by [`Artifact::encode`]; bump on any
/// incompatible layout change. The decoder also accepts every version
/// in [`DECODABLE_VERSIONS`].
pub const FORMAT_VERSION: u32 = 2;
/// Format versions [`Artifact::decode`] understands: 1 (query-less
/// results entries, read as identity-query) and 2 (query-tagged).
pub const DECODABLE_VERSIONS: [u32; 2] = [1, 2];
/// Artifact file extension (`<stem>.fpa`).
pub const EXTENSION: &str = "fpa";

const SEC_META: u32 = 1;
const SEC_RAWDB: u32 = 2;
const SEC_FREQ: u32 = 3;
const SEC_RANKED: u32 = 4;
const SEC_VBM: u32 = 5;
const SEC_FPT: u32 = 6;
const SEC_RESULTS: u32 = 7;

/// Canonical section order; the decoder requires exactly these ids in
/// exactly this order (we are the only writer of version-1 files).
const SECTION_IDS: [u32; 7] = [
    SEC_META, SEC_RAWDB, SEC_FREQ, SEC_RANKED, SEC_VBM, SEC_FPT, SEC_RESULTS,
];

/// Human name of a section id, for error taxonomy and `inspect`.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_RAWDB => "rawdb",
        SEC_FREQ => "freq",
        SEC_RANKED => "ranked",
        SEC_VBM => "vbm",
        SEC_FPT => "fpt",
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
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
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

/// The persisted remapped database (section 4): the rank↔original
/// translation, per-rank supports, and the ranked rows themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedSection {
    /// Original item id per rank (rank 0 = most frequent).
    pub to_orig: Vec<Item>,
    /// Support per rank.
    pub supports: Vec<u64>,
    /// Length of the *original* database (supports' denominator).
    pub original_len: u64,
    /// Remapped transactions, each sorted ascending by rank.
    pub rows: Vec<Vec<u32>>,
}

impl RankedSection {
    /// Copies a [`fpm::RankedDb`] into the persistable form.
    pub fn from_ranked(r: &fpm::RankedDb) -> RankedSection {
        let to_orig = (0..r.map.n_ranks() as u32).map(|k| r.map.original(k)).collect();
        let supports = (0..r.map.n_ranks() as u32).map(|k| r.map.support(k)).collect();
        RankedSection {
            to_orig,
            supports,
            original_len: r.original_len as u64,
            rows: r.transactions.clone(),
        }
    }
}

/// The persisted vertical bit-matrix (section 5): one column of
/// `words_per_col` u64 words per rank, bit `row` set when the row's
/// transaction contains the rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    /// Number of rank columns.
    pub n_ranks: u32,
    /// Number of transaction rows.
    pub n_rows: u64,
    /// Words per column (`ceil(n_rows / 64)`).
    pub words_per_col: u32,
    /// Column-major words: rank `r` occupies `words[r*wpc..(r+1)*wpc]`.
    pub words: Vec<u64>,
}

impl BitMatrix {
    /// Builds the matrix from ranked rows.
    pub fn build(rows: &[Vec<u32>], n_ranks: usize) -> BitMatrix {
        let wpc = rows.len().div_ceil(64);
        let mut words = vec![0u64; n_ranks * wpc];
        for (row, t) in rows.iter().enumerate() {
            for &r in t {
                words[r as usize * wpc + row / 64] |= 1u64 << (row % 64);
            }
        }
        BitMatrix {
            n_ranks: n_ranks as u32,
            n_rows: rows.len() as u64,
            words_per_col: wpc as u32,
            words,
        }
    }
}

/// The persisted prefix tree (section 6), stored as parallel arrays in
/// deterministic insertion order: node 0 is the root; every other node
/// records its rank item, parent index, and path count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixTree {
    /// Rank item per node (`u32::MAX` at the root).
    pub items: Vec<u32>,
    /// Parent node index per node (self-referential 0 at the root).
    pub parents: Vec<u32>,
    /// Number of ranked rows whose prefix passes through the node.
    pub counts: Vec<u64>,
}

impl PrefixTree {
    /// Builds the tree by inserting ranked rows in row order, with a
    /// `BTreeMap` child index so node numbering is deterministic.
    pub fn build(rows: &[Vec<u32>]) -> PrefixTree {
        let mut items = vec![u32::MAX];
        let mut parents = vec![0u32];
        let mut counts = vec![0u64];
        let mut children: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for t in rows {
            let mut cur = 0u32;
            for &it in t {
                let next = match children.get(&(cur, it)) {
                    Some(&n) => n,
                    None => {
                        let n = items.len() as u32;
                        items.push(it);
                        parents.push(cur);
                        counts.push(0);
                        children.insert((cur, it), n);
                        n
                    }
                };
                counts[next as usize] += 1;
                cur = next;
            }
        }
        PrefixTree { items, parents, counts }
    }

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True only for a degenerate zero-node value (never produced by
    /// [`PrefixTree::build`], which always emits the root).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// One persisted result-cache entry (section 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultEntry {
    /// Kernel code (`fpm::Kernel::code`).
    pub kernel: u8,
    /// Minimum support the result was mined at.
    pub min_support: u64,
    /// The pattern query the result answers, in its hashable key form
    /// ([`fpm::PatternQuery::key`]); [`QueryKey::default`] is the
    /// identity query — the only value version-1 files can carry.
    pub query: QueryKey,
    /// Artifact generation the result belongs to; entries from older
    /// generations are dead weight kept only until the next rewrite.
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
    /// Minimum support the prepared sections (4–6) were built at.
    pub prepared_minsup: u64,
    /// Normalized raw transactions (sorted, deduplicated items).
    pub raw: Vec<Vec<Item>>,
    /// Per-original-item support counts.
    pub freq: Vec<u64>,
    /// Prepared: the remapped database.
    pub ranked: RankedSection,
    /// Prepared: the vertical bit-matrix.
    pub vbm: BitMatrix,
    /// Prepared: the prefix tree.
    pub fpt: PrefixTree,
    /// Persisted result-cache entries.
    pub results: Vec<ResultEntry>,
}

impl Artifact {
    /// Builds a fresh artifact (generation 0, no results) from a raw
    /// database, preparing the remapped DB, bit-matrix and prefix tree
    /// at `minsup`.
    pub fn build(spec: SpecMeta, db: &TransactionDb, minsup: u64) -> Artifact {
        let mut freq = vec![0u64; db.n_items()];
        for t in db.transactions() {
            for &i in t {
                freq[i as usize] += 1;
            }
        }
        let ranked_db = remap(db, minsup);
        let ranked = RankedSection::from_ranked(&ranked_db);
        let vbm = BitMatrix::build(&ranked.rows, ranked.to_orig.len());
        let fpt = PrefixTree::build(&ranked.rows);
        Artifact {
            spec,
            generation: 0,
            fingerprint: fingerprint(db),
            prepared_minsup: minsup,
            raw: db.transactions().to_vec(),
            freq,
            ranked,
            vbm,
            fpt,
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

    /// Serializes to the sectioned format documented at module level
    /// (always the current [`FORMAT_VERSION`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(FORMAT_VERSION)
    }

    /// Serializes in the version-1 layout (query-less results entries).
    /// **Lossy**: entries whose query is not the identity cannot be
    /// represented and are dropped. Exists so compatibility tests can
    /// manufacture genuine v1 bytes; production code always writes v2.
    #[doc(hidden)]
    pub fn encode_legacy_v1(&self) -> Vec<u8> {
        self.encode_with(1)
    }

    fn encode_with(&self, version: u32) -> Vec<u8> {
        let payloads: Vec<(u32, Vec<u8>)> = vec![
            (SEC_META, self.enc_meta()),
            (SEC_RAWDB, enc_rows_items(&self.raw)),
            (SEC_FREQ, self.enc_freq()),
            (SEC_RANKED, self.enc_ranked()),
            (SEC_VBM, self.enc_vbm()),
            (SEC_FPT, self.enc_fpt()),
            (SEC_RESULTS, self.enc_results(version)),
        ];
        let header_len = 8 + 4 + 4 + payloads.len() * 24 + 4;
        let mut out = Vec::with_capacity(
            header_len + payloads.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, version);
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
        if !DECODABLE_VERSIONS.contains(&version) {
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
        let (spec, generation, fingerprint, prepared_minsup) = dec_meta(sections[0])?;
        let raw = dec_rows_items(sections[1], "rawdb")?;
        let freq = dec_freq(sections[2])?;
        let ranked = dec_ranked(sections[3])?;
        let vbm = dec_vbm(sections[4])?;
        let fpt = dec_fpt(sections[5])?;
        let results = dec_results(sections[6], version)?;
        Ok(Artifact {
            spec,
            generation,
            fingerprint,
            prepared_minsup,
            raw,
            freq,
            ranked,
            vbm,
            fpt,
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

    /// Recomputes every prepared section from the raw section and
    /// compares: the deep half of `store verify`, catching logic drift
    /// (a stale prepared form with a valid CRC) that checksums cannot.
    pub fn verify_deep(&self) -> Result<(), String> {
        let db = TransactionDb::from_transactions(self.raw.clone());
        if fingerprint(&db) != self.fingerprint {
            return Err("fingerprint does not match raw section".to_string());
        }
        let mut freq = vec![0u64; db.n_items()];
        for t in db.transactions() {
            for &i in t {
                freq[i as usize] += 1;
            }
        }
        if freq != self.freq {
            return Err("freq section does not match raw section".to_string());
        }
        let ranked = RankedSection::from_ranked(&remap(&db, self.prepared_minsup));
        if ranked != self.ranked {
            return Err("ranked section does not match raw remap".to_string());
        }
        if BitMatrix::build(&self.ranked.rows, self.ranked.to_orig.len()) != self.vbm {
            return Err("vbm section does not match ranked rows".to_string());
        }
        if PrefixTree::build(&self.ranked.rows) != self.fpt {
            return Err("fpt section does not match ranked rows".to_string());
        }
        Ok(())
    }

    fn enc_meta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.generation);
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.prepared_minsup);
        out.push(self.spec.kind.code());
        put_str(&mut out, &self.spec.dataset);
        put_str(&mut out, &self.spec.scale);
        out
    }

    fn enc_freq(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.freq.len() as u64);
        for &c in &self.freq {
            put_u64(&mut out, c);
        }
        out
    }

    fn enc_ranked(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.ranked.to_orig.len() as u32);
        for &o in &self.ranked.to_orig {
            put_u32(&mut out, o);
        }
        for &s in &self.ranked.supports {
            put_u64(&mut out, s);
        }
        put_u64(&mut out, self.ranked.original_len);
        let rows = enc_rows_u32(&self.ranked.rows);
        out.extend_from_slice(&rows);
        out
    }

    fn enc_vbm(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.vbm.n_ranks);
        put_u64(&mut out, self.vbm.n_rows);
        put_u32(&mut out, self.vbm.words_per_col);
        for &w in &self.vbm.words {
            put_u64(&mut out, w);
        }
        out
    }

    fn enc_fpt(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.fpt.items.len() as u64);
        for i in 0..self.fpt.items.len() {
            put_u32(&mut out, self.fpt.items[i]);
            put_u32(&mut out, self.fpt.parents[i]);
            put_u64(&mut out, self.fpt.counts[i]);
        }
        out
    }

    fn enc_results(&self, version: u32) -> Vec<u8> {
        // Version 1 cannot carry a query tag: only identity-query
        // entries survive a legacy encode (push_result dedup keeps the
        // retained set deterministic).
        let entries: Vec<&ResultEntry> = self
            .results
            .iter()
            .filter(|e| version >= 2 || e.query == QueryKey::default())
            .collect();
        let mut out = Vec::new();
        put_u64(&mut out, entries.len() as u64);
        for e in entries {
            out.push(e.kernel);
            put_u64(&mut out, e.min_support);
            if version >= 2 {
                enc_query(&mut out, &e.query);
            }
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

/// Writes a query tag in the canonical [`fpm::PatternQuery::encode`]
/// byte layout (asserted equal by a unit test below): class code `u8`,
/// top-k flag `u8` (+ `u64` LE when set), rules flag `u8` (+ two `f64`
/// bit patterns LE when set).
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

fn enc_rows_items(rows: &[Vec<Item>]) -> Vec<u8> {
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

fn enc_rows_u32(rows: &[Vec<u32>]) -> Vec<u8> {
    enc_rows_items(rows)
}

fn dec_rows_items(bytes: &[u8], section: &'static str) -> Result<Vec<Vec<u32>>, LoadError> {
    let corrupt = || LoadError::Corrupt { section };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, section)?;
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

fn dec_meta(bytes: &[u8]) -> Result<(SpecMeta, u64, u64, u64), LoadError> {
    let corrupt = || LoadError::Corrupt { section: "meta" };
    let mut rd = Rd::new(bytes);
    let generation = rd.u64().ok_or_else(corrupt)?;
    let fingerprint = rd.u64().ok_or_else(corrupt)?;
    let prepared_minsup = rd.u64().ok_or_else(corrupt)?;
    let kind = SpecKind::from_code(rd.u8().ok_or_else(corrupt)?).ok_or_else(corrupt)?;
    let dataset = rd.str().ok_or_else(corrupt)?;
    let scale = rd.str().ok_or_else(corrupt)?;
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok((SpecMeta { kind, dataset, scale }, generation, fingerprint, prepared_minsup))
}

fn dec_freq(bytes: &[u8]) -> Result<Vec<u64>, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "freq" };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "freq")?;
    let mut freq = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        freq.push(rd.u64().ok_or_else(corrupt)?);
    }
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok(freq)
}

fn dec_ranked(bytes: &[u8]) -> Result<RankedSection, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "ranked" };
    let mut rd = Rd::new(bytes);
    let n_ranks = rd.u32().ok_or_else(corrupt)? as usize;
    let mut to_orig = Vec::with_capacity(n_ranks.min(1 << 20));
    for _ in 0..n_ranks {
        to_orig.push(rd.u32().ok_or_else(corrupt)?);
    }
    let mut supports = Vec::with_capacity(n_ranks.min(1 << 20));
    for _ in 0..n_ranks {
        supports.push(rd.u64().ok_or_else(corrupt)?);
    }
    let original_len = rd.u64().ok_or_else(corrupt)?;
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "ranked")?;
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
    Ok(RankedSection { to_orig, supports, original_len, rows })
}

fn dec_vbm(bytes: &[u8]) -> Result<BitMatrix, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "vbm" };
    let mut rd = Rd::new(bytes);
    let n_ranks = rd.u32().ok_or_else(corrupt)?;
    let n_rows = rd.u64().ok_or_else(corrupt)?;
    let words_per_col = rd.u32().ok_or_else(corrupt)?;
    let n_words = take_len((n_ranks as u64).saturating_mul(words_per_col as u64), "vbm")?;
    let mut words = Vec::with_capacity(n_words.min(1 << 20));
    for _ in 0..n_words {
        words.push(rd.u64().ok_or_else(corrupt)?);
    }
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok(BitMatrix { n_ranks, n_rows, words_per_col, words })
}

fn dec_fpt(bytes: &[u8]) -> Result<PrefixTree, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "fpt" };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "fpt")?;
    let mut items = Vec::with_capacity(n.min(1 << 20));
    let mut parents = Vec::with_capacity(n.min(1 << 20));
    let mut counts = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        items.push(rd.u32().ok_or_else(corrupt)?);
        parents.push(rd.u32().ok_or_else(corrupt)?);
        counts.push(rd.u64().ok_or_else(corrupt)?);
    }
    if !rd.exhausted() {
        return Err(corrupt());
    }
    Ok(PrefixTree { items, parents, counts })
}

fn dec_results(bytes: &[u8], version: u32) -> Result<Vec<ResultEntry>, LoadError> {
    let corrupt = || LoadError::Corrupt { section: "results" };
    let mut rd = Rd::new(bytes);
    let n = take_len(rd.u64().ok_or_else(corrupt)?, "results")?;
    let mut results = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let kernel = rd.u8().ok_or_else(corrupt)?;
        let min_support = rd.u64().ok_or_else(corrupt)?;
        let query = if version >= 2 {
            dec_query(&mut rd).ok_or_else(corrupt)?
        } else {
            // Version 1 predates the query surface: every entry answers
            // the identity query.
            QueryKey::default()
        };
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
        let mut a = Artifact::build(SpecMeta::named("ds1", "smoke"), &db, 2);
        a.push_result(
            0,
            2,
            QueryKey::default(),
            vec![
                ItemsetCount { items: vec![1], support: 3 },
                ItemsetCount { items: vec![1, 2], support: 3 },
            ],
        );
        // A query-tagged entry (closed, top-2): v2's reason to exist.
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
        tampered.freq[1] += 1;
        assert!(tampered.verify_deep().is_err());
        let mut stale = a;
        stale.prepared_minsup = 3; // prepared sections now claim the wrong minsup
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
        let mut v3 = a.encode();
        v3[8] = 3; // version field: one past everything decodable
        assert!(matches!(Artifact::decode(&v3), Err(LoadError::BadVersion(3))));
    }

    #[test]
    fn v1_artifacts_still_decode_with_identity_query_tags() {
        let (_, a) = sample();
        let v1 = a.encode_legacy_v1();
        assert_eq!(&v1[8..12], &1u32.to_le_bytes(), "legacy writer stamps version 1");
        let back = Artifact::decode(&v1).expect("v1 bytes decode");
        // The query-tagged entry cannot ride in a v1 file; the identity
        // entry survives, tagged as the identity query.
        assert_eq!(back.results.len(), 1);
        assert_eq!(back.results[0].query, QueryKey::default());
        assert_eq!(back.results[0].patterns, a.results[0].patterns);
        assert_eq!(back.spec, a.spec);
        assert_eq!(back.fingerprint, a.fingerprint);
        assert!(back.verify_deep().is_ok());
        // Re-encoding the decoded artifact lands on v2 bytes that
        // round-trip: upgrade-on-rewrite, no special casing.
        let upgraded = Artifact::decode(&back.encode()).expect("v2 re-encode decodes");
        assert_eq!(upgraded, back);
    }

    #[test]
    fn query_tag_layout_matches_canonical_encoding() {
        // The store's tag bytes must be exactly
        // `fpm::PatternQuery::encode` — one canonical layout everywhere.
        let queries = [
            fpm::PatternQuery::all(),
            fpm::PatternQuery::class(fpm::types::MineKind::Closed),
            fpm::PatternQuery::class(fpm::types::MineKind::Maximal)
                .top_k(7)
                .rules(fpm::RuleSpec { min_confidence: 0.75, min_lift: 1.1 }),
        ];
        for q in queries {
            let mut tagged = Vec::new();
            enc_query(&mut tagged, &q.key());
            assert_eq!(tagged, q.encode(), "{}", q.label());
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
