//! The committed golden corpus: serial reference outputs under
//! `tests/goldens/`.
//!
//! For each (dataset, scale, kernel) case the corpus holds two
//! artifacts, both derived from one *serial* [`MinePlan`] run (the
//! emission order every parallel / controlled run must prefix):
//!
//! * one line in `digests.txt` — line count and FNV-1a digest of the
//!   full output, cheap to diff against any full re-mine;
//! * `<stem>.prefix` — the first [`PREFIX_LINES`] lines verbatim, so a
//!   budgeted run (`max_patterns(PREFIX_LINES)`) can be compared
//!   byte-for-byte without ever mining the full output.
//!
//! `cargo xtask regen-goldens` rewrites the corpus (it shells out to
//! this crate's `regen-goldens` bin in release mode); conformance tests
//! and the chaos campaign only ever *read* it. A digest mismatch means
//! kernel behavior changed — either a bug, or an intentional change
//! that must be accompanied by a regenerated corpus in the same commit.

use exec::MinePlan;
use fpm::{Kernel, RecordSink};
use quest::{Dataset, Scale};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Lines kept verbatim in each `.prefix` file.
pub const PREFIX_LINES: u64 = 100;

/// The support threshold of the smoke-scale corpus entries (the chaos
/// campaign's workload). Deliberately above DS1's scale-proportional
/// threshold (30): the campaign full-mines this case hundreds of times,
/// and at 30 one mine emits ~386 K patterns.
pub const SMOKE_MINSUP: u64 = 150;

/// One corpus entry: a dataset at a scale, mined by a kernel at an
/// explicit support threshold (recorded per line in `digests.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenCase {
    /// Which evaluation dataset.
    pub dataset: Dataset,
    /// At which reproduction scale.
    pub scale: Scale,
    /// Mined by which kernel.
    pub kernel: Kernel,
    /// The support threshold mined at.
    pub minsup: u64,
}

/// The committed digest of one case's full serial output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// The support threshold the output was mined at.
    pub minsup: u64,
    /// Emitted pattern count (= line count).
    pub lines: u64,
    /// FNV-1a over the full emission bytes.
    pub hash: u64,
}

impl GoldenCase {
    /// The smoke-scale campaign case for `kernel` (DS1 at
    /// [`SMOKE_MINSUP`]).
    pub fn smoke(kernel: Kernel) -> GoldenCase {
        GoldenCase {
            dataset: Dataset::Ds1,
            scale: Scale::Smoke,
            kernel,
            minsup: SMOKE_MINSUP,
        }
    }

    /// The CI-scale case for `(dataset, kernel)` at the
    /// scale-proportional support threshold (Table 6 ÷ scale).
    pub fn ci(dataset: Dataset, kernel: Kernel) -> GoldenCase {
        GoldenCase {
            dataset,
            scale: Scale::Ci,
            kernel,
            minsup: dataset.support(Scale::Ci),
        }
    }

    /// The corpus file stem, e.g. `ds1-ci-lcm`.
    pub fn stem(&self) -> String {
        format!(
            "{}-{}-{}",
            self.dataset.label().to_ascii_lowercase(),
            scale_label(self.scale),
            self.kernel.label()
        )
    }

    /// The full serial emission bytes — mined fresh, not read from the
    /// corpus. Asserts the run completed (a golden must never be a
    /// truncated run).
    pub fn serial_bytes(&self) -> Vec<u8> {
        let db = self.dataset.generate(self.scale);
        let mut sink = RecordSink::default();
        let summary = MinePlan::kernel(self.kernel, self.minsup).execute(&db, &mut sink);
        assert!(summary.complete, "golden mine must complete: {}", self.stem());
        sink.bytes
    }
}

/// Lowercase scale label used in corpus stems.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Ci => "ci",
        Scale::Full => "full",
    }
}

/// The corpus: DS1 at smoke scale (the chaos campaign's workload) plus
/// DS1–DS4 at CI scale, each × all three kernels.
pub fn corpus() -> Vec<GoldenCase> {
    let mut cases = Vec::new();
    for kernel in Kernel::ALL {
        cases.push(GoldenCase::smoke(kernel));
    }
    for dataset in Dataset::ALL {
        for kernel in Kernel::ALL {
            cases.push(GoldenCase::ci(dataset, kernel));
        }
    }
    cases
}

/// Where the corpus lives: `tests/goldens/` at the workspace root.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// FNV-1a over raw bytes — the corpus digest function.
pub fn fnv(bytes: &[u8]) -> u64 {
    fpm::fnv1a(fpm::FNV_OFFSET, bytes)
}

/// The first `lines` whole lines of `bytes` (all of them when there are
/// fewer). Always line-aligned by construction.
pub fn prefix_of(bytes: &[u8], lines: u64) -> Vec<u8> {
    if lines == 0 {
        return Vec::new();
    }
    let mut end = 0usize;
    let mut seen = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            end = i + 1;
            if seen == lines {
                break;
            }
        }
    }
    bytes[..end].to_vec()
}

fn count_lines(bytes: &[u8]) -> u64 {
    bytes.iter().filter(|&&b| b == b'\n').count() as u64
}

/// Parses the committed `digests.txt` into a stem-keyed map. Panics
/// with a pointer to `xtask regen-goldens` when the file is missing.
pub fn load_digests() -> BTreeMap<String, Digest> {
    let path = dir().join("digests.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden digests at {} ({e}); run `cargo xtask regen-goldens`",
            path.display()
        )
    });
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(stem), Some(minsup), Some(lines), Some(hash)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed digest line {line:?} in {}", path.display());
        };
        let digest = Digest {
            minsup: minsup.parse().expect("digest minsup must be a u64"),
            lines: lines.parse().expect("digest line count must be a u64"),
            hash: u64::from_str_radix(hash, 16).expect("digest hash must be hex"),
        };
        out.insert(stem.to_string(), digest);
    }
    out
}

/// Reads the committed `<stem>.prefix` bytes.
pub fn load_prefix(stem: &str) -> Vec<u8> {
    let path = dir().join(format!("{stem}.prefix"));
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden prefix at {} ({e}); run `cargo xtask regen-goldens`",
            path.display()
        )
    })
}

/// Regenerates the whole corpus in place, returning one human-readable
/// summary line per case. Run through `cargo xtask regen-goldens` (it
/// builds this crate's `regen-goldens` bin in release mode — the CI
/// datasets are minutes-slow unoptimized).
pub fn regen() -> Vec<String> {
    let dir = dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {} ({e})", dir.display()));
    let mut digests = String::new();
    digests.push_str(
        "# Golden corpus digests — one line per case:\n\
         #   <stem> <minsup> <lines> <fnv1a-hex>\n\
         # Regenerate with `cargo xtask regen-goldens`; never edit by hand.\n",
    );
    let mut summaries = Vec::new();
    for case in corpus() {
        let start = std::time::Instant::now();
        let bytes = case.serial_bytes();
        let lines = count_lines(&bytes);
        writeln!(
            digests,
            "{} {} {} {:016x}",
            case.stem(),
            case.minsup,
            lines,
            fnv(&bytes)
        )
        .expect("write to String cannot fail");
        let prefix = prefix_of(&bytes, PREFIX_LINES);
        let path = dir.join(format!("{}.prefix", case.stem()));
        std::fs::write(&path, &prefix)
            .unwrap_or_else(|e| panic!("cannot write {} ({e})", path.display()));
        summaries.push(format!(
            "{:<18} minsup={:<5} {:>7} lines  {:>6} prefix bytes  {:.1?}",
            case.stem(),
            case.minsup,
            lines,
            prefix.len(),
            start.elapsed()
        ));
    }
    let path = dir.join("digests.txt");
    std::fs::write(&path, digests)
        .unwrap_or_else(|e| panic!("cannot write {} ({e})", path.display()));
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_all_kernels_at_both_scales() {
        let cases = corpus();
        assert_eq!(cases.len(), 15, "3 smoke + 12 ci cases");
        for kernel in Kernel::ALL {
            assert!(cases.contains(&GoldenCase::smoke(kernel)));
            for dataset in Dataset::ALL {
                assert!(cases.contains(&GoldenCase::ci(dataset, kernel)));
            }
        }
    }

    #[test]
    fn stems_are_unique_and_stable() {
        let mut stems: Vec<String> = corpus().iter().map(GoldenCase::stem).collect();
        assert!(stems.contains(&"ds1-smoke-lcm".to_string()));
        assert!(stems.contains(&"ds4-ci-fpgrowth".to_string()));
        let n = stems.len();
        stems.sort();
        stems.dedup();
        assert_eq!(stems.len(), n, "stems must be unique");
    }

    #[test]
    fn prefix_of_is_line_aligned() {
        let bytes = b"1:5\n1,2:3\n2:4\n";
        assert_eq!(prefix_of(bytes, 0), b"");
        assert_eq!(prefix_of(bytes, 1), b"1:5\n");
        assert_eq!(prefix_of(bytes, 2), b"1:5\n1,2:3\n");
        assert_eq!(prefix_of(bytes, 3), bytes);
        assert_eq!(prefix_of(bytes, 99), bytes, "short output: keep everything");
        // A trailing partial line is never included.
        assert_eq!(prefix_of(b"1:5\n2:4", 99), b"1:5\n");
    }

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_ne!(fnv(b"1:5\n"), fnv(b"1:6\n"));
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325, "FNV offset basis");
        assert_eq!(fnv(b"1:5\n"), fnv(b"1:5\n"));
    }

    #[test]
    fn smoke_goldens_match_the_committed_corpus() {
        // The cheap end-to-end check (the CI-scale cases are covered by
        // the root conformance suite): re-mine the three smoke cases
        // and diff against the committed digests and prefix files.
        let digests = load_digests();
        for kernel in Kernel::ALL {
            let case = GoldenCase::smoke(kernel);
            let bytes = case.serial_bytes();
            let want = digests
                .get(&case.stem())
                .unwrap_or_else(|| panic!("{} missing from digests.txt", case.stem()));
            assert_eq!(want.minsup, case.minsup, "{}", case.stem());
            assert_eq!(want.lines, count_lines(&bytes), "{}", case.stem());
            assert_eq!(want.hash, fnv(&bytes), "{}: full-output digest", case.stem());
            assert_eq!(
                load_prefix(&case.stem()),
                prefix_of(&bytes, PREFIX_LINES),
                "{}: committed prefix",
                case.stem()
            );
        }
    }
}
