//! One linear pass over a response line of the wire protocol.
//!
//! Responses are checked without building a JSON tree: a generic
//! value parser is quadratic on large pattern lists (it re-validates the
//! rest of the input for every string), and a pattern answer can run to
//! hundreds of kilobytes. The scanner walks the top-level object once,
//! folds `patterns` into a [`Digest`] as it goes, reads the few `stats`
//! fields the benchmark needs, and skips every other member, so fields
//! the service adds later do not break it.

use fpm::ItemsetCount;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Nesting cap for skipped values; a response is at most four deep.
const MAX_DEPTH: usize = 32;

/// Streaming FNV-1a digest of a pattern list in delivery order: each
/// pattern's length, items and support, then the pattern count.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    h: u64,
    n: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            h: FNV_OFFSET,
            n: 0,
        }
    }
}

impl Digest {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in one pattern.
    pub fn push(&mut self, items: &[u32], support: u64) {
        self.eat(items.len() as u64);
        for &i in items {
            self.eat(u64::from(i));
        }
        self.eat(support);
        self.n += 1;
    }

    /// The digest of everything pushed so far.
    pub fn finish(mut self) -> u64 {
        let n = self.n;
        self.eat(n);
        self.h
    }
}

/// [`Digest`] of a whole pattern list.
pub fn digest(patterns: &[ItemsetCount]) -> u64 {
    let mut d = Digest::default();
    for p in patterns {
        d.push(&p.items, p.support);
    }
    d.finish()
}

/// What the benchmark reads from one response line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scanned {
    /// The `outcome` label.
    pub outcome: String,
    /// The `count` field.
    pub count: u64,
    /// `(patterns listed, digest)` when the line carries `patterns`.
    pub patterns: Option<(u64, u64)>,
    /// `stats.queue_ms`.
    pub queue_ms: u64,
    /// `stats.service_us`.
    pub service_us: u64,
}

/// Scans one response line (without its newline).
pub fn scan(line: &[u8]) -> Result<Scanned, String> {
    let mut c = Cur { b: line, i: 0 };
    let mut out = Scanned::default();
    let mut items: Vec<u32> = Vec::new();
    c.expect(b'{')?;
    if !c.eat(b'}') {
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            match key {
                b"outcome" => {
                    out.outcome = String::from_utf8_lossy(c.string()?).into_owned();
                }
                b"count" => out.count = c.uint()?,
                b"patterns" => out.patterns = Some(c.patterns(&mut items)?),
                b"stats" => c.stats(&mut out)?,
                _ => c.skip(0)?,
            }
            if !c.more(b'}')? {
                break;
            }
        }
    }
    c.ws();
    if c.i != line.len() {
        return Err(format!("trailing bytes at {}", c.i));
    }
    Ok(out)
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, ch: u8) -> bool {
        if self.peek() == Some(ch) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.eat(ch) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", ch as char, self.i))
        }
    }

    /// After a member or element: `true` on `,`, `false` on `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.i
            ))
        }
    }

    /// A string's raw bytes between the quotes (escapes left as is).
    fn string(&mut self) -> Result<&'a [u8], String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(&self.b[start..self.i - 1]);
                }
                Some(b'\\') => self.i += 2,
                Some(_) => self.i += 1,
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// A number token; integers are read exactly, anything else through
    /// `f64` and truncated.
    fn uint(&mut self) -> Result<u64, String> {
        self.ws();
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<u64>()
            .or_else(|_| text.parse::<f64>().map(|f| f as u64))
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.ws();
        if self.b[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.b[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("expected a boolean at byte {}", self.i))
        }
    }

    /// Skips any value.
    fn skip(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'"') => self.string().map(|_| ()),
            Some(open @ (b'{' | b'[')) => {
                let close = if open == b'{' { b'}' } else { b']' };
                self.i += 1;
                if self.eat(close) {
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.string()?;
                        self.expect(b':')?;
                    }
                    self.skip(depth + 1)?;
                    if !self.more(close)? {
                        return Ok(());
                    }
                }
            }
            Some(b't' | b'f') => self.boolean().map(|_| ()),
            Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(())
            }
            Some(_) => self.uint().map(|_| ()),
            None => Err("unexpected end of line".into()),
        }
    }

    /// `[{"items":[…],"support":n}, …]` folded into a digest.
    fn patterns(&mut self, items: &mut Vec<u32>) -> Result<(u64, u64), String> {
        let mut d = Digest::default();
        self.expect(b'[')?;
        if !self.eat(b']') {
            loop {
                self.expect(b'{')?;
                items.clear();
                let mut support = 0;
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    match key {
                        b"items" => {
                            self.expect(b'[')?;
                            if !self.eat(b']') {
                                loop {
                                    let item = self.uint()?;
                                    items
                                        .push(u32::try_from(item).map_err(|_| "item exceeds u32")?);
                                    if !self.more(b']')? {
                                        break;
                                    }
                                }
                            }
                        }
                        b"support" => support = self.uint()?,
                        _ => self.skip(1)?,
                    }
                    if !self.more(b'}')? {
                        break;
                    }
                }
                d.push(items, support);
                if !self.more(b']')? {
                    break;
                }
            }
        }
        Ok((d.n, d.finish()))
    }

    fn stats(&mut self, out: &mut Scanned) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key {
                b"queue_ms" => out.queue_ms = self.uint()?,
                b"service_us" => out.service_us = self.uint()?,
                _ => self.skip(1)?,
            }
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::{render_response, MineResponse, MineStats, Outcome};
    use std::sync::Arc;

    fn pats() -> Vec<ItemsetCount> {
        vec![
            ItemsetCount {
                items: vec![3],
                support: 40,
            },
            ItemsetCount {
                items: vec![3, 17, 250],
                support: 12,
            },
            ItemsetCount {
                items: vec![],
                support: 9,
            },
        ]
    }

    #[test]
    fn agrees_with_render_response_on_every_outcome() {
        let outcomes = [
            Outcome::Complete,
            Outcome::Cancelled,
            Outcome::DeadlineExceeded,
            Outcome::Rejected,
            Outcome::Failed,
        ];
        for outcome in outcomes {
            for with_patterns in [false, true] {
                for reason in [None, Some("queue \"full\", try later\n".to_string())] {
                    let list = pats();
                    let resp = MineResponse {
                        outcome,
                        patterns: with_patterns.then(|| Arc::new(list.clone())),
                        count: list.len() as u64,
                        reason,
                        stats: MineStats {
                            emitted: 3,
                            cache_hit: with_patterns,
                            queue_ms: 7,
                            mine_ms: 11,
                            service_us: 12_345,
                            candidate_bound: 1.5e30,
                            ..MineStats::default()
                        },
                    };
                    let line = render_response(&resp);
                    let got = scan(line.as_bytes()).expect("scans");
                    assert_eq!(got.outcome, outcome.label(), "{line}");
                    assert_eq!(got.count, 3);
                    assert_eq!((got.queue_ms, got.service_us), (7, 12_345));
                    let want = with_patterns.then(|| (3, digest(&list)));
                    assert_eq!(got.patterns, want, "{line}");
                }
            }
        }
    }

    #[test]
    fn empty_pattern_list_and_unbounded_admission_scan() {
        let resp = MineResponse {
            outcome: Outcome::Complete,
            patterns: Some(Arc::new(Vec::new())),
            count: 0,
            reason: None,
            stats: MineStats {
                candidate_bound: f64::INFINITY,
                ..MineStats::default()
            },
        };
        let got = scan(render_response(&resp).as_bytes()).unwrap();
        assert_eq!(got.patterns, Some((0, digest(&[]))));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let a = pats();
        let mut b = pats();
        b.swap(0, 1);
        assert_ne!(digest(&a), digest(&b));
        b.swap(0, 1);
        b[1].support += 1;
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&pats()));
    }

    #[test]
    fn rejects_truncated_lines() {
        let line = render_response(&MineResponse {
            outcome: Outcome::Complete,
            patterns: Some(Arc::new(pats())),
            count: 3,
            reason: None,
            stats: MineStats::default(),
        });
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(scan(&line.as_bytes()[..cut]).is_err(), "cut at {cut}");
        }
    }
}
