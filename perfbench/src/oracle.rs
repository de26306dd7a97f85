//! Reference outputs, computed without the engine under test: the XSLTVM
//! over the parsed `db` document for the stylesheet cases, and a string
//! built straight from the generated rows for the point lookups. Stored as
//! `(length, fnv64)` digests so a run holds a few bytes per reference.

use crate::workload::Workload;
use xsltdb_xml::{parse_trimmed, to_string};
use xsltdb_xslt::{compile_str, transform};
use xsltdb_xsltmark::{case, db_rows, db_xml};

/// Length and FNV-1a hash of a byte string.
pub type Digest = (usize, u64);

pub fn digest(bytes: &[u8]) -> Digest {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), h)
}

/// One digest per request index of `workload` (case index, or row index
/// for lookups). `None` marks a case the reference VM itself rejects;
/// such a request is still counted, but has no bytes to compare.
pub fn references(workload: Workload, seed: u64) -> Vec<Option<Digest>> {
    match workload {
        Workload::LookupChurn => db_rows(workload.rows(), seed)
            .iter()
            .map(|r| {
                let expected = format!("<out><found>{}, {}</found></out>", r.lastname, r.firstname);
                Some(digest(expected.as_bytes()))
            })
            .collect(),
        Workload::XsltmarkUncached | Workload::ScanPaged => {
            let doc = parse_trimmed(&db_xml(workload.rows(), seed))
                .expect("generated db document parses");
            workload
                .case_names()
                .iter()
                .map(|name| {
                    let sheet = compile_str(&case(name).stylesheet).ok()?;
                    let out = transform(&sheet, &doc).ok()?;
                    Some(digest(to_string(&out).as_bytes()))
                })
                .collect()
        }
    }
}

/// One line per reference: `len hash`, or `-` for none.
pub fn encode(refs: &[Option<Digest>]) -> String {
    let mut s = String::with_capacity(refs.len() * 28);
    for r in refs {
        match r {
            Some((len, h)) => s.push_str(&format!("{len} {h}\n")),
            None => s.push_str("-\n"),
        }
    }
    s
}

pub fn decode(text: &str) -> Result<Vec<Option<Digest>>, String> {
    text.lines()
        .map(|line| {
            if line == "-" {
                return Ok(None);
            }
            let (len, h) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad reference line {line:?}"))?;
            let len = len.parse().map_err(|e| format!("reference length: {e}"))?;
            let h = h.parse().map_err(|e| format!("reference hash: {e}"))?;
            Ok(Some((len, h)))
        })
        .collect()
}
