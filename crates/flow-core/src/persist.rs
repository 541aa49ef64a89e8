//! The one persistence primitive: atomically replaced, checksummed
//! record files. The serve cache (one record per entry), the stream
//! snapshots and the experiment checkpoints (one record per file) all
//! write through [`write()`] and read back through [`read`].
//!
//! A file is its store's [`SchemaId`] header line, a `records=<n>`
//! count, and per record a `record lines=<k> fnv=<hex>` marker — the
//! body's line count and the FNV-1a hash of its lines, each with its
//! `\n` — followed by the record's `k` lines.
//!
//! [`write()`] renders the file into `<path>.tmp` and renames it over
//! `path`: a process that dies mid-write leaves the previous file
//! intact, plus at worst a stray `.tmp` that readers never open and the
//! next write replaces. Nothing is fsynced, so an OS crash or power
//! loss can still lose or tear the newest file. [`read`] therefore
//! trusts nothing: it returns the intact records and one [`Damage`] per
//! damaged part, and each store decides what damage costs.
//!
//! Fault points: `persist.torn_write` keeps the first 3/5 of a rendered
//! file (the rename still lands); `persist.torn_read` drops the second
//! half of the bytes read back.

use crate::{fault, FlowError, FlowResult, Fnv64, SchemaId};
use std::fmt;
use std::path::{Path, PathBuf};

/// A persisted file as read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contents {
    /// The intact records in file order, each line ending in `\n`.
    pub records: Vec<String>,
    /// One report per damaged part of the file.
    pub damage: Vec<Damage>,
}

/// One damaged part of a persisted file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Damage {
    /// What is wrong with it.
    pub kind: DamageKind,
    /// Its lines as read back, for quarantine: the whole file for a bad
    /// header, nothing for missing records.
    pub text: String,
}

/// The ways part of a persisted file can be damaged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DamageKind {
    /// Not the expected schema's header line and record count; no
    /// record is read.
    Header(SchemaId),
    /// A record with fewer body lines (`.1`) than its marker declares
    /// (`.0`) before the next marker or the end of the file: torn.
    Short(usize, usize),
    /// A record whose body hashes to `.1`, not to the `.0` its marker
    /// stores.
    Checksum(u64, u64),
    /// This many lines outside any record, such as a marker line cut by
    /// a torn tail.
    Unframed(usize),
    /// The file declares `.0` records but holds only `.1` markers.
    Missing(usize, usize),
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DamageKind::Header(schema) => {
                write!(f, "bad header (expected `{}`)", schema.line_header())
            }
            DamageKind::Short(want, found) => {
                write!(f, "short record: {found} of {want} lines")
            }
            DamageKind::Checksum(stored, computed) => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            DamageKind::Unframed(lines) => write!(f, "{lines} lines outside any record"),
            DamageKind::Missing(declared, found) => {
                write!(f, "{declared} records declared, {found} found")
            }
        }
    }
}

/// FNV-1a over `lines`, each followed by `\n`.
fn checksum(lines: &[&str]) -> u64 {
    let fold = |h: Fnv64, line: &&str| h.bytes(line.as_bytes()).bytes(b"\n");
    lines.iter().fold(Fnv64::new(), fold).finish()
}

/// `lines`, each followed by `\n`.
fn join(lines: &[&str]) -> String {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// Parses a `record lines=<k> fnv=<hex>` marker.
fn marker(line: &str) -> Option<(usize, u64)> {
    let (lines, fnv) = line.strip_prefix("record lines=")?.split_once(" fnv=")?;
    Some((lines.parse().ok()?, u64::from_str_radix(fnv, 16).ok()?))
}

/// The temporary file [`write()`] renders into before the rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Atomically replaces `path` with `records` framed under `schema`,
/// creating the parent directory if needed. A record is stored as its
/// `\n`-separated lines, so a missing final newline is added.
pub fn write(path: &Path, schema: SchemaId, records: &[String]) -> FlowResult<()> {
    let mut out = format!("{}\nrecords={}\n", schema.line_header(), records.len());
    for record in records {
        let lines: Vec<&str> = record.split_terminator('\n').collect();
        let (count, fnv) = (lines.len(), checksum(&lines));
        out.push_str(&format!(
            "record lines={count} fnv={fnv:016x}\n{}",
            join(&lines)
        ));
    }
    let mut bytes = out.into_bytes();
    if fault::fires("persist.torn_write") {
        bytes.truncate(bytes.len() * 3 / 5);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a file written by [`write()`] under `schema`; `Ok(None)` when
/// there is no file. Only I/O failures are errors: damage is reported
/// in the [`Contents`].
pub fn read(path: &Path, schema: SchemaId) -> FlowResult<Option<Contents>> {
    let mut bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if fault::fires("persist.torn_read") {
        bytes.truncate(bytes.len() / 2);
    }
    Ok(Some(parse(&String::from_utf8_lossy(&bytes), schema)))
}

/// Reads a file that holds exactly one record; `Ok(None)` when there
/// is no file, and a [`FlowError::Checkpoint`] naming the file and its
/// first damage when the record is not intact.
pub fn read_one(path: &Path, schema: SchemaId) -> FlowResult<Option<String>> {
    let Some(mut contents) = read(path, schema)? else {
        return Ok(None);
    };
    let problem = match (contents.damage.first(), contents.records.len()) {
        (None, 1) => return Ok(contents.records.pop()),
        (Some(damage), _) => damage.to_string(),
        (None, n) => format!("{n} records, expected one"),
    };
    let detail = format!("{}: {problem}", path.display());
    Err(FlowError::Checkpoint { detail })
}

/// Splits file text into intact records and damage reports.
fn parse(text: &str, schema: SchemaId) -> Contents {
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    let declared = match lines.as_slice() {
        [head, count, ..] if schema.matches_line(head) => {
            count.strip_prefix("records=").and_then(|n| n.parse().ok())
        }
        _ => None,
    };
    let Some(declared) = declared else {
        let (kind, text) = (DamageKind::Header(schema), text.to_string());
        let damage = vec![Damage { kind, text }];
        return Contents {
            records: Vec::new(),
            damage,
        };
    };
    // Where reading resumes after damage: the first marker at or after
    // `from`, or the end of the file.
    let next_marker = |from: usize| {
        let at = lines.iter().skip(from).position(|l| marker(l).is_some());
        at.map_or(lines.len(), |at| from + at)
    };
    let (mut records, mut damage, mut markers) = (Vec::new(), Vec::new(), 0);
    let mut report = |kind: DamageKind, from: usize, to: usize| {
        let text = join(lines.get(from..to).unwrap_or_default());
        damage.push(Damage { kind, text });
    };
    let mut i = 2;
    while let Some(line) = lines.get(i) {
        let Some((want, stored)) = marker(line) else {
            let end = next_marker(i);
            report(DamageKind::Unframed(end - i), i, end);
            i = end;
            continue;
        };
        markers += 1;
        let body = lines.get(i + 1..(i + 1).saturating_add(want));
        let computed = body.map(checksum);
        match body {
            Some(body) if computed == Some(stored) => {
                records.push(join(body));
                i += 1 + want;
            }
            _ => {
                let end = next_marker(i + 1);
                let found = end - i - 1;
                let kind = match computed {
                    Some(computed) if found >= want => DamageKind::Checksum(stored, computed),
                    _ => DamageKind::Short(want, found),
                };
                report(kind, i, end);
                i = end;
            }
        }
    }
    if markers < declared {
        report(DamageKind::Missing(declared, markers), 0, 0);
    }
    Contents { records, damage }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: SchemaId = SchemaId::new("flowcore-persist-test", 1);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flow-core-persist-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn records() -> Vec<String> {
        vec![
            "alpha=1\nbeta=2\n".to_string(),
            "gamma=3\n".to_string(),
            "delta=4\nepsilon=5\nzeta=6\n".to_string(),
        ]
    }

    fn kinds(contents: &Contents) -> Vec<&DamageKind> {
        contents.damage.iter().map(|d| &d.kind).collect()
    }

    #[test]
    fn records_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records());
        assert!(contents.damage.is_empty());
        // A record without a final newline, and an empty one.
        write(&path, SCHEMA, &["x=1".to_string(), String::new()]).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, ["x=1\n", ""]);
        assert!(
            !tmp_path(&path).exists(),
            "the rename consumed the tmp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reads_as_none() {
        let path = tmp_dir("missing").join("absent.txt");
        assert_eq!(read(&path, SCHEMA).unwrap(), None);
        assert_eq!(read_one(&path, SCHEMA).unwrap(), None);
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut inside the last record's second body line.
        let cut = text.find("epsilon=").unwrap() + 3;
        std::fs::write(&path, &text[..cut]).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records()[..2]);
        assert_eq!(kinds(&contents), [&DamageKind::Short(3, 2)]);
        assert!(contents.damage[0].text.starts_with("record lines=3"));
        // A cut inside the last marker line leaves unframed bytes and a
        // shortfall, never a lost intact record.
        let cut = text.rfind("record lines=").unwrap() + 5;
        std::fs::write(&path, &text[..cut]).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records()[..2]);
        assert_eq!(
            kinds(&contents),
            [&DamageKind::Unframed(1), &DamageKind::Missing(3, 2)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_flipped_byte_damages_one_record() {
        let dir = tmp_dir("flip");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = std::str::from_utf8(&bytes)
            .unwrap()
            .find("gamma=3")
            .unwrap()
            + 6;
        bytes[at] = b'8';
        std::fs::write(&path, &bytes).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(
            contents.records,
            [records()[0].clone(), records()[2].clone()]
        );
        assert_eq!(contents.damage.len(), 1);
        assert!(matches!(contents.damage[0].kind, DamageKind::Checksum(..)));
        assert!(contents.damage[0].text.ends_with("gamma=8\n"));
        // A single-record reader turns the same damage into a typed error.
        write(&path, SCHEMA, &records()[1..2]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = b'8';
        std::fs::write(&path, &bytes).unwrap();
        let err = read_one(&path, SCHEMA).unwrap_err();
        assert!(
            matches!(&err, FlowError::Checkpoint { detail } if detail.contains("checksum")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_header_damages_the_whole_file() {
        let dir = tmp_dir("header");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()).unwrap();
        let other = SchemaId::new("flowcore-persist-test", 2);
        let contents = read(&path, other).unwrap().unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(kinds(&contents), [&DamageKind::Header(other)]);
        assert_eq!(
            contents.damage[0].text,
            std::fs::read_to_string(&path).unwrap()
        );
        std::fs::write(&path, "flowcore-persist-test v1\nrecords=lots\n").unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(kinds(&contents), [&DamageKind::Header(SCHEMA)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn count_shortfall_is_reported() {
        let dir = tmp_dir("shortfall");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the last record at a line boundary: what is left is
        // well-framed, only the count gives the loss away.
        let cut = text.rfind("record lines=").unwrap();
        std::fs::write(&path, &text[..cut]).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records()[..2]);
        assert_eq!(kinds(&contents), [&DamageKind::Missing(3, 2)]);
        let err = read_one(&path, SCHEMA).unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_is_ignored_and_replaced() {
        let dir = tmp_dir("stray");
        let path = dir.join("file.txt");
        write(&path, SCHEMA, &records()[..1]).unwrap();
        // A crash after writing the tmp file but before the rename.
        std::fs::write(tmp_path(&path), "half a fi").unwrap();
        assert_eq!(
            read_one(&path, SCHEMA).unwrap().as_deref(),
            Some(records()[0].as_str())
        );
        write(&path, SCHEMA, &records()[1..2]).unwrap();
        assert!(!tmp_path(&path).exists());
        assert_eq!(
            read_one(&path, SCHEMA).unwrap().as_deref(),
            Some(records()[1].as_str())
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
