//! The one persistence primitive: checksummed record files, either
//! atomically replaced or appended to. The serve cache (one record per
//! entry), the stream snapshots and logs, and the experiment
//! checkpoints (one record per file) all write through this module and
//! read back through [`read`].
//!
//! A file is its store's [`SchemaId`] header line, a count line, and
//! per record a `record lines=<k> fnv=<hex>` marker — the body's line
//! count and the FNV-1a hash of its lines, each with its `\n` —
//! followed by the record's `k` lines. The count line is `records=<n>`
//! in a replaced file and `records=append` in a log, whose length only
//! its records tell.
//!
//! [`write()`] renders the file into `<path>.tmp` and renames it over
//! `path`: a process that dies mid-write leaves the previous file
//! intact, plus at worst a stray `.tmp` that readers never open and the
//! next write replaces. It syncs nothing, so an OS crash or power loss
//! can still lose or tear the newest file; the serve cache and the
//! checkpoints accept that, because both are cheap to rebuild.
//! [`write_synced`] also syncs the temp file before the rename and the
//! directory after it, and the parent of any directory it had to
//! create, so the new file survives an OS crash once it returns.
//! [`append`] adds one record to a log and syncs its data before it
//! returns; a crash mid-append can tear only that record.
//! [`read`] therefore trusts nothing: it returns the intact records and
//! one [`Damage`] per damaged part, and each store decides what damage
//! costs.
//!
//! Fault points: `persist.torn_write` keeps the first 3/5 of a rendered
//! file (the rename still lands); `persist.torn_append` keeps the first
//! 3/5 of an appended record and fails before the sync, as an OS crash
//! that lost the unsynced tail would; `persist.torn_read` drops the
//! second half of the bytes read back.

use crate::{fault, FlowError, FlowResult, Fnv64, SchemaId};
use std::fmt;
use std::fs::File;
use std::io::Write as _;
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
    /// Not the expected schema's header line and count line; no record
    /// is read.
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

/// The header and count lines of a file under `schema`: `records=<n>`
/// for `Some(n)` records, `records=append` for a log.
fn header(schema: SchemaId, count: Option<usize>) -> String {
    match count {
        Some(n) => format!("{}\nrecords={n}\n", schema.line_header()),
        None => format!("{}\nrecords=append\n", schema.line_header()),
    }
}

/// `record`'s marker line and its lines. A record is stored as its
/// `\n`-separated lines, so a missing final newline is added.
fn frame(record: &str) -> String {
    let lines: Vec<&str> = record.split_terminator('\n').collect();
    let (count, fnv) = (lines.len(), checksum(&lines));
    format!("record lines={count} fnv={fnv:016x}\n{}", join(&lines))
}

/// Atomically replaces `path` with `records` framed under `schema`,
/// creating the parent directory if needed. Syncs nothing.
pub fn write(path: &Path, schema: SchemaId, records: &[String]) -> FlowResult<()> {
    replace(path, schema, records, false).map(|_| ())
}

/// [`write()`], durably: the temp file is synced before the rename and
/// the directory after it, and so is the parent of every directory the
/// write had to create. Returns the file's size in bytes.
pub fn write_synced(path: &Path, schema: SchemaId, records: &[String]) -> FlowResult<u64> {
    replace(path, schema, records, true)
}

fn replace(path: &Path, schema: SchemaId, records: &[String], sync: bool) -> FlowResult<u64> {
    let mut out = header(schema, Some(records.len()));
    for record in records {
        out.push_str(&frame(record));
    }
    let mut bytes = out.into_bytes();
    if fault::fires("persist.torn_write") {
        bytes.truncate(bytes.len() * 3 / 5);
    }
    if let Some(dir) = path.parent() {
        create_dirs(dir, sync)?;
    }
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)?;
    if sync {
        sync_dir(path)?;
    }
    Ok(bytes.len() as u64)
}

/// Creates `dir` and its missing ancestors. With `sync`, also syncs the
/// parent of each directory it created, so that the new directories
/// survive an OS crash along with the file written into them.
fn create_dirs(dir: &Path, sync: bool) -> FlowResult<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.is_dir())
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    if sync {
        for created in missing {
            sync_dir(created)?;
        }
    }
    Ok(())
}

/// Syncs the directory holding `path`, so a name just created or
/// renamed there survives an OS crash.
fn sync_dir(path: &Path) -> FlowResult<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Appends `record` to the log at `path` under `schema` and syncs its
/// data before returning the log's new size in bytes, unless the log
/// would then exceed `limit` bytes: then it writes nothing and returns
/// `Ok(None)`. The first append creates the log, header included, and
/// syncs its directory so the new name survives an OS crash. [`read`]
/// reads a log like any other file.
pub fn append(path: &Path, schema: SchemaId, record: &str, limit: u64) -> FlowResult<Option<u64>> {
    let (file, mut bytes) = match File::options().append(true).open(path) {
        Ok(file) => (Some(file), String::new()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (None, header(schema, None)),
        Err(e) => return Err(e.into()),
    };
    let len = match &file {
        Some(file) => file.metadata()?.len(),
        None => 0,
    };
    bytes.push_str(&frame(record));
    let grown = len + bytes.len() as u64;
    if grown > limit {
        return Ok(None);
    }
    let created = file.is_none();
    let mut file = match file {
        Some(file) => file,
        None => File::options().append(true).create_new(true).open(path)?,
    };
    if fault::fires("persist.torn_append") {
        file.write_all(&bytes.as_bytes()[..bytes.len() * 3 / 5])?;
        return Err(FlowError::Io {
            detail: format!("{}: append torn before its sync", path.display()),
        });
    }
    file.write_all(bytes.as_bytes())?;
    file.sync_data()?;
    if created {
        sync_dir(path)?;
    }
    Ok(Some(grown))
}

/// Reads a file written by [`write()`], [`write_synced`] or [`append`]
/// under `schema`; `Ok(None)` when there is no file. Only I/O failures are errors: damage is reported
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
    // `Some(None)` for a log, which declares no count.
    let declared = match lines.as_slice() {
        [head, count, ..] if schema.matches_line(head) => match count.strip_prefix("records=") {
            Some("append") => Some(None),
            Some(n) => n.parse().ok().map(Some),
            None => None,
        },
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
    if let Some(declared) = declared.filter(|&n| markers < n) {
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
    fn synced_write_reads_back_like_a_plain_one() {
        let dir = tmp_dir("synced");
        // Two directory levels the write has to create.
        let path = dir.join("store").join("file.txt");
        let len = write_synced(&path, SCHEMA, &records()).unwrap();
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        let synced = std::fs::read(&path).unwrap();
        write(&path, SCHEMA, &records()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), synced);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appended_records_round_trip() {
        let dir = tmp_dir("append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.log");
        let mut last = 0;
        for record in records() {
            let len = append(&path, SCHEMA, &record, u64::MAX).unwrap().unwrap();
            assert!(len > last);
            assert_eq!(len, std::fs::metadata(&path).unwrap().len());
            last = len;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("flowcore-persist-test v1\nrecords=append\n"));
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records());
        assert!(contents.damage.is_empty());
        // A log frames its records exactly as a replaced file does.
        let whole = dir.join("file.txt");
        write(&whole, SCHEMA, &records()).unwrap();
        let whole = std::fs::read_to_string(&whole).unwrap();
        assert_eq!(
            text.split_once("records=append\n").unwrap().1,
            whole.split_once("records=3\n").unwrap().1
        );
        // One record read as a single-record file is still one record.
        std::fs::remove_file(&path).unwrap();
        append(&path, SCHEMA, "x=1", u64::MAX).unwrap();
        assert_eq!(read_one(&path, SCHEMA).unwrap().as_deref(), Some("x=1\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_refuses_to_grow_a_log_past_its_limit() {
        let dir = tmp_dir("limit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.log");
        let first = append(&path, SCHEMA, "a=1", u64::MAX).unwrap().unwrap();
        // The next record takes the same bytes as the first one's frame.
        let frame = first - header(SCHEMA, None).len() as u64;
        assert_eq!(
            append(&path, SCHEMA, "b=2", first + frame - 1).unwrap(),
            None
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first);
        assert_eq!(
            append(&path, SCHEMA, "b=2", first + frame).unwrap(),
            Some(first + frame)
        );
        // A refused first append creates no log.
        let fresh = dir.join("fresh.log");
        assert_eq!(append(&fresh, SCHEMA, "a=1", first - 1).unwrap(), None);
        assert!(!fresh.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_last_append_keeps_the_intact_prefix() {
        let dir = tmp_dir("torn-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.log");
        for record in records() {
            append(&path, SCHEMA, &record, u64::MAX).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Every cut inside the last record keeps the first two intact;
        // one that takes only the final newline loses nothing.
        let last = text.rfind("record lines=").unwrap();
        for cut in last + 1..text.len() - 1 {
            std::fs::write(&path, &text[..cut]).unwrap();
            let contents = read(&path, SCHEMA).unwrap().unwrap();
            assert_eq!(contents.records, records()[..2], "cut at {cut}");
            assert_eq!(contents.damage.len(), 1, "cut at {cut}");
        }
        // A cut at a record boundary is no damage: a log declares no
        // count, so nothing is known to be missing.
        std::fs::write(&path, &text[..last]).unwrap();
        let contents = read(&path, SCHEMA).unwrap().unwrap();
        assert_eq!(contents.records, records()[..2]);
        assert!(contents.damage.is_empty());
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
