//! CSV ingestion: load a directory of CSV files into a [`DataLake`].
//!
//! This is the path for pointing the system at real open-data dumps. Each
//! `*.csv` file becomes one table; an optional sidecar `<stem>.tags` file
//! (one tag label per line) carries the portal metadata tags. Columns are
//! classified as text or numeric by sampling values, and numeric columns
//! are skipped (the paper builds organizations over *text* attributes
//! only, §3.1: 26% of Socrata attributes are text but 92% of tables have
//! at least one).
//!
//! The parser is a minimal RFC-4180 subset implemented here to stay within
//! the allowed dependency set: quoted fields, embedded commas, doubled
//! quotes, and both `\n` / `\r\n` row terminators. It runs over a `&str`
//! validated once per file and yields fields borrowed from it; only a
//! quoted field with a doubled quote (or bytes after its closing quote)
//! needs an owned copy.
//!
//! [`ingest_dir`] works file-parallel: each worker reads, validates,
//! parses and classifies one file, reads its sidecar and accumulates each
//! text column's topic. The per-file results are then applied to the
//! report and the lake builder serially in sorted file order, so ids,
//! warnings and quarantine order do not depend on the thread count. The
//! `ingest.read` failpoint is keyed by the file's index in that order for
//! the same reason.

use std::borrow::Cow;
use std::io::BufRead;
use std::path::{Path, PathBuf};

use dln_embed::{is_numeric_value, EmbeddingModel, TopicAccumulator};
use dln_fault::DlnError;

use crate::builder::{embed_value, LakeBuilder};
use crate::model::DataLake;
use crate::values::{ValueStore, Values};

/// Options for CSV ingestion.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// A column is treated as text when at least this fraction of its
    /// non-empty values fail numeric parsing.
    pub text_threshold: f64,
    /// Maximum number of rows read per file (0 = unlimited).
    pub max_rows: usize,
    /// Whether the first row is a header of column names.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            text_threshold: 0.5,
            max_rows: 10_000,
            has_header: true,
        }
    }
}

/// Parse one CSV record from `input` starting at byte `pos`.
/// `width` is the expected field count (the previous record's).
/// Returns the fields, the position after the record, and whether the
/// record was terminated by EOF *inside* an open quote (an unbalanced
/// quote — the classic torn/truncated-CSV symptom). `None` at EOF.
///
/// A field opening with `"` is quoted (see [`quoted_field`]). An unquoted
/// field keeps every byte up to the next `,`, `\r` or `\n`, quotes
/// included.
fn parse_record(
    input: &str,
    mut pos: usize,
    width: usize,
) -> Option<(Vec<Cow<'_, str>>, usize, bool)> {
    let bytes = input.as_bytes();
    if pos >= bytes.len() {
        return None;
    }
    let mut fields = Vec::with_capacity(width);
    loop {
        if bytes.get(pos) == Some(&b'"') {
            let (field, end, eof_in_quotes) = quoted_field(input, pos + 1);
            fields.push(field);
            if eof_in_quotes {
                return Some((fields, end, true));
            }
            pos = end;
        } else {
            let end = separator_from(bytes, pos);
            fields.push(Cow::Borrowed(&input[pos..end]));
            pos = end;
        }
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'\r') => {
                pos += 1;
                if bytes.get(pos) == Some(&b'\n') {
                    pos += 1;
                }
                return Some((fields, pos, false));
            }
            Some(_) => return Some((fields, pos + 1, false)), // `\n`
            None => return Some((fields, pos, false)),
        }
    }
}

/// The position of the first `,`, `\r` or `\n` at or after `from`, or the
/// end of `bytes`.
fn separator_from(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|b| matches!(b, b',' | b'\r' | b'\n'))
        .map_or(bytes.len(), |i| from + i)
}

/// The quoted field whose content starts at `start` (just past its
/// opening quote): the content up to the next lone `"` with each `""`
/// unescaped, followed verbatim by any bytes between the closing quote and
/// the next separator. Returns the field, the position after it, and
/// whether EOF came before the closing quote (the field is then the
/// unescaped rest of `input`). The field borrows from `input` unless it
/// holds an escaped quote or bytes after its closing quote.
fn quoted_field(input: &str, start: usize) -> (Cow<'_, str>, usize, bool) {
    let bytes = input.as_bytes();
    // The unescaped content before `seg`, once an escape forces a copy.
    let mut owned: Option<String> = None;
    let mut seg = start;
    loop {
        let Some(close) = bytes[seg..].iter().position(|&b| b == b'"') else {
            let field = match owned {
                Some(mut o) => {
                    o.push_str(&input[seg..]);
                    Cow::Owned(o)
                }
                None => Cow::Borrowed(&input[seg..]),
            };
            return (field, bytes.len(), true);
        };
        let close = seg + close;
        if bytes.get(close + 1) == Some(&b'"') {
            owned
                .get_or_insert_with(String::new)
                .push_str(&input[seg..=close]);
            seg = close + 2;
            continue;
        }
        let end = separator_from(bytes, close + 1);
        let field = match owned {
            None if end == close + 1 => Cow::Borrowed(&input[seg..close]),
            owned => {
                let mut o = owned.unwrap_or_default();
                o.push_str(&input[seg..close]);
                o.push_str(&input[close + 1..end]);
                Cow::Owned(o)
            }
        };
        return (field, end, false);
    }
}

/// Parse a whole CSV text into rows of borrowed fields, skipping blank
/// lines; the flag reports an unbalanced quote at EOF.
fn parse_rows(input: &str) -> (Vec<Vec<Cow<'_, str>>>, bool) {
    let mut rows = Vec::new();
    let mut pos = 0usize;
    let mut unbalanced = false;
    let mut width = 1;
    while let Some((fields, next, eof_in_quotes)) = parse_record(input, pos, width) {
        unbalanced |= eof_in_quotes;
        if !(fields.len() == 1 && fields[0].is_empty()) {
            width = fields.len();
            rows.push(fields);
        }
        pos = next;
    }
    (rows, unbalanced)
}

/// A parsed table before lake insertion.
#[derive(Clone, Debug)]
struct ParsedTable {
    /// Table name (file stem).
    name: String,
    /// Text columns: `(column name, values)`; numeric columns are skipped.
    text_columns: Vec<(String, Values)>,
}

/// Classify and extract the text columns of a parsed CSV. Each kept value
/// is trimmed and appended to its column's [`Values`], the buffer the
/// value store keeps, so extraction allocates per column, not per value.
///
/// # Panics
/// When one column's values exceed `u32::MAX` bytes (see [`Values`]).
fn extract_text_columns<S: AsRef<str>>(
    name: &str,
    rows: &[Vec<S>],
    opts: &CsvOptions,
) -> ParsedTable {
    let mut table = ParsedTable {
        name: name.to_string(),
        text_columns: Vec::new(),
    };
    let Some(first) = rows.first() else {
        return table;
    };
    let (header, data_rows): (Vec<String>, &[Vec<S>]) = if opts.has_header {
        (
            first.iter().map(|h| h.as_ref().to_string()).collect(),
            &rows[1..],
        )
    } else {
        ((0..first.len()).map(|i| format!("col{i}")).collect(), rows)
    };
    let limit = if opts.max_rows == 0 {
        data_rows.len()
    } else {
        data_rows.len().min(opts.max_rows)
    };
    // One column's trimmed non-empty values, borrowed from `rows`, so each
    // column's `Values` is allocated once at its exact size.
    let mut kept: Vec<&str> = Vec::with_capacity(limit);
    for (ci, col_name) in header.into_iter().enumerate() {
        kept.clear();
        let mut numeric = 0usize;
        for row in &data_rows[..limit] {
            let Some(v) = row.get(ci) else { continue };
            let v = v.as_ref().trim();
            if v.is_empty() {
                continue;
            }
            if is_numeric_value(v) {
                numeric += 1;
            }
            kept.push(v);
        }
        if kept.is_empty() {
            continue;
        }
        let bytes = kept.iter().map(|v| v.len()).sum();
        let mut values = Values::with_capacity(kept.len(), bytes);
        for v in &kept {
            values.push(v);
        }
        let text_fraction = 1.0 - numeric as f64 / values.len() as f64;
        if text_fraction >= opts.text_threshold {
            table.text_columns.push((col_name, values));
        }
    }
    table
}

/// Per-category quarantine counters for one ingest run.
///
/// Real lakes are messy (the paper's Socrata crawl, metadata-system
/// surveys): unreadable files, truncated CSVs, binary junk with a `.csv`
/// extension. The ingest path never aborts on such inputs — it quarantines
/// them, counts them here, and logs a one-line warning per victim, so a
/// 7.5k-table build survives its dirty 1%.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Tables that entered the lake.
    pub tables_loaded: usize,
    /// Parsed fine but had no text column (§3.1: text attributes only).
    pub tables_without_text: usize,
    /// Directory entries `read_dir` could not stat/yield.
    pub unreadable_dir_entries: usize,
    /// CSV files whose bytes could not be read (IO error).
    pub io_errors: usize,
    /// CSV files rejected for invalid UTF-8 content.
    pub invalid_utf8: usize,
    /// CSV files rejected as structurally malformed (unbalanced quotes /
    /// truncated quoted field) or larger than 4 GiB.
    pub malformed_csv: usize,
    /// Sidecar `.tags` files that existed but could not be read (the table
    /// still loads, tagged with its own name).
    pub tag_sidecar_errors: usize,
    /// Paths quarantined, with a one-line reason each (same order as the
    /// warnings emitted during the run).
    pub quarantined: Vec<(String, String)>,
}

impl IngestReport {
    /// Total inputs quarantined (files skipped entirely).
    pub fn total_quarantined(&self) -> usize {
        self.io_errors + self.invalid_utf8 + self.malformed_csv
    }

    fn quarantine(&mut self, path: &Path, kind: Quarantine, reason: String) {
        match kind {
            Quarantine::Io => self.io_errors += 1,
            Quarantine::InvalidUtf8 => self.invalid_utf8 += 1,
            Quarantine::Malformed => self.malformed_csv += 1,
        }
        eprintln!("warning: quarantined {}: {reason}", path.display());
        self.quarantined.push((path.display().to_string(), reason));
    }
}

/// Why a CSV file was skipped entirely (one [`IngestReport`] counter each).
#[derive(Clone, Copy, Debug)]
enum Quarantine {
    Io,
    InvalidUtf8,
    Malformed,
}

/// Result of [`ingest_dir`]: the lake catalog, the raw values of its
/// attributes, and the quarantine report.
#[derive(Debug)]
pub struct Ingest {
    /// The text-attribute lake catalog.
    pub lake: DataLake,
    /// Every text attribute's values (trimmed, non-empty, in row order),
    /// one entry per attribute of `lake`.
    pub values: ValueStore,
    /// What was loaded, skipped, and quarantined.
    pub report: IngestReport,
}

/// Load every `*.csv` under `dir` (non-recursive) into a lake, embedding
/// values with `model`. Sidecar `<stem>.tags` files supply table tags; a
/// table without a sidecar gets a single tag equal to its name (open-data
/// portals always expose at least the dataset title as a keyword).
///
/// Unreadable / malformed files are quarantined into the [`IngestReport`]
/// instead of aborting. Only a failure to list `dir` itself is fatal.
///
/// Files are read, parsed and embedded in parallel (one file per task) and
/// applied to the lake in sorted path order, so the result is identical
/// for every thread count.
///
/// Fault-injection site `ingest.read` (see `dln-fault`): when armed, a
/// successful file read is turned into a synthetic IO error, exercising the
/// quarantine path deterministically. The draw is keyed by the file's
/// index in sorted order, so the schedule does not depend on which worker
/// reads the file or when.
pub fn ingest_dir<M: EmbeddingModel>(
    dir: &Path,
    model: &M,
    opts: &CsvOptions,
) -> Result<Ingest, DlnError> {
    let mut report = IngestReport::default();
    let mut builder = LakeBuilder::new(model.dim());
    let mut values = ValueStore::new();
    let listing = std::fs::read_dir(dir)
        .map_err(|e| DlnError::io(format!("listing {}", dir.display()), e))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in listing {
        match entry {
            Ok(e) => entries.push(e.path()),
            Err(e) => {
                // An entry the OS yielded but could not stat: count it
                // instead of silently dropping it (it used to be a
                // `.filter_map(Result::ok)`).
                report.unreadable_dir_entries += 1;
                eprintln!(
                    "warning: unreadable directory entry under {}: {e}",
                    dir.display()
                );
            }
        }
    }
    entries.retain(|p| p.extension().is_some_and(|e| e == "csv"));
    entries.sort();
    let files = rayon::par_map(entries.len(), |i| ingest_file(i, &entries[i], model, opts));
    for (path, file) in entries.iter().zip(files) {
        let table = match file {
            Ok(table) => table,
            Err((kind, reason)) => {
                report.quarantine(path, kind, reason);
                continue;
            }
        };
        if let Some(warning) = table.sidecar_warning {
            report.tag_sidecar_errors += 1;
            eprintln!("{warning}");
        }
        if table.text.is_empty() {
            report.tables_without_text += 1;
            continue; // no organizable content (§3.1: text attributes only)
        }
        let t = builder.begin_table(&table.name);
        for tag in &table.tags {
            builder.add_tag(t, tag);
        }
        for col in table.text {
            let n_values = col.values.len() as u32;
            builder.try_add_attribute_raw(t, &col.name, col.topic, n_values)?;
            values.push(col.values);
        }
        report.tables_loaded += 1;
    }
    Ok(Ingest {
        lake: builder.build(),
        values,
        report,
    })
}

/// What one CSV file contributes to the lake, computed on a worker.
struct FileTable {
    name: String,
    /// Sidecar tags, or the table name when there are none.
    tags: Vec<String>,
    /// The warning to print when the sidecar existed but was unreadable.
    sidecar_warning: Option<String>,
    text: Vec<TextColumn>,
}

/// A text column with its topic accumulated in value-then-token order.
struct TextColumn {
    name: String,
    topic: TopicAccumulator,
    values: Values,
}

/// Read, validate, parse, classify and embed the `index`-th CSV file.
fn ingest_file<M: EmbeddingModel>(
    index: usize,
    path: &Path,
    model: &M,
    opts: &CsvOptions,
) -> Result<FileTable, (Quarantine, String)> {
    let bytes = match std::fs::read(path) {
        Ok(_) if dln_fault::should_fail_keyed("ingest.read", index as u64) => {
            return Err((Quarantine::Io, "injected IO fault (ingest.read)".into()));
        }
        Ok(b) => b,
        Err(e) => return Err((Quarantine::Io, format!("read failed: {e}"))),
    };
    // A column's values are a subset of the file's bytes, so this bound
    // keeps every column within the `u32` offsets of its `Values`.
    if u32::try_from(bytes.len()).is_err() {
        return Err((Quarantine::Malformed, "file larger than 4 GiB".into()));
    }
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return Err((Quarantine::InvalidUtf8, "invalid UTF-8 content".into()));
    };
    let (rows, unbalanced) = parse_rows(text);
    if unbalanced {
        return Err((
            Quarantine::Malformed,
            "unbalanced quote (truncated or corrupt CSV)".into(),
        ));
    }
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string());
    let parsed = extract_text_columns(&stem, &rows, opts);
    drop(rows);
    drop(bytes);

    let mut tags = Vec::new();
    let mut sidecar_warning = None;
    let tags_path = path.with_extension("tags");
    if tags_path.exists() {
        match read_tag_sidecar(&tags_path) {
            Ok(t) => tags = t,
            // The table itself is fine; fall back to the stem tag.
            Err(e) => {
                sidecar_warning = Some(format!(
                    "warning: unreadable tag sidecar {}: {e} (using table name)",
                    tags_path.display()
                ));
            }
        }
    }
    if tags.is_empty() {
        tags.push(stem);
    }
    let mut token = String::new();
    let text = parsed
        .text_columns
        .into_iter()
        .map(|(name, values)| {
            let mut topic = TopicAccumulator::new(model.dim());
            for v in values.iter() {
                embed_value(model, v, &mut token, &mut topic);
            }
            TextColumn {
                name,
                topic,
                values,
            }
        })
        .collect();
    Ok(FileTable {
        name: parsed.name,
        tags,
        sidecar_warning,
        text,
    })
}

fn read_tag_sidecar(path: &Path) -> std::io::Result<Vec<String>> {
    let f = std::fs::File::open(path)?;
    let mut tags = Vec::new();
    for line in std::io::BufReader::new(f).lines() {
        let line = line?;
        let t = line.trim();
        if !t.is_empty() {
            tags.push(t.to_string());
        }
    }
    Ok(tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_embed::{SyntheticEmbedding, VocabularyConfig};

    /// Parse an entire CSV byte buffer into rows of owned fields, and
    /// whether it ended inside an open quote.
    fn parse_csv_checked(input: &[u8]) -> (Vec<Vec<String>>, bool) {
        let (rows, unbalanced) = parse_rows(std::str::from_utf8(input).unwrap());
        let rows = rows
            .into_iter()
            .map(|row| row.into_iter().map(Cow::into_owned).collect())
            .collect();
        (rows, unbalanced)
    }

    fn parse_csv(input: &[u8]) -> Vec<Vec<String>> {
        parse_csv_checked(input).0
    }

    #[test]
    fn parses_simple_rows() {
        let rows = parse_csv(b"a,b,c\n1,2,3\n");
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parses_quoted_fields_with_commas_and_quotes() {
        let rows = parse_csv(b"name,desc\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
        assert_eq!(rows[1], vec!["Smith, John", "said \"hi\""]);
    }

    #[test]
    fn parses_crlf_and_skips_blank_lines() {
        let rows = parse_csv(b"a,b\r\n\r\n1,2\r\n");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn parses_quoted_newline() {
        let rows = parse_csv(b"a\n\"line1\nline2\"\n");
        assert_eq!(rows[1], vec!["line1\nline2"]);
    }

    #[test]
    fn last_record_without_trailing_newline() {
        let rows = parse_csv(b"a,b\n1,2");
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn text_column_detection() {
        let rows = parse_csv(b"city,pop,mixed\nboston,61000,12\nottawa,99000,ok\n");
        let t = extract_text_columns("t", &rows, &CsvOptions::default());
        let names: Vec<&str> = t.text_columns.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["city", "mixed"]);
    }

    #[test]
    fn empty_rows_give_empty_table() {
        let t = extract_text_columns::<String>("t", &[], &CsvOptions::default());
        assert!(t.text_columns.is_empty());
    }

    #[test]
    fn load_dir_with_sidecar_tags() {
        let m = SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 2,
            words_per_topic: 4,
            dim: 8,
            sigma: 0.3,
            seed: 4,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        });
        let w0 = m.vocab().word(dln_embed::TokenId(0)).to_string();
        let w1 = m.vocab().word(dln_embed::TokenId(4)).to_string();
        let dir = std::env::temp_dir().join(format!("dln_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("alpha.csv"), format!("col\n{w0}\n{w0}\n")).unwrap();
        std::fs::write(dir.join("alpha.tags"), "health\nfood safety\n").unwrap();
        std::fs::write(dir.join("beta.csv"), format!("c1,c2\n{w1},7\n{w1},9\n")).unwrap();
        std::fs::write(dir.join("ignore.txt"), "not a csv").unwrap();
        let _fp = dln_fault::scoped("").unwrap();
        let lake = ingest_dir(&dir, &m, &CsvOptions::default()).unwrap().lake;
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(lake.n_tables(), 2);
        assert!(lake.tag_by_label("health").is_some());
        assert!(lake.tag_by_label("food safety").is_some());
        // beta has no sidecar → tagged with its own name; numeric c2 skipped.
        assert!(lake.tag_by_label("beta").is_some());
        let beta = lake
            .tables()
            .iter()
            .find(|t| t.name == "beta")
            .expect("beta table present");
        assert_eq!(beta.attrs.len(), 1);
    }

    #[test]
    fn parse_csv_checked_flags_unbalanced_quote() {
        let (rows, unbalanced) = parse_csv_checked(b"a,b\n\"truncated mid-fie");
        assert!(unbalanced, "EOF inside an open quote must be flagged");
        assert_eq!(rows.len(), 2, "partial rows are still returned");
        let (_, balanced) = parse_csv_checked(b"a,b\n\"ok, quoted\",2\n");
        assert!(!balanced);
    }

    #[test]
    fn malformed_inputs_are_quarantined_not_fatal() {
        let m = SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 2,
            words_per_topic: 4,
            dim: 8,
            sigma: 0.3,
            seed: 4,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        });
        let w0 = m.vocab().word(dln_embed::TokenId(0)).to_string();
        let dir = std::env::temp_dir().join(format!("dln_csv_quar_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One healthy table, one binary-junk file, one truncated quoted file.
        std::fs::write(dir.join("good.csv"), format!("col\n{w0}\n{w0}\n")).unwrap();
        std::fs::write(dir.join("junk.csv"), [0xFFu8, 0xFE, 0x00, 0x41]).unwrap();
        std::fs::write(dir.join("torn.csv"), b"col\n\"cut mid-quo").unwrap();
        let _fp = dln_fault::scoped("").unwrap();
        let ingest = ingest_dir(&dir, &m, &CsvOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(ingest.lake.n_tables(), 1, "only the healthy table loads");
        assert_eq!(ingest.report.tables_loaded, 1);
        assert_eq!(ingest.report.invalid_utf8, 1);
        assert_eq!(ingest.report.malformed_csv, 1);
        assert_eq!(ingest.report.total_quarantined(), 2);
        assert_eq!(ingest.report.quarantined.len(), 2);
        assert!(ingest
            .report
            .quarantined
            .iter()
            .any(|(p, _)| p.ends_with("junk.csv")));
    }

    #[test]
    fn injected_read_fault_quarantines_deterministically() {
        let m = SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 2,
            words_per_topic: 4,
            dim: 8,
            sigma: 0.3,
            seed: 4,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        });
        let w0 = m.vocab().word(dln_embed::TokenId(0)).to_string();
        let dir = std::env::temp_dir().join(format!("dln_csv_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["a", "b", "c", "d"] {
            std::fs::write(dir.join(format!("{name}.csv")), format!("col\n{w0}\n")).unwrap();
        }
        let run = |spec: &str| {
            let _fp = dln_fault::scoped(spec).unwrap();
            ingest_dir(&dir, &m, &CsvOptions::default()).unwrap()
        };
        let all_fail = run("ingest.read:1.0:0");
        assert_eq!(all_fail.report.io_errors, 4);
        assert_eq!(all_fail.lake.n_tables(), 0);
        let some = run("ingest.read:0.5:9");
        let again = run("ingest.read:0.5:9");
        assert_eq!(
            some.report, again.report,
            "same failpoint seed, same quarantine outcome"
        );
        assert_eq!(some.report.io_errors + some.report.tables_loaded, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_ingest_is_thread_count_invariant() {
        let m = SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 2,
            words_per_topic: 4,
            dim: 8,
            sigma: 0.3,
            seed: 4,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        });
        let words: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let dir = std::env::temp_dir().join(format!("dln_csv_threads_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..16 {
            let (a, b) = (&words[i % words.len()], &words[(i * 3 + 1) % words.len()]);
            let body = format!("name,kind,n\n{a},{b} x,{i}\n{b},{a},{}\n", i + 1);
            std::fs::write(dir.join(format!("t{i:02}.csv")), body).unwrap();
        }
        std::fs::write(dir.join("t16.csv"), b"col\n\"torn").unwrap();
        let _fp = dln_fault::scoped("ingest.read:0.5:9").unwrap();
        let run = |threads: usize| {
            let ingest = rayon::with_num_threads(threads, || {
                ingest_dir(&dir, &m, &CsvOptions::default()).unwrap()
            });
            let lake = &ingest.lake;
            let image = format!(
                "{:?}{:?}{:?}{:?}",
                lake.tables(),
                lake.attrs(),
                lake.tags(),
                ingest.values
            );
            (ingest.report, image)
        };
        let (serial, serial_lake) = run(1);
        let (parallel, parallel_lake) = run(4);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            serial.io_errors > 0 && serial.tables_loaded > 0,
            "{serial:?}"
        );
        assert_eq!(serial, parallel, "same report and quarantine order");
        assert_eq!(serial_lake, parallel_lake, "same lake");
    }

    /// A small lake directory: tags in sidecars (shared and reordered
    /// across tables), blank, short and quoted cells, a numeric column and
    /// an all-numeric table.
    fn messy_dir(m: &SyntheticEmbedding, name: &str) -> PathBuf {
        let w: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let dir = std::env::temp_dir().join(format!("dln_csv_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let files = [
            (
                "alpha",
                format!(
                    "name,n,kind\n {} ,1,{}\n,2,\"{}, {}\"\n{},3\n{},4,{}\n",
                    w[0], w[1], w[2], w[3], w[4], w[5], w[6]
                ),
                "zeta\nhealth\n",
            ),
            (
                "beta",
                format!("c\n{}\n\n{}\n", w[7], w[0]),
                "health\nfood\nzeta\n",
            ),
            ("gamma", "n\n1\n2\n".to_string(), "numbers\n"),
            ("delta", format!("a,b\n{},{}\n", w[1], w[2]), ""),
        ];
        for (table, body, tags) in files {
            std::fs::write(dir.join(format!("{table}.csv")), body).unwrap();
            if !tags.is_empty() {
                std::fs::write(dir.join(format!("{table}.tags")), tags).unwrap();
            }
        }
        dir
    }

    fn messy_model() -> SyntheticEmbedding {
        SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 2,
            words_per_topic: 4,
            dim: 8,
            sigma: 0.3,
            seed: 4,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        })
    }

    #[test]
    fn ingest_stores_every_text_value_in_row_order() {
        let m = messy_model();
        let w: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let dir = messy_dir(&m, "values");
        let _fp = dln_fault::scoped("").unwrap();
        let ingest = ingest_dir(&dir, &m, &CsvOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lake = &ingest.lake;
        assert_eq!(ingest.values.len(), lake.n_attrs());
        for aid in lake.attr_ids() {
            let a = lake.attr(aid);
            assert_eq!(
                ingest.values.get(aid).len(),
                a.n_values as usize,
                "{}",
                a.name
            );
        }
        let stored = |table: &str, col: &str| -> Vec<String> {
            let aid = lake
                .attr_ids()
                .find(|&a| lake.table(lake.attr(a).table).name == table && lake.attr(a).name == col)
                .unwrap_or_else(|| panic!("{table}.{col} ingested"));
            ingest.values.get(aid).iter().map(str::to_string).collect()
        };
        // Trimmed, blank and missing cells skipped, quoted commas kept.
        assert_eq!(
            stored("alpha", "name"),
            [&w[0], &w[4], &w[5]].map(String::as_str)
        );
        let quoted = format!("{}, {}", w[2], w[3]);
        assert_eq!(
            stored("alpha", "kind"),
            [&w[1], &quoted, &w[6]].map(String::as_str)
        );
        assert_eq!(stored("beta", "c"), [&w[7], &w[0]].map(String::as_str));
        assert_eq!(stored("delta", "b"), [w[2].as_str()]);
        assert_eq!(
            lake.n_attrs(),
            5,
            "numeric columns and the numeric table stay out"
        );
    }

    #[test]
    fn replay_of_an_ingested_lake_reproduces_its_catalog() {
        let m = messy_model();
        let dir = messy_dir(&m, "replay");
        let _fp = dln_fault::scoped("").unwrap();
        let ingest = ingest_dir(&dir, &m, &CsvOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let (replayed, stats) = crate::cdc::replay(&ingest.lake, []);
        assert_eq!(stats, crate::cdc::ReplayStats::default());
        // Labels and their order, `attr_tags`, topic bits and `n_values`.
        assert_eq!(
            crate::model::catalog_lines(&replayed),
            crate::model::catalog_lines(&ingest.lake)
        );
    }
}
