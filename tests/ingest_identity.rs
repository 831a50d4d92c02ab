//! Golden image of CSV ingest.
//!
//! A messy lake directory (quoting edge cases, CRLF, blank lines, a
//! header-only file, a numeric-only table, currency and percent numerics,
//! non-ASCII tokens, a torn file, a binary file and an unreadable tag
//! sidecar) is ingested and the lake, its attribute values and the report
//! with its quarantine list in order are folded into one FNV-1a digest.
//! The pinned value was produced by a one-file-at-a-time ingest on one
//! thread; the file-parallel ingest must reproduce it at every thread
//! count, so any change to parsing, classification, tokenization, topic
//! accumulation or id assignment shows up here.

use std::path::{Path, PathBuf};

use datalake_nav::embed::VecFileModel;
use datalake_nav::lake::csv::{ingest_dir, CsvOptions, Ingest};

/// Digest of the fixture lake's ingest.
const INGEST_DIGEST: u64 = 0xaaaf_f182_7da5_4fc1;

/// A tiny `.vec` model whose words cover the fixture's text values,
/// including the lowercased forms of the non-ASCII tokens.
const MODEL: &str = "\
12 4
harbor 0.5 -1.25 2.0 0.125
river 1.5 0.75 -0.5 3.0
smith -2.0 0.25 1.0 0.5
john 0.0 1.0 -1.0 2.5
hi 3.25 -0.75 0.5 -1.5
market 0.3 0.1 -0.7 1.1
straße 1.0 2.0 3.0 4.0
i\u{307}stanbul -1.0 0.5 -0.25 0.75
σίσυφοσ 0.2 0.4 0.6 0.8
٣٤٥ -0.3 -0.6 0.9 1.2
agency 2.5 -2.5 0.1 -0.1
t3w12 0.7 0.7 -0.7 -0.7
";

fn write_fixture(dir: &Path) {
    let files: [(&str, &[u8]); 9] = [
        (
            "a_quoted.csv",
            b"name,desc,amount\r\n\
              \"Smith, John\",\"said \"\"hi\"\" at the harbor\",\"$1,200\"\r\n\
              \r\n\
              river,\"two\nlines\",45%\r\n\
              \"market\"x,plain \"quote\" inside,12\r\n\
              agency,,\"\"\r\n\
              \n\
              harbor river,\"\"\"lead\",7\n",
        ),
        ("b_header_only.csv", b"name,desc\n"),
        (
            "c_numeric.csv",
            b"count,price,share\n1,$3.50,10%\n2,\xe2\x82\xac4.25,12.5%\n3,\xc2\xa35,7%\n",
        ),
        (
            "d_unicode.csv",
            "city,word,code\n\
             Straße,ΣΊΣΥΦΟΣ,٣٤٥\n\
             İstanbul,σίσυφος river,t3w12\n\
             harbor,١٢٣ market,-\n"
                .as_bytes(),
        ),
        ("e_torn.csv", b"name\nharbor\n\"cut mid-quo"),
        ("f_binary.csv", &[0xFF, 0xFE, 0x00, 0x41, 0x0A]),
        ("g_sidecar_dir.csv", b"label\nhi\nsmith\n"),
        ("a_quoted.tags", b"maritime\n\n  public works  \n"),
        ("d_unicode.tags", "geography\nΣΊΣΥΦΟΣ\n".as_bytes()),
    ];
    for (name, body) in files {
        std::fs::write(dir.join(name), body).expect("write fixture file");
    }
    std::fs::write(dir.join("notes.txt"), b"not a table").expect("write fixture file");
    // A sidecar path that is a directory: it exists but cannot be read.
    std::fs::create_dir_all(dir.join("g_sidecar_dir.tags")).expect("create sidecar dir");
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dln_ingest_identity_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// 64-bit FNV-1a over length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
    fn ids<T: Copy>(&mut self, ids: &[T], index: impl Fn(T) -> usize) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.u64(index(id) as u64);
        }
    }
}

fn digest(ingest: &Ingest) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let lake = &ingest.lake;
    h.u64(lake.dim() as u64);
    for table in lake.tables() {
        h.str(&table.name);
        h.ids(&table.attrs, |a| a.index());
        h.ids(&table.tags, |t| t.index());
    }
    for (i, attr) in lake.attrs().iter().enumerate() {
        let id = datalake_nav::lake::AttrId(i as u32);
        let values = ingest.values.get(id);
        h.str(&attr.name);
        h.u64(attr.table.index() as u64);
        h.f32s(attr.topic.sum());
        h.u64(attr.topic.count());
        h.f32s(&attr.unit_topic);
        h.u64(u64::from(attr.n_values));
        h.u64(values.len() as u64);
        for v in values.iter() {
            h.str(v);
        }
        h.ids(lake.attr_tags(id), |t| t.index());
    }
    for tag in lake.tags() {
        h.str(&tag.label);
        h.ids(&tag.attrs, |a| a.index());
        h.ids(&tag.tables, |t| t.index());
        h.f32s(tag.topic.sum());
        h.u64(tag.topic.count());
        h.f32s(&tag.unit_topic);
    }
    let r = &ingest.report;
    for n in [
        r.tables_loaded,
        r.tables_without_text,
        r.unreadable_dir_entries,
        r.io_errors,
        r.invalid_utf8,
        r.malformed_csv,
        r.tag_sidecar_errors,
    ] {
        h.u64(n as u64);
    }
    h.u64(r.quarantined.len() as u64);
    for (path, reason) in &r.quarantined {
        let file = Path::new(path)
            .file_name()
            .expect("quarantined path names a file");
        h.str(&file.to_string_lossy());
        h.str(reason);
    }
    h.0
}

#[test]
fn messy_lake_ingests_to_the_pinned_digest_at_any_thread_count() {
    let dir = tmp_dir();
    write_fixture(&dir);
    let model = VecFileModel::from_reader(MODEL.as_bytes()).expect("fixture model");
    let _fp = dln_fault::scoped("").expect("disarm failpoints");
    for threads in [1, 2, 4] {
        let ingest = rayon::with_num_threads(threads, || {
            ingest_dir(&dir, &model, &CsvOptions::default()).expect("ingest")
        });
        let r = &ingest.report;
        assert_eq!(
            (r.tables_loaded, r.tables_without_text, r.tag_sidecar_errors),
            (3, 2, 1),
            "{r:?}"
        );
        assert_eq!((r.invalid_utf8, r.malformed_csv), (1, 1), "{r:?}");
        assert_eq!(
            digest(&ingest),
            INGEST_DIGEST,
            "digest at {threads} threads: {:#018x}",
            digest(&ingest)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
