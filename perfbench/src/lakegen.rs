//! The seeded on-disk lake every workload starts from.
//!
//! One `.vec` embedding model plus one CSV file and one `.tags` sidecar
//! per table, written under a root directory. The program under test
//! only ever sees these files. Structure that clustering and search can
//! find:
//!
//! * topics come in domains: topic centers sit around their domain's
//!   center and word vectors around their topic's, so a column's embedded
//!   values point at its topic, and topics of a domain are close;
//! * each table has a primary topic; topic sizes follow a Zipf law, so a
//!   few topics hold many tables; most columns come from the primary
//!   topic or a neighbouring topic of the same domain;
//! * every tag belongs to one topic; a table's first tag comes from its
//!   topic's tags (Zipf over that list), further tags from a global Zipf
//!   over all tags or from a neighbouring topic, so tag sizes are skewed
//!   and tags correlate with topics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Size of a generated lake.
#[derive(Clone, Copy, Debug)]
pub struct LakeSpec {
    /// CSV files (one table each).
    pub tables: usize,
    /// Text columns per table.
    pub cols: usize,
    /// Data rows per table.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Topic centers.
    pub topics: usize,
    /// Distinct tag labels available, at least `topics` (the lake uses
    /// most of them).
    pub tags: usize,
}

const WORDS_PER_TOPIC: usize = 30;
/// Topics per domain: topics of one domain share a direction.
const TOPICS_PER_DOMAIN: usize = 8;

/// A lake written to disk, plus what the benchmark itself needs to know
/// about it (never handed to the program).
pub struct Corpus {
    /// Directory holding the CSV files and `.tags` sidecars.
    pub lake_dir: PathBuf,
    /// The `.vec` model file.
    pub vec_path: PathBuf,
    /// Unit-length topic centers, used to make session queries.
    pub centers: Vec<Vec<f32>>,
    /// FNV-1a digest over every file name and byte, in write order.
    pub digest: u64,
    /// Bytes of CSV written.
    pub csv_bytes: u64,
    /// CSV files written.
    pub files: usize,
}

/// SplitMix64: the benchmark's own randomness, a pure function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn signed(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Zipf over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `0..n` (`n` ≥ 1) with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(rng.unit())
    }

    /// The rank at cumulative probability `u` in [0, 1).
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A low-discrepancy sequence in [0, 1) from a random offset: draws
/// spread evenly, so counts per stratum track the target law.
struct Strata {
    at: f64,
}

impl Strata {
    fn new(rng: &mut Rng) -> Strata {
        Strata { at: rng.unit() }
    }

    fn next(&mut self) -> f64 {
        // Golden-ratio (Weyl) step.
        self.at = (self.at + 0.618_033_988_749_894_9).fract();
        self.at
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        v.iter_mut().for_each(|x| *x /= n);
    }
}

/// Write the lake for `seed` under `root` (which must exist).
pub fn write_lake(root: &Path, spec: &LakeSpec, seed: u64) -> std::io::Result<Corpus> {
    let lake_dir = root.join("lake");
    std::fs::create_dir_all(&lake_dir)?;
    let mut rng = Rng::new(seed, 1);
    let mut digest = FNV_BASIS;
    let mut put = |path: &Path, text: &str| -> std::io::Result<()> {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        digest = fnv1a(digest, name.unwrap_or_default().as_bytes());
        digest = fnv1a(digest, text.as_bytes());
        std::fs::write(path, text)
    };

    // Two levels of topical structure: domain centers, topic centers
    // around their domain's, then jittered word vectors around each topic.
    let domains: Vec<Vec<f32>> = (0..spec.topics.div_ceil(TOPICS_PER_DOMAIN))
        .map(|_| (0..spec.dim).map(|_| rng.signed()).collect())
        .collect();
    let mut centers: Vec<Vec<f32>> = (0..spec.topics)
        .map(|t| {
            domains[t / TOPICS_PER_DOMAIN]
                .iter()
                .map(|x| x + 0.6 * rng.signed())
                .collect()
        })
        .collect();
    let vec_path = root.join("model.vec");
    let mut text = String::new();
    for (t, c) in centers.iter().enumerate() {
        for w in 0..WORDS_PER_TOPIC {
            let _ = write!(text, "t{t}w{w}");
            for x in c {
                let _ = write!(text, " {}", x + 0.25 * rng.signed());
            }
            text.push('\n');
        }
    }
    put(&vec_path, &text)?;
    for c in &mut centers {
        normalize(c);
    }

    // Tag j belongs to topic j % topics.
    let tags_of: Vec<Vec<usize>> = (0..spec.topics)
        .map(|t| (t..spec.tags).step_by(spec.topics).collect())
        .collect();
    let topic_zipf = Zipf::new(spec.topics, 0.8);
    let global_tag_zipf = Zipf::new(spec.tags, 1.0);
    let local_tag_zipf: Vec<Zipf> = tags_of.iter().map(|l| Zipf::new(l.len(), 1.0)).collect();
    let mut local_seq: Vec<Strata> = (0..spec.topics).map(|_| Strata::new(&mut rng)).collect();
    let mut global_seq = Strata::new(&mut rng);
    // A topic's neighbour: the next topic of the same domain.
    let neighbour = |t: usize, step: usize| {
        let base = t - t % TOPICS_PER_DOMAIN;
        let width = TOPICS_PER_DOMAIN.min(spec.topics - base);
        base + (t - base + step) % width
    };
    let mut csv_bytes = 0u64;
    for ti in 0..spec.tables {
        // Stratified: the topics' table counts follow the Zipf law exactly.
        let primary = topic_zipf.quantile((ti as f64 + 0.5) / spec.tables as f64);
        let col_topics: Vec<usize> = (0..spec.cols)
            .map(|_| match rng.below(10) {
                0..=5 => primary,
                6..=8 => neighbour(primary, 1 + rng.below(2)),
                _ => rng.below(spec.topics),
            })
            .collect();
        text.clear();
        let header: Vec<String> = (0..spec.cols).map(|c| format!("col_{c}")).collect();
        text.push_str(&header.join(","));
        text.push('\n');
        for _ in 0..spec.rows {
            for (c, &t) in col_topics.iter().enumerate() {
                if c > 0 {
                    text.push(',');
                }
                let _ = write!(text, "t{t}w{}", rng.below(WORDS_PER_TOPIC));
            }
            text.push('\n');
        }
        csv_bytes += text.len() as u64;
        put(&lake_dir.join(format!("table_{ti:05}.csv")), &text)?;

        // Tags: the first from the primary topic's own list, then
        // `ti % 3` more, alternating a global tag and a tag of a neighbouring
        // topic. Every draw walks a low-discrepancy sequence from a seeded
        // offset, so tag sizes follow the Zipf laws closely while the seed
        // decides which tables share a tag.
        let mut tags =
            vec![tags_of[primary][local_tag_zipf[primary].quantile(local_seq[primary].next())]];
        for j in 0..ti % 3 {
            let extra = if j == 0 {
                global_tag_zipf.quantile(global_seq.next())
            } else {
                let t = neighbour(primary, 1);
                tags_of[t][local_tag_zipf[t].quantile(local_seq[t].next())]
            };
            if !tags.contains(&extra) {
                tags.push(extra);
            }
        }
        text.clear();
        for tag in &tags {
            let _ = writeln!(text, "tag_{tag:03}");
        }
        put(&lake_dir.join(format!("table_{ti:05}.tags")), &text)?;
    }
    Ok(Corpus {
        lake_dir,
        vec_path,
        centers,
        digest,
        csv_bytes,
        files: spec.tables,
    })
}

/// A unit query near topic `topic` of `corpus`, jittered by `rng`.
pub fn query_near(centers: &[Vec<f32>], topic: usize, rng: &mut Rng) -> Vec<f32> {
    let mut q: Vec<f32> = centers[topic]
        .iter()
        .map(|x| x + 0.1 * rng.signed())
        .collect();
    normalize(&mut q);
    q
}
