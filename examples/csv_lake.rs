//! Organize a directory of CSV files — the path for pointing the system at
//! your own open-data dump.
//!
//! The example writes a handful of CSVs (with `.tags` metadata sidecars)
//! into a temp directory, ingests them into a lake (text-column detection,
//! tokenization, topic vectors), builds an optimized organization, and
//! searches it.
//!
//! Run with:
//! ```sh
//! cargo run --release --example csv_lake
//! ```

use datalake_nav::lake::csv::{ingest_dir, CsvOptions, Ingest};
use datalake_nav::prelude::*;

fn main() -> std::io::Result<()> {
    // An embedding model. For real use, load fastText vectors instead:
    //   let model = datalake_nav::embed::VecFileModel::from_path(path)?;
    let model = SyntheticEmbedding::new(&SyntheticEmbeddingConfig {
        vocab: VocabularyConfig {
            n_topics: 12,
            words_per_topic: 24,
            dim: 32,
            ..Default::default()
        },
        coverage: 1.0,
        coverage_seed: 0,
    });
    // Pull a few real-looking words out of the synthetic vocabulary so the
    // CSVs have embeddable content.
    let w = |t: usize, i: usize| {
        model
            .vocab()
            .word(datalake_nav::embed::TokenId((t * 24 + i) as u32))
            .to_string()
    };

    let dir = std::env::temp_dir().join(format!("dln_csv_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    // Three small "open data" tables with tags; one numeric column that
    // ingestion must skip (§3.1: organizations are built over text
    // attributes).
    std::fs::write(
        dir.join("fish_inspections.csv"),
        format!(
            "species,agency,score\n{},{},87\n{},{},92\n",
            w(0, 0),
            w(1, 0),
            w(0, 1),
            w(1, 1)
        ),
    )?;
    std::fs::write(
        dir.join("fish_inspections.tags"),
        "fisheries\nfood safety\n",
    )?;
    std::fs::write(
        dir.join("crop_yields.csv"),
        format!(
            "crop,region\n{},{}\n{},{}\n",
            w(2, 0),
            w(3, 0),
            w(2, 1),
            w(3, 1)
        ),
    )?;
    std::fs::write(dir.join("crop_yields.tags"), "agriculture\n")?;
    std::fs::write(
        dir.join("city_budget.csv"),
        format!("department,program\n{},{}\n", w(4, 0), w(5, 0)),
    )?;
    std::fs::write(dir.join("city_budget.tags"), "finance\ncity government\n")?;

    // Ingest: the lake catalog, and the raw values keyword search reads.
    let Ingest { lake, values, .. } =
        ingest_dir(&dir, &model, &CsvOptions::default()).map_err(std::io::Error::from)?;
    std::fs::remove_dir_all(&dir)?;
    println!("{}", lake.stats());
    println!();
    for t in lake.tables() {
        let tags: Vec<&str> = t
            .tags
            .iter()
            .map(|tg| lake.tag(*tg).label.as_str())
            .collect();
        println!(
            "table `{}`: {} text attributes, tags = [{}]",
            t.name,
            t.attrs.len(),
            tags.join(", ")
        );
    }

    // Organize and evaluate.
    let built = OrganizerBuilder::new(&lake)
        .max_iters(100)
        .build_optimized();
    println!(
        "\norganization over {} tags: effectiveness = {:.3}",
        built.ctx.n_tags(),
        built.effectiveness()
    );

    // Keyword search over the same lake.
    let engine = KeywordSearch::build(&lake, &values);
    for query in ["fisheries", "department", &w(2, 0)] {
        let hits = engine.search(query, 3);
        let names: Vec<&str> = hits
            .iter()
            .map(|h| lake.table(h.table).name.as_str())
            .collect();
        println!("search `{query}` -> [{}]", names.join(", "));
    }
    Ok(())
}
