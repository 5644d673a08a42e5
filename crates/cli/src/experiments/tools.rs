//! User-facing tool subcommands beyond the paper's figures: run the
//! analyses on your own event files and convert between formats.

use crate::common::{fail, parse_dataset, warn_if_degraded, Opts};
use tempopr_core::{PostmortemConfig, PostmortemEngine, RetainMode};
use tempopr_datagen::DAY;
use tempopr_graph::{io, EventLog, ParseMode, WindowSpec};

/// Loads an event log from a path, picking the format by extension
/// (`.bin` = binary, anything else = text). With `lenient`, malformed
/// text lines (and trailing bytes after a binary file's declared records)
/// are skipped and the ingest report is echoed to stderr.
fn load(path: &str, lenient: bool) -> EventLog {
    let mode = if lenient {
        ParseMode::Lenient {
            max_bad_records: usize::MAX,
        }
    } else {
        ParseMode::Strict
    };
    let result = if path.ends_with(".bin") {
        io::read_binary_file_report(path, mode)
    } else {
        io::read_text_file_report(path, mode)
    };
    match result {
        Ok((log, report)) => {
            if lenient || !report.is_clean() {
                eprintln!("{path}: {}", report.summary());
            }
            log
        }
        Err(e) => fail(format!("failed to read {path}: {e}")),
    }
}

/// `tempopr convert <in> <out> [--lenient]`: converts between the text and
/// binary event formats (directions inferred from extensions).
pub fn convert(input: &str, output: &str, lenient: bool) {
    let log = load(input, lenient);
    let result = if output.ends_with(".bin") {
        io::write_binary_file(&log, output)
    } else {
        io::write_text_file(&log, output)
    };
    if let Err(e) = result {
        fail(format!("failed to write {output}: {e}"));
    }
    println!(
        "wrote {} events over {} vertices to {output}",
        log.len(),
        log.num_vertices()
    );
}

/// `tempopr pagerank <file-or-dataset> --delta-days D --sw-days S`:
/// postmortem PageRank time series with the top vertex per window.
pub fn pagerank(
    source: &str,
    delta_days: i64,
    sw_days: i64,
    top: usize,
    lenient: bool,
    opts: &Opts,
) {
    let log = match parse_dataset(source) {
        Some(d) => d.spec().generate(opts.scale, opts.seed),
        None => load(source, lenient),
    };
    let spec_result = WindowSpec::covering(&log, delta_days * DAY, sw_days * DAY);
    let mut spec = spec_result.unwrap_or_else(|e| fail(format!("window parameters: {e}")));
    if opts.max_windows > 0 {
        spec.count = spec.count.min(opts.max_windows);
    }
    let cfg = PostmortemConfig {
        retain: RetainMode::Full,
        threads: opts.threads,
        ..tempopr_core::suggest(&log, &spec, opts.threads)
    };
    let engine = PostmortemEngine::new(&log, spec, cfg)
        .unwrap_or_else(|e| fail(format!("engine build: {e}")));
    let out = engine.run();
    warn_if_degraded("postmortem", &out);
    println!(
        "# postmortem pagerank: {} events, {} vertices, {} windows (delta={}d, sw={}d)",
        log.len(),
        log.num_vertices(),
        spec.count,
        delta_days,
        sw_days
    );
    println!(
        "{:<8} {:>10} {:>6}  top-{top}",
        "window", "vertices", "iters"
    );
    for w in &out.windows {
        if let tempopr_core::WindowStatus::Failed { diagnostic } = &w.status {
            println!("{:<8} FAILED: {diagnostic}", w.window);
            continue;
        }
        let Some(ranks) = w.ranks.as_ref() else {
            continue;
        };
        let mut pairs: Vec<(u32, f64)> = ranks
            .vertices
            .iter()
            .copied()
            .zip(ranks.values.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        pairs.truncate(top);
        let tops: Vec<String> = pairs
            .into_iter()
            .map(|(v, r)| format!("{v}:{r:.4}"))
            .collect();
        println!(
            "{:<8} {:>10} {:>6}  {}",
            w.window,
            w.stats.active_vertices,
            w.stats.iterations,
            tops.join(" ")
        );
    }
}
