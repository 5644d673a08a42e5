//! Architecture rules: source contracts that keep one copy of each mechanism
//! (one round loop, one part walk, one durable lifecycle, one thread
//! mechanism). A rule is a row of `RULES` plus the planted violation it must
//! fire on; `CONTRACTS` names the tests the rules lean on.

/// How a rule's sites may sit.
#[derive(Clone, Copy)]
enum Check {
    /// Exactly this many sites; 0 forbids the pattern.
    Count(usize),
    /// Exactly one site, inside `fn NAME`.
    InFn(&'static str),
    /// Every site at most this many read lines after the latest anchor.
    After(&'static str, usize),
}

struct Rule {
    id: &'static str,
    /// Literals, any of which makes a site; a `\b` end is a word boundary.
    pats: &'static [&'static str],
    /// A line holding one of these is no site.
    unless: &'static [&'static str],
    /// Globs from the repo root (`*` within a segment, `**` any segments).
    files: &'static [&'static str],
    except: &'static [&'static str],
    /// The reader's cuts: only code before the test module; no comments.
    non_test: bool,
    code: bool,
    check: Check,
    why: &'static str,
    /// Text that, put at the head of this file, must make the rule fire.
    plant: (&'static str, &'static str),
}

/// The defaults a row fills in: a non-test rule that forbids its patterns.
#[rustfmt::skip]
const R: Rule = Rule { id: "", pats: &[], unless: &[], files: &[], except: &[], non_test: true, code: false,
    check: Check::Count(0), why: "", plant: ("", "") };

const ENGINE_RS: &str = "crates/core/src/engine.rs";
const CKPT_RS: &str = "crates/core/src/checkpoint.rs";
const DRIVER_RS: &str = "crates/stream/src/driver.rs";
const CRATES: &[&str] = &["crates/*/src/**/*.rs"];
const SRC: &[&str] = &["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs"];
const CORE: &[&str] = &["crates/core/src/*.rs"];
const NOT_MULTIWINDOW: &[&str] = &["crates/graph/src/multiwindow.rs"];

#[rustfmt::skip]
mod why {
    pub const FAILURE: &str = "Failure semantics live in the exec layer. Non-test code only: a test that asserts \
        a panic is not failure semantics.";
    pub const ROUND_LOOP: &str = "The (window × query) kernel is a lane rule over `spmm::batch_iterate`; a health \
        guard call or a fault hook in query.rs would mean a second, hand-copied loop.";
    pub const WALK: &str = "Propagation blocking stays retired. SpMV window solves go through the one \
        `pagerank_window_indexed_obs(`; part walks go through `walk_parts` and its one `overlap(` prefetch, never \
        a per-window `run_windows(` walk.";
    pub const BUILD: &str = "The temporal CSR is two counting scatters, with no comparison sort outside tests. A \
        second `visit_parts` caller or `CompressedPart::encode(` is the planner's trial-build loop coming back.";
    pub const REGIONS: &str = "Lanes walk a part through `engine::Regions` (a `div_ceil(` in the query driver is a \
        second slot rule); one place starts the shard pool.";
    pub const CARRY: &str = "Partial initialization (Eq. 4) never crosses a part boundary: the part walk hands no \
        state from one part to the next, so no rank vector is remapped between two parts' vertex spaces, in \
        library or test code.";
    pub const AUTO: &str = "`KernelKind::Auto` / `InitMode::Auto` are resolved once, when the engine is built; \
        outside tests they are spelled only in config.rs, advisor.rs (`resolve`) and the CLI's flag parser.";
    pub const MEMBERSHIP: &str = "One pass over a part's pull runs (`windowindex::WindowSegments`) decides which \
        windows hold each run; the deciders it replaced, and a kernel copy of the pass, may not come back.";
    pub const INDEX: &str = "Engine solves read the part's cached window index: no index build, no knob, no \
        unindexed entry, one query batch call. Drivers hash the log only in `DurableRun::open`'s `is_noop`-guarded \
        identity closure.";
    pub const DURABLE: &str = "Drivers run a manifest's lifecycle through `checkpoint::DurableRun`, not by hand. Syncs \
        run on the drainer that the one `overlap(` starts, in `fn drain`; a sync anywhere else blocks compute.";
    pub const FRAMING: &str = "The on-disk formats decode through `graph::framing`: a `from_le_bytes(` in a format \
        module's non-test code, or a second CRC, cursor or varint reader, is a hand-rolled decoder coming back.";
    pub const THREADS: &str = "`kernel::scheduler` starts every thread with its caller's budget: a `rayon` manifest \
        entry or a `thread::scope` / `thread::spawn` / `Builder::new().spawn` elsewhere is a second mechanism.";
    pub const UNSAFE: &str = "All `unsafe` stays in the one dispatch module, so the rest stays auditable as safe \
        code. A word match, so `unsafe_code` lint attributes do not count; test code stays in scope.";
}
use why::*;

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { id: "catch-unwind-in-exec", pats: &["catch_unwind"], files: &["crates/core/src/**/*.rs", "crates/stream/src/**/*.rs"],
        except: &["crates/core/src/exec.rs"], why: FAILURE, plant: (ENGINE_RS, "fn f() { std::panic::catch_unwind(g); }\n"), ..R },
    Rule { id: "one-round-loop", pats: &["guard_check(", "FaultKind::InjectNan"], files: &["crates/kernel/src/query.rs"],
        why: ROUND_LOOP, plant: ("crates/kernel/src/query.rs", "fn f() { guard_check(d, m, 0, 1, c, h)?; }\n"), ..R },
    Rule { id: "no-propagation-blocking", pats: &["PushBlocking", "BlockingWorkspace", "propagation"], non_test: false, why: WALK,
        files: &["crates/*/src/**", "src/**", "tests/**", "examples/**"], plant: ("tests/golden_trace.rs", "// PushBlocking\n"), ..R },
    Rule { id: "no-run-windows-in-engine", pats: &["run_windows("], files: &[ENGINE_RS], code: true, why: WALK,
        plant: (ENGINE_RS, "fn f() { run_windows(w); }\n"), ..R },
    Rule { id: "one-window-solve-call", pats: &["\\bpagerank_window_indexed_obs("], files: &[ENGINE_RS], code: true,
        check: Check::Count(1), why: WALK, plant: (ENGINE_RS, "fn f() { pagerank_window_indexed_obs(a); }\n"), ..R },
    Rule { id: "one-prefetch-overlap", pats: &["\\boverlap("], files: &[ENGINE_RS], code: true, check: Check::Count(1), why: WALK,
        plant: (ENGINE_RS, "fn f() { overlap(a, b); }\n"), ..R },
    Rule { id: "no-sort-in-tcsr-build", pats: &["sort_unstable"], files: &["crates/graph/src/tcsr.rs"], why: BUILD,
        plant: ("crates/graph/src/tcsr.rs", "fn f(v: &mut [u32]) { v.sort_unstable(); }\n"), ..R },
    Rule { id: "one-visit-parts-caller", pats: &["visit_parts("], files: &["crates/*/src/*.rs"], except: NOT_MULTIWINDOW,
        check: Check::Count(1), why: BUILD, plant: ("crates/graph/src/storage.rs", "fn f() { visit_parts(g); }\n"), ..R },
    Rule { id: "one-part-encode", pats: &["CompressedPart::encode("], files: &["crates/*/src/*.rs"], except: NOT_MULTIWINDOW,
        check: Check::Count(1), why: BUILD, plant: ("crates/core/src/storage.rs", "fn f() { CompressedPart::encode(p); }\n"), ..R },
    Rule { id: "one-region-rule", pats: &["div_ceil("], files: &["crates/core/src/query.rs"], why: REGIONS,
        plant: ("crates/core/src/query.rs", "fn f() { n.div_ceil(2); }\n"), ..R },
    Rule { id: "no-cross-part-carry", pats: &["carry_ranks(", "carry_across("], files: CORE, non_test: false, why: CARRY,
        plant: (ENGINE_RS, "fn f() { self.carry_across(p, r, q, o); }\n"), ..R },
    Rule { id: "one-shard-pool", pats: &["worker_pool("], files: &[ENGINE_RS], non_test: false, check: Check::Count(1), why: REGIONS,
        plant: (ENGINE_RS, "// worker_pool(\n"), ..R },
    Rule { id: "auto-resolved-once", pats: &["KernelKind::Auto", "InitMode::Auto"], files: SRC, why: AUTO,
        except: &["crates/core/src/config.rs", "crates/core/src/advisor.rs", "crates/cli/src/main.rs"],
        plant: (ENGINE_RS, "const K: KernelKind = KernelKind::Auto;\n"), ..R },
    Rule { id: "one-membership-pass", pats: &["sweep_run_mask", "scan_run_mask", "scan_degrees", "WindowGrid", "lanes_from_masks"],
        files: SRC, why: MEMBERSHIP, plant: ("crates/kernel/src/spmm.rs", "fn scan_degrees() {}\n"), ..R },
    Rule { id: "no-index-build-in-core", pats: &["WindowIndex::build("], files: &["crates/core/src/**"], non_test: false,
        why: INDEX, plant: ("crates/core/src/query.rs", "// WindowIndex::build(\n"), ..R },
    Rule { id: "no-window-index-knob", pats: &["use_window_index"], files: &["crates/**", "src/**", "tests/**", "examples/**"],
        non_test: false, why: INDEX, plant: ("crates/core/Cargo.toml", "# use_window_index\n"), ..R },
    Rule { id: "no-unindexed-entry-in-core", pats: &["pagerank_window_obs(", "pagerank_batch_obs(", "pagerank_query_batch("],
        files: CORE, why: INDEX, plant: (ENGINE_RS, "fn f() { pagerank_query_batch(a); }\n"), ..R },
    Rule { id: "one-query-batch-call", pats: &["pagerank_query_batch_indexed("], files: &["crates/core/src/query.rs"],
        check: Check::Count(1), why: INDEX, plant: ("crates/core/src/query.rs", "fn f() { pagerank_query_batch_indexed(a); }\n"), ..R },
    Rule { id: "log-hashed-only-when-durable", pats: &["log_fingerprint("], check: Check::After("DurableRun::open(", 6),
        files: &["crates/core/src/offline.rs", DRIVER_RS], why: INDEX, plant: (DRIVER_RS, "fn f() { log_fingerprint(l); }\n"), ..R },
    Rule { id: "one-identity-call", pats: &["identity()"], files: &[CKPT_RS], code: true, check: Check::Count(1), why: INDEX,
        plant: (CKPT_RS, "fn f() { identity(); }\n"), ..R },
    Rule { id: "identity-behind-is-noop", pats: &["identity()"], files: &[CKPT_RS], code: true, why: INDEX,
        check: Check::After("(!opts.is_noop()).then(", 2), plant: (CKPT_RS, "fn f() { identity(); }\n"), ..R },
    Rule { id: "one-resume-scan-call", pats: &["resume_scan("], unless: &["fn resume_scan("], files: CRATES, code: true,
        check: Check::Count(1), why: DURABLE, plant: ("crates/core/src/offline.rs", "fn f() { resume_scan(p); }\n"), ..R },
    Rule { id: "one-sink-create-call", pats: &["CheckpointSink::create("], unless: &["fn resume_scan("], files: CRATES, code: true,
        check: Check::Count(1), why: DURABLE, plant: (DRIVER_RS, "fn f() { CheckpointSink::create(p); }\n"), ..R },
    Rule { id: "no-driver-finish", pats: &["durable.finish("], files: CRATES, code: true, why: DURABLE,
        plant: ("crates/core/src/offline.rs", "fn f() { durable.finish(o); }\n"), ..R },
    Rule { id: "one-sync-in-drain", pats: &["sync_data("], files: &[CKPT_RS], code: true, check: Check::InFn("drain"), why: DURABLE,
        plant: (CKPT_RS, "fn offer(f: File) { f.sync_data(); }\n"), ..R },
    Rule { id: "no-sync-outside-checkpoint", pats: &["sync_all(", "sync_data("], files: CRATES, except: &[CKPT_RS], code: true,
        why: DURABLE, plant: ("crates/graph/src/storage.rs", "fn f(w: File) { w.sync_all(); }\n"), ..R },
    Rule { id: "one-drainer-overlap", pats: &["overlap("], files: &[CKPT_RS], code: true, check: Check::Count(1), why: DURABLE,
        plant: (CKPT_RS, "fn f() { overlap(a, b); }\n"), ..R },
    Rule { id: "no-hand-rolled-le-decode", pats: &["from_le_bytes("], why: FRAMING,
        files: &["crates/graph/src/io.rs", "crates/graph/src/storage.rs", CKPT_RS],
        plant: ("crates/graph/src/io.rs", "fn f(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n"), ..R },
    Rule { id: "one-framing-reader", pats: &["fn crc32\\b", "struct Cursor\\b", "fn get_uvarint\\b"], files: &["crates/*/src/**"],
        except: &["crates/graph/src/framing.rs"], non_test: false, why: FRAMING, plant: (CKPT_RS, "struct Cursor<'a>(&'a [u8]);\n"), ..R },
    Rule { id: "no-rayon-manifest", pats: &["\\brayon\\b"], files: &["**/Cargo.toml"], except: &["benchmark/**"], non_test: false,
        why: THREADS, plant: ("crates/kernel/Cargo.toml", "rayon = \"1\"\n"), ..R },
    Rule { id: "one-thread-mechanism", pats: &["thread::scope", "thread::spawn", "Builder::new().spawn"], why: THREADS,
        files: &["crates/*/src/**/*.rs", "src/**/*.rs"], except: &["crates/kernel/src/scheduler.rs"],
        plant: ("src/lib.rs", "fn f() { std::thread::spawn(g); }\n"), ..R },
    Rule { id: "unsafe-in-simd-only", pats: &["\\bunsafe\\b"], files: &["crates/*/src/**", "src/**"], non_test: false, code: true,
        except: &["crates/kernel/src/simd.rs"], why: UNSAFE, plant: ("src/lib.rs", "fn f(p: *const f64) -> f64 { unsafe { *p } }\n"), ..R },
];

/// Tests the rules lean on, once re-run by name: each stays a `#[test] fn` whose name starts so (any test, for "").
#[rustfmt::skip]
const CONTRACTS: &[(&str, &str)] = &[
    ("crates/core/src/engine.rs", "pipelined_in_order_walks_prefetch_every_next_part_and_decode_each_once"),
    ("crates/core/src/engine.rs", "zero_storage_workers_means_the_runs_thread_budget"),
    ("crates/core/src/checkpoint.rs", "log_fingerprint_is_xxh64_of_the_log_bytes"),
    ("crates/core/src/checkpoint.rs", "stale_version_is_incompatible"),
    ("crates/graph/src/windowindex.rs", "timestamps_at_both_ends_of_the_axis"),
    ("crates/core/src/checkpoint.rs", "one_sync_commits_everything_queued"),
    ("crates/core/src/checkpoint.rs", "a_panicking_compute_resurfaces"),
    ("crates/core/src/checkpoint.rs", "a_write_error_disables_the_sink"),
    ("tests/crash_resume.rs", "a_panicking_compute_resurfaces_and_keeps_a_durable_prefix"),
    ("tests/crash_resume.rs", "manifest_bytes_do_not_depend_on_sync_batching_or_completion_order"),
    ("crates/core/src/storage.rs", "a_temp_name_a_dead_process_left_behind_is_skipped"),
    ("tests/crash_resume.rs", "postmortem_ondisk_crash_resume_rebuilds_its_own_spill_file"),
    ("tests/storage_backend_parity.rs", "a_second_engine_over_the_same_spill_dir_leaves_the_first_alone"),
    ("tests/storage_backend_parity.rs", "an_ondisk_engine_never_reads_a_spill_file_it_did_not_write"),
    ("crates/graph/src/framing.rs", ""),
    ("crates/graph/src/storage.rs", "forged_section_tables_that_do_not_tile_the_file_are_corrupt"),
    ("crates/graph/src/storage.rs", "overflowing_payload_sums_are_corrupt_not_panics"),
    ("tests/prop_tcsr_storage.rs", "every_bit_flip_and_truncation_of_a_small_file_is_typed"),
    ("tests/prop_tcsr_storage.rs", "payload_decoder_survives_every_bit_flip"),
    ("tests/adversarial_io.rs", "every_bit_flip_and_cut_of_a_small_binary_file_is_handled"),
    ("crates/kernel/src/scheduler.rs", "every_started_thread_inherits_the_budget"),
    ("crates/kernel/src/scheduler.rs", "every_verb_returns_in_task_order_and_reraises_the_payload"),
    ("tests/storage_backend_parity.rs", "worker_pool_under_one_thread_is_bit_identical"),
];

/// Every file a rule reads, by path from the repo root, but for hidden and
/// `target` directories and this file, which spells every pattern it bans.
fn tree() -> &'static [(String, String)] {
    static TREE: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    TREE.get_or_init(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let (mut dirs, mut files) = (vec![String::new()], Vec::new());
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(root.join(&dir)).expect("a readable directory") {
                let entry = entry.expect("a directory entry");
                let name = entry.file_name().to_string_lossy().into_owned();
                let path = format!("{dir}{name}");
                let read = RULES.iter().any(|r| globs(r.files, &path));
                if entry.path().is_dir() && !name.starts_with('.') && name != "target" {
                    dirs.push(path + "/");
                } else if entry.path().is_file() && read && path != "tests/architecture.rs" {
                    let bytes = std::fs::read(entry.path()).expect("a readable file");
                    files.push((path, String::from_utf8_lossy(&bytes).into_owned()));
                }
            }
        }
        files
    })
}

/// Whether `path` matches any of the globs.
fn globs(gs: &[&str], path: &str) -> bool {
    fn glob(p: &[&str], s: &[&str]) -> bool {
        let one = |p: &str, s: &str| p == s || p.strip_prefix('*').is_some_and(|e| s.ends_with(e));
        match (p.split_first(), s.split_first()) {
            (None, None) => true,
            (Some((&"**", rest)), _) => glob(rest, s) || (!s.is_empty() && glob(p, &s[1..])),
            (Some((p0, p1)), Some((s0, s1))) => one(p0, s0) && glob(p1, s1),
            _ => false,
        }
    }
    let s: Vec<&str> = path.split('/').collect();
    gs.iter().any(|g| glob(&Vec::from_iter(g.split('/')), &s))
}

/// Whether `line` is a site of `rule`: it holds a pattern, `\b` ends
/// included, and nothing the rule is `unless`.
fn is_site(rule: &Rule, line: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let hit = |pat: &&str| {
        let (lead, pat) = pat.strip_prefix("\\b").map_or((false, *pat), |p| (true, p));
        let (trail, lit) = pat.strip_suffix("\\b").map_or((false, pat), |p| (true, p));
        let end = |i: usize| line[i + lit.len()..].chars().next();
        (line.match_indices(lit)).any(|(i, _)| {
            !((lead && word(line[..i].chars().next_back())) || (trail && word(end(i))))
        })
    };
    rule.pats.iter().any(hit) && !rule.unless.iter().any(|u| line.contains(u))
}

/// The enclosing function's name as the awk rule took it: the first
/// `fn NAME` of a line that has some `fn NAME(` or `fn NAME<`.
fn fn_name<'a>(line: &'a str) -> Option<&'a str> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let cut = |r: &'a str| r.split_at(r.find(|c| !ident(c)).unwrap_or(r.len()));
    let names = line.split("fn ").skip(1).map(cut);
    let names: Vec<_> = names.filter(|(n, _)| !n.is_empty()).collect();
    let opens = names.iter().any(|(_, r)| r.starts_with(['(', '<']));
    opens.then(|| names[0].0)
}

/// The shared reader: numbered lines, up to the first that starts with
/// `#[cfg(test)]` for a non-test rule, less comment lines (`^ *//`) for a
/// code rule.
fn lines<'a>(rule: &Rule, head: &'a str, text: &'a str) -> Vec<(usize, &'a str)> {
    let test = |l: &str| rule.non_test && l.starts_with("#[cfg(test)]");
    let comment = |l: &str| rule.code && l.trim_start_matches(' ').starts_with("//");
    let numbered = head.lines().chain(text.lines()).enumerate();
    let kept = numbered.take_while(|(_, l)| !test(l));
    kept.filter(|(_, l)| !comment(l)).collect()
}

/// What is wrong with `rule` on the tree with `plant` put at the head of
/// its file, or `None` when the rule holds.
fn check(rule: &Rule, plant: Option<(&str, &str)>) -> Option<String> {
    let (mut files, mut sites, mut bad) = (0, Vec::new(), Vec::new());
    let in_scope = |p: &str| globs(rule.files, p) && !globs(rule.except, p);
    for (path, text) in tree().iter().filter(|(p, _)| in_scope(p)) {
        let head = plant.filter(|p| p.0 == path).map_or("", |p| p.1);
        let (mut anchor, mut func) = (None, None);
        files += 1;
        for (read, (n, line)) in lines(rule, head, text).into_iter().enumerate() {
            match rule.check {
                Check::After(a, _) if line.contains(a) => anchor = Some(read),
                Check::InFn(_) => func = fn_name(line).or(func),
                _ => {}
            }
            if is_site(rule, line) {
                let misplaced = match rule.check {
                    Check::Count(_) => false,
                    Check::InFn(name) => func != Some(name),
                    Check::After(_, k) => anchor.is_none_or(|a| read - a > k),
                };
                sites.push(format!("{path}:{}: {line}", n + 1));
                bad.extend(sites.last().filter(|_| misplaced).cloned());
            }
        }
    }
    let (what, shown) = match rule.check {
        _ if files == 0 => ("its scope matches no file".to_owned(), sites),
        Check::Count(n) if n != sites.len() => (format!("expected {n} site(s)"), sites),
        Check::InFn(_) if sites.len() != 1 => ("expected 1 site".to_owned(), sites),
        _ if !bad.is_empty() => ("a site out of place".to_owned(), bad),
        _ => return None,
    };
    let (id, why, shown) = (rule.id, rule.why, shown.join("\n"));
    Some(format!("{id}: {what}, found:\n{shown}\n({why})"))
}

#[test]
fn the_tree_keeps_every_rule() {
    let failures: Vec<String> = RULES.iter().filter_map(|rule| check(rule, None)).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Sites rules once caught by mistake: test-module code and a doc line.
#[rustfmt::skip]
const QUIET: [(&str, &str, &str); 3] = [
    ("catch-unwind-in-exec", CKPT_RS, "#[cfg(test)]\nmod tests {\n    fn t() { std::panic::catch_unwind(g); }\n}\n"),
    ("unsafe-in-simd-only", "crates/kernel/src/lib.rs", "//! (the only module allowed `unsafe`)\n"),
    ("one-round-loop", "crates/kernel/src/query.rs", "#[cfg(test)]\nmod tests {\n    const F: FaultKind = FaultKind::InjectNan { at_iter: 3 };\n}\n"),
];

#[test]
fn every_rule_fires_on_its_plant_and_on_no_known_false_positive() {
    for rule in RULES {
        let fired = check(rule, Some(rule.plant)).is_some();
        assert!(fired, "{} ignores its plant {:?}", rule.id, rule.plant);
    }
    for (id, path, text) in QUIET {
        let rule = RULES.iter().find(|r| r.id == id).unwrap();
        assert_eq!(check(rule, Some((path, text))), None);
    }
}

#[test]
fn every_named_contract_is_still_a_test() {
    for &(path, name) in CONTRACTS {
        let text = &tree().iter().find(|(p, _)| p == path).unwrap().1;
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        let test_fn = |w: &[&str]| w[0] == "#[test]" && w[1].starts_with(&format!("fn {name}"));
        let found = lines.windows(2).any(test_fn);
        assert!(found, "{path} lost `#[test] fn {name}…`");
    }
}
