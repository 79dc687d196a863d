//! Integration tests for the persistent artifact store across the whole
//! pipeline: synthesis results must survive a simulated process restart,
//! damaged or version-skewed record files must be detected, counted and
//! recomputed (never trusted, never fatal), and export/import archives
//! must carry records between stores while skipping corrupted ones.

use sring::core::{AssignmentStrategy, SringConfig, SringSynthesizer};
use sring::ctx::{ArtifactStore, ExecCtx};
use sring::graph::benchmarks;
use sring::store::{export_to_path, import_from_path, DiskStore};
use sring::units::TechnologyParameters;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sring-store-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthesizer() -> SringSynthesizer {
    SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        ..SringConfig::default()
    })
}

/// A context the way a fresh process would build it: empty memory cache,
/// new store handle over `dir`. Returns the store alongside so tests can
/// read its counters.
fn restarted_ctx(dir: &Path) -> (ExecCtx, Arc<DiskStore>) {
    let store = Arc::new(DiskStore::open(dir).expect("store opens"));
    let ctx = ExecCtx::cached().with_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
    (ctx, store)
}

/// Every `.onoc` record file below `dir`, in deterministic order.
fn record_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let stages = match std::fs::read_dir(dir) {
        Ok(it) => it,
        Err(_) => return files,
    };
    for stage in stages.flatten() {
        if let Ok(entries) = std::fs::read_dir(stage.path()) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "onoc") {
                    files.push(entry.path());
                }
            }
        }
    }
    files.sort();
    files
}

#[test]
fn pipeline_results_survive_a_process_restart() {
    let dir = scratch("restart");
    let app = benchmarks::mwd();
    let tech = TechnologyParameters::default();
    let synth = synthesizer();

    let (seed_ctx, seed_store) = restarted_ctx(&dir);
    let first = synth
        .synthesize_detailed_ctx(&app, &seed_ctx)
        .expect("runs");
    assert_eq!(seed_store.stats().writes, 4, "all four stages persisted");

    let (warm_ctx, warm_store) = restarted_ctx(&dir);
    let second = synth
        .synthesize_detailed_ctx(&app, &warm_ctx)
        .expect("runs");
    let stats = warm_store.stats();
    assert_eq!(stats.hits, 4, "restart must be served entirely from disk");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.writes, 0, "a disk hit must not be re-written");
    assert_eq!(first.design.analyze(&tech), second.design.analyze(&tech));
    assert_eq!(
        first.assignment.wavelength_count,
        second.assignment.wavelength_count
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI's default `synth` and an in-process synthesis with the
/// default config (the daemon's `Auto` strategy) run the same pipeline,
/// so they must store it under the same keys: every stage the CLI wrote
/// is a disk hit for the library, the MILP-assigned stage included.
#[test]
fn cli_and_library_share_every_stage_key() {
    let dir = scratch("cli-keys");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_sring-cli"))
        .args(["synth", "--benchmark", "mwd", "--cache-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("sring-cli runs");
    assert!(status.success(), "sring-cli synth failed: {status}");

    let (ctx, store) = restarted_ctx(&dir);
    SringSynthesizer::new()
        .synthesize_detailed_ctx(&benchmarks::mwd(), &ctx)
        .expect("runs");
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (4, 0),
        "every stage the CLI stored must be a disk hit: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_records_are_recomputed_not_trusted() {
    let dir = scratch("truncate");
    let app = benchmarks::vopd();
    let tech = TechnologyParameters::default();
    let synth = synthesizer();

    let (seed_ctx, _) = restarted_ctx(&dir);
    let reference = synth
        .synthesize_detailed_ctx(&app, &seed_ctx)
        .expect("runs");

    let files = record_files(&dir);
    assert_eq!(files.len(), 4);
    for path in &files {
        let bytes = std::fs::read(path).expect("readable");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("writable");
    }

    let (warm_ctx, warm_store) = restarted_ctx(&dir);
    let redone = synth
        .synthesize_detailed_ctx(&app, &warm_ctx)
        .expect("runs");
    let stats = warm_store.stats();
    assert_eq!(stats.corrupt, 4, "every truncated record must be counted");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.writes, 4, "recomputed artifacts repair the store");
    assert_eq!(
        reference.design.analyze(&tech),
        redone.design.analyze(&tech)
    );

    // The repaired store now serves a further restart entirely from disk.
    let (again_ctx, again_store) = restarted_ctx(&dir);
    synth
        .synthesize_detailed_ctx(&app, &again_ctx)
        .expect("runs");
    assert_eq!(again_store.stats().hits, 4);
    assert_eq!(again_store.stats().corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bytes_fail_the_checksum() {
    let dir = scratch("bitflip");
    let app = benchmarks::mwd();
    let tech = TechnologyParameters::default();
    let synth = synthesizer();

    let (seed_ctx, _) = restarted_ctx(&dir);
    let reference = synth
        .synthesize_detailed_ctx(&app, &seed_ctx)
        .expect("runs");

    let files = record_files(&dir);
    assert_eq!(files.len(), 4);
    let target = &files[0];
    let mut bytes = std::fs::read(target).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(target, &bytes).expect("writable");

    let (warm_ctx, warm_store) = restarted_ctx(&dir);
    let redone = synth
        .synthesize_detailed_ctx(&app, &warm_ctx)
        .expect("runs");
    let stats = warm_store.stats();
    assert_eq!(stats.corrupt, 1, "the flipped record must be detected");
    assert_eq!(stats.hits, 3, "the intact records still serve");
    assert_eq!(
        reference.design.analyze(&tech),
        redone.design.analyze(&tech)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_version_records_are_skipped_not_corrupt() {
    let dir = scratch("future");
    let app = benchmarks::mwd();
    let tech = TechnologyParameters::default();
    let synth = synthesizer();

    let (seed_ctx, _) = restarted_ctx(&dir);
    let reference = synth
        .synthesize_detailed_ctx(&app, &seed_ctx)
        .expect("runs");

    // The format version lives right after the 4-byte magic; stamping a
    // future version must register as a version skew, not as corruption —
    // the version check deliberately precedes the checksum check.
    let files = record_files(&dir);
    let target = &files[0];
    let mut bytes = std::fs::read(target).expect("readable");
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(target, &bytes).expect("writable");

    let (warm_ctx, warm_store) = restarted_ctx(&dir);
    let redone = synth
        .synthesize_detailed_ctx(&app, &warm_ctx)
        .expect("runs");
    let stats = warm_store.stats();
    assert_eq!(stats.version_skips, 1);
    assert_eq!(stats.corrupt, 0, "version skew is not corruption");
    assert_eq!(stats.hits, 3);
    assert_eq!(
        reference.design.analyze(&tech),
        redone.design.analyze(&tech)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archives_move_records_and_skip_corrupted_ones() {
    let src_dir = scratch("arch-src");
    let dst_dir = scratch("arch-dst");
    let archive = scratch("arch-file").with_extension("onoa");
    let app = benchmarks::mpeg();
    let tech = TechnologyParameters::default();
    let synth = synthesizer();

    let (seed_ctx, seed_store) = restarted_ctx(&src_dir);
    let reference = synth
        .synthesize_detailed_ctx(&app, &seed_ctx)
        .expect("runs");

    let exported = export_to_path(&seed_store, &archive).expect("exports");
    assert_eq!(exported.records, 4);
    assert_eq!(exported.skipped, 0);

    // Flip the archive's final byte — the trailing checksum of the last
    // record — so exactly one record fails validation on import.
    let mut bytes = std::fs::read(&archive).expect("readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&archive, &bytes).expect("writable");

    let (_, dst_store) = restarted_ctx(&dst_dir);
    let imported = import_from_path(&dst_store, &archive).expect("imports");
    assert_eq!(imported.records, 3, "the intact records import");
    assert_eq!(imported.skipped, 1, "the damaged record is counted");

    // The imported store serves three stages from disk; the skipped one is
    // recomputed — and the result matches the source run exactly.
    let (warm_ctx, warm_store) = restarted_ctx(&dst_dir);
    let redone = synth
        .synthesize_detailed_ctx(&app, &warm_ctx)
        .expect("runs");
    let stats = warm_store.stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(
        reference.design.analyze(&tech),
        redone.design.analyze(&tech)
    );

    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&dst_dir);
    let _ = std::fs::remove_file(&archive);
}
