//! Stored state must not outlive the `SUM` it was computed under.
//!
//! `SUM`/`AVG` are the correctly rounded exact sum. Builds that summed in
//! row order with float `+` produced different bits for some queries, and
//! their `.qag` planes and `.qagsess` checkpoints may still sit on disk.
//! Those files must come back as typed misses — a fingerprint mismatch or
//! an unsupported version — and the engine must serve exactly the view a
//! store-less engine computes, never one built over the old sums.

use qagview_common::io::RealIo;
use qagview_common::StoreErrorKind;
use qagview_interactive::checkpoint::CHECKPOINT_VERSION;
use qagview_interactive::{
    store, CacheOutcome, ExploreCommand, ExploreSession, Explorer, ExplorerConfig,
    PrecomputeConfig, Precomputed, SessionCheckpoint, StoreReader,
};
use qagview_lattice::{AnswerSet, AnswerSetBuilder};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";

/// Ratings whose float-chain sums differ from their exact sums in the
/// (adventure, student) group: 0.1 + 0.2 + 0.3 chains to
/// 0.6000000000000001, while the exact sum rounds to 0.6.
const ROWS: &[(&str, &str, f64)] = &[
    ("adventure", "student", 0.1),
    ("adventure", "student", 0.2),
    ("adventure", "student", 0.3),
    ("adventure", "coder", 4.25),
    ("adventure", "coder", 3.5),
    ("romance", "student", 2.0),
    ("romance", "coder", 1.5),
    ("romance", "coder", 1.25),
    ("western", "student", 3.0),
    ("western", "coder", 0.75),
];

fn catalog() -> Arc<Catalog> {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("who", ColumnType::Str),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(g, w, r) in ROWS {
        b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    Arc::new(c)
}

/// The relation `SQL` had under row-order float-chain sums.
fn chain_relation() -> AnswerSet {
    let mut groups: BTreeMap<(&str, &str), (f64, u32)> = BTreeMap::new();
    for &(g, w, r) in ROWS {
        let (sum, n) = groups.entry((g, w)).or_insert((0.0, 0));
        *sum += r;
        *n += 1;
    }
    let mut b = AnswerSetBuilder::new(vec!["genre".into(), "who".into()]);
    for ((g, w), (sum, n)) in groups {
        b.push(&[g, w], sum / f64::from(n)).unwrap();
    }
    b.finish().unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qag-stored-sums-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine(store_dir: Option<&Path>) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        catalog(),
        ExplorerConfig {
            store_dir: store_dir.map(Path::to_path_buf),
            ..Default::default()
        },
    ))
}

fn only_plane_file(dir: &Path) -> PathBuf {
    let planes: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qag"))
        .collect();
    assert_eq!(planes.len(), 1, "{planes:?}");
    planes.into_iter().next().unwrap()
}

/// The planes a chain-sum build wrote for `SQL`, in the file layout and
/// configuration the engine writes today: `(file name, image)`.
fn chain_sum_plane(like: &Path) -> (String, Vec<u8>) {
    let reader = StoreReader::open(like).unwrap();
    let chain = Arc::new(chain_relation());
    let cfg = PrecomputeConfig {
        parallel: false,
        ..reader.config()
    };
    let pre = Precomputed::build(Arc::clone(&chain), reader.l(), cfg).unwrap();
    let name = store::plane_file_name(chain.fingerprint(), reader.l(), cfg.k_max, cfg.pool_factor);
    (name, store::to_bytes(&pre).unwrap())
}

#[test]
fn chain_sum_planes_are_typed_misses_never_a_wrong_view() {
    let exact = engine(None).answer_relation(SQL).unwrap();
    let chain = chain_relation();
    assert_ne!(
        exact.fingerprint(),
        chain.fingerprint(),
        "the query must be one whose sums changed bits"
    );
    let mut reference = ExploreSession::new(engine(None));
    let want = reference
        .apply(ExploreCommand::SetQuery(SQL.into()))
        .unwrap();

    // Learn today's file name and plane configuration from a cold run.
    let fresh = temp_dir("fresh");
    ExploreSession::new(engine(Some(&fresh)))
        .apply(ExploreCommand::SetQuery(SQL.into()))
        .unwrap();
    let today = only_plane_file(&fresh);
    let (chain_name, chain_image) = chain_sum_plane(&today);
    assert_ne!(
        today.file_name().unwrap().to_str().unwrap(),
        chain_name,
        "plane files are keyed by the relation's content fingerprint"
    );

    // The old file under its own name is never probed: a clean miss.
    // The same image planted under today's name fails the fingerprint
    // check with a typed error, and the probe rebuilds over it.
    for planted_as_today in [false, true] {
        let dir = temp_dir(if planted_as_today { "collide" } else { "own" });
        let path = if planted_as_today {
            dir.join(today.file_name().unwrap())
        } else {
            dir.join(&chain_name)
        };
        std::fs::write(&path, &chain_image).unwrap();
        if planted_as_today {
            let err = StoreReader::open(&path)
                .unwrap()
                .into_precomputed(Arc::clone(&exact))
                .unwrap_err();
            assert_eq!(err.store_kind(), Some(StoreErrorKind::FingerprintMismatch));
        }
        let got = ExploreSession::new(engine(Some(&dir)))
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();
        assert_eq!(got.provenance.plane_store, Some(CacheOutcome::Miss));
        assert!(got.same_view(&want), "planted_as_today={planted_as_today}");
        // The rebuilt planes were written back under today's key.
        let rewritten = StoreReader::open(dir.join(today.file_name().unwrap())).unwrap();
        assert_eq!(rewritten.fingerprint(), exact.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&fresh).unwrap();
}

#[test]
fn checkpoints_of_the_chain_sum_format_are_unsupported_versions() {
    let mut session = ExploreSession::new(engine(None));
    session.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
    session.apply(ExploreCommand::SetK(2)).unwrap();
    let cp = session.checkpoint();
    let dir = temp_dir("checkpoint");
    let path = dir.join("old.qagsess");
    cp.save_io(&RealIo, &path).unwrap();
    assert_eq!(SessionCheckpoint::load_io(&RealIo, &path).unwrap(), cp);

    // Format 3 was the last one written under chain sums; its `last` view
    // carries a relation fingerprint and solution sums of the old bits.
    const { assert!(CHECKPOINT_VERSION > 3) };
    let mut image = std::fs::read(&path).unwrap();
    image[8..12].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, &image).unwrap();
    let err = SessionCheckpoint::load_io(&RealIo, &path).unwrap_err();
    assert_eq!(err.store_kind(), Some(StoreErrorKind::UnsupportedVersion));
    std::fs::remove_dir_all(&dir).unwrap();
}
