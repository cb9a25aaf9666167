//! Differential suite: dry runs derived from the selection lattice against the
//! executor.
//!
//! `Database::execution_time_ms` prices exact single-table hint options from a
//! per-query selection lattice instead of executing their plans, and
//! `Database::run` serves a just-priced query's result from the lattice's full
//! intersection. For random and adversarial queries (NaN / ±inf / inverted /
//! zero-area rects, extreme and inverted time ranges, NaN numeric bounds,
//! unknown keywords, degenerate grids) every enumerated hint option must price
//! to the bit-identical time `run_with_engine` (which always executes)
//! reports, and `run` after pricing must return the identical result, work
//! profile, time and plan — or the identical error. Every shape the lattice
//! does not derive must behave exactly as before. Plans that filter a keyword
//! as a residual, which refine by ANDing chunks with the token's stored
//! postings, are also pinned across every engine and sharded layout.

use proptest::prelude::*;

use vizdb::approx::ApproxRule;
use vizdb::hints::{enumerate_hint_sets, HintSet, RewriteOption};
use vizdb::query::{BinGrid, JoinSpec, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{Table, TableBuilder};
use vizdb::types::{GeoRect, NumRange, TimeRange};
use vizdb::{Database, DbConfig, Error, ExecEngine, PartitionScheme, QueryBackend, ShardedBackend};

fn build_table(points: &[(f64, f64)], keyword_every: usize) -> Table {
    build_named_table("events", points, keyword_every)
}

fn build_named_table(name: &str, points: &[(f64, f64)], keyword_every: usize) -> Table {
    let schema = TableSchema::new(name)
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("score", ColumnType::Float);
    let mut b = TableBuilder::new(schema);
    for (i, &(lon, lat)) in points.iter().enumerate() {
        b.push_row(|row| {
            row.set_int("id", i as i64 * 3 - 40);
            row.set_timestamp("when", i as i64 * 5);
            row.set_geo("loc", lon, lat);
            let unique = format!("u{i}");
            let words: Vec<&str> = if i % keyword_every.max(1) == 0 {
                vec!["hot", unique.as_str()]
            } else {
                vec!["cold", unique.as_str()]
            };
            row.set_text("text", &words);
            row.set_float("score", (i % 37) as f64 - 5.0);
        });
    }
    b.build()
}

fn database(table: &Table, config: DbConfig) -> Database {
    let mut db = Database::new(config);
    db.register_table(table.clone()).unwrap();
    db.build_all_indexes("events").unwrap();
    db.build_sample("events", 20).unwrap();
    db
}

/// The configurations the lattice must be exact under: the default, the
/// morsel-parallel engine, the commercial profile's noise, and plans that
/// ignore their hints.
fn configs() -> Vec<DbConfig> {
    vec![
        DbConfig::default(),
        DbConfig {
            exec_threads: 4,
            ..DbConfig::default()
        },
        DbConfig::commercial(),
        DbConfig {
            hint_adherence: 0.5,
            ..DbConfig::default()
        },
    ]
}

fn hint_options(query: &Query) -> Vec<RewriteOption> {
    enumerate_hint_sets(query)
        .into_iter()
        .map(RewriteOption::hinted)
        .collect()
}

fn same_error(a: &Error, b: &Error, what: &str) {
    assert_eq!(a, b, "{what}: errors diverged");
}

/// Prices every option of `options` on `db` (lattice) and on `oracle` (the
/// interpreter, always executed), then runs each on `db` and compares with
/// the oracle's run. Returns whether `db` memoised a lattice for `query`.
fn assert_lattice_matches(
    db: &Database,
    oracle: &Database,
    query: &Query,
    options: &[RewriteOption],
) -> bool {
    db.clear_caches();
    oracle.clear_caches();
    let mut priced_ok = 0;
    for ro in options {
        let priced = db.execution_time_ms(query, ro);
        let executed = oracle.run_with_engine(query, ro, ExecEngine::Interpreted);
        match (priced, executed) {
            (Ok(t), Ok(o)) => {
                assert_eq!(
                    t.to_bits(),
                    o.time_ms.to_bits(),
                    "priced time diverged for {ro:?} on {query:?}"
                );
                priced_ok += 1;
            }
            (Err(a), Err(b)) => same_error(&a, &b, "pricing"),
            (a, b) => panic!("pricing: {a:?} vs executed {b:?} for {ro:?} on {query:?}"),
        }
    }
    // Only requested (query, option) pairs are cached, however many the
    // lattice could price.
    assert_eq!(db.cache_entry_counts().0, priced_ok, "time-cache entries");
    let derived = db.memoized_lattices() == 1;
    assert!(db.memoized_lattices() <= 1);
    for ro in options {
        let served = db.run(query, ro);
        let executed = oracle.run_with_engine(query, ro, ExecEngine::Interpreted);
        match (served, executed) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.result, b.result,
                    "result diverged for {ro:?} on {query:?}"
                );
                assert_eq!(a.work, b.work, "work diverged for {ro:?} on {query:?}");
                assert_eq!(
                    a.time_ms.to_bits(),
                    b.time_ms.to_bits(),
                    "run time diverged"
                );
                assert_eq!(a.plan, b.plan, "plan diverged for {ro:?}");
            }
            (Err(a), Err(b)) => same_error(&a, &b, "run"),
            (a, b) => panic!("run: {a:?} vs executed {b:?} for {ro:?} on {query:?}"),
        }
    }
    derived
}

/// SplitMix64: draws the adversarial choices from one proptest seed.
struct Picker(u64);

impl Picker {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

fn rect(min_lon: f64, min_lat: f64, max_lon: f64, max_lat: f64) -> GeoRect {
    GeoRect {
        min_lon,
        min_lat,
        max_lon,
        max_lat,
    }
}

/// One predicate, adversarial about a third of the time. Returns it with
/// whether its index and compiled forms can disagree (a NaN bound), which
/// makes the lattice decline the query.
fn adversarial_predicate(p: &mut Picker) -> (Predicate, bool) {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    match p.below(4) {
        0 => (
            Predicate::keyword(3, p.pick(&["hot", "cold", "nosuchword", "u3", ""])),
            false,
        ),
        1 => {
            let range = match p.below(6) {
                0 => TimeRange {
                    start: i64::MIN,
                    end: i64::MAX,
                },
                1 => TimeRange {
                    start: 600,
                    end: 100,
                },
                2 => TimeRange {
                    start: i64::MIN,
                    end: i64::MIN,
                },
                3 => TimeRange {
                    start: i64::MAX,
                    end: i64::MAX,
                },
                _ => TimeRange::new(p.below(1200) as i64 - 50, p.below(1200) as i64 - 50),
            };
            (Predicate::TimeRange { attr: 1, range }, false)
        }
        2 => {
            let lon = p.float(-130.0, -60.0);
            let lat = p.float(20.0, 50.0);
            let r = match p.below(8) {
                0 => rect(nan, lat, lon + 10.0, lat + 10.0),
                1 => rect(lon, lat, nan, nan),
                2 => rect(-inf, -inf, inf, inf),
                3 => rect(lon, lat, -inf, lat + 5.0),
                4 => rect(lon + 5.0, lat + 5.0, lon, lat),
                5 => rect(lon, lat, lon, lat),
                6 => rect(lon, 20.0, lon, 50.0),
                _ => GeoRect::new(lon, lat, lon + p.float(0.5, 40.0), lat + p.float(0.5, 20.0)),
            };
            let has_nan = [r.min_lon, r.min_lat, r.max_lon, r.max_lat]
                .iter()
                .any(|v| v.is_nan());
            (Predicate::spatial_range(2, r), has_nan)
        }
        _ => {
            let attr = p.pick(&[0usize, 4]);
            let lo = p.float(-60.0, 200.0);
            let range = match p.below(6) {
                0 => NumRange { lo: nan, hi: 10.0 },
                1 => NumRange { lo: 0.0, hi: nan },
                2 => NumRange { lo: -inf, hi: inf },
                3 => NumRange { lo: 20.0, hi: -3.0 },
                4 => NumRange { lo: -0.0, hi: 0.0 },
                _ => NumRange::new(lo, lo + p.float(0.0, 120.0)),
            };
            let has_nan = range.lo.is_nan() || range.hi.is_nan();
            (Predicate::NumericRange { attr, range }, has_nan)
        }
    }
}

/// An output shape; heatmap grids are occasionally degenerate (zero columns
/// or rows) or oversized (more than 2^32 cells). Returns it with whether it
/// is valid.
fn adversarial_output(p: &mut Picker) -> (OutputKind, bool) {
    match p.below(3) {
        0 => (
            OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            },
            true,
        ),
        1 => {
            let (cols, rows) = match p.below(8) {
                0 => (0, 8),
                1 => (8, 0),
                2 => (100_000, 100_000),
                3 => (1 << 16, 1 << 16),
                _ => (1 + p.below(24) as u32, 1 + p.below(24) as u32),
            };
            let lon = p.float(-125.0, -70.0);
            let grid = BinGrid::new(GeoRect::new(lon, 22.0, lon + 30.0, 48.0), cols, rows);
            (
                OutputKind::BinnedCounts {
                    point_attr: 2,
                    grid,
                },
                grid.validate().is_ok(),
            )
        }
        _ => (OutputKind::Count, true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Well-formed scatterplot, heatmap and count queries: every hint option
    /// is derived and matches the executor under every configuration.
    #[test]
    fn lattice_matches_executor_on_random_queries(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 0..260),
        keyword_every in 1usize..6,
        t_lo in -20i64..600,
        t_w in 0i64..900,
        lon_a in -125.0f64..-65.0,
        lon_w in 0.5f64..55.0,
        score_hi in -5.0f64..40.0,
        cols in 1u32..30,
        rows in 1u32..30,
    ) {
        let table = build_table(&points, keyword_every);
        let rect = GeoRect::new(lon_a, 22.0, lon_a + lon_w, 48.0);
        let base = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, t_lo, t_lo + t_w))
            .filter(Predicate::spatial_range(2, rect));
        let queries = [
            base.clone().output(OutputKind::Points { id_attr: 0, point_attr: 2 }),
            base.clone().output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(rect, cols, rows),
            }),
            base.filter(Predicate::numeric_range(4, -5.0, score_hi)).output(OutputKind::Count),
            Query::select("events").output(OutputKind::Count),
        ];
        for config in configs() {
            let db = database(&table, config.clone());
            let oracle = database(&table, config);
            for query in &queries {
                let derived = assert_lattice_matches(&db, &oracle, query, &hint_options(query));
                prop_assert!(derived, "a well-formed exact query must be derived: {:?}", query);
            }
        }
    }

    /// Adversarial predicates and grids: NaN, infinite, inverted and
    /// zero-area rects, extreme and inverted time ranges, NaN numeric bounds,
    /// unknown keywords, zero and oversized grids, zero to four predicates.
    #[test]
    fn lattice_matches_executor_on_adversarial_queries(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 0..200),
        seed in 0u64..u64::MAX,
    ) {
        let table = build_table(&points, 3);
        let db = database(&table, DbConfig::default());
        let oracle = database(&table, DbConfig::default());
        let mut p = Picker(seed);
        for _ in 0..6 {
            let mut query = Query::select("events");
            let mut derivable = true;
            for _ in 0..p.below(5) {
                let (pred, has_nan) = adversarial_predicate(&mut p);
                derivable &= !has_nan;
                query = query.filter(pred);
            }
            let (output, valid) = adversarial_output(&mut p);
            let query = query.output(output);
            let derived = assert_lattice_matches(&db, &oracle, &query, &hint_options(&query));
            prop_assert!(derived == (derivable && valid), "lattice use {} for {:?}", derived, query);
        }
    }
}

/// Parallel engines, the commercial profile and partial hint adherence on one
/// adversarial stream (the property above covers them on well-formed queries).
#[test]
fn adversarial_queries_match_under_every_config() {
    let points: Vec<(f64, f64)> = (0..300)
        .map(|i| (-120.0 + (i % 97) as f64 * 0.5, 25.0 + (i % 23) as f64))
        .collect();
    let table = build_table(&points, 4);
    for config in configs() {
        let db = database(&table, config.clone());
        let oracle = database(&table, config);
        let mut p = Picker(0xD15EA5E);
        for _ in 0..40 {
            let mut query = Query::select("events");
            for _ in 0..1 + p.below(4) {
                query = query.filter(adversarial_predicate(&mut p).0);
            }
            let query = query.output(adversarial_output(&mut p).0);
            assert_lattice_matches(&db, &oracle, &query, &hint_options(&query));
        }
    }
}

fn sample_points() -> Vec<(f64, f64)> {
    (0..400)
        .map(|i| {
            (
                -124.0 + (i * 37 % 530) as f64 * 0.1,
                25.0 + (i * 11 % 230) as f64 * 0.1,
            )
        })
        .collect()
}

fn scatter_query() -> Query {
    Query::select("events")
        .filter(Predicate::keyword(3, "hot"))
        .filter(Predicate::time_range(1, 100, 1500))
        .filter(Predicate::spatial_range(
            2,
            GeoRect::new(-122.0, 26.0, -90.0, 45.0),
        ))
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        })
}

/// Shapes the lattice does not derive keep executing: LIMIT, every
/// approximation rule, joins, an unindexed predicate, a numeric range over a
/// timestamp column, and predicates that fail to compile (same error).
#[test]
fn fallback_shapes_are_unchanged() {
    let table = build_table(&sample_points(), 3);
    let db = database(&table, DbConfig::default());
    let oracle = database(&table, DbConfig::default());
    let check = |db: &Database, oracle: &Database, query: &Query, options: &[RewriteOption]| {
        let derived = assert_lattice_matches(db, oracle, query, options);
        assert!(!derived, "{query:?} must fall back to the executor");
    };

    let limited = scatter_query().limit(25);
    check(&db, &oracle, &limited, &hint_options(&limited));

    let query = scatter_query();
    for rule in [
        ApproxRule::SampleTable { fraction_pct: 20 },
        ApproxRule::TableSample { fraction_pct: 50 },
        ApproxRule::LimitPermille { permille: 250 },
    ] {
        // The query itself is exact, so its lattice is built; the approximate
        // options must still execute, and match.
        let options: Vec<RewriteOption> = enumerate_hint_sets(&query)
            .into_iter()
            .map(|h| RewriteOption::approximate(h, rule))
            .collect();
        assert_lattice_matches(&db, &oracle, &query, &options);
    }

    let timestamp_as_number = scatter_query().filter(Predicate::numeric_range(1, 100.0, 900.0));
    check(
        &db,
        &oracle,
        &timestamp_as_number,
        &hint_options(&timestamp_as_number),
    );
    for bad in [
        Predicate::numeric_range(3, 0.0, 1.0),
        Predicate::keyword(0, "hot"),
        Predicate::time_range(17, 0, 10),
    ] {
        let uncompilable = scatter_query().filter(bad);
        check(&db, &oracle, &uncompilable, &hint_options(&uncompilable));
    }

    // Joins.
    let users_schema = TableSchema::new("users")
        .with_column("id", ColumnType::Int)
        .with_column("rank", ColumnType::Float);
    let mut users = TableBuilder::new(users_schema);
    for i in 0..40i64 {
        users.push_row(|row| {
            row.set_int("id", i);
            row.set_float("rank", (i % 9) as f64);
        });
    }
    let users = users.build();
    let mut jdb = database(&table, DbConfig::default());
    let mut joracle = database(&table, DbConfig::default());
    for db in [&mut jdb, &mut joracle] {
        db.register_table(users.clone()).unwrap();
        db.build_all_indexes("users").unwrap();
    }
    let joined = scatter_query().join_with(JoinSpec {
        right_table: "users".into(),
        left_attr: 0,
        right_attr: 0,
        right_predicates: vec![Predicate::numeric_range(1, 0.0, 4.0)],
    });
    check(&jdb, &joracle, &joined, &hint_options(&joined));

    // An unindexed predicate column.
    let mut partial = Database::new(DbConfig::default());
    let mut partial_oracle = Database::new(DbConfig::default());
    for db in [&mut partial, &mut partial_oracle] {
        db.register_table(table.clone()).unwrap();
        for column in ["when", "loc", "text"] {
            db.build_index("events", column).unwrap();
        }
    }
    let unindexed = scatter_query().filter(Predicate::numeric_range(4, 0.0, 12.0));
    check(
        &partial,
        &partial_oracle,
        &unindexed,
        &hint_options(&unindexed),
    );
}

/// Lattices share index scans of identical predicates across queries, but
/// never across tables: the same predicates over a second table with other
/// data must still match the executor.
#[test]
fn scans_are_shared_within_a_table_only() {
    let points = sample_points();
    let shifted: Vec<(f64, f64)> = points.iter().map(|&(lon, lat)| (lon + 3.0, lat)).collect();
    let events = build_table(&points, 3);
    let other = build_named_table("events2", &shifted, 2);
    let mut db = database(&events, DbConfig::default());
    let mut oracle = database(&events, DbConfig::default());
    for db in [&mut db, &mut oracle] {
        db.register_table(other.clone()).unwrap();
        db.build_all_indexes("events2").unwrap();
    }
    let mut on_other = scatter_query();
    on_other.table = "events2".into();
    // Without clearing caches in between: later lattices start from the
    // scans of earlier ones.
    for query in [scatter_query(), on_other.clone(), scatter_query(), on_other] {
        for ro in hint_options(&query) {
            let priced = db.execution_time_ms(&query, &ro).unwrap();
            let executed = oracle
                .run_with_engine(&query, &ro, ExecEngine::Interpreted)
                .unwrap();
            assert_eq!(priced.to_bits(), executed.time_ms.to_bits(), "{ro:?}");
            let served = db.run(&query, &ro).unwrap();
            assert_eq!(served.result, executed.result);
            assert_eq!(served.work, executed.work);
        }
    }
    assert_eq!(db.memoized_lattices(), 2);
}

/// The memo holds at most `MEMO_CAPACITY` queries, evicts the oldest first,
/// and is emptied by `clear_caches` and by catalog mutations.
#[test]
fn memo_is_bounded_and_invalidated() {
    use vizdb::exec::lattice::MEMO_CAPACITY;
    let table = build_table(&sample_points(), 3);
    let mut db = database(&table, DbConfig::default());
    let query = |i: usize| {
        Query::select("events")
            .filter(Predicate::time_range(1, 0, 50 * i as i64))
            .output(OutputKind::Count)
    };
    let ro = RewriteOption::original();
    for i in 0..MEMO_CAPACITY + 5 {
        db.execution_time_ms(&query(i), &ro).unwrap();
        assert_eq!(db.memoized_lattices(), (i + 1).min(MEMO_CAPACITY));
    }
    // Re-pricing a held query (a time-cache miss) reuses its lattice.
    db.clear_caches();
    db.execution_time_ms(&query(0), &ro).unwrap();
    db.execution_time_ms(&query(0), &RewriteOption::hinted(HintSet::with_mask(1)))
        .unwrap();
    assert_eq!(db.memoized_lattices(), 1);
    db.build_index("events", "id").unwrap();
    assert_eq!(db.memoized_lattices(), 0, "catalog mutations drop lattices");
}

fn sharded(table: &Table, scheme: PartitionScheme) -> ShardedBackend {
    let mut builder = ShardedBackend::builder(DbConfig::default(), 3).with_partition_scheme(scheme);
    builder.register_table(table).unwrap();
    builder.build_all_indexes("events").unwrap();
    builder.build()
}

/// Through `ShardedBackend` (1-D stripes and 2-D tiles) every option priced
/// from the shards' lattices, and every lattice-served run, matches a mirror
/// whose shards only ever execute (each option run before it is priced) and
/// the unsharded executor.
#[test]
fn sharded_backends_match_the_executor() {
    let table = build_table(&sample_points(), 3);
    let oracle = database(&table, DbConfig::default());
    for scheme in [
        PartitionScheme::Lon1D,
        PartitionScheme::Tiles2D { grid_dim: 8 },
    ] {
        let lattice = sharded(&table, scheme);
        let executed = sharded(&table, scheme);
        for query in [
            scatter_query(),
            scatter_query().output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(GeoRect::new(-122.0, 26.0, -90.0, 45.0), 17, 9),
            }),
            scatter_query().output(OutputKind::Count),
        ] {
            let options = hint_options(&query);
            let executed_runs: Vec<_> = options
                .iter()
                .map(|ro| executed.run(&query, ro).unwrap())
                .collect();
            let priced: Vec<f64> = options
                .iter()
                .map(|ro| lattice.execution_time_ms(&query, ro).unwrap())
                .collect();
            for ((ro, time), reference) in options.iter().zip(&priced).zip(&executed_runs) {
                assert_eq!(
                    time.to_bits(),
                    executed.execution_time_ms(&query, ro).unwrap().to_bits(),
                    "{scheme:?} priced time diverged for {ro:?}"
                );
                let served = lattice.run(&query, ro).unwrap();
                assert_eq!(served.result, reference.result, "{scheme:?} {ro:?}");
                assert_eq!(served.work, reference.work, "{scheme:?} {ro:?}");
                assert_eq!(served.time_ms.to_bits(), reference.time_ms.to_bits());
                assert_eq!(
                    served.result,
                    oracle
                        .run_with_engine(&query, ro, ExecEngine::Interpreted)
                        .unwrap()
                        .result,
                    "{scheme:?} diverged from the unsharded executor"
                );
            }
        }
    }
}

/// A degenerate or oversized grid is a typed `InvalidQuery` on every path —
/// priced, run, executed by any engine, sharded — and, not being a shard
/// fault, is never retried and never opens a breaker.
#[test]
fn invalid_grids_fail_identically_and_keep_breakers_closed() {
    let table = build_table(&sample_points(), 3);
    let db = database(&table, DbConfig::default());
    let backend = sharded(&table, PartitionScheme::Tiles2D { grid_dim: 8 });
    let extent = GeoRect::new(-122.0, 26.0, -90.0, 45.0);
    for (cols, rows) in [(0, 4), (4, 0), (100_000, 100_000), (u32::MAX, 2)] {
        let query = scatter_query().output(OutputKind::BinnedCounts {
            point_attr: 2,
            grid: BinGrid::new(extent, cols, rows),
        });
        for ro in hint_options(&query) {
            let expected = db
                .run_with_engine(&query, &ro, ExecEngine::Interpreted)
                .unwrap_err();
            assert!(matches!(expected, Error::InvalidQuery(_)), "{expected:?}");
            for engine in [
                ExecEngine::CompiledIdVec,
                ExecEngine::CompiledBitmap,
                ExecEngine::ParallelBitmap { threads: 3 },
            ] {
                assert_eq!(
                    db.run_with_engine(&query, &ro, engine).unwrap_err(),
                    expected
                );
            }
            assert_eq!(db.execution_time_ms(&query, &ro).unwrap_err(), expected);
            assert_eq!(db.run(&query, &ro).unwrap_err(), expected);
            for _ in 0..3 {
                assert_eq!(backend.run(&query, &ro).unwrap_err(), expected);
                assert_eq!(
                    backend.execution_time_ms(&query, &ro).unwrap_err(),
                    expected
                );
            }
        }
    }
    let faults = backend.fault_stats();
    assert_eq!(faults.retries, 0, "query errors are not retried");
    assert_eq!(faults.breaker_open_skips, 0);
    let good = scatter_query();
    assert_eq!(
        backend
            .run(&good, &RewriteOption::original())
            .unwrap()
            .result,
        db.run(&good, &RewriteOption::original()).unwrap().result,
        "well-formed queries still run after a stream of invalid ones"
    );
    assert_eq!(backend.fault_stats().breaker_open_skips, 0);
}

/// A keyword filtered as a residual refines index candidates by ANDing
/// chunks with the token's stored postings. On such plans every engine, the
/// lattice (priced, then served) and both sharded layouts match the
/// interpreter, over 13k rows: `hot` postings of bitset chunks (every third
/// row) and of run chunks (every row), `u1000` (one row, so all but one shard
/// lack the token), an unknown keyword, a text column without an inverted
/// index (which keeps the document probe) and LIMIT-capped plans.
#[test]
fn keyword_residuals_match_the_interpreter() {
    let points: Vec<(f64, f64)> = (0..13_000)
        .map(|i| {
            (
                -124.0 + (i * 37 % 530) as f64 * 0.1,
                25.0 + (i * 11 % 230) as f64 * 0.1,
            )
        })
        .collect();
    let extent = GeoRect::new(-121.0, 27.0, -80.0, 46.0);
    let mut queries = Vec::new();
    for word in ["hot", "cold", "u1000", "nosuchword"] {
        let base = Query::select("events")
            .filter(Predicate::time_range(1, 4_000, 58_000))
            .filter(Predicate::spatial_range(2, extent))
            .filter(Predicate::keyword(3, word));
        let grid = BinGrid::new(extent, 24, 12);
        queries.push(base.clone().output(OutputKind::BinnedCounts {
            point_attr: 2,
            grid,
        }));
        queries.push(base.clone().output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        }));
        queries.push(base.output(OutputKind::Count).limit(40));
    }
    for keyword_every in [3, 1] {
        let table = build_table(&points, keyword_every);
        let indexed = |config: DbConfig, columns: &[&str]| {
            let mut db = Database::new(config);
            db.register_table(table.clone()).unwrap();
            for column in columns {
                db.build_index("events", column).unwrap();
            }
            db
        };
        let all = ["id", "when", "loc", "text", "score"];
        let oracle = indexed(DbConfig::default(), &all);
        let mut residual_plans = 0;
        for db in [
            indexed(DbConfig::default(), &all),
            indexed(DbConfig::default(), &all[..3]),
        ] {
            for query in &queries {
                for ro in hint_options(query) {
                    let expected = db
                        .run_with_engine(query, &ro, ExecEngine::Interpreted)
                        .unwrap();
                    let plan = &expected.plan;
                    residual_plans +=
                        usize::from(!plan.index_preds.is_empty() && plan.filter_preds.contains(&2));
                    for engine in [
                        ExecEngine::CompiledIdVec,
                        ExecEngine::CompiledBitmap,
                        ExecEngine::ParallelBitmap { threads: 2 },
                        ExecEngine::ParallelBitmap { threads: 4 },
                    ] {
                        db.clear_caches();
                        let got = db.run_with_engine(query, &ro, engine).unwrap();
                        let what = format!("{engine:?} {ro:?} {query:?}");
                        assert_eq!(
                            (&got.result, &got.work, &got.plan),
                            (&expected.result, &expected.work, plan),
                            "{what}"
                        );
                        assert_eq!(got.time_ms.to_bits(), expected.time_ms.to_bits(), "{what}");
                    }
                }
            }
        }
        assert!(
            residual_plans >= 40,
            "{residual_plans} keyword-residual index plans"
        );

        let threaded = DbConfig {
            exec_threads: 4,
            ..DbConfig::default()
        };
        for lattice in [indexed(DbConfig::default(), &all), indexed(threaded, &all)] {
            for query in &queries {
                let derived =
                    assert_lattice_matches(&lattice, &oracle, query, &hint_options(query));
                assert_eq!(derived, query.limit.is_none(), "{query:?}");
            }
        }

        for scheme in [
            PartitionScheme::Lon1D,
            PartitionScheme::Tiles2D { grid_dim: 8 },
        ] {
            let (lattice, executed) = (sharded(&table, scheme), sharded(&table, scheme));
            for query in &queries {
                for ro in hint_options(query) {
                    let expected = executed.run(query, &ro).unwrap();
                    let what = format!("{scheme:?} {ro:?} {query:?}");
                    let priced = lattice.execution_time_ms(query, &ro).unwrap();
                    let served = lattice.run(query, &ro).unwrap();
                    assert_eq!(
                        (&served.result, &served.work),
                        (&expected.result, &expected.work),
                        "{what}"
                    );
                    assert_eq!(
                        served.time_ms.to_bits(),
                        expected.time_ms.to_bits(),
                        "{what}"
                    );
                    assert_eq!(priced.to_bits(), expected.time_ms.to_bits(), "{what}");
                    let unsharded = oracle
                        .run_with_engine(query, &ro, ExecEngine::Interpreted)
                        .unwrap();
                    assert_eq!(served.result, unsharded.result, "{what}");
                }
            }
        }
    }
}
