//! Model-check suite for the `vizdb::sync` facade, the fingerprint cache and
//! the database's selection-lattice memo.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`, where
//! `vizdb::sync` resolves to the instrumented loomlite shims and `explore`
//! drives every lock acquisition and atomic access through the deterministic
//! scheduler. A plain `cargo test` builds this file to an empty test binary.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config, FailureKind};
use vizdb::exec::lattice::MEMO_CAPACITY;
use vizdb::hints::{HintSet, RewriteOption};
use vizdb::query::{OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{Table, TableBuilder};
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::sync::thread;
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, FingerprintCache};

/// A classic lost update, written against the *facade's* atomics. The checker
/// finding it proves the `maliva_model_check` cfg actually switched
/// `vizdb::sync` onto the loomlite shims — uninstrumented std atomics would
/// give the scheduler nothing to interleave.
#[test]
fn facade_atomics_are_instrumented() {
    let report = explore(Config::random(7, 2000), || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = report
        .failure
        .expect("the seeded read-modify-write race must be found");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "expected the lost-update assertion, got {failure}"
    );
}

/// The cache contract under every explored interleaving: two threads race
/// `get_or_try_compute` on one key with *different* candidate values; the
/// first insert wins and both threads observe exactly the canonical value.
#[test]
fn fingerprint_cache_first_insert_wins_under_every_interleaving() {
    let report = explore(Config::random(11, 1000), || {
        let cache = Arc::new(FingerprintCache::new());
        let a = cache.clone();
        let ha = thread::spawn(move || {
            let v: Result<f64, ()> = a.get_or_try_compute((1, 2), || Ok(10.0));
            v.unwrap()
        });
        let b = cache.clone();
        let hb = thread::spawn(move || {
            let v: Result<f64, ()> = b.get_or_try_compute((1, 2), || Ok(20.0));
            v.unwrap()
        });
        let va = ha.join().unwrap();
        let vb = hb.join().unwrap();
        let canonical = cache.get((1, 2)).expect("one insert must have landed");
        assert_eq!(va, canonical, "thread A observed a non-canonical value");
        assert_eq!(vb, canonical, "thread B observed a non-canonical value");
        assert_eq!(cache.len(), 1, "a racing insert must not duplicate the key");
    });
    report.assert_ok();
    assert!(report.schedules_explored >= 1000);
}

/// `insert_canonical` against a concurrent `clear`: whatever the outcome, the
/// caller's returned value was canonical *at insertion time* and the cache
/// ends in one of the two legal states (entry present with the inserted value,
/// or empty).
#[test]
fn fingerprint_cache_clear_races_are_benign() {
    let report = explore(Config::random(13, 1000), || {
        let cache = Arc::new(FingerprintCache::new());
        let inserter = {
            let c = cache.clone();
            thread::spawn(move || c.insert_canonical((9, 9), 4.5))
        };
        let clearer = {
            let c = cache.clone();
            thread::spawn(move || c.clear())
        };
        let inserted = inserter.join().unwrap();
        clearer.join().unwrap();
        assert_eq!(inserted, 4.5);
        match cache.get((9, 9)) {
            Some(v) => assert_eq!(v, 4.5),
            None => assert!(cache.is_empty()),
        }
    });
    report.assert_ok();
}

fn lattice_table() -> Table {
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo);
    let mut b = TableBuilder::new(schema);
    for i in 0..64i64 {
        b.push_row(|row| {
            row.set_int("id", i);
            row.set_timestamp("when", i * 3);
            row.set_geo("loc", -100.0 + (i % 8) as f64, 30.0 + (i / 8) as f64);
        });
    }
    b.build()
}

fn lattice_db(table: &Table) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.register_table(table.clone()).unwrap();
    db.build_all_indexes("t").unwrap();
    db
}

/// Two threads price different hint options of one query (each building or
/// reusing the query's selection lattice, then running the option) while a
/// third clears every cache. Under every explored interleaving each thread
/// sees exactly the sequential time, and the memo never holds more than its
/// capacity.
#[test]
fn lattice_pricing_races_clear_caches() {
    let table = lattice_table();
    let query = Query::select("t")
        .filter(Predicate::time_range(1, 20, 150))
        .filter(Predicate::spatial_range(
            2,
            GeoRect::new(-99.5, 31.0, -94.0, 36.0),
        ))
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        });
    let options = [
        RewriteOption::hinted(HintSet::with_mask(0b01)),
        RewriteOption::hinted(HintSet::with_mask(0b10)),
    ];
    let reference = lattice_db(&table);
    let expected: Vec<f64> = options
        .iter()
        .map(|ro| reference.execution_time_ms(&query, ro).unwrap())
        .collect();
    assert_ne!(
        expected[0], expected[1],
        "the options must price differently"
    );

    let report = explore(Config::random(17, 300), move || {
        let db = Arc::new(lattice_db(&table));
        let pricers: Vec<_> = options
            .iter()
            .map(|ro| {
                let (db, query, ro) = (db.clone(), query.clone(), ro.clone());
                thread::spawn(move || {
                    let priced = db.execution_time_ms(&query, &ro).unwrap();
                    assert!(db.memoized_lattices() <= MEMO_CAPACITY);
                    let run = db.run(&query, &ro).unwrap().time_ms;
                    (priced, run)
                })
            })
            .collect();
        let clearer = {
            let db = db.clone();
            thread::spawn(move || db.clear_caches())
        };
        for (pricer, &time) in pricers.into_iter().zip(&expected) {
            let (priced, run) = pricer.join().unwrap();
            assert_eq!(priced, time, "priced time diverged from the sequential run");
            assert_eq!(run, time, "run time diverged from the sequential run");
        }
        clearer.join().unwrap();
        assert!(db.memoized_lattices() <= MEMO_CAPACITY);
    });
    report.assert_ok();
}
