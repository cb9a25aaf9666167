//! The output check, run after the timed phase: every served result against
//! an unsharded `Database::run` of the same rewrite, plus the quality of
//! approximate answers and the no-rewrite baseline times.

use std::collections::{HashMap, HashSet};

use maliva_quality::jaccard_quality;
use vizdb::exec::QueryResult;
use vizdb::hints::RewriteOption;
use vizdb::{Database, QueryBackend};

use crate::load::Served;
use crate::workloads::{Stream, TAU_MS};
use crate::Outcome;

/// A 128-bit fingerprint of a result's canonical byte encoding (tag, then
/// every field little-endian in result order), with the encoding's length.
/// Two results with equal encodings always have equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub bytes: u64,
    pub lanes: [u64; 2],
}

struct Hasher {
    bytes: u64,
    lanes: [u64; 2],
}

impl Hasher {
    fn new(tag: u64) -> Self {
        let mut h = Self {
            bytes: 0,
            lanes: [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344],
        };
        h.word(tag, 1);
        h
    }

    /// Absorbs one field of `width` bytes.
    fn word(&mut self, w: u64, width: u64) {
        self.bytes += width;
        self.lanes[0] = mix(self.lanes[0] ^ w);
        self.lanes[1] = mix(self.lanes[1].rotate_left(29) ^ w ^ self.bytes);
    }
}

/// The splitmix64 finaliser: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn digest(result: &QueryResult) -> Digest {
    let mut h;
    match result {
        QueryResult::Points(points) => {
            h = Hasher::new(1);
            for (id, p) in points {
                h.word(*id as u64, 8);
                h.word(p.lon.to_bits(), 8);
                h.word(p.lat.to_bits(), 8);
            }
        }
        QueryResult::Bins(bins) => {
            h = Hasher::new(2);
            for (bin, count) in bins {
                h.word(u64::from(*bin), 4);
                h.word(*count, 8);
            }
        }
        QueryResult::Count(c) => {
            h = Hasher::new(3);
            h.word(*c, 8);
        }
    }
    Digest {
        bytes: h.bytes,
        lanes: h.lanes,
    }
}

/// What the server answered for one request (the result itself is reduced to
/// its digest so a long run's answers fit in memory).
#[derive(Debug, Clone)]
pub struct Answer {
    pub chosen_index: usize,
    pub rewrite: RewriteOption,
    pub planning_ms: f64,
    pub exec_ms: f64,
    pub total_ms: f64,
    pub cache_hit: bool,
    pub digest: Digest,
}

impl Answer {
    pub fn of(response: &maliva_serve::ServeResponse) -> Self {
        Self {
            chosen_index: response.chosen_index,
            rewrite: response.rewrite.clone(),
            planning_ms: response.planning_ms,
            exec_ms: response.exec_ms,
            total_ms: response.total_ms,
            cache_hit: response.cache_hit,
            digest: digest(&response.result),
        }
    }
}

/// The reference for one (viewport, rewrite) pair.
#[derive(Debug, Clone, Copy)]
struct Reference {
    digest: Digest,
    /// Jaccard similarity of the rewrite's result to the original query's;
    /// 1.0 for exact rewrites.
    quality: f64,
}

/// The verdict on every request of a phase.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// `quality[k]` for the k-th checked request, `None` when it failed.
    pub quality: Vec<Option<f64>>,
    /// Stream indices of failed requests, with the reason.
    pub failures: Vec<(usize, String)>,
}

/// Runs `work` over `items` on `threads` threads, keeping item order.
fn par_map<I: Sync, O: Send>(items: &[I], threads: usize, work: impl Fn(&I) -> O + Sync) -> Vec<O> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let work = &work;
                scope.spawn(move || part.iter().map(work).collect::<Vec<O>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a checker thread panicked"))
            .collect()
    })
}

/// Checks every served answer against `Database::run(query, &answer.rewrite)`
/// on the unsharded database (`Err` outcomes carry the error text).
pub fn check(
    db: &Database,
    stream: &Stream,
    served: &[Served<Outcome>],
    threads: usize,
) -> Verdicts {
    // One reference per distinct (viewport, chosen option): the option index
    // identifies the rewrite within the viewport's space.
    let mut keys: Vec<(usize, usize, RewriteOption)> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for s in served {
        if let Ok(a) = &s.outcome {
            let key = (stream.order[s.index], a.chosen_index);
            if seen.insert(key) {
                keys.push((key.0, key.1, a.rewrite.clone()));
            }
        }
    }
    let references = par_map(&keys, threads, |(viewport, _, rewrite)| {
        let query = &stream.viewports[*viewport].query;
        let run = |ro: &RewriteOption| db.run(query, ro).map(|o| o.result);
        let result = run(rewrite)?;
        let quality = if rewrite.is_exact() {
            1.0
        } else {
            jaccard_quality(&run(&RewriteOption::original())?, &result)
        };
        Ok(Reference {
            digest: digest(&result),
            quality,
        })
    });
    let reference: HashMap<(usize, usize), vizdb::error::Result<Reference>> = keys
        .iter()
        .map(|(v, c, _)| (*v, *c))
        .zip(references)
        .collect();

    let mut verdicts = Verdicts::default();
    for s in served {
        let viewport = stream.order[s.index];
        let verdict = match &s.outcome {
            Err(e) => Err(format!("serve_one returned Err: {e}")),
            Ok(a) => match &reference[&(viewport, a.chosen_index)] {
                Err(e) => Err(format!("reference run failed: {e}")),
                Ok(r) if r.digest != a.digest => Err(format!(
                    "served result differs from Database::run ({} vs {} encoded bytes)",
                    a.digest.bytes, r.digest.bytes
                )),
                Ok(r) => Ok(r.quality),
            },
        };
        match verdict {
            Ok(q) => verdicts.quality.push(Some(q)),
            Err(reason) => {
                verdicts.quality.push(None);
                verdicts.failures.push((s.index, reason));
            }
        }
    }
    verdicts
}

/// The no-rewrite baseline over the distinct viewports of the served
/// requests: the original query's simulated execution time on the serving
/// backend, with no planning cost. Returns (VQP %, AQRT ms), weighting each
/// request equally.
pub fn baseline(
    backend: &dyn QueryBackend,
    stream: &Stream,
    indices: &[usize],
    threads: usize,
) -> vizdb::error::Result<(f64, f64)> {
    let mut viewports: Vec<usize> = indices.iter().map(|&i| stream.order[i]).collect();
    viewports.sort_unstable();
    viewports.dedup();
    let times = par_map(&viewports, threads, |&v| {
        backend.execution_time_ms(&stream.viewports[v].query, &RewriteOption::original())
    });
    let by_viewport: HashMap<usize, f64> = viewports
        .into_iter()
        .zip(times)
        .map(|(v, t)| Ok((v, t?)))
        .collect::<vizdb::error::Result<_>>()?;
    let n = indices.len().max(1) as f64;
    let per_request: Vec<f64> = indices
        .iter()
        .map(|&i| by_viewport[&stream.order[i]])
        .collect();
    let viable = per_request.iter().filter(|&&t| t <= TAU_MS).count() as f64;
    Ok((100.0 * viable / n, per_request.iter().sum::<f64>() / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::types::GeoPoint;

    #[test]
    fn digest_separates_kinds_and_values() {
        let p = |id, lon| QueryResult::Points(vec![(id, GeoPoint { lon, lat: 1.0 })]);
        assert_eq!(digest(&p(1, 2.0)), digest(&p(1, 2.0)));
        assert_ne!(digest(&p(1, 2.0)), digest(&p(2, 2.0)));
        assert_ne!(digest(&p(1, 2.0)), digest(&p(1, 2.5)));
        assert_ne!(
            digest(&QueryResult::Bins(vec![(1, 2)])),
            digest(&QueryResult::Bins(vec![(2, 1)]))
        );
        assert_ne!(
            digest(&QueryResult::Count(0)),
            digest(&QueryResult::Bins(vec![]))
        );
        assert_eq!(digest(&QueryResult::Bins(vec![(1, 2)])).bytes, 1 + 12);
    }
}
