//! Histogram Sort with Sampling (paper §III-B; the Charm++ comparator
//! of the evaluation, after Harsh, Kale & Solomonik, SPAA'19 \[1\]).
//!
//! Like the core histogram sort, splitters are refined by iterative
//! histogramming — but probes are **sampled data keys** instead of
//! key-space midpoints. Each round every rank contributes a few random
//! local keys from each unresolved splitter bracket; the median of the
//! gathered candidates becomes the next probe. Convergence is fast on
//! friendly inputs but *probabilistic*: the number of rounds (and the
//! per-round sample payload) varies with the data — the volatility the
//! paper observes in the Charm++ runs, up to outright non-termination
//! on normally distributed keys within the job's time limit.

use std::sync::Arc;

use dhs_core::splitter::{SplitterInfo, SplitterResult};
use dhs_core::{cut_route_merge, outcome_of, Key, LocalSort, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::{Comm, Work};
use dhs_workloads::SplitMix64;

use crate::tail::sort_local;

/// Sampling budget per rank per round, spread over the unresolved
/// splitters, so the global per-round sample is `O(P·budget)`: the
/// constant-samples-per-processor regime of \[1\].
const SAMPLES_PER_ROUND: usize = 8;

/// Load-balance tolerance ε: 0 demands exact boundaries and can take
/// many rounds.
const EPSILON: f64 = 0.0;

/// Hard cap on histogramming rounds. When it is reached the nearest
/// achievable boundary is accepted and the sort reports
/// [`dhs_core::SortOutcome::Degraded`] (the Charm++ runs hit their
/// wall-clock limit instead).
const MAX_ROUNDS: u32 = 256;

/// Deterministic sampling seed.
const SEED: u64 = 0x455;

/// Bracket state of one unresolved splitter: the boundary lies between
/// two known probe keys (open interval), whose global histograms we
/// keep for endpoint resolution.
struct Bracket<K> {
    lo: K,
    lo_hist: (u64, u64), // (L, U) of lo
    hi: K,
    hi_hist: (u64, u64),
    done: Option<(K, u64, u64, u64)>, // (key, realized, L, U)
}

/// Sort the distributed vector by histogram sort with sampling.
pub fn hss_sort<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    hss_sort_capped(comm, local, MAX_ROUNDS)
}

/// [`hss_sort`] with its round cap as an argument.
fn hss_sort_capped<K: Key>(comm: &Comm, local: &mut Vec<K>, max_rounds: u32) -> SortStats {
    let mut stats = SortStats::default();
    let p = comm.size();
    sort_local(comm, local, &mut stats);

    let sp = comm.span("prepare");
    let caps: Vec<usize> = comm.allgather(local.len());
    stats.prepare_ns += sp.finish();
    let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
    if n_total == 0 || p == 1 {
        stats.n_out = local.len();
        return stats;
    }
    let targets = dhs_core::perfect_targets(&caps);
    let slack = dhs_core::slack_for(n_total, p, EPSILON);

    let sp = comm.span("histogram");
    let result = hss_find_splitters(comm, local, &targets, slack, max_rounds);
    stats.iterations = result.iterations;
    stats.probes = result.probes;
    stats.outcome = outcome_of(&result, n_total, p);
    stats.histogram_ns += sp.finish();

    // Algorithm 4 refines equal-key boundaries for both algorithms.
    cut_route_merge(
        comm,
        local,
        &result,
        MergeAlgo::Resort,
        LocalSort::Comparison,
        &mut stats,
    );
    stats.n_out = local.len();
    stats
}

/// The sampled splitter search. Collective; deterministic in the seed.
fn hss_find_splitters<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    max_rounds: u32,
) -> SplitterResult<K> {
    let n_local = sorted_local.len() as u64;
    if targets.is_empty() {
        return SplitterResult {
            splitters: Arc::new([]),
            iterations: 0,
            probes: 0,
            degraded: false,
        };
    }

    // Global extremes plus their histograms (one reduction each way).
    let local_minmax: Option<(K, K)> = if sorted_local.is_empty() {
        None
    } else {
        Some((sorted_local[0], *sorted_local.last().expect("non-empty")))
    };
    let (min_key, max_key) = comm
        .allreduce_with(vec![local_minmax], |a, b| match (a, b) {
            (None, x) => *x,
            (x, None) => *x,
            (Some((alo, ahi)), Some((blo, bhi))) => Some(((*alo).min(*blo), (*ahi).max(*bhi))),
        })
        .pop()
        .expect("one element")
        .expect("n_total > 0");
    let ext = comm.allreduce_sum(vec![
        sorted_local.partition_point(|x| *x < min_key) as u64,
        sorted_local.partition_point(|x| *x <= min_key) as u64,
        sorted_local.partition_point(|x| *x < max_key) as u64,
        sorted_local.partition_point(|x| *x <= max_key) as u64,
    ]);
    let (min_hist, max_hist) = ((ext[0], ext[1]), (ext[2], ext[3]));

    let mut brackets: Vec<Bracket<K>> = targets
        .iter()
        .map(|&t| {
            let mut b = Bracket {
                lo: min_key,
                lo_hist: min_hist,
                hi: max_key,
                hi_hist: max_hist,
                done: None,
            };
            // The extremes may already settle the target.
            try_accept_endpoint(&mut b, t, slack);
            b
        })
        .collect();

    let mut rng = SplitMix64(SEED ^ (comm.rank() as u64).wrapping_mul(0x2545F4914F6CDD1D));
    let mut rounds = 0u32;
    let mut probes_total = 0u64;
    let mut converged = true;

    loop {
        let active: Vec<usize> = (0..brackets.len())
            .filter(|&i| brackets[i].done.is_none())
            .collect();
        if active.is_empty() {
            break;
        }
        if rounds == max_rounds {
            // Give up on exactness: accept the nearest achievable
            // endpoint boundary (the real Charm++ run would sit in the
            // histogramming loop until the wall clock kills it).
            converged = false;
            for &i in &active {
                force_accept_endpoint(&mut brackets[i], targets[i]);
            }
            break;
        }
        rounds += 1;

        // Contribute samples strictly inside the active brackets,
        // spreading this rank's per-round budget across them.
        let per_target_int = SAMPLES_PER_ROUND / active.len();
        let per_target_frac =
            (SAMPLES_PER_ROUND as f64 / active.len() as f64 - per_target_int as f64).max(0.0);
        let mut flat: Vec<(u32, K)> = Vec::new();
        for &i in &active {
            let b = &brackets[i];
            let from = sorted_local.partition_point(|x| *x <= b.lo);
            let to = sorted_local.partition_point(|x| *x < b.hi);
            if from < to {
                let extra =
                    usize::from((rng.next_u64() as f64 / u64::MAX as f64) < per_target_frac);
                for _ in 0..per_target_int + extra {
                    let idx = from + (rng.next_u64() % (to - from) as u64) as usize;
                    flat.push((i as u32, sorted_local[idx]));
                }
            }
        }
        comm.charge(Work::BinarySearches {
            searches: 2 * active.len() as u64,
            n: n_local,
        });
        // Samples flow to a central processor which picks one probe per
        // bracket and broadcasts the probes — O(active) result bytes
        // instead of replicating every sample. The probe is the
        // candidate at the target's *interpolated quantile* within the
        // bracket (the refinement rule that makes HSS converge in few
        // rounds when sampling is healthy).
        let n_targets = targets.len();
        let fractions: Vec<(u32, f64)> = active
            .iter()
            .map(|&i| {
                let b = &brackets[i];
                let interior_lo = b.lo_hist.1; // U(lo): keys <= lo
                let interior_hi = b.hi_hist.0; // L(hi): keys < hi
                let span = interior_hi.saturating_sub(interior_lo).max(1);
                let want = targets[i].saturating_sub(interior_lo).min(span);
                (i as u32, want as f64 / span as f64)
            })
            .collect();
        let probe_per_active: Vec<Option<K>> = comm.gather_reduce(
            flat,
            move |gathered| {
                // Bucket candidates by target in one pass.
                let mut buckets: Vec<Vec<K>> = vec![Vec::new(); n_targets];
                for (t, k) in gathered.into_iter().flatten() {
                    buckets[t as usize].push(k);
                }
                fractions
                    .iter()
                    .map(|&(i, f)| {
                        let cands = &mut buckets[i as usize];
                        if cands.is_empty() {
                            None
                        } else {
                            cands.sort_unstable();
                            let idx = (f * (cands.len() - 1) as f64).round() as usize;
                            Some(cands[idx.min(cands.len() - 1)])
                        }
                    })
                    .collect()
            },
            |r: &Vec<Option<K>>| (r.len() * std::mem::size_of::<K>()) as u64,
        );

        let mut probes: Vec<(usize, K)> = Vec::with_capacity(active.len());
        for (&i, probe) in active.iter().zip(&probe_per_active) {
            match probe {
                Some(k) => probes.push((i, *k)),
                None => {
                    // The global interior count is derivable from the
                    // bracket's endpoint histograms: keys strictly
                    // between lo and hi = L(hi) - U(lo).
                    let b = &mut brackets[i];
                    let interior = b.hi_hist.0.saturating_sub(b.lo_hist.1);
                    if interior == 0 {
                        // Truly no keys inside: the boundary can only
                        // sit on an endpoint's equal range.
                        force_accept_endpoint(b, targets[i]);
                        if b.done
                            .map(|(_, realized, _, _)| realized.abs_diff(targets[i]) > slack)
                            .unwrap_or(false)
                        {
                            converged = false;
                        }
                    }
                    // Otherwise: unlucky sampling this round — the
                    // bracket stays active and is retried (the
                    // volatility the paper observes in Charm++ runs).
                }
            }
        }
        if probes.is_empty() {
            continue;
        }

        // One global histogram reduction for all probes of this round.
        probes_total += probes.len() as u64;
        comm.charge(Work::BinarySearches {
            searches: 2 * probes.len() as u64,
            n: n_local,
        });
        let mut hist: Vec<u64> = Vec::with_capacity(2 * probes.len());
        for &(_, probe) in &probes {
            hist.push(sorted_local.partition_point(|x| *x < probe) as u64);
            hist.push(sorted_local.partition_point(|x| *x <= probe) as u64);
        }
        let global = comm.allreduce_sum(hist);

        for (j, &(i, probe)) in probes.iter().enumerate() {
            let (lower, upper) = (global[2 * j], global[2 * j + 1]);
            let t = targets[i];
            let b = &mut brackets[i];
            let lo_ok = t.saturating_sub(slack);
            let hi_ok = t.saturating_add(slack);
            if lower.max(lo_ok) <= upper.min(hi_ok) {
                b.done = Some((probe, t.clamp(lower, upper), lower, upper));
            } else if lower > hi_ok {
                b.hi = probe;
                b.hi_hist = (lower, upper);
            } else {
                b.lo = probe;
                b.lo_hist = (lower, upper);
            }
        }
    }

    let splitters = brackets
        .iter()
        .zip(targets)
        .map(|(b, &target)| {
            let (key, realized, lower, upper) = b.done.expect("all settled");
            SplitterInfo {
                key,
                target,
                realized,
                global_lower: lower,
                global_upper: upper,
            }
        })
        .collect();
    SplitterResult {
        splitters,
        iterations: rounds,
        probes: probes_total,
        degraded: !converged,
    }
}

/// Accept on an endpoint if the target already falls into one of the
/// endpoints' achievable intervals (within slack).
fn try_accept_endpoint<K: Key>(b: &mut Bracket<K>, t: u64, slack: u64) {
    for (key, (l, u)) in [(b.lo, b.lo_hist), (b.hi, b.hi_hist)] {
        let lo_ok = t.saturating_sub(slack);
        let hi_ok = t.saturating_add(slack);
        if l.max(lo_ok) <= u.min(hi_ok) {
            b.done = Some((key, t.clamp(l, u), l, u));
            return;
        }
    }
}

/// Accept the endpoint whose achievable interval is nearest the target
/// (used when the bracket has no interior keys or rounds ran out).
fn force_accept_endpoint<K: Key>(b: &mut Bracket<K>, t: u64) {
    let dist = |(l, u): (u64, u64)| -> u64 {
        if t < l {
            l - t
        } else {
            t.saturating_sub(u)
        }
    };
    let (key, (l, u)) = if dist(b.lo_hist) <= dist(b.hi_hist) {
        (b.lo, b.lo_hist)
    } else {
        (b.hi, b.hi_hist)
    };
    b.done = Some((key, t.clamp(l, u), l, u));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_core::SortOutcome;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn check(p: usize, n: usize, modulus: u64) -> Vec<SortStats> {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = hss_sort(comm, &mut local);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect);
        out.into_iter().map(|((_, s), _)| s).collect()
    }

    #[test]
    fn exact_partition_on_uniform_keys() {
        let stats = check(4, 1000, u64::MAX);
        for s in stats {
            assert_eq!(s.outcome, SortOutcome::Exact);
            assert_eq!(s.n_out, 1000, "ε=0 must be perfect");
            assert!(s.iterations > 0 && s.probes > 0);
        }
    }

    #[test]
    fn duplicates_and_constant_input() {
        check(4, 600, 7);
        check(3, 300, 1);
    }

    #[test]
    fn round_cap_still_sorts() {
        // Starve the search at 2 rounds: the output must still be
        // globally sorted, only balance degrades, and every rank says
        // so.
        let out = run(&ClusterConfig::small_cluster(4), move |comm| {
            let mut local = keys_for(comm.rank(), 500, u64::MAX);
            let stats = hss_sort_capped(comm, &mut local, 2);
            (local, stats)
        });
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(got.len(), 2000);
        for ((_, stats), _) in &out {
            match stats.outcome {
                SortOutcome::Degraded {
                    achieved_epsilon,
                    iterations,
                } => {
                    assert_eq!(iterations, 2, "the search stops at the cap");
                    assert!(achieved_epsilon > 0.0);
                }
                ref o => panic!("capped search reported {o:?}"),
            }
        }
    }

    #[test]
    fn empty_ranks_ok() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() == 0 {
                keys_for(0, 700, 1 << 20)
            } else {
                Vec::new()
            };
            hss_sort(comm, &mut local);
            local.len()
        });
        assert_eq!(out[0].0, 700);
    }
}
