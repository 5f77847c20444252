//! Shared harness utilities for the experiment binaries (one per paper
//! table/figure — see DESIGN.md for the index and EXPERIMENTS.md for the
//! measured outputs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use as_topology::{AsCategory, Topology};
use bgp_types::Asn;
use std::collections::HashMap;

/// Builds the ASN → Table-5 category map for a topology.
pub fn categories_map(topo: &Topology) -> HashMap<Asn, AsCategory> {
    let cats = as_topology::categories::classify(topo);
    (0..topo.num_ases() as u32)
        .map(|u| (topo.asn(u), cats[u as usize]))
        .collect()
}

/// Node indices of a VP list.
pub fn vp_nodes(topo: &Topology, vps: &[bgp_types::VpId]) -> Vec<u32> {
    vps.iter().filter_map(|v| topo.index_of(v.asn)).collect()
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(ncols) {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Median of a slice (returns 0 for empty input; upper median for even
/// lengths).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// Writes rows as CSV under `bench-results/` (best-effort; the printed
/// table is the primary artifact).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
    let _ = std::fs::write(dir.join(format!("{name}.csv")), out);
}

/// Synthesizes a time-sorted, burst-structured update stream for the
/// redundancy-engine benchmark (the `bench_redundancy` binary).
///
/// Each burst models a routing event on one prefix observed by several VPs
/// within the 100 s redundancy slack of §4.2. Roughly a quarter of each
/// burst re-announces through a shorter route whose link set nests inside
/// the longer one, and communities overlap across the burst, so all three
/// redundancy conditions (prefix/time, link subset, community subset) are
/// exercised with a realistic hit/miss mix.
pub fn synth_redundancy_stream(n: usize, seed: u64) -> Vec<bgp_types::BgpUpdate> {
    use bgp_types::{Prefix, Timestamp, UpdateBuilder, VpId};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_prefixes = 64u32;
    let n_vps = 32u32;
    let mut updates = Vec::with_capacity(n);
    let mut t_ms = 0u64;
    while updates.len() < n {
        let pfx = rng.gen_range(0..n_prefixes);
        let origin = 600 + pfx;
        let mid = rng.gen_range(100u32..140);
        let burst = rng.gen_range(4usize..12).min(n - updates.len());
        for _ in 0..burst {
            t_ms += rng.gen_range(0..2_500u64);
            // Shorter mid→origin announcements nest inside the longer
            // vp→mid→origin ones, producing genuine Def2/Def3 redundancy.
            let short = rng.gen_range(0..4u32) == 0;
            let (vp_asn, path) = if short {
                (mid, vec![mid, origin])
            } else {
                let vp = 1_000 + rng.gen_range(0..n_vps);
                (vp, vec![vp, mid, origin])
            };
            let mut b =
                UpdateBuilder::announce(VpId::from_asn(Asn(vp_asn)), Prefix::synthetic(pfx))
                    .at(Timestamp::from_millis(t_ms))
                    .path(path);
            for c in 0..rng.gen_range(0u16..3) {
                b = b.community((mid % 50) as u16, c);
            }
            updates.push(b.build());
        }
        t_ms += rng.gen_range(5_000..40_000u64);
    }
    updates.sort_by_key(|u| u.time);
    updates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 3.0); // upper median
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn redundancy_stream_is_sized_sorted_and_deterministic() {
        let s = synth_redundancy_stream(500, 7);
        assert_eq!(s.len(), 500);
        assert!(s.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(s, synth_redundancy_stream(500, 7));
        // the burst structure must actually produce redundancy to measure
        let flags = gill_core::redundant_flags(&s, gill_core::RedundancyDef::Def3);
        assert!(flags.iter().any(|&f| f));
    }
}
