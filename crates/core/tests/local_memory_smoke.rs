//! Peak-memory smoke test for Algorithm 1: runs `local` on `hnd(1024, 8)`
//! with 4 `edge-injector` nodes to the stop (the same cell as a
//! `bcountd` session `{"n":1024,"family":"hnd(d=8)","protocol":"local",
//! "adversary":"edge-injector","byzantine":4}`) and holds the process's
//! peak RSS under a ceiling.
//!
//! Every round each node broadcasts its whole view, so the memory of a
//! LOCAL run is dominated by in-flight views. A broadcast is one shared
//! snapshot; a regression back to one deep copy per neighbour multiplies
//! the peak (about 950 MB for this cell before sharing, about 200 MB
//! with it).
//!
//! Ignored by default (peak RSS is a process-global high-water mark that
//! other tests in the same process would pollute). Run it alone, in
//! release, in its own process:
//!
//! ```text
//! cargo test --release -p bcount-core --test local_memory_smoke -- --ignored --nocapture
//! ```
//!
//! The ceiling is [`RSS_BUDGET_KB`], 400 MiB: about twice the measured
//! ~205 MB peak, and well below the ~980 MB one deep copy per neighbour
//! costs. On platforms without `/proc/self/status` the ceiling check
//! degrades to a no-op.

use bcount_core::adversary::EdgeInjectorAdversary;
use bcount_core::local::{LocalConfig, LocalCounting};
use bcount_graph::gen::hnd;
use bcount_graph::NodeId;
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Peak-RSS ceiling in kilobytes (400 MiB).
const RSS_BUDGET_KB: u64 = 400 * 1024;

#[test]
#[ignore = "memory smoke test; run alone, in release, in its own process"]
fn local_1024_edge_injector_under_rss_budget() {
    let n = 1024usize;
    let seed = 200;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = hnd(n, 8, &mut rng).expect("H(1024, 8)");
    // Spread placement: every (n / 4)-th node.
    let byzantine: Vec<NodeId> = (0..4).map(|k| NodeId((k * n / 4) as u32)).collect();
    let cfg = LocalConfig::default();
    let mut sim = Simulation::new(
        &g,
        &byzantine,
        |_, init| LocalCounting::new(cfg, init),
        EdgeInjectorAdversary::new(seed),
        SimConfig {
            seed,
            max_rounds: 10_000,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    // A node halts exactly when it decides, so this is every decision in.
    assert_eq!(report.stop_reason, StopReason::AllHalted);

    match bcount_sim::peak_rss_kb() {
        Some(peak) => {
            eprintln!(
                "local_memory_smoke: n={n} rounds={} peak RSS {peak} kB (budget {RSS_BUDGET_KB} kB)",
                report.rounds
            );
            assert!(
                peak <= RSS_BUDGET_KB,
                "peak RSS {peak} kB exceeds the {RSS_BUDGET_KB} kB LOCAL budget"
            );
        }
        None => {
            eprintln!("local_memory_smoke: peak RSS unavailable on this platform; ceiling skipped")
        }
    }
}
