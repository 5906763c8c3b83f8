//! Property-based tests for the graph substrate.

use bcount_graph::analysis::bfs::{ball, distances, eccentricity};
use bcount_graph::analysis::expansion::{set_vertex_expansion, vertex_expansion_exact};
use bcount_graph::analysis::spectral::min_sweep_expansion;
use bcount_graph::gen::{configuration_model, cycle, erdos_renyi, hnd};
use bcount_graph::{NodeId, TopologyView};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// H(n,d) is always d-regular with n·d/2 edges (counting parallels).
    #[test]
    fn hnd_regularity(n in 3usize..400, half_d in 1usize..6, seed: u64) {
        let d = 2 * half_d;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        prop_assert!(g.is_regular(d));
        prop_assert_eq!(g.edge_count(), n * d / 2);
        prop_assert_eq!(g.degree_sum(), n * d);
    }

    /// The configuration model satisfies the handshake lemma exactly.
    #[test]
    fn configuration_handshake(n in 1usize..300, d in 1usize..8, seed: u64) {
        prop_assume!(n * d % 2 == 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = configuration_model(n, d, &mut rng).unwrap();
        prop_assert!(g.is_regular(d));
        prop_assert_eq!(g.degree_sum(), n * d);
    }

    /// BFS balls are monotone in the radius and distances satisfy the
    /// triangle step property (neighbours differ by at most 1).
    #[test]
    fn bfs_invariants(n in 4usize..120, p in 0.02f64..0.3, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let src = NodeId(0);
        let dist = distances(&g, src);
        for u in g.nodes() {
            if let Some(du) = dist[u.index()] {
                for v in g.neighbors(u) {
                    let dv = dist[v.index()].expect("neighbor of reachable is reachable");
                    prop_assert!(dv + 1 >= du && du + 1 >= dv);
                }
            }
        }
        let b1 = ball(&g, src, 1);
        let b2 = ball(&g, src, 2);
        prop_assert!(b1.len() <= b2.len());
        for v in &b1 {
            prop_assert!(b2.contains(v));
        }
    }

    /// The sweep cut's expansion is an upper bound on the exact vertex
    /// expansion and self-consistent with a direct recomputation.
    #[test]
    fn sweep_upper_bounds_exact(n in 4usize..12, p in 0.2f64..0.8, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        if let (Some(exact), Some(cut)) =
            (vertex_expansion_exact(&g), min_sweep_expansion(&g, 500)) {
            prop_assert!(cut.expansion + 1e-9 >= exact,
                "sweep {} below exact {}", cut.expansion, exact);
            let recomputed = set_vertex_expansion(&g, &cut.set);
            prop_assert!((cut.expansion - recomputed).abs() < 1e-9);
            prop_assert!(cut.set.len() <= n / 2);
        }
    }

    /// Cycle eccentricities are exactly ⌊n/2⌋ from every node.
    #[test]
    fn cycle_eccentricity(n in 3usize..200) {
        let g = cycle(n).unwrap();
        let e = eccentricity(&g, NodeId((n / 3) as u32)).unwrap();
        prop_assert_eq!(e as usize, n / 2);
    }

    /// View merging is commutative and idempotent on consistent views.
    #[test]
    fn view_merge_commutes(edges in proptest::collection::vec((0u32..12, 0u32..12), 1..20)) {
        // Build a consistent ground-truth adjacency from the edge list.
        let mut adj: std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>> =
            Default::default();
        for (u, v) in edges {
            if u == v { continue; }
            adj.entry(u).or_default().insert(v);
            adj.entry(v).or_default().insert(u);
        }
        let nodes: Vec<u32> = adj.keys().copied().collect();
        if nodes.len() < 2 { return Ok(()); }
        // Two partial views over disjoint announcement halves.
        let half = nodes.len() / 2;
        let mut a: TopologyView<u32> = TopologyView::new();
        for &u in &nodes[..half] {
            a.announce(u, adj[&u].iter().copied()).unwrap();
        }
        let mut b: TopologyView<u32> = TopologyView::new();
        for &u in &nodes[half..] {
            b.announce(u, adj[&u].iter().copied()).unwrap();
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        // Idempotence.
        let mut abb = ab.clone();
        let changed = abb.merge(&b).unwrap();
        prop_assert!(!changed);
        prop_assert_eq!(&abb, &ab);
        // The merged view materializes the whole ground truth.
        let (g, _) = ab.to_graph();
        let true_edges: usize = adj.values().map(|s| s.len()).sum::<usize>() / 2;
        prop_assert_eq!(g.edge_count(), true_edges);
    }

    /// `merge` is an `announce`-by-`announce` fold of the other view: the
    /// same result (change flag or first inconsistency) and the same final
    /// state, whether the views agree, overlap or conflict.
    #[test]
    fn view_merge_equals_announce_fold(
        mine in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..8, 0..4)), 0..8),
        theirs in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..8, 0..4)), 0..8),
        shared in 0usize..8,
    ) {
        // Announcements a view refuses are simply not part of it.
        let build = |lists: &[(u32, std::collections::BTreeSet<u32>)]| {
            let mut v: TopologyView<u32> = TopologyView::new();
            for (node, edges) in lists {
                let _ = v.announce(*node, edges.iter().copied());
            }
            v
        };
        let a = build(&mine);
        // The other view first repeats some of `a`'s announcements, so
        // the already-known case is exercised alongside new and
        // conflicting ones.
        let shared = shared.min(mine.len());
        let b = build(&[&mine[..shared], &theirs[..]].concat());

        let mut merged = a.clone();
        let got = merged.merge(&b);

        let mut folded = a.clone();
        let mut want = Ok(false);
        for node in b.announced() {
            let before = folded.announced_count() + folded.mentioned_count();
            if let Err(e) = folded.announce(node, b.announced_edges(node).unwrap().iter().copied()) {
                want = Err(e);
                break;
            }
            let grew = folded.announced_count() + folded.mentioned_count() != before;
            want = want.map(|changed| changed || grew);
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(&merged, &folded);
    }

    /// Announced claims always round-trip through the dense graph.
    #[test]
    fn view_to_graph_preserves_claimed_degrees(
        lists in proptest::collection::vec(
            proptest::collection::btree_set(0u32..20, 0..6), 1..8)
    ) {
        // Announce stars around distinct hubs 100, 101, ...; hub edges
        // point into the 0..20 range so announcements never conflict.
        let mut view: TopologyView<u32> = TopologyView::new();
        for (i, set) in lists.iter().enumerate() {
            let hub = 100 + i as u32;
            view.announce(hub, set.iter().copied()).unwrap();
        }
        let (g, order) = view.to_graph();
        for (i, set) in lists.iter().enumerate() {
            let hub = 100 + i as u32;
            let hub_idx = order.iter().position(|&p| p == hub).unwrap();
            prop_assert_eq!(g.degree(NodeId(hub_idx as u32)), set.len());
        }
    }
}
