//! # vine-transfer
//!
//! The **distribute** mechanism (paper §2.2.2, Figure 3): broadcast a
//! function context's files to every worker as fast as the cluster's
//! network policy allows. Three strategies, chosen by worker-to-worker
//! connectivity:
//!
//! * [`Topology::Star`] — workers cannot talk to each other (Fig 3a): the
//!   manager sends to each worker sequentially.
//! * [`Topology::FullPeer`] — unrestricted worker-to-worker transfers
//!   (Fig 3b): a spanning tree where every node that holds the file serves
//!   up to `fanout_cap` children ("each worker is capped to N transfers of
//!   input files at any given time to avoid a sink in the spanning tree",
//!   §3.3).
//! * [`Topology::Clustered`] — bandwidth is limited *between* sets of
//!   workers (Fig 3c: on-premise + cloud): the manager seeds one gateway
//!   per cluster sequentially; each cluster then runs its own spanning
//!   tree.
//!
//! Plans are static DAGs of [`TransferStep`]s; the execution substrate
//! (simulator or live runtime) schedules them respecting the dependencies
//! and its own link model. On-demand transfers outside planned broadcasts
//! are the simulator's: it picks their sources under the same per-node
//! cap.

use std::collections::BTreeMap;
use vine_core::ids::WorkerId;
use vine_core::{Result, VineError};

/// A node that can source a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    Manager,
    Worker(WorkerId),
}

/// One edge of a broadcast plan: move the file from `source` to `dest`,
/// but not before step `depends_on` (which delivered the file to `source`)
/// has completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferStep {
    pub source: Node,
    pub dest: WorkerId,
    /// Index into [`BroadcastPlan::steps`] of the prerequisite step, if the
    /// source is a worker that must first receive the file itself.
    pub depends_on: Option<usize>,
}

/// A complete broadcast plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BroadcastPlan {
    pub steps: Vec<TransferStep>,
}

/// Broadcast strategy (Figure 3).
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// Fig 3a — no worker-to-worker communication.
    Star,
    /// Fig 3b — full worker-to-worker communication, spanning tree with a
    /// per-node fan-out cap.
    FullPeer { fanout_cap: usize },
    /// Fig 3c — limited communication between clusters; full within.
    Clustered {
        clusters: Vec<Vec<WorkerId>>,
        fanout_cap: usize,
    },
}

/// Plan a broadcast of one file to `workers` under `topology`.
pub fn plan_broadcast(topology: &Topology, workers: &[WorkerId]) -> Result<BroadcastPlan> {
    match topology {
        Topology::Star => Ok(plan_star(workers)),
        Topology::FullPeer { fanout_cap } => {
            if *fanout_cap == 0 {
                return Err(VineError::Protocol("fan-out cap must be ≥ 1".into()));
            }
            Ok(plan_tree(Node::Manager, None, workers, *fanout_cap))
        }
        Topology::Clustered {
            clusters,
            fanout_cap,
        } => {
            if *fanout_cap == 0 {
                return Err(VineError::Protocol("fan-out cap must be ≥ 1".into()));
            }
            plan_clustered(clusters, workers, *fanout_cap)
        }
    }
}

/// Fig 3a: the manager sends to each worker; transfers serialize on the
/// manager's single uplink, expressed as a dependency chain.
fn plan_star(workers: &[WorkerId]) -> BroadcastPlan {
    let steps = workers
        .iter()
        .enumerate()
        .map(|(i, w)| TransferStep {
            source: Node::Manager,
            dest: *w,
            depends_on: if i == 0 { None } else { Some(i - 1) },
        })
        .collect();
    BroadcastPlan { steps }
}

/// Spanning tree rooted at `root`: breadth-first, each node (including the
/// root) feeding up to `cap` children. `root_dep` is the plan step that
/// delivered the file to a worker root (for clustered plans).
fn plan_tree(
    root: Node,
    root_dep: Option<usize>,
    workers: &[WorkerId],
    cap: usize,
) -> BroadcastPlan {
    let mut steps: Vec<TransferStep> = Vec::with_capacity(workers.len());
    // sources available to serve: (node, prerequisite step index)
    let mut frontier: Vec<(Node, Option<usize>)> = vec![(root, root_dep)];
    let mut next = 0usize;
    while next < workers.len() {
        let mut new_frontier = Vec::new();
        for (src, dep) in &frontier {
            for _ in 0..cap {
                if next >= workers.len() {
                    break;
                }
                let dest = workers[next];
                next += 1;
                steps.push(TransferStep {
                    source: *src,
                    dest,
                    depends_on: *dep,
                });
                new_frontier.push((Node::Worker(dest), Some(steps.len() - 1)));
            }
        }
        // nodes keep serving in later waves too: a real spanning-tree
        // broadcast reuses every holder each round
        frontier.extend(new_frontier);
    }
    BroadcastPlan { steps }
}

/// Fig 3c: sequential manager→gateway transfers between clusters, then a
/// spanning tree inside each cluster.
fn plan_clustered(
    clusters: &[Vec<WorkerId>],
    workers: &[WorkerId],
    cap: usize,
) -> Result<BroadcastPlan> {
    // validate the partition
    let mut seen: BTreeMap<WorkerId, usize> = BTreeMap::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        for w in cluster {
            if seen.insert(*w, ci).is_some() {
                return Err(VineError::Protocol(format!(
                    "worker {w} appears in multiple clusters"
                )));
            }
        }
    }
    for w in workers {
        if !seen.contains_key(w) {
            return Err(VineError::Protocol(format!(
                "worker {w} not assigned to any cluster"
            )));
        }
    }

    let mut plan = BroadcastPlan::default();
    let mut prev_gateway_step: Option<usize> = None;
    for cluster in clusters {
        let members: Vec<WorkerId> = cluster
            .iter()
            .filter(|w| workers.contains(w))
            .copied()
            .collect();
        let Some((gateway, rest)) = members.split_first() else {
            continue;
        };
        // manager → gateway, serialized across clusters (the inter-cluster
        // link is the scarce resource)
        plan.steps.push(TransferStep {
            source: Node::Manager,
            dest: *gateway,
            depends_on: prev_gateway_step,
        });
        let gateway_step = plan.steps.len() - 1;
        prev_gateway_step = Some(gateway_step);
        // Intra-cluster spanning tree rooted at the gateway. The sub-plan
        // is built with *no* root dependency so that `None` unambiguously
        // marks "sourced from the gateway seed": the sub-plan's own step
        // indices are remapped by `offset`, and a local index can equal
        // `gateway_step` (both count from zero), so the root dependency
        // must not be encoded as an index at all before splicing.
        let sub = plan_tree(Node::Worker(*gateway), None, rest, cap);
        let offset = plan.steps.len();
        for s in sub.steps {
            plan.steps.push(TransferStep {
                source: s.source,
                dest: s.dest,
                depends_on: Some(match s.depends_on {
                    None => gateway_step,
                    Some(d) => d + offset,
                }),
            });
        }
    }
    Ok(plan)
}

impl BroadcastPlan {
    /// Longest dependency chain: the number of serialized transfer rounds
    /// a broadcast needs (lower bound on completion in units of one
    /// transfer time).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.steps.len()];
        let mut max = 0;
        for (i, s) in self.steps.iter().enumerate() {
            depth[i] = match s.depends_on {
                Some(d) => depth[d] + 1,
                None => 1,
            };
            max = max.max(depth[i]);
        }
        max
    }

    /// Destinations, for coverage checks.
    pub fn destinations(&self) -> Vec<WorkerId> {
        self.steps.iter().map(|s| s.dest).collect()
    }

    /// Number of transfers sourced from the manager (its uplink load).
    pub fn manager_sends(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.source == Node::Manager)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(n: u32) -> Vec<WorkerId> {
        (0..n).map(WorkerId).collect()
    }

    fn assert_coverage(plan: &BroadcastPlan, ws: &[WorkerId]) {
        let mut dests = plan.destinations();
        dests.sort_unstable();
        let mut want = ws.to_vec();
        want.sort_unstable();
        assert_eq!(dests, want, "every worker exactly once");
    }

    #[test]
    fn star_is_a_chain() {
        let ws = workers(5);
        let plan = plan_broadcast(&Topology::Star, &ws).unwrap();
        assert_coverage(&plan, &ws);
        assert_eq!(plan.depth(), 5, "sequential: depth equals worker count");
        assert_eq!(plan.manager_sends(), 5);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let ws = workers(150);
        let plan = plan_broadcast(&Topology::FullPeer { fanout_cap: 3 }, &ws).unwrap();
        assert_coverage(&plan, &ws);
        // each round multiplies holders by (1 + cap) = 4: 1→4→16→64→256
        assert!(plan.depth() <= 5, "depth {}", plan.depth());
        assert!(plan.depth() >= 3);
        // manager only serves the cap directly per round; far fewer than all
        assert!(plan.manager_sends() < 20, "{}", plan.manager_sends());
    }

    #[test]
    fn tree_cap_one_manager_offloads() {
        // even with cap 1, holders double each round: depth ~ log2(n)
        let ws = workers(64);
        let plan = plan_broadcast(&Topology::FullPeer { fanout_cap: 1 }, &ws).unwrap();
        assert_coverage(&plan, &ws);
        assert!(plan.depth() <= 7, "depth {}", plan.depth());
    }

    /// The invariant every execution substrate relies on: a step's
    /// dependency is exactly the step that delivered the file to its
    /// source, dependencies point backwards, and no step sources from a
    /// node that does not yet hold the file.
    fn assert_wellformed(plan: &BroadcastPlan) {
        let mut have_file: Vec<Node> = vec![Node::Manager];
        for (i, s) in plan.steps.iter().enumerate() {
            // dependency indices always point backwards
            if let Some(d) = s.depends_on {
                assert!(d < i, "forward dependency at step {i}");
                // and the dependency is the step that delivered to source
                if let Node::Worker(w) = s.source {
                    assert_eq!(
                        plan.steps[d].dest, w,
                        "step {i} depends on step {d}, which delivered to \
                         {} rather than to its source {w}",
                        plan.steps[d].dest
                    );
                }
            } else {
                assert_eq!(s.source, Node::Manager);
            }
            assert!(
                have_file.contains(&s.source),
                "step {i} sources from a node without the file"
            );
            have_file.push(Node::Worker(s.dest));
        }
    }

    #[test]
    fn tree_dependencies_are_wellformed() {
        let ws = workers(40);
        for cap in [1, 2, 3] {
            let plan = plan_broadcast(&Topology::FullPeer { fanout_cap: cap }, &ws).unwrap();
            assert_coverage(&plan, &ws);
            assert_wellformed(&plan);
        }
        let plan = plan_broadcast(&Topology::Star, &ws).unwrap();
        assert_wellformed(&plan);

        // clustered plans splice sub-trees whose local step indices can
        // collide with the parent plan's gateway-step index (regression:
        // the remap once conflated "depends on the gateway seed" with
        // "depends on local step number gateway_step", letting a transfer
        // run before its source held the file)
        let shapes: &[(&[usize], usize)] = &[
            // first cluster deep enough that a local dep index 0 exists
            // while its gateway step is also index 0
            (&[6, 6], 1),
            (&[13, 14, 13], 1),
            (&[20, 20], 2),
            (&[5, 30, 5], 2),
            (&[1, 39], 3),
            (&[40], 3),
        ];
        for (sizes, cap) in shapes {
            let mut clusters = Vec::new();
            let mut at = 0usize;
            for sz in *sizes {
                clusters.push(ws[at..at + sz].to_vec());
                at += sz;
            }
            let topo = Topology::Clustered {
                clusters,
                fanout_cap: *cap,
            };
            let plan = plan_broadcast(&topo, &ws[..at]).unwrap();
            assert_coverage(&plan, &ws[..at]);
            assert_wellformed(&plan);
        }
    }

    #[test]
    fn zero_fanout_rejected() {
        assert!(plan_broadcast(&Topology::FullPeer { fanout_cap: 0 }, &workers(3)).is_err());
    }

    #[test]
    fn empty_worker_set() {
        for topo in [Topology::Star, Topology::FullPeer { fanout_cap: 3 }] {
            let plan = plan_broadcast(&topo, &[]).unwrap();
            assert!(plan.steps.is_empty());
            assert_eq!(plan.depth(), 0);
        }
    }

    #[test]
    fn clustered_seeds_gateways_sequentially() {
        let ws = workers(12);
        let clusters = vec![ws[..6].to_vec(), ws[6..].to_vec()];
        let plan = plan_broadcast(
            &Topology::Clustered {
                clusters,
                fanout_cap: 2,
            },
            &ws,
        )
        .unwrap();
        assert_coverage(&plan, &ws);
        // exactly one manager send per cluster
        assert_eq!(plan.manager_sends(), 2);
        // second gateway transfer depends on the first (serialized
        // inter-cluster link)
        let gateway_steps: Vec<usize> = plan
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.source == Node::Manager)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            plan.steps[gateway_steps[1]].depends_on,
            Some(gateway_steps[0])
        );
        // no cross-cluster worker-to-worker edges
        let cluster_of = |w: WorkerId| (w.0 >= 6) as usize;
        for s in &plan.steps {
            if let Node::Worker(src) = s.source {
                assert_eq!(
                    cluster_of(src),
                    cluster_of(s.dest),
                    "cross-cluster edge {src} -> {}",
                    s.dest
                );
            }
        }
    }

    #[test]
    fn clustered_validates_partition() {
        let ws = workers(4);
        // overlapping clusters
        let bad = Topology::Clustered {
            clusters: vec![ws[..3].to_vec(), ws[2..].to_vec()],
            fanout_cap: 2,
        };
        assert!(plan_broadcast(&bad, &ws).is_err());
        // unassigned worker
        let bad = Topology::Clustered {
            clusters: vec![ws[..2].to_vec()],
            fanout_cap: 2,
        };
        assert!(plan_broadcast(&bad, &ws).is_err());
    }

    #[test]
    fn clustered_skips_empty_clusters() {
        let ws = workers(3);
        let topo = Topology::Clustered {
            clusters: vec![vec![], ws.to_vec(), vec![]],
            fanout_cap: 2,
        };
        let plan = plan_broadcast(&topo, &ws).unwrap();
        assert_coverage(&plan, &ws);
        assert_eq!(plan.manager_sends(), 1);
    }

    #[test]
    fn star_beats_nothing_tree_beats_star() {
        // the ablation `repro fig3` measures: tree depth ≪ star depth at scale
        let ws = workers(150);
        let star = plan_broadcast(&Topology::Star, &ws).unwrap();
        let tree = plan_broadcast(&Topology::FullPeer { fanout_cap: 3 }, &ws).unwrap();
        assert!(tree.depth() * 10 < star.depth());
    }
}
