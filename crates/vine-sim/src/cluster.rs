//! The paper's heterogeneous cluster (Table 3).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One machine group: a CPU model with a per-core GFLOPS rating and a
/// machine count (Table 3's "# of Machines, GFlops").
#[derive(Clone, Debug, PartialEq)]
pub struct MachineGroup {
    pub name: String,
    pub machines: u32,
    pub gflops_per_core: f64,
}

/// Table 3: the five major machine groups ("96.2% of all machines used in
/// any run"), with counts and per-core GFLOPS as published.
pub fn paper_groups() -> Vec<MachineGroup> {
    vec![
        MachineGroup {
            name: "d32cepyc[001-070] EPYC 7532".into(),
            machines: 58,
            gflops_per_core: 4.4,
        },
        MachineGroup {
            name: "d32cepyc[076-260] EPYC 7543".into(),
            machines: 117,
            gflops_per_core: 5.4,
        },
        MachineGroup {
            name: "qa-a10 Xeon Gold 6326".into(),
            machines: 14,
            gflops_per_core: 1.9,
        },
        MachineGroup {
            name: "qa-a40 Xeon Gold 6326".into(),
            machines: 7,
            gflops_per_core: 1.9,
        },
        MachineGroup {
            name: "sa-rtx6ka Xeon Silver 4316".into(),
            machines: 5,
            gflops_per_core: 1.9,
        },
    ]
}

/// Assign per-core GFLOPS ratings to `n` workers in the same proportion as
/// the groups' machine counts, shuffled deterministically by `seed` ("all
/// experiments are run with a similar proportion of machine groups", §4.2).
pub fn assign_gflops(groups: &[MachineGroup], n: usize, seed: u64) -> Vec<f64> {
    if groups.is_empty() || n == 0 {
        return vec![1.0; n];
    }
    let total: u32 = groups.iter().map(|g| g.machines).sum();
    let mut out: Vec<f64> = Vec::with_capacity(n);
    // largest-remainder apportionment
    let mut counts: Vec<usize> = groups
        .iter()
        .map(|g| (n as u64 * u64::from(g.machines) / u64::from(total)) as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut remainders: Vec<(u64, usize)> = groups
        .iter()
        .enumerate()
        .map(|(i, g)| ((n as u64 * u64::from(g.machines)) % u64::from(total), i))
        .collect();
    remainders.sort_unstable_by(|a, b| b.cmp(a));
    let mut ri = 0;
    while assigned < n {
        counts[remainders[ri % remainders.len()].1] += 1;
        assigned += 1;
        ri += 1;
    }
    for (g, c) in groups.iter().zip(&counts) {
        out.extend(std::iter::repeat_n(g.gflops_per_core, *c));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x636c7573);
    out.shuffle(&mut rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_groups_match_table3() {
        let groups = paper_groups();
        assert_eq!(groups.len(), 5);
        let machines: u32 = groups.iter().map(|g| g.machines).sum();
        assert_eq!(machines, 201);
        assert_eq!(groups[1].gflops_per_core, 5.4);
    }

    #[test]
    fn assignment_is_proportional() {
        let groups = paper_groups();
        let ratings = assign_gflops(&groups, 150, 42);
        assert_eq!(ratings.len(), 150);
        let fast = ratings.iter().filter(|g| **g == 5.4).count();
        // group 2 is 117/201 ≈ 58% of the cluster
        assert!((80..=95).contains(&fast), "fast count {fast}");
        let slow = ratings.iter().filter(|g| **g == 1.9).count();
        // groups 3–5 are 26/201 ≈ 13%
        assert!((15..=25).contains(&slow), "slow count {slow}");
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let groups = paper_groups();
        assert_eq!(assign_gflops(&groups, 50, 7), assign_gflops(&groups, 50, 7));
        assert_ne!(assign_gflops(&groups, 50, 7), assign_gflops(&groups, 50, 8));
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let groups = paper_groups();
        assert_eq!(assign_gflops(&groups, 0, 1), Vec::<f64>::new());
        assert_eq!(assign_gflops(&groups, 1, 1).len(), 1);
        assert_eq!(assign_gflops(&[], 3, 1), vec![1.0; 3]);
        // exact count coverage even when n < group count
        assert_eq!(assign_gflops(&groups, 3, 9).len(), 3);
    }
}
