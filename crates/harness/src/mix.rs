//! Multi-core workload mix generation (paper §V-D).
//!
//! Per suite (SPEC, GAP): 50 homogeneous mixes (four instances of one
//! randomly-selected workload) and 50 heterogeneous mixes (four randomly
//! selected workloads), seeded for reproducibility. The harness runs the
//! first `mixes_per_suite` of each list and scores each run by
//! [`weighted_ipc`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tlp_sim::SimReport;
use tlp_trace::emit::{Suite, Workload};

/// One 4-core mix.
#[derive(Clone)]
pub struct Mix {
    /// Mix id (e.g. `gap-hom-03`).
    pub name: String,
    /// The four co-running workloads.
    pub workloads: [Arc<dyn Workload>; 4],
    /// Originating suite.
    pub suite: Suite,
    /// True for homogeneous (4 copies of one workload).
    pub homogeneous: bool,
}

impl std::fmt::Debug for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mix")
            .field("name", &self.name)
            .field(
                "workloads",
                &self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            )
            .field("suite", &self.suite)
            .field("homogeneous", &self.homogeneous)
            .finish()
    }
}

/// Seed for mix selection (fixed, like the paper's published mix list).
pub const MIX_SEED: u64 = 0xA11CE;

/// Generates `per_kind` homogeneous and `per_kind` heterogeneous mixes for
/// each suite present in `workloads` (paper: 50 + 50 per suite).
#[must_use]
pub fn generate_mixes(workloads: &[Arc<dyn Workload>], per_kind: usize) -> Vec<Mix> {
    let mut out = Vec::new();
    for suite in [Suite::Spec, Suite::Gap] {
        let pool: Vec<Arc<dyn Workload>> = workloads
            .iter()
            .filter(|w| w.suite() == suite)
            .cloned()
            .collect();
        if pool.is_empty() {
            continue;
        }
        let tag = match suite {
            Suite::Spec => "spec",
            Suite::Gap => "gap",
        };
        let mut rng =
            StdRng::seed_from_u64(MIX_SEED ^ (tag.len() as u64) << 32 ^ pool.len() as u64);
        for i in 0..per_kind {
            let w = pool[rng.gen_range(0..pool.len())].clone();
            out.push(Mix {
                name: format!("{tag}-hom-{i:02}"),
                workloads: [w.clone(), w.clone(), w.clone(), w],
                suite,
                homogeneous: true,
            });
        }
        for i in 0..per_kind {
            let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())].clone();
            out.push(Mix {
                name: format!("{tag}-het-{i:02}"),
                workloads: [
                    pick(&mut rng),
                    pick(&mut rng),
                    pick(&mut rng),
                    pick(&mut rng),
                ],
                suite,
                homogeneous: false,
            });
        }
    }
    out
}

/// Weighted speedup of a mix run (paper §V-D): Σ IPC_shared / IPC_single
/// over its cores, where `isolated` holds each core's workload run alone
/// (in core order). A core whose isolation IPC is zero contributes 0.
#[must_use]
pub fn weighted_ipc(shared: &SimReport, isolated: &[Arc<SimReport>]) -> f64 {
    shared
        .cores
        .iter()
        .zip(isolated)
        .map(|(core, single)| {
            let single = single.ipc();
            if single <= 0.0 {
                0.0
            } else {
                core.core.ipc() / single
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::catalog::{self, Scale};

    #[test]
    fn generates_both_kinds_for_both_suites() {
        let ws = catalog::single_core_set(Scale::Tiny);
        let mixes = generate_mixes(&ws, 3);
        assert_eq!(mixes.len(), 12);
        assert_eq!(mixes.iter().filter(|m| m.homogeneous).count(), 6);
        assert_eq!(mixes.iter().filter(|m| m.suite == Suite::Gap).count(), 6);
    }

    #[test]
    fn homogeneous_mixes_repeat_one_workload() {
        let ws = catalog::single_core_set(Scale::Tiny);
        let mixes = generate_mixes(&ws, 2);
        for m in mixes.iter().filter(|m| m.homogeneous) {
            let names: std::collections::HashSet<&str> =
                m.workloads.iter().map(|w| w.name()).collect();
            assert_eq!(names.len(), 1, "{} is not homogeneous", m.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let ws = catalog::single_core_set(Scale::Tiny);
        let a: Vec<String> = generate_mixes(&ws, 5)
            .iter()
            .flat_map(|m| m.workloads.iter().map(|w| w.name().to_owned()))
            .collect();
        let b: Vec<String> = generate_mixes(&ws, 5)
            .iter()
            .flat_map(|m| m.workloads.iter().map(|w| w.name().to_owned()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_names_are_unique() {
        let ws = catalog::single_core_set(Scale::Tiny);
        let mixes = generate_mixes(&ws, 10);
        let names: std::collections::HashSet<&String> = mixes.iter().map(|m| &m.name).collect();
        assert_eq!(names.len(), mixes.len());
    }
}
