//! The built-in plugin registry: every workspace crate's components plus
//! the named built-in schemes, assembled once per process.
//!
//! Each component crate registers its own factories
//! (`tlp_core::register_builtin`, `tlp_prefetch::register_builtin`,
//! `tlp_baselines::register_builtin`, `tlp_rl::register_builtin`); the
//! harness contributes the named scheme compositions
//! ([`crate::scheme::register_builtin_schemes`]). Every
//! [`Harness`](crate::Harness) clones this registry so custom
//! registrations stay local to it.

use std::sync::OnceLock;

use tlp_plugin::ComponentRegistry;

/// The process-wide built-in registry.
///
/// # Panics
///
/// Panics (once, at first use) if the built-in registrations collide —
/// which would be a workspace bug, not a runtime condition; the
/// name-uniqueness tests in `tests/plugin_api.rs` pin it.
pub fn builtin_registry() -> &'static ComponentRegistry {
    static REG: OnceLock<ComponentRegistry> = OnceLock::new();
    REG.get_or_init(|| {
        let mut reg = ComponentRegistry::new();
        tlp_core::register_builtin(&mut reg).expect("tlp-core builtins");
        tlp_prefetch::register_builtin(&mut reg).expect("tlp-prefetch builtins");
        tlp_baselines::register_builtin(&mut reg).expect("tlp-baselines builtins");
        tlp_rl::register_builtin(&mut reg).expect("tlp-rl builtins");
        crate::scheme::register_builtin_schemes(&mut reg).expect("built-in schemes");
        reg
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_plugin::Seam;

    #[test]
    fn builtin_registry_holds_all_seams_and_schemes() {
        let reg = builtin_registry();
        for (seam, name) in [
            (Seam::OffChip, "flp"),
            (Seam::OffChip, "hermes"),
            (Seam::OffChip, "lp"),
            (Seam::OffChip, "athena-rl"),
            (Seam::L1Prefetcher, "ipcp"),
            (Seam::L1Prefetcher, "berti+7KB"),
            (Seam::L1Filter, "slp"),
            (Seam::L1Filter, "athena-rl-filter"),
            (Seam::L2Prefetcher, "spp"),
            (Seam::L2Filter, "ppf"),
        ] {
            assert!(reg.contains(seam, name), "{seam} '{name}' missing");
        }
        assert!(reg.scheme("TLP").is_ok());
        assert!(!reg.schemes().is_empty());
    }
}
