//! The evaluated schemes (paper §V-E plus extension studies) and L1D
//! prefetcher choices, as thin constructors over the plugin registry.
//!
//! Before the registry existed, this module *was* the composition layer:
//! closed enums with a hard-coded `build_setup` match. The enums remain —
//! they are the convenient, type-safe spelling the experiments use — but
//! each variant now merely names a [`SchemeSpec`] composed from
//! registry-backed components ([`Scheme::to_spec`]), and the component
//! construction itself lives with the component crates
//! (`tlp_core::register_builtin`, `tlp_prefetch::register_builtin`, ...).
//! Adding a new composition no longer means editing this file: register
//! components, build a spec, run it through
//! [`Harness::cells`](crate::Harness::cells) or `tlp_repro --scheme`.
//!
//! Cache-key discipline: every variant pins its pre-registry key
//! ([`SchemeSpec::pinned_key`]), so the `RunKey` of every built-in cell
//! is byte-identical to the pre-refactor harness — golden fixtures and
//! on-disk caches survive. `tests/plugin_api.rs` pins the full key list.

use std::collections::HashMap;
use std::sync::Arc;

use tlp_core::variants::TlpVariant;
use tlp_plugin::{
    BuildCtx, ComponentRef, L1PrefetcherFactory, ResolvedComponent, ResolvedScheme, SchemeSpec,
};
use tlp_rl::SharedAgent;
use tlp_sim::engine::CoreSetup;
use tlp_trace::TraceSource;

pub use tlp_core::TlpParams;

use crate::plugins::builtin_registry;

/// A resolved L1D prefetcher choice (the second axis of the evaluation
/// grid), ready to build on worker threads.
pub type ResolvedL1Pf = ResolvedComponent<L1PrefetcherFactory>;

/// The L1D prefetcher driving the system (the paper evaluates IPCP and
/// Berti; the rest support tests and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Pf {
    /// No L1D prefetching.
    None,
    /// IPCP (the paper's primary configuration).
    Ipcp,
    /// Berti.
    Berti,
    /// IPCP with 4× tables (Figure 17's "+7 KB").
    IpcpExtra,
    /// Berti with 4× tables (Figure 17's "+7 KB").
    BertiExtra,
    /// Next-line (ablation/reference).
    NextLine,
    /// Per-PC stride (ablation/reference).
    Stride,
}

impl L1Pf {
    /// All variants, in display order.
    pub const ALL: [L1Pf; 7] = [
        L1Pf::None,
        L1Pf::Ipcp,
        L1Pf::Berti,
        L1Pf::IpcpExtra,
        L1Pf::BertiExtra,
        L1Pf::NextLine,
        L1Pf::Stride,
    ];

    /// Display name — also the registered component name, so it doubles
    /// as the cache-key fragment and the `--l1pf` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            L1Pf::None => "none",
            L1Pf::Ipcp => "ipcp",
            L1Pf::Berti => "berti",
            L1Pf::IpcpExtra => "ipcp+7KB",
            L1Pf::BertiExtra => "berti+7KB",
            L1Pf::NextLine => "next-line",
            L1Pf::Stride => "stride",
        }
    }

    /// The registry reference for this choice.
    #[must_use]
    pub fn to_ref(self) -> ComponentRef {
        ComponentRef::new(self.name())
    }

    /// Resolves against the built-in registry (memoized — cell creation
    /// calls this once per grid cell).
    #[must_use]
    pub fn resolve(self) -> Arc<ResolvedL1Pf> {
        static CACHE: std::sync::OnceLock<parking_lot::Mutex<HashMap<L1Pf, Arc<ResolvedL1Pf>>>> =
            std::sync::OnceLock::new();
        let cache = CACHE.get_or_init(Default::default);
        if let Some(r) = cache.lock().get(&self) {
            return Arc::clone(r);
        }
        let resolved = Arc::new(
            builtin_registry()
                .resolve_l1_prefetcher(&self.to_ref())
                .expect("every L1Pf variant is a registered built-in"),
        );
        cache.lock().insert(self, Arc::clone(&resolved));
        resolved
    }
}

/// The compared mechanisms (paper §V-E plus the Figure-15/17 variants and
/// the extension studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Table III system: L1D prefetcher + standard SPP at L2, no off-chip
    /// prediction, no filtering.
    Baseline,
    /// Aggressive SPP + PPF filter at L2.
    Ppf,
    /// Baseline + Hermes off-chip predictor.
    Hermes,
    /// Hermes and PPF together.
    HermesPpf,
    /// The full TLP proposal (FLP + SLP).
    Tlp,
    /// A Figure-15 ablation variant.
    Variant(TlpVariant),
    /// Hermes with TLP's 7 KB storage budget added (Figure 17).
    HermesExtra,
    /// Level Prediction (Jalili & Erez, HPCA 2022) — related-work
    /// comparison (extension experiment E1).
    Lp,
    /// TLP with explicit sensitivity knobs (extension experiments E3–E5).
    TlpCustom(TlpParams),
    /// "Hermes+TLP" (§VI-B2): TLP's SLP filter with FLP issuing at the
    /// core like Hermes (no selective delay). The paper notes this wins
    /// over TLP only under unrealistically abundant DRAM bandwidth.
    HermesTlp,
    /// Athena-class baseline (extension experiment E7): one online RL
    /// agent coordinating both seams — off-chip prediction for demand
    /// loads and L1D prefetch filtering — in place of TLP's hand-tuned
    /// thresholds.
    AthenaRl,
}

/// Standard SPP at the L2 (the shared substrate of most schemes).
fn spp_standard() -> ComponentRef {
    ComponentRef::new("spp").param("profile", "standard")
}

impl Scheme {
    /// The four headline schemes of Figures 10–14.
    pub const HEADLINE: [Scheme; 4] = [Scheme::Ppf, Scheme::Hermes, Scheme::HermesPpf, Scheme::Tlp];

    /// Display name (matches the paper's legends).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Ppf => "PPF",
            Scheme::Hermes => "Hermes",
            Scheme::HermesPpf => "Hermes+PPF",
            Scheme::Tlp => "TLP",
            Scheme::Variant(v) => v.name(),
            Scheme::HermesExtra => "Hermes+7KB",
            Scheme::Lp => "LP",
            Scheme::TlpCustom(_) => "TLP*",
            Scheme::HermesTlp => "Hermes+TLP",
            Scheme::AthenaRl => "AthenaRl",
        }
    }

    /// Stable key for caches. These strings predate the registry and
    /// address every historical fixture and on-disk cache entry; the
    /// spec produced by [`Scheme::to_spec`] pins exactly this value.
    #[must_use]
    pub fn key(self) -> String {
        match self {
            Scheme::Variant(v) => format!("variant:{}", v.name()),
            Scheme::TlpCustom(p) => format!("tlp:{}", p.canonical_key()),
            other => other.name().to_owned(),
        }
    }

    /// The registry-backed spec this enum variant names.
    #[must_use]
    pub fn to_spec(self) -> SchemeSpec {
        let spec = SchemeSpec::new(self.name()).pinned_key(self.key());
        match self {
            Scheme::Baseline => spec.l2_prefetcher(spp_standard()),
            Scheme::Ppf => spec
                .l2_prefetcher(ComponentRef::new("spp").param("profile", "aggressive"))
                .l2_filter("ppf"),
            Scheme::Hermes => spec.l2_prefetcher(spp_standard()).offchip("hermes"),
            Scheme::HermesPpf => spec
                .l2_prefetcher(ComponentRef::new("spp").param("profile", "aggressive"))
                .l2_filter("ppf")
                .offchip("hermes"),
            Scheme::Tlp => variant_spec(spec, TlpVariant::Full),
            Scheme::Variant(v) => variant_spec(spec, v),
            Scheme::HermesExtra => spec
                .l2_prefetcher(spp_standard())
                .offchip(ComponentRef::new("hermes").param("storage", "extra")),
            Scheme::Lp => spec.l2_prefetcher(spp_standard()).offchip("lp"),
            Scheme::TlpCustom(p) => spec
                .l2_prefetcher(spp_standard())
                .offchip(ComponentRef {
                    name: "flp".to_owned(),
                    params: p.to_params(),
                })
                .l1_filter(ComponentRef {
                    name: "slp".to_owned(),
                    params: p.to_params(),
                }),
            Scheme::HermesTlp => spec
                .l2_prefetcher(spp_standard())
                .offchip(ComponentRef::new("flp").param("delay", "never"))
                .l1_filter("slp"),
            Scheme::AthenaRl => spec
                .l2_prefetcher(spp_standard())
                .offchip("athena-rl")
                .l1_filter("athena-rl-filter"),
        }
    }

    /// Resolves against the built-in registry. Memoized: cell creation
    /// calls this once per grid cell, and a `--all` run plans thousands
    /// of cells over a handful of distinct schemes (the `TlpCustom`
    /// family is bounded by the sensitivity experiments' sweep points).
    #[must_use]
    pub fn resolve(self) -> Arc<ResolvedScheme> {
        static CACHE: std::sync::OnceLock<
            parking_lot::Mutex<HashMap<Scheme, Arc<ResolvedScheme>>>,
        > = std::sync::OnceLock::new();
        let cache = CACHE.get_or_init(Default::default);
        if let Some(r) = cache.lock().get(&self) {
            return Arc::clone(r);
        }
        let resolved = Arc::new(
            builtin_registry()
                .resolve(&self.to_spec())
                .expect("every Scheme variant resolves against the built-in registry"),
        );
        cache.lock().insert(self, Arc::clone(&resolved));
        resolved
    }

    /// Assembles a [`CoreSetup`] for this scheme around a trace.
    #[must_use]
    pub fn build_setup(self, trace: Box<dyn TraceSource>, l1pf: L1Pf) -> CoreSetup {
        builtin_registry()
            .build_setup(
                &self.to_spec(),
                Some(&l1pf.to_ref()),
                trace,
                &mut BuildCtx::new(),
            )
            .expect("built-in schemes always assemble")
    }

    /// Assembles the [`Scheme::AthenaRl`] system around an externally
    /// owned agent, by seeding the build context's
    /// [`tlp_rl::AGENT_SLOT`] before the factories run. The
    /// learning-curve experiment (ext7) and the `rl_agent` example
    /// persist one agent across epochs; routing them through the same
    /// spec as the head-to-head keeps both studies measuring the same
    /// system.
    #[must_use]
    pub fn athena_rl_setup(
        trace: Box<dyn TraceSource>,
        l1pf: L1Pf,
        agent: SharedAgent,
    ) -> CoreSetup {
        let mut ctx = BuildCtx::new();
        ctx.seed(tlp_rl::AGENT_SLOT, agent);
        builtin_registry()
            .build_setup(
                &Scheme::AthenaRl.to_spec(),
                Some(&l1pf.to_ref()),
                trace,
                &mut ctx,
            )
            .expect("the AthenaRl scheme always assembles")
    }
}

/// The Figure-15 ablation compositions, spelled as component parameters
/// (mirrors the table in [`tlp_core::variants`]).
fn variant_spec(spec: SchemeSpec, v: TlpVariant) -> SchemeSpec {
    let flp = |delay: &str| ComponentRef::new("flp").param("delay", delay);
    let slp = |leveling: bool| ComponentRef::new("slp").param("leveling", leveling);
    let spec = spec.l2_prefetcher(spp_standard());
    match v {
        TlpVariant::FlpOnly => spec.offchip(flp("never")),
        TlpVariant::SlpOnly => spec.l1_filter(slp(false)),
        TlpVariant::Tsp => spec.offchip(flp("never")).l1_filter(slp(false)),
        TlpVariant::DelayedTsp => spec.offchip(flp("always")).l1_filter(slp(false)),
        TlpVariant::SelectiveTsp => spec.offchip(flp("selective")).l1_filter(slp(false)),
        TlpVariant::Full => spec.offchip(flp("selective")).l1_filter(slp(true)),
    }
}

/// Every enum-spelled scheme, for listings and exhaustive tests (the
/// `TlpCustom` family is parameterized and represented by the paper
/// point).
#[must_use]
pub fn all_builtin_schemes() -> Vec<Scheme> {
    let mut all = vec![
        Scheme::Baseline,
        Scheme::Ppf,
        Scheme::Hermes,
        Scheme::HermesPpf,
        Scheme::Tlp,
        Scheme::HermesExtra,
        Scheme::Lp,
        Scheme::TlpCustom(TlpParams::paper()),
        Scheme::HermesTlp,
        Scheme::AthenaRl,
    ];
    all.extend(TlpVariant::ALL.iter().map(|v| Scheme::Variant(*v)));
    all
}

/// Registers the named built-in schemes (the `--scheme` lookup space).
/// `TlpCustom` is parameterized and therefore not nameable; `Variant`s
/// register under their Figure-15 legend names, except `Full`, whose
/// name ("TLP") belongs to [`Scheme::Tlp`].
///
/// # Errors
///
/// Propagates registration collisions.
pub fn register_builtin_schemes(
    reg: &mut tlp_plugin::ComponentRegistry,
) -> Result<(), tlp_plugin::PluginError> {
    const ORIGIN: &str = "tlp-harness";
    for s in [
        Scheme::Baseline,
        Scheme::Ppf,
        Scheme::Hermes,
        Scheme::HermesPpf,
        Scheme::Tlp,
        Scheme::HermesExtra,
        Scheme::Lp,
        Scheme::HermesTlp,
        Scheme::AthenaRl,
    ] {
        reg.register_scheme(s.to_spec(), ORIGIN)?;
    }
    for v in TlpVariant::ALL {
        if v != TlpVariant::Full {
            reg.register_scheme(Scheme::Variant(v).to_spec(), ORIGIN)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::{TraceRecord, VecTrace};

    fn trace() -> Box<dyn TraceSource> {
        let recs = vec![TraceRecord::alu(0, None, [None, None])];
        Box::new(VecTrace::looping("t", recs))
    }

    #[test]
    fn every_scheme_builds() {
        for s in all_builtin_schemes() {
            let _ = s.build_setup(trace(), L1Pf::Ipcp);
        }
        for v in TlpVariant::ALL {
            let _ = Scheme::Variant(v).build_setup(trace(), L1Pf::Berti);
        }
    }

    #[test]
    fn specs_pin_the_legacy_cache_keys() {
        for s in all_builtin_schemes() {
            assert_eq!(s.to_spec().cache_key(), s.key(), "{s:?}");
            assert_eq!(s.to_spec().name(), s.name(), "{s:?}");
            assert_eq!(s.resolve().cache_key, s.key(), "{s:?}");
        }
    }

    #[test]
    fn custom_keys_distinguish_params() {
        let a = Scheme::TlpCustom(TlpParams::paper());
        let b = Scheme::TlpCustom(TlpParams {
            tau_high: 99,
            ..TlpParams::paper()
        });
        assert_ne!(a.key(), b.key());
        assert_eq!(a.name(), "TLP*");
    }

    #[test]
    fn tlp_custom_key_matches_the_historical_debug_format() {
        // The pre-registry key was `format!("tlp:{p:?}")` with derived
        // Debug; the canonical key must reproduce it byte-for-byte so
        // warm caches stay warm.
        let p = TlpParams::paper();
        assert_eq!(Scheme::TlpCustom(p).key(), format!("tlp:{p:?}"));
        assert_eq!(
            Scheme::TlpCustom(p).key(),
            "tlp:TlpParams { tau_high: 14, tau_low: 2, tau_pref: 6, resize: (1, 1), drop_feature: None }"
        );
    }

    #[test]
    fn keys_are_unique() {
        let keys: Vec<String> = all_builtin_schemes().into_iter().map(Scheme::key).collect();
        let set: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn l1pf_names_are_unique_and_registered() {
        let set: std::collections::HashSet<&str> = L1Pf::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(set.len(), L1Pf::ALL.len());
        for p in L1Pf::ALL {
            assert_eq!(p.resolve().key, p.name());
        }
    }

    #[test]
    fn named_schemes_resolve_from_the_registry() {
        let reg = builtin_registry();
        for name in ["Baseline", "TLP", "Hermes+PPF", "AthenaRl", "Selective TSP"] {
            let spec = reg.scheme(name).expect(name);
            assert_eq!(spec.name(), name);
        }
        assert!(reg.scheme("TLP*").is_err(), "TlpCustom is not nameable");
    }
}
