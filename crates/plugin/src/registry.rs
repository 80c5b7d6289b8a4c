//! The string-keyed component registry behind scheme composition.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tlp_sim::engine::CoreSetup;
use tlp_sim::hooks::{
    L1PrefetchFilter, L1Prefetcher, L2PrefetchFilter, L2Prefetcher, NoL1Filter, NoL1Prefetcher,
    NoL2Filter, NoL2Prefetcher, NoOffChip, OffChipPredictor,
};
use tlp_trace::TraceSource;

use crate::error::{suggest, PluginError};
use crate::params::Params;
use crate::spec::{ComponentRef, ResolvedComponent, ResolvedScheme, SchemeSpec};

/// The five hook seams a component can fill (the plugin interfaces of
/// [`tlp_sim::hooks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seam {
    /// Off-chip predictor for demand loads ([`OffChipPredictor`]).
    OffChip,
    /// L1D hardware prefetcher ([`L1Prefetcher`]).
    L1Prefetcher,
    /// L1D prefetch filter ([`L1PrefetchFilter`]).
    L1Filter,
    /// L2 hardware prefetcher ([`L2Prefetcher`]).
    L2Prefetcher,
    /// L2 prefetch filter ([`L2PrefetchFilter`]).
    L2Filter,
}

impl Seam {
    /// All seams, in the canonical listing order.
    pub const ALL: [Seam; 5] = [
        Seam::OffChip,
        Seam::L1Prefetcher,
        Seam::L1Filter,
        Seam::L2Prefetcher,
        Seam::L2Filter,
    ];

    /// Human-readable seam label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Seam::OffChip => "off-chip predictor",
            Seam::L1Prefetcher => "L1D prefetcher",
            Seam::L1Filter => "L1D prefetch filter",
            Seam::L2Prefetcher => "L2 prefetcher",
            Seam::L2Filter => "L2 prefetch filter",
        }
    }
}

impl std::fmt::Display for Seam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared state across the factories of **one** `CoreSetup` build.
///
/// Coupled components use it to exchange state: the Athena-RL scheme's
/// off-chip face creates the shared agent with [`BuildCtx::shared`] and
/// its filter face picks the same agent up under the same slot name.
/// Experiment code can pre-[`seed`](BuildCtx::seed) a slot to inject
/// externally owned state (the persistent-agent learning-curve study
/// seeds its agent across epochs this way).
///
/// A fresh context is used per core setup, so multi-core mixes build
/// per-core state unless the caller deliberately shares one context.
#[derive(Default)]
pub struct BuildCtx {
    slots: HashMap<String, Box<dyn Any + Send>>,
}

impl std::fmt::Debug for BuildCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.slots.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("BuildCtx").field("slots", &names).finish()
    }
}

impl BuildCtx {
    /// An empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates a slot (overwriting any previous value).
    pub fn seed<T: Clone + Send + 'static>(&mut self, slot: &str, value: T) {
        self.slots.insert(slot.to_owned(), Box::new(value));
    }

    /// Returns a clone of the slot's value, creating it with `make` on
    /// first access. A type mismatch with an existing slot panics — two
    /// factories disagreeing about a slot's type is a plugin bug, not a
    /// runtime condition.
    ///
    /// # Panics
    ///
    /// Panics when the slot holds a value of a different type.
    pub fn shared<T: Clone + Send + 'static>(&mut self, slot: &str, make: impl FnOnce() -> T) -> T {
        if let Some(boxed) = self.slots.get(slot) {
            return boxed
                .downcast_ref::<T>()
                .unwrap_or_else(|| {
                    panic!(
                        "BuildCtx slot '{slot}' holds a different type than requested \
                         ({} expected)",
                        std::any::type_name::<T>()
                    )
                })
                .clone();
        }
        let value = make();
        self.slots.insert(slot.to_owned(), Box::new(value.clone()));
        value
    }
}

/// Factory signature for the off-chip predictor seam.
pub type OffChipFactory = Arc<
    dyn Fn(&Params, &mut BuildCtx) -> Result<Box<dyn OffChipPredictor>, PluginError> + Send + Sync,
>;
/// Factory signature for the L1D prefetcher seam.
pub type L1PrefetcherFactory =
    Arc<dyn Fn(&Params, &mut BuildCtx) -> Result<Box<dyn L1Prefetcher>, PluginError> + Send + Sync>;
/// Factory signature for the L1D prefetch-filter seam.
pub type L1FilterFactory = Arc<
    dyn Fn(&Params, &mut BuildCtx) -> Result<Box<dyn L1PrefetchFilter>, PluginError> + Send + Sync,
>;
/// Factory signature for the L2 prefetcher seam.
pub type L2PrefetcherFactory =
    Arc<dyn Fn(&Params, &mut BuildCtx) -> Result<Box<dyn L2Prefetcher>, PluginError> + Send + Sync>;
/// Factory signature for the L2 prefetch-filter seam.
pub type L2FilterFactory = Arc<
    dyn Fn(&Params, &mut BuildCtx) -> Result<Box<dyn L2PrefetchFilter>, PluginError> + Send + Sync,
>;

/// Namespace prefix applied to every custom registration. Built-in names
/// may never start with it, so a custom component can never collide with
/// — or be spoofed as — a built-in, and its cache-key fragments are
/// recognizably foreign.
///
/// **Cache-staleness caveat:** result-cache keys address a custom
/// component by its name and parameters, not its code — built-in code is
/// guarded by the harness's `CODE_VERSION` salt, but the registry cannot
/// see inside a user factory. After changing a custom component's
/// *implementation*, bump a version parameter in the specs that
/// reference it (e.g. `.param("v", 2)`) or point the harness at a fresh
/// cache directory; otherwise a persistent disk tier will keep serving
/// the old implementation's results.
pub const CUSTOM_PREFIX: &str = "custom:";

/// One listing row of [`ComponentRegistry::components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Registered (namespaced) name.
    pub name: String,
    /// The seam the component fills.
    pub seam: Seam,
    /// Origin crate (or `custom`).
    pub origin: String,
}

/// One listing row of [`ComponentRegistry::schemes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeInfo {
    /// Scheme name (the `--scheme` lookup key).
    pub name: String,
    /// Origin crate (or `custom`).
    pub origin: String,
    /// Composition summary ([`SchemeSpec::composition`]).
    pub composition: String,
    /// The spec's cache key.
    pub cache_key: String,
}

#[derive(Clone)]
struct Entry<F> {
    factory: F,
    origin: String,
}

struct SeamMap<F> {
    seam: Seam,
    entries: BTreeMap<String, Entry<F>>,
}

impl<F: Clone> Clone for SeamMap<F> {
    fn clone(&self) -> Self {
        Self {
            seam: self.seam,
            entries: self.entries.clone(),
        }
    }
}

impl<F> SeamMap<F> {
    fn new(seam: Seam) -> Self {
        Self {
            seam,
            entries: BTreeMap::new(),
        }
    }

    fn register(
        &mut self,
        name: &str,
        origin: &str,
        custom: bool,
        factory: F,
    ) -> Result<String, PluginError> {
        if name.is_empty() {
            return Err(PluginError::InvalidName {
                name: name.to_owned(),
                reason: "empty name",
            });
        }
        if name.contains(['|', '{', '}', ';', '=', ',']) {
            return Err(PluginError::InvalidName {
                name: name.to_owned(),
                reason: "names may not contain '|', '{', '}', ';', '=' or ',' \
                         (cache-key structural characters)",
            });
        }
        if !custom && name.starts_with(CUSTOM_PREFIX) {
            return Err(PluginError::InvalidName {
                name: name.to_owned(),
                reason: "the 'custom:' namespace is reserved for register_custom_* calls",
            });
        }
        let key = if custom {
            format!("{CUSTOM_PREFIX}{name}")
        } else {
            name.to_owned()
        };
        if self.entries.contains_key(&key) {
            return Err(PluginError::DuplicateComponent {
                seam: self.seam,
                name: key,
            });
        }
        self.entries.insert(
            key.clone(),
            Entry {
                factory,
                origin: origin.to_owned(),
            },
        );
        Ok(key)
    }

    fn get(&self, name: &str) -> Result<&Entry<F>, PluginError> {
        self.entries
            .get(name)
            .ok_or_else(|| PluginError::UnknownComponent {
                seam: self.seam,
                name: name.to_owned(),
                did_you_mean: suggest(name, self.entries.keys().map(String::as_str)),
            })
    }

    fn resolve(&self, r: &ComponentRef) -> Result<ResolvedComponent<F>, PluginError>
    where
        F: Clone,
    {
        let entry = self.get(&r.name)?;
        Ok(ResolvedComponent {
            key: r.canonical(),
            factory: entry.factory.clone(),
            params: r.params.clone(),
        })
    }

    fn infos(&self, out: &mut Vec<ComponentInfo>) {
        for (name, e) in &self.entries {
            out.push(ComponentInfo {
                name: name.clone(),
                seam: self.seam,
                origin: e.origin.clone(),
            });
        }
    }
}

#[derive(Clone)]
struct SchemeEntry {
    spec: SchemeSpec,
    origin: String,
}

/// The registry: five seams of named component factories plus a map of
/// named [`SchemeSpec`]s (the `--scheme` lookup space).
///
/// Cloning is cheap-ish (factories are `Arc`s); the harness keeps one
/// built-in registry and every `Harness` clones it so user registrations
/// never leak across harnesses.
#[derive(Clone)]
pub struct ComponentRegistry {
    offchip: SeamMap<OffChipFactory>,
    l1_prefetchers: SeamMap<L1PrefetcherFactory>,
    l1_filters: SeamMap<L1FilterFactory>,
    l2_prefetchers: SeamMap<L2PrefetcherFactory>,
    l2_filters: SeamMap<L2FilterFactory>,
    schemes: BTreeMap<String, SchemeEntry>,
}

impl std::fmt::Debug for ComponentRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentRegistry")
            .field("offchip", &self.offchip.entries.len())
            .field("l1_prefetchers", &self.l1_prefetchers.entries.len())
            .field("l1_filters", &self.l1_filters.entries.len())
            .field("l2_prefetchers", &self.l2_prefetchers.entries.len())
            .field("l2_filters", &self.l2_filters.entries.len())
            .field("schemes", &self.schemes.len())
            .finish()
    }
}

impl Default for ComponentRegistry {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! seam_api {
    ($field:ident, $fty:ty, $out:ty,
     $reg:ident, $reg_custom:ident, $resolve:ident, $build:ident) => {
        /// Registers a built-in component on this seam.
        ///
        /// # Errors
        ///
        /// Rejects duplicate or invalid names.
        pub fn $reg(&mut self, name: &str, origin: &str, factory: $fty) -> Result<(), PluginError> {
            self.$field
                .register(name, origin, false, factory)
                .map(|_| ())
        }

        /// Registers a user component on this seam under the
        /// collision-checked `custom:` namespace; returns the namespaced
        /// name to reference in specs. See [`CUSTOM_PREFIX`] for the
        /// cache-staleness caveat when the component's *code* changes.
        ///
        /// # Errors
        ///
        /// Rejects duplicate or invalid names.
        pub fn $reg_custom(&mut self, name: &str, factory: $fty) -> Result<String, PluginError> {
            self.$field.register(name, "custom", true, factory)
        }

        /// Resolves a reference on this seam to its factory.
        ///
        /// # Errors
        ///
        /// Returns [`PluginError::UnknownComponent`] (with did-you-mean
        /// suggestions) for unregistered names.
        pub fn $resolve(&self, r: &ComponentRef) -> Result<ResolvedComponent<$fty>, PluginError> {
            self.$field.resolve(r)
        }

        /// Builds a component on this seam directly from a reference.
        ///
        /// # Errors
        ///
        /// Propagates resolution and factory errors.
        pub fn $build(&self, r: &ComponentRef, ctx: &mut BuildCtx) -> Result<$out, PluginError> {
            (self.$field.get(&r.name)?.factory)(&r.params, ctx)
        }
    };
}

impl ComponentRegistry {
    /// An empty registry, except for the inert `none` component
    /// pre-registered on every seam (origin `tlp-sim`) so specs and
    /// `--l1pf none` can name "no component" uniformly.
    #[must_use]
    pub fn new() -> Self {
        let mut reg = Self {
            offchip: SeamMap::new(Seam::OffChip),
            l1_prefetchers: SeamMap::new(Seam::L1Prefetcher),
            l1_filters: SeamMap::new(Seam::L1Filter),
            l2_prefetchers: SeamMap::new(Seam::L2Prefetcher),
            l2_filters: SeamMap::new(Seam::L2Filter),
            schemes: BTreeMap::new(),
        };
        const SIM: &str = "tlp-sim";
        let strict = |component: &'static str, p: &Params| -> Result<(), PluginError> {
            p.allow_keys(component, &[])
        };
        reg.register_offchip(
            "none",
            SIM,
            Arc::new(move |p, _| {
                strict("none (off-chip)", p)?;
                Ok(Box::new(NoOffChip))
            }),
        )
        .expect("fresh registry");
        reg.register_l1_prefetcher(
            "none",
            SIM,
            Arc::new(move |p, _| {
                strict("none (L1 prefetcher)", p)?;
                Ok(Box::new(NoL1Prefetcher))
            }),
        )
        .expect("fresh registry");
        reg.register_l1_filter(
            "none",
            SIM,
            Arc::new(move |p, _| {
                strict("none (L1 filter)", p)?;
                Ok(Box::new(NoL1Filter))
            }),
        )
        .expect("fresh registry");
        reg.register_l2_prefetcher(
            "none",
            SIM,
            Arc::new(move |p, _| {
                strict("none (L2 prefetcher)", p)?;
                Ok(Box::new(NoL2Prefetcher))
            }),
        )
        .expect("fresh registry");
        reg.register_l2_filter(
            "none",
            SIM,
            Arc::new(move |p, _| {
                strict("none (L2 filter)", p)?;
                Ok(Box::new(NoL2Filter))
            }),
        )
        .expect("fresh registry");
        reg
    }

    seam_api!(
        offchip,
        OffChipFactory,
        Box<dyn OffChipPredictor>,
        register_offchip,
        register_custom_offchip,
        resolve_offchip,
        build_offchip
    );
    seam_api!(
        l1_prefetchers,
        L1PrefetcherFactory,
        Box<dyn L1Prefetcher>,
        register_l1_prefetcher,
        register_custom_l1_prefetcher,
        resolve_l1_prefetcher,
        build_l1_prefetcher
    );
    seam_api!(
        l1_filters,
        L1FilterFactory,
        Box<dyn L1PrefetchFilter>,
        register_l1_filter,
        register_custom_l1_filter,
        resolve_l1_filter,
        build_l1_filter
    );
    seam_api!(
        l2_prefetchers,
        L2PrefetcherFactory,
        Box<dyn L2Prefetcher>,
        register_l2_prefetcher,
        register_custom_l2_prefetcher,
        resolve_l2_prefetcher,
        build_l2_prefetcher
    );
    seam_api!(
        l2_filters,
        L2FilterFactory,
        Box<dyn L2PrefetchFilter>,
        register_l2_filter,
        register_custom_l2_filter,
        resolve_l2_filter,
        build_l2_filter
    );

    /// Whether a component name is registered on a seam.
    #[must_use]
    pub fn contains(&self, seam: Seam, name: &str) -> bool {
        match seam {
            Seam::OffChip => self.offchip.entries.contains_key(name),
            Seam::L1Prefetcher => self.l1_prefetchers.entries.contains_key(name),
            Seam::L1Filter => self.l1_filters.entries.contains_key(name),
            Seam::L2Prefetcher => self.l2_prefetchers.entries.contains_key(name),
            Seam::L2Filter => self.l2_filters.entries.contains_key(name),
        }
    }

    /// Every registered component, ordered by seam then name.
    #[must_use]
    pub fn components(&self) -> Vec<ComponentInfo> {
        let mut out = Vec::new();
        self.offchip.infos(&mut out);
        self.l1_prefetchers.infos(&mut out);
        self.l1_filters.infos(&mut out);
        self.l2_prefetchers.infos(&mut out);
        self.l2_filters.infos(&mut out);
        out
    }

    /// The components of one seam, ordered by name.
    #[must_use]
    pub fn components_of(&self, seam: Seam) -> Vec<ComponentInfo> {
        self.components()
            .into_iter()
            .filter(|c| c.seam == seam)
            .collect()
    }

    /// Registers a named scheme (the `--scheme` lookup space).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and aliasing pinned keys.
    pub fn register_scheme(&mut self, spec: SchemeSpec, origin: &str) -> Result<(), PluginError> {
        self.check_pinned_key(&spec)?;
        let name = spec.name().to_owned();
        if self.schemes.contains_key(&name) {
            return Err(PluginError::DuplicateScheme { name });
        }
        self.schemes.insert(
            name,
            SchemeEntry {
                spec,
                origin: origin.to_owned(),
            },
        );
        Ok(())
    }

    /// Registers a user scheme (origin `custom`). The name is kept as
    /// given — the `custom:` namespace applies to component names, which
    /// is where cache keys come from — but collisions with registered
    /// schemes are rejected.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn register_custom_scheme(&mut self, spec: SchemeSpec) -> Result<(), PluginError> {
        self.register_scheme(spec, "custom")
    }

    /// Looks a scheme up by name, with did-you-mean suggestions.
    ///
    /// # Errors
    ///
    /// Returns [`PluginError::UnknownScheme`] for unregistered names.
    pub fn scheme(&self, name: &str) -> Result<&SchemeSpec, PluginError> {
        self.schemes
            .get(name)
            .map(|e| &e.spec)
            .ok_or_else(|| PluginError::UnknownScheme {
                name: name.to_owned(),
                did_you_mean: suggest(name, self.schemes.keys().map(String::as_str)),
            })
    }

    /// Every registered scheme, ordered by name.
    #[must_use]
    pub fn schemes(&self) -> Vec<SchemeInfo> {
        self.schemes
            .iter()
            .map(|(name, e)| SchemeInfo {
                name: name.clone(),
                origin: e.origin.clone(),
                composition: e.spec.composition(),
                cache_key: e.spec.cache_key(),
            })
            .collect()
    }

    /// Guards the pinned-key escape hatch: pinned keys exist solely so
    /// the built-in schemes keep their historical cache addresses, so a
    /// pinned spec may neither reference custom components (their
    /// results must stay content-addressed under derived keys) nor reuse
    /// a registered scheme's key for a *different* composition — either
    /// would let one composition warm-hit another's cached results.
    fn check_pinned_key(&self, spec: &SchemeSpec) -> Result<(), PluginError> {
        let Some(key) = spec.pinned() else {
            return Ok(());
        };
        // The derived-key namespaces are never pinnable: a pinned key
        // shaped like a derived key could collide with a genuine derived
        // composition's address.
        for reserved in ["spec:", CUSTOM_PREFIX] {
            if key.starts_with(reserved) {
                return Err(PluginError::PinnedKeyRejected {
                    key: key.to_owned(),
                    reason: format!("the '{reserved}' namespace is reserved for derived keys"),
                });
            }
        }
        if let Some(r) = spec
            .component_refs()
            .iter()
            .find(|r| r.name.starts_with(CUSTOM_PREFIX))
        {
            return Err(PluginError::PinnedKeyRejected {
                key: key.to_owned(),
                reason: format!(
                    "the spec references custom component '{}'; leave the key \
                     derived so results stay content-addressed",
                    r.name
                ),
            });
        }
        if let Some((name, entry)) = self
            .schemes
            .iter()
            .find(|(_, e)| e.spec.cache_key() == key && !e.spec.same_composition(spec))
        {
            return Err(PluginError::PinnedKeyRejected {
                key: key.to_owned(),
                reason: format!(
                    "it is the cache key of registered scheme '{name}' \
                     (origin {}) with a different composition",
                    entry.origin
                ),
            });
        }
        Ok(())
    }

    /// Resolves a spec: every filled seam is bound to its factory. This
    /// is where unknown component names surface — and where pinned-key
    /// aliasing is rejected — before any simulation starts.
    ///
    /// # Errors
    ///
    /// Returns the first seam's [`PluginError::UnknownComponent`], or
    /// [`PluginError::PinnedKeyRejected`] for a pinned key that could
    /// alias other cached results.
    pub fn resolve(&self, spec: &SchemeSpec) -> Result<ResolvedScheme, PluginError> {
        self.check_pinned_key(spec)?;
        Ok(ResolvedScheme {
            name: spec.name().to_owned(),
            cache_key: spec.cache_key(),
            offchip: spec
                .offchip_ref()
                .map(|r| self.offchip.resolve(r))
                .transpose()?,
            l1_prefetcher: spec
                .l1_prefetcher_ref()
                .map(|r| self.l1_prefetchers.resolve(r))
                .transpose()?,
            l1_filter: spec
                .l1_filter_ref()
                .map(|r| self.l1_filters.resolve(r))
                .transpose()?,
            l2_prefetcher: spec
                .l2_prefetcher_ref()
                .map(|r| self.l2_prefetchers.resolve(r))
                .transpose()?,
            l2_filter: spec
                .l2_filter_ref()
                .map(|r| self.l2_filters.resolve(r))
                .transpose()?,
        })
    }

    /// Resolves and assembles a spec around a trace in one step.
    ///
    /// # Errors
    ///
    /// Propagates resolution and factory errors.
    pub fn build_setup(
        &self,
        spec: &SchemeSpec,
        default_l1pf: Option<&ComponentRef>,
        trace: Box<dyn TraceSource>,
        ctx: &mut BuildCtx,
    ) -> Result<CoreSetup, PluginError> {
        let resolved = self.resolve(spec)?;
        let pf = default_l1pf
            .map(|r| self.l1_prefetchers.resolve(r))
            .transpose()?;
        resolved.build_setup(trace, pf.as_ref(), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_l1pf() -> L1PrefetcherFactory {
        Arc::new(|_, _| Ok(Box::new(NoL1Prefetcher)))
    }

    #[test]
    fn duplicate_builtin_registration_is_rejected() {
        let mut reg = ComponentRegistry::new();
        reg.register_l1_prefetcher("toy", "here", noop_l1pf())
            .expect("first");
        let err = reg
            .register_l1_prefetcher("toy", "there", noop_l1pf())
            .unwrap_err();
        assert_eq!(
            err,
            PluginError::DuplicateComponent {
                seam: Seam::L1Prefetcher,
                name: "toy".into()
            }
        );
    }

    #[test]
    fn duplicate_custom_registration_is_rejected() {
        let mut reg = ComponentRegistry::new();
        let key = reg
            .register_custom_l1_prefetcher("toy", noop_l1pf())
            .expect("first");
        assert_eq!(key, "custom:toy");
        assert!(reg
            .register_custom_l1_prefetcher("toy", noop_l1pf())
            .is_err());
        // The namespaces are disjoint: a builtin "toy" still fits.
        reg.register_l1_prefetcher("toy", "here", noop_l1pf())
            .expect("distinct namespace");
    }

    #[test]
    fn builtins_may_not_squat_the_custom_namespace() {
        let mut reg = ComponentRegistry::new();
        let err = reg
            .register_l1_prefetcher("custom:evil", "here", noop_l1pf())
            .unwrap_err();
        assert!(matches!(err, PluginError::InvalidName { .. }));
    }

    #[test]
    fn structural_characters_are_rejected_in_names() {
        let mut reg = ComponentRegistry::new();
        for bad in ["a|b", "a{b", "a}b", "a;b", "a=b", "a,b", ""] {
            assert!(
                reg.register_l1_prefetcher(bad, "here", noop_l1pf())
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn pinned_keys_cannot_alias_registered_schemes_or_custom_components() {
        let mut reg = ComponentRegistry::new();
        reg.register_scheme(
            SchemeSpec::new("TLP").offchip("none").pinned_key("TLP"),
            "here",
        )
        .expect("the real scheme registers");
        // Same pinned key, different composition: rejected at both
        // registration and resolution.
        let imposter = SchemeSpec::new("mine").l2_filter("none").pinned_key("TLP");
        assert!(matches!(
            reg.register_scheme(imposter.clone(), "evil").unwrap_err(),
            PluginError::PinnedKeyRejected { .. }
        ));
        assert!(matches!(
            reg.resolve(&imposter).unwrap_err(),
            PluginError::PinnedKeyRejected { .. }
        ));
        // The genuine spec still resolves (identical composition) —
        // even under a different display name, which is not key material.
        assert!(reg
            .resolve(&SchemeSpec::new("TLP").offchip("none").pinned_key("TLP"))
            .is_ok());
        assert!(reg
            .resolve(&SchemeSpec::new("alias").offchip("none").pinned_key("TLP"))
            .is_ok());
        // Pinned keys may not address custom components at all.
        reg.register_custom_l1_prefetcher("toy", noop_l1pf())
            .expect("register");
        let pinned_custom = SchemeSpec::new("x")
            .l1_prefetcher("custom:toy")
            .pinned_key("anything");
        assert!(matches!(
            reg.resolve(&pinned_custom).unwrap_err(),
            PluginError::PinnedKeyRejected { .. }
        ));
        // Derived keys over custom components are fine.
        assert!(reg
            .resolve(&SchemeSpec::new("x").l1_prefetcher("custom:toy"))
            .is_ok());
    }

    #[test]
    fn unknown_lookups_suggest_neighbors() {
        let mut reg = ComponentRegistry::new();
        reg.register_l1_prefetcher("ipcp", "tlp-prefetch", noop_l1pf())
            .expect("register");
        let err = reg
            .resolve_l1_prefetcher(&ComponentRef::new("ipc"))
            .unwrap_err();
        match err {
            PluginError::UnknownComponent { did_you_mean, .. } => {
                assert_eq!(did_you_mean.first().map(String::as_str), Some("ipcp"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn none_components_exist_on_every_seam_and_reject_params() {
        let reg = ComponentRegistry::new();
        for seam in Seam::ALL {
            assert!(reg.contains(seam, "none"), "{seam} missing 'none'");
        }
        let mut ctx = BuildCtx::new();
        let err = reg
            .build_l1_prefetcher(&ComponentRef::new("none").param("x", 1), &mut ctx)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PluginError::InvalidParam { .. }));
    }

    #[test]
    fn build_ctx_shares_and_seeds() {
        let mut ctx = BuildCtx::new();
        let a: Arc<u32> = ctx.shared("slot", || Arc::new(7));
        let b: Arc<u32> = ctx.shared("slot", || Arc::new(99));
        assert!(Arc::ptr_eq(&a, &b), "second access must reuse the first");
        let mut seeded = BuildCtx::new();
        seeded.seed("slot", Arc::new(42u32));
        let c: Arc<u32> = seeded.shared("slot", || Arc::new(0));
        assert_eq!(*c, 42);
    }

    #[test]
    fn scheme_registration_and_lookup() {
        let mut reg = ComponentRegistry::new();
        reg.register_scheme(SchemeSpec::new("Baseline"), "tlp-harness")
            .expect("register");
        assert!(reg
            .register_custom_scheme(SchemeSpec::new("Baseline"))
            .is_err());
        assert!(reg.scheme("Baseline").is_ok());
        let err = reg.scheme("Basline").unwrap_err();
        match err {
            PluginError::UnknownScheme { did_you_mean, .. } => {
                assert_eq!(did_you_mean.first().map(String::as_str), Some("Baseline"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn resolve_binds_all_filled_seams() {
        let reg = ComponentRegistry::new();
        let spec = SchemeSpec::new("empty-ish")
            .offchip("none")
            .l2_filter("none");
        let resolved = reg.resolve(&spec).expect("resolve");
        assert_eq!(resolved.cache_key, spec.cache_key());
        let trace: Box<dyn TraceSource> = Box::new(tlp_trace::VecTrace::looping(
            "t",
            vec![tlp_trace::TraceRecord::alu(0, None, [None, None])],
        ));
        let setup = resolved
            .build_setup(trace, None, &mut BuildCtx::new())
            .expect("build");
        assert_eq!(setup.offchip.name(), "none");
    }
}
