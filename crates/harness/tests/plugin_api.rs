//! Integration tests for the registry-driven composition API: RunKey
//! stability against the pre-refactor golden values, registry hygiene
//! (duplicates, uniqueness), and a custom component running end-to-end
//! through a [`Harness`]'s registry and run engine.

use std::sync::Arc;

use proptest::prelude::*;

use tlp_core::variants::TlpVariant;
use tlp_harness::scheme::all_builtin_schemes;
use tlp_harness::{builtin_registry, Harness, L1Pf, Machine, RunConfig, Scheme, TlpParams};
use tlp_plugin::{ComponentRef, PluginError, SchemeSpec, Seam};
use tlp_sim::hooks::{DemandAccess, L1Prefetcher, PrefetchCandidate};
use tlp_sim::types::LINE_SIZE;

/// Every built-in `Scheme`'s cache key, byte-for-byte as produced by the
/// pre-refactor harness (captured before the registry rework). These
/// strings address golden fixtures and on-disk caches; a mismatch means
/// historical results silently detach from their cells.
#[test]
fn builtin_scheme_keys_match_the_pre_refactor_golden_list() {
    let golden: [(Scheme, &str); 16] = [
        (Scheme::Baseline, "Baseline"),
        (Scheme::Ppf, "PPF"),
        (Scheme::Hermes, "Hermes"),
        (Scheme::HermesPpf, "Hermes+PPF"),
        (Scheme::Tlp, "TLP"),
        (Scheme::HermesExtra, "Hermes+7KB"),
        (Scheme::Lp, "LP"),
        (Scheme::HermesTlp, "Hermes+TLP"),
        (Scheme::AthenaRl, "AthenaRl"),
        (Scheme::Variant(TlpVariant::FlpOnly), "variant:FLP"),
        (Scheme::Variant(TlpVariant::SlpOnly), "variant:SLP"),
        (Scheme::Variant(TlpVariant::Tsp), "variant:TSP"),
        (Scheme::Variant(TlpVariant::DelayedTsp), "variant:Delayed TSP"),
        (
            Scheme::Variant(TlpVariant::SelectiveTsp),
            "variant:Selective TSP",
        ),
        (Scheme::Variant(TlpVariant::Full), "variant:TLP"),
        (
            Scheme::TlpCustom(TlpParams::paper()),
            "tlp:TlpParams { tau_high: 14, tau_low: 2, tau_pref: 6, resize: (1, 1), drop_feature: None }",
        ),
    ];
    for (scheme, key) in golden {
        assert_eq!(scheme.key(), key, "{scheme:?} key drifted");
        assert_eq!(
            scheme.to_spec().cache_key(),
            key,
            "{scheme:?} spec does not pin its legacy key"
        );
    }
    // Parameterized custom point, as probed pre-refactor.
    let p = TlpParams {
        tau_high: 20,
        tau_low: 4,
        tau_pref: 10,
        resize: (1, 2),
        drop_feature: Some(3),
    };
    assert_eq!(
        Scheme::TlpCustom(p).key(),
        "tlp:TlpParams { tau_high: 20, tau_low: 4, tau_pref: 10, resize: (1, 2), drop_feature: Some(3) }"
    );
}

/// Full-stack RunKey stability: exact 128-bit cell addresses captured
/// from the pre-refactor run engine. This pins everything between the
/// enum and the content hash (env fragment, scheme key, prefetcher
/// fragment, bandwidth rendering, FNV streams, `CODE_VERSION`).
#[test]
fn cell_runkeys_match_the_pre_refactor_golden_hexes() {
    let h = Harness::new(RunConfig::test());
    let w = h.workloads()[0].clone();
    assert_eq!(w.name(), "spec.mcf_06", "catalog head changed");
    let singles: [(Scheme, &str); 4] = [
        (Scheme::Baseline, "3e3b823bfd01a2138306a24f0c2de50e"),
        (Scheme::Tlp, "022886eb4a81e5ac26caf0937fef240f"),
        (
            Scheme::TlpCustom(TlpParams::paper()),
            "4efd9d0dacbaf09888ac50fda3b6252b",
        ),
        (Scheme::AthenaRl, "a7c5491a0e14a599755ba16364f97b94"),
    ];
    for (scheme, hex) in singles {
        let ws = std::slice::from_ref(&w);
        let ipcp = L1Pf::Ipcp.resolve();
        let cell = h.cell(ws, scheme.resolve(), ipcp, Machine::CascadeLake(None));
        assert_eq!(cell.key().hex(), hex, "{scheme:?} cell address drifted");
    }
    let mix = h.cell(
        &[w.clone(), w.clone(), w.clone(), w.clone()],
        Scheme::Variant(TlpVariant::Tsp).resolve(),
        L1Pf::BertiExtra.resolve(),
        Machine::CascadeLake(Some(1.6)),
    );
    assert_eq!(mix.key().hex(), "e20b8af37c58976857c09518843041c7");
}

/// No built-in key may wander into the namespaces reserved for derived
/// and custom keys — that separation is what makes collisions between
/// user compositions and built-ins structurally impossible.
#[test]
fn builtin_keys_stay_out_of_reserved_namespaces() {
    for s in all_builtin_schemes() {
        let key = s.key();
        assert!(!key.starts_with("spec:"), "{key}");
        assert!(!key.starts_with("custom:"), "{key}");
    }
    for p in L1Pf::ALL {
        assert!(!p.name().starts_with("custom:"));
    }
}

/// Name uniqueness across every built-in registration: components unique
/// per seam, schemes unique overall.
#[test]
fn builtin_names_are_unique() {
    let reg = builtin_registry();
    for seam in Seam::ALL {
        let names: Vec<String> = reg
            .components_of(seam)
            .into_iter()
            .map(|c| c.name)
            .collect();
        let set: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "{seam} names collide: {names:?}");
        assert!(!names.is_empty(), "{seam} has no registrations");
    }
    let schemes: Vec<String> = reg.schemes().into_iter().map(|s| s.name).collect();
    let set: std::collections::HashSet<&String> = schemes.iter().collect();
    assert_eq!(set.len(), schemes.len(), "scheme names collide");
}

/// Re-registering any built-in name (component or scheme) is rejected on
/// a harness's private registry.
#[test]
fn duplicate_registration_is_rejected_for_builtins() {
    let mut h = Harness::new(RunConfig::test());
    let reg = h.registry_mut();
    let err = reg
        .register_l1_prefetcher("ipcp", "elsewhere", Arc::new(|_, _| unreachable!()))
        .unwrap_err();
    assert!(matches!(err, PluginError::DuplicateComponent { .. }));
    let err = reg
        .register_scheme(SchemeSpec::new("TLP"), "elsewhere")
        .unwrap_err();
    assert!(matches!(err, PluginError::DuplicateScheme { .. }));
    // The custom namespace is disjoint: "custom:ipcp" is fine, once.
    let name = reg
        .register_custom_l1_prefetcher("ipcp", Arc::new(|_, _| unreachable!()))
        .expect("custom namespace is free");
    assert_eq!(name, "custom:ipcp");
    assert!(reg
        .register_custom_l1_prefetcher("ipcp", Arc::new(|_, _| unreachable!()))
        .is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Distinct TlpParams always produce distinct scheme keys (and equal
    /// params equal keys): the custom-scheme cache space cannot alias.
    #[test]
    fn tlp_custom_keys_are_injective(
        th1 in -32i32..64, tl1 in -32i32..64, tp1 in -32i32..64,
        rn1 in 1u8..4, rd1 in 1u8..4, df1 in 0u8..6,
        th2 in -32i32..64, tl2 in -32i32..64, tp2 in -32i32..64,
        rn2 in 1u8..4, rd2 in 1u8..4, df2 in 0u8..6,
    ) {
        // 5 encodes None (the shim has no option strategy).
        let df = |v: u8| if v == 5 { None } else { Some(v) };
        let a = TlpParams { tau_high: th1, tau_low: tl1, tau_pref: tp1, resize: (rn1, rd1), drop_feature: df(df1) };
        let b = TlpParams { tau_high: th2, tau_low: tl2, tau_pref: tp2, resize: (rn2, rd2), drop_feature: df(df2) };
        let (ka, kb) = (Scheme::TlpCustom(a).key(), Scheme::TlpCustom(b).key());
        prop_assert_eq!(a == b, ka == kb, "params {:?} vs {:?}: keys '{}' vs '{}'", a, b, ka, kb);
        // And the knobs survive the plugin-parameter round trip.
        prop_assert_eq!(TlpParams::from_params("flp", &a.to_params()).unwrap(), a);
    }
}

/// A toy next-N-line prefetcher: the custom component of the end-to-end
/// test below. Lives entirely outside the harness.
#[derive(Debug)]
struct NextN {
    n: u64,
}

impl L1Prefetcher for NextN {
    fn on_access(&mut self, access: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
        if access.hit {
            return;
        }
        let line = access.vaddr & !(LINE_SIZE - 1);
        for i in 1..=self.n {
            out.push(PrefetchCandidate {
                vaddr: line + i * LINE_SIZE,
                fill_l1: true,
            });
        }
    }

    fn name(&self) -> &'static str {
        "next-n"
    }
}

/// End-to-end: register a custom prefetcher, compose a spec, run it
/// through a harness's run engine, and observe it actually prefetching —
/// without touching `crates/harness/src/scheme.rs`.
#[test]
fn custom_next_n_prefetcher_runs_through_session() {
    let mut rc = RunConfig::test();
    rc.warmup = 1_000;
    rc.instructions = 6_000;
    let mut h = Harness::new(rc);
    let name = h
        .registry_mut()
        .register_custom_l1_prefetcher(
            "next-n",
            Arc::new(|params, _ctx| {
                params.allow_keys("next-n", &["n"])?;
                let n = params.get_parsed::<u64>("next-n", "n")?.unwrap_or(2);
                Ok(Box::new(NextN { n }))
            }),
        )
        .expect("register");
    assert_eq!(name, "custom:next-n");

    // Compose a scheme around it and register it for name-based lookup
    // (the same path `tlp_repro --scheme` resolves through).
    let spec = SchemeSpec::new("sandwich-sweep")
        .l1_prefetcher(ComponentRef::new(&name).param("n", 3))
        .l2_prefetcher(ComponentRef::new("spp").param("profile", "standard"))
        .l1_filter("slp");
    h.registry_mut()
        .register_custom_scheme(spec.clone())
        .expect("scheme registers");
    let resolved = h
        .resolve_scheme_name("sandwich-sweep")
        .expect("resolves by name");
    assert!(resolved.cache_key.contains("custom:next-n{n=3}"));

    let mcf = ["spec.mcf_06".to_owned()];
    let cells = h.cells(&spec, "none", &mcf).expect("cells resolve");
    let report = h.run(&cells).remove(0);
    let issued: u64 = report.cores.iter().map(|c| c.l1_prefetch.issued).sum();
    assert!(issued > 0, "the custom prefetcher must issue prefetches");
    assert_eq!(h.engine_stats().simulated, 1);

    // Same spec again: pure cache hit (content addressing covers custom
    // components).
    let cells = h.cells(&spec, "none", &mcf).expect("cells resolve");
    let again = h.run(&cells).remove(0);
    assert_eq!(report, again);
    assert_eq!(h.engine_stats().simulated, 1);
}

/// Malformed factory parameters surface as `Err` at resolution time —
/// not as a worker-thread panic at simulation time.
#[test]
fn session_rejects_bad_params_before_simulating() {
    let h = Harness::new(RunConfig::test());
    let bad_value = SchemeSpec::new("x").offchip(ComponentRef::new("flp").param("delay", "warp"));
    let err = h.resolve_spec(&bad_value).unwrap_err();
    assert!(err.to_string().contains("delay"), "{err}");
    let typo_key = SchemeSpec::new("y").l1_prefetcher(ComponentRef::new("ipcp").param("scal", 4));
    let err = h
        .cells(&typo_key, "none", &["spec.mcf_06".to_owned()])
        .unwrap_err();
    assert!(err.to_string().contains("unknown parameter"), "{err}");
    assert_eq!(h.engine_stats().simulated, 0, "nothing may simulate");
}

/// Pinned keys cannot masquerade as derived keys or registered schemes.
#[test]
fn session_rejects_aliasing_pinned_keys() {
    let h = Harness::new(RunConfig::test());
    let forged = SchemeSpec::new("z")
        .offchip("hermes")
        .pinned_key("spec:oc=flp;l1pf=-;l1f=slp;l2pf=spp{profile=standard};l2f=-");
    assert!(matches!(
        h.resolve_spec(&forged),
        Err(tlp_harness::SessionError::Plugin(
            PluginError::PinnedKeyRejected { .. }
        ))
    ));
    let imposter = SchemeSpec::new("mine").offchip("hermes").pinned_key("TLP");
    assert!(matches!(
        h.resolve_spec(&imposter),
        Err(tlp_harness::SessionError::Plugin(
            PluginError::PinnedKeyRejected { .. }
        ))
    ));
}

/// Name resolution: unknown names surface with did-you-mean
/// suggestions, and [`Harness::cells`] keeps the first occurrence of each
/// workload name, in order, without simulating anything.
#[test]
fn session_lookups_suggest() {
    let h = Harness::new(RunConfig::test());
    let err = h.resolve_scheme_name("Basline").unwrap_err();
    assert!(err.to_string().contains("did you mean"), "{err}");
    let err = h.resolve_l1pf_name("bertii").unwrap_err();
    assert!(err.to_string().contains("berti"), "{err}");

    let spec = SchemeSpec::new("x");
    let names = ["spec.mcf_06", "bfs.kron", "spec.mcf_06"].map(String::from);
    let cells = h.cells(&spec, "ipcp", &names).expect("known names");
    let got: Vec<&str> = cells.iter().map(|c| c.workloads()[0].name()).collect();
    assert_eq!(got, ["spec.mcf_06", "bfs.kron"], "deduplicated, in order");

    let err = h
        .cells(&spec, "ipcp", &["spec.mcf_07".to_owned()])
        .unwrap_err();
    assert!(
        matches!(
            &err,
            tlp_harness::SessionError::UnknownWorkload { did_you_mean, .. }
                if did_you_mean.iter().any(|n| n == "spec.mcf_06")
        ),
        "{err}"
    );
    assert!(err.to_string().contains("unknown workload"), "{err}");
    assert_eq!(h.engine_stats().requested, 0, "nothing may simulate");
}
