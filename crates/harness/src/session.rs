//! The `Session` facade: registry + result cache + worker pool behind one
//! handle.
//!
//! A session owns a private clone of the built-in
//! [`ComponentRegistry`] (so custom registrations never leak across
//! sessions) and a [`Harness`] (the content-addressed result cache and
//! the sharded run engine). It is the public entry point for running
//! *specs* — including compositions over components registered at run
//! time — through exactly the same cells, cache and thread pool the
//! paper experiments use:
//!
//! ```no_run
//! use tlp_harness::{RunConfig, Session};
//! use tlp_plugin::SchemeSpec;
//!
//! let session = Session::new(RunConfig::test());
//! let spec = SchemeSpec::new("my-tlp").offchip("flp").l1_filter("slp");
//! let rows = session.run_sweep(&spec, "ipcp").unwrap();
//! for (workload, report) in rows {
//!     println!("{workload}: IPC {:.3}", report.ipc());
//! }
//! ```

use std::sync::Arc;

use tlp_plugin::{ComponentRef, ComponentRegistry, PluginError, ResolvedScheme, SchemeSpec};
use tlp_sim::SimReport;
use tlp_trace::emit::Workload;

use crate::plugins::builtin_registry;
use crate::report::{ExperimentResult, Row};
use crate::runner::{Harness, RunConfig};
use crate::scheme::ResolvedL1Pf;

/// Errors surfaced by session-level runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Registry/spec errors (unknown components, bad parameters, ...).
    Plugin(PluginError),
    /// A workload name not present in the active catalog.
    UnknownWorkload {
        /// The unknown name.
        name: String,
        /// Closest catalog names, best first.
        did_you_mean: Vec<String>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Plugin(e) => e.fmt(f),
            SessionError::UnknownWorkload { name, did_you_mean } => {
                write!(f, "unknown workload: {name}")?;
                if !did_you_mean.is_empty() {
                    write!(f, " (did you mean: {}?)", did_you_mean.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PluginError> for SessionError {
    fn from(e: PluginError) -> Self {
        SessionError::Plugin(e)
    }
}

/// Registry + result cache + thread pool: the composition API's runtime.
pub struct Session {
    registry: ComponentRegistry,
    harness: Harness,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("registry", &self.registry)
            .field("harness", &self.harness)
            .finish()
    }
}

impl Session {
    /// A session over the built-in registry with a memory-only cache.
    #[must_use]
    pub fn new(rc: RunConfig) -> Self {
        Self {
            registry: builtin_registry().clone(),
            harness: Harness::new(rc),
        }
    }

    /// Adds the on-disk cache tier (optionally size-capped with
    /// [`DiskCache::with_cap_bytes`](crate::cache::DiskCache::with_cap_bytes)).
    #[must_use]
    pub fn with_disk_cache(mut self, disk: crate::cache::DiskCache) -> Self {
        self.harness = self.harness.with_disk_cache(disk);
        self
    }

    /// Adds the content-addressed on-disk trace store under `dir` (see
    /// [`Harness::with_trace_dir`]): captures persist as TLPT v2 files
    /// and later runs stream them back instead of re-capturing.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.harness = self.harness.with_trace_dir(dir)?;
        Ok(self)
    }

    /// The session's registry (for lookups and listings).
    #[must_use]
    pub fn registry(&self) -> &ComponentRegistry {
        &self.registry
    }

    /// The session's registry, mutably — register custom components and
    /// schemes here before composing specs that name them.
    pub fn registry_mut(&mut self) -> &mut ComponentRegistry {
        &mut self.registry
    }

    /// The underlying harness (experiments take `&Harness`).
    #[must_use]
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// Resolves a spec against this session's registry and dry-runs its
    /// factories, so malformed parameters surface here as `Err` instead
    /// of panicking a worker thread at simulation time.
    ///
    /// # Errors
    ///
    /// Returns unknown-component errors (with did-you-mean suggestions)
    /// and factory parameter errors.
    pub fn resolve_spec(&self, spec: &SchemeSpec) -> Result<Arc<ResolvedScheme>, SessionError> {
        let resolved = self.registry.resolve(spec)?;
        resolved.validate()?;
        Ok(Arc::new(resolved))
    }

    /// Looks a named scheme up and resolves it.
    ///
    /// # Errors
    ///
    /// Returns unknown-scheme/component errors with suggestions.
    pub fn resolve_scheme_name(&self, name: &str) -> Result<Arc<ResolvedScheme>, SessionError> {
        let spec = self.registry.scheme(name)?.clone();
        self.resolve_spec(&spec)
    }

    /// Resolves an L1D prefetcher by name (dry-building it, so factory
    /// errors surface here).
    ///
    /// # Errors
    ///
    /// Returns unknown-component errors with suggestions and factory
    /// parameter errors.
    pub fn resolve_l1pf_name(&self, name: &str) -> Result<Arc<ResolvedL1Pf>, SessionError> {
        let resolved = self
            .registry
            .resolve_l1_prefetcher(&ComponentRef::new(name))?;
        resolved.build(&mut tlp_plugin::BuildCtx::new()).map(drop)?;
        Ok(Arc::new(resolved))
    }

    /// Finds a workload in the catalog by name.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownWorkload`] with suggestions.
    pub fn workload(&self, name: &str) -> Result<Arc<dyn Workload>, SessionError> {
        // `trace:NAME` resolves against the trace store's imports, not
        // the generated catalog.
        if name.starts_with(tlp_tracestore::TRACE_NAMESPACE) {
            return self.harness.trace_workload(name).ok_or_else(|| {
                SessionError::UnknownWorkload {
                    name: name.to_owned(),
                    did_you_mean: Vec::new(),
                }
            });
        }
        self.harness
            .workloads()
            .iter()
            .find(|w| w.name() == name)
            .cloned()
            .ok_or_else(|| SessionError::UnknownWorkload {
                name: name.to_owned(),
                did_you_mean: tlp_plugin::suggest(
                    name,
                    self.harness.workloads().iter().map(|w| w.name()),
                ),
            })
    }

    /// SimPoint-sampled estimate of one spec on one workload: replays the
    /// top-`k` SimPoint regions and reconstitutes a full-run estimate
    /// (see [`Harness::run_simpoints_spec`]).
    ///
    /// # Errors
    ///
    /// Propagates resolution and workload-lookup errors.
    pub fn run_simpoints(
        &self,
        workload: &str,
        spec: &SchemeSpec,
        l1pf: &str,
        k: usize,
    ) -> Result<crate::runner::SimPointRun, SessionError> {
        let w = self.workload(workload)?;
        let scheme = self.resolve_spec(spec)?;
        let pf = self.resolve_l1pf_name(l1pf)?;
        Ok(self.harness.run_simpoints_spec(&w, scheme, pf, k))
    }

    /// Runs one spec on one workload (planned through the run engine, so
    /// the result lands in — or comes from — the shared cache).
    ///
    /// # Errors
    ///
    /// Propagates resolution and workload-lookup errors.
    pub fn run_single(
        &self,
        workload: &str,
        spec: &SchemeSpec,
        l1pf: &str,
    ) -> Result<SimReport, SessionError> {
        let w = self.workload(workload)?;
        let scheme = self.resolve_spec(spec)?;
        let pf = self.resolve_l1pf_name(l1pf)?;
        // Plan, then collect (two identical cells: RunCell is single-use).
        self.harness.run_cells(vec![self.harness.cell_single_spec(
            &w,
            Arc::clone(&scheme),
            Arc::clone(&pf),
            None,
        )]);
        let cell = self.harness.cell_single_spec(&w, scheme, pf, None);
        Ok(self.harness.run_cell(&cell))
    }

    /// Runs one spec across the active workload set: the whole grid is
    /// planned up front (deduplicated, cache-answered, sharded over the
    /// worker pool), then collected in catalog order.
    ///
    /// # Errors
    ///
    /// Propagates resolution errors.
    pub fn run_sweep(
        &self,
        spec: &SchemeSpec,
        l1pf: &str,
    ) -> Result<Vec<(String, SimReport)>, SessionError> {
        let scheme = self.resolve_spec(spec)?;
        let pf = self.resolve_l1pf_name(l1pf)?;
        let workloads = self.harness.active_workloads();
        self.harness.run_cells(
            workloads
                .iter()
                .map(|w| {
                    self.harness
                        .cell_single_spec(w, Arc::clone(&scheme), Arc::clone(&pf), None)
                })
                .collect(),
        );
        Ok(workloads
            .iter()
            .map(|w| {
                let cell =
                    self.harness
                        .cell_single_spec(w, Arc::clone(&scheme), Arc::clone(&pf), None);
                (w.name().to_owned(), self.harness.run_cell(&cell))
            })
            .collect())
    }

    /// [`Session::run_sweep`] rendered as an [`ExperimentResult`] table
    /// (one row per workload: IPC, DRAM transactions, L1D prefetches
    /// issued) — the `tlp_repro --scheme` output.
    ///
    /// # Errors
    ///
    /// Propagates resolution errors.
    pub fn scheme_table(
        &self,
        spec: &SchemeSpec,
        l1pf: &str,
    ) -> Result<ExperimentResult, SessionError> {
        let rows = self.run_sweep(spec, l1pf)?;
        Ok(scheme_result(spec.name(), l1pf, &rows))
    }

    /// Run-engine counter snapshot.
    #[must_use]
    pub fn engine_stats(&self) -> crate::cache::EngineStats {
        self.harness.engine_stats()
    }

    /// The run cache's metrics registry (see [`Harness::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> &tlp_obs::MetricsRegistry {
        self.harness.metrics()
    }

    /// Captures simulated-time telemetry for one spec across the named
    /// workloads (every catalog workload when `workloads` is empty):
    /// each cell re-simulates with a recorder attached, through the
    /// harness's timeline blob cache.
    ///
    /// # Errors
    ///
    /// Propagates resolution and workload-lookup errors.
    pub fn timeline_runs(
        &self,
        workloads: &[String],
        spec: &SchemeSpec,
        l1pf: &str,
        tcfg: tlp_sim::TimelineConfig,
    ) -> Result<Vec<crate::timeline::TimelineRun>, SessionError> {
        let scheme = self.resolve_spec(spec)?;
        let pf = self.resolve_l1pf_name(l1pf)?;
        let ws: Vec<Arc<dyn Workload>> = if workloads.is_empty() {
            self.harness.active_workloads()
        } else {
            workloads
                .iter()
                .map(|n| self.workload(n))
                .collect::<Result<_, _>>()?
        };
        Ok(ws
            .iter()
            .map(|w| crate::timeline::TimelineRun {
                workload: w.name().to_owned(),
                scheme: spec.name().to_owned(),
                l1pf: l1pf.to_owned(),
                timeline: self.harness.timeline_single_spec(
                    w,
                    Arc::clone(&scheme),
                    Arc::clone(&pf),
                    tcfg,
                ),
            })
            .collect())
    }

    /// The `--profile` artifact for this session's runs so far (see
    /// [`crate::profile`]). `engine` names the configured engine mode.
    #[must_use]
    pub fn profile_value(&self, engine: &str) -> tlp_sim::serial::Value {
        crate::profile::profile_value(&self.harness, engine)
    }

    /// Writes the `--profile` artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn write_profile(&self, engine: &str, path: &std::path::Path) -> std::io::Result<()> {
        crate::profile::write_profile(&self.harness, engine, path)
    }
}

/// Renders sweep rows as the `--scheme` [`ExperimentResult`] table (one
/// row per workload: IPC, DRAM transactions, L1D prefetches issued, plus
/// a mean-IPC summary row). A free function so the `tlp-serve` client can
/// render the exact same bytes from streamed reports that the in-process
/// [`Session::scheme_table`] path produces.
#[must_use]
pub fn scheme_result(
    scheme_name: &str,
    l1pf: &str,
    rows: &[(String, SimReport)],
) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        format!("scheme-{}", slug(scheme_name)),
        format!("Scheme sweep: {scheme_name} (L1D prefetcher: {l1pf})"),
        "IPC / DRAM transactions / L1D prefetches issued",
    );
    let mut ipcs = Vec::new();
    for (workload, report) in rows {
        let issued: u64 = report.cores.iter().map(|c| c.l1_prefetch.issued).sum();
        ipcs.push(report.ipc());
        result.rows.push(Row::new(
            workload.clone(),
            vec![
                ("IPC".to_owned(), report.ipc()),
                ("DRAM".to_owned(), report.dram_transactions() as f64),
                ("L1 PF issued".to_owned(), issued as f64),
            ],
        ));
    }
    result.summary.push(Row::new(
        "mean",
        vec![("IPC".to_owned(), crate::runner::mean(&ipcs))],
    ));
    result
}

/// Lowercase, dash-separated form of a scheme name for result ids.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}
