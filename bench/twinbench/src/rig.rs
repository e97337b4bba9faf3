//! Set-up: everything a run builds before it measures — the engines of the
//! query phase, both daemons with their tenant, and the in-process registry
//! with its two tenants.  `setup_s` is the wall-clock of [`Rig::build`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ts_serve::{Client, Server, ServerConfig, ServerHandle};
use twin_search::{
    BlockCacheConfig, Engine, EngineConfig, Method, Normalization, SeriesStore, Tenant,
    TenantRegistry, TenantSpec, TwinQuery,
};

use crate::inputs::{self, mix, stratified_positions, SALT_KV_QUERIES, SALT_QUERIES};
use crate::spec::{Workload, KV_FALLBACK_EPSILON, WINDOW};

/// Name of the tenant every serve and ingest latency belongs to.
pub const TS_TENANT: &str = "t-tsindex";
/// Name of the WAL-bound tenant of the ingest phase.
pub const ISAX_TENANT: &str = "t-isax";

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// What is fixed for a whole run.
#[derive(Debug)]
pub struct Ctx {
    pub workload: &'static Workload,
    pub seed: u64,
    /// `--seconds` relative to the nominal run: scales every op count.
    pub scale: f64,
    pub traced: bool,
    /// Per-run root for every file, socket and directory.
    pub root: PathBuf,
    /// The dataset fixture, raw values.
    pub raw: Vec<f64>,
}

impl Ctx {
    /// An op count of the workload, scaled to `--seconds`.
    pub fn scaled(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(8)
    }

    pub fn base(&self) -> &[f64] {
        &self.raw[..self.workload.base_points]
    }
}

/// A normalisation regime with its seeded queries.  Lanes of one regime
/// answer the same queries and must agree.
#[derive(Debug)]
pub struct Regime {
    pub normalization: Normalization,
    pub epsilon: f64,
    pub queries: Vec<TwinQuery>,
}

/// One engine of the query phase.
#[derive(Debug)]
pub struct Lane {
    pub method: Method,
    pub engine: Engine,
    pub regime: usize,
}

/// A daemon with its one client connection.
#[derive(Debug)]
pub struct Daemon {
    pub handle: Option<ServerHandle>,
    pub client: Option<Client>,
}

impl Daemon {
    /// Starts a daemon under `dir` (created if missing) on a unix socket
    /// or on loopback TCP, connects the one client and creates the tenant.
    pub fn start(ctx: &Ctx, dir: &Path, unix: bool, traced: bool) -> Result<Self, BoxError> {
        std::fs::create_dir_all(dir)?;
        let mut config = ServerConfig::new(dir.join("data"));
        if traced {
            // Every request lands in the daemon's trace ring, so the traced
            // run can read the server-side spans through `Client::trace`.
            config = config.with_slow_query_ms(0);
        }
        let handle = if unix {
            Server::start_unix(dir.join("d.sock"), config)?
        } else {
            Server::start_tcp("127.0.0.1:0", config)?
        };
        let mut client = Client::connect(handle.endpoint())?;
        client.create_tenant(TS_TENANT, Method::TsIndex, WINDOW, ctx.base())?;
        Ok(Daemon {
            handle: Some(handle),
            client: Some(client),
        })
    }

    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("daemon still running")
    }

    /// Crash semantics: the connection is dropped and the daemon killed
    /// without a drain; its threads are joined.
    pub fn kill(&mut self) {
        drop(self.client.take());
        if let Some(handle) = self.handle.take() {
            handle.kill();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Wall-clock of the parts of one set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub generate: Duration,
    pub prepare: Duration,
}

#[derive(Debug)]
pub struct Rig {
    pub regimes: Vec<Regime>,
    pub lanes: Vec<Lane>,
    pub unix: Daemon,
    pub tcp: Daemon,
    pub registry: Option<TenantRegistry>,
    pub ts_tenant: Option<Arc<Tenant>>,
    pub isax_tenant: Option<Arc<Tenant>>,
    /// Directory of the in-process registry (copied for the recovery cycles).
    pub ingest_dir: PathBuf,
    pub dir: PathBuf,
    pub times: SetupTimes,
}

fn engine_config(
    workload: &Workload,
    method: Method,
    normalization: Normalization,
) -> EngineConfig {
    let mut config = EngineConfig::new(method, WINDOW)
        .with_normalization(normalization)
        .with_store(workload.store);
    if workload.cache_blocks > 0 {
        config = config.with_cache_config(
            BlockCacheConfig::new()
                .with_block_values(1_024)
                .with_capacity_blocks(workload.cache_blocks),
        );
    }
    config
}

impl Rig {
    /// One complete set-up under `ctx.root/<tag>`.
    pub fn build(ctx: &Ctx, tag: &str) -> Result<Rig, BoxError> {
        let dir = ctx.root.join(tag);
        std::fs::create_dir_all(&dir)?;
        let started = Instant::now();
        let mut times = SetupTimes::default();

        // The generator is part of set-up (a user pays for loading the
        // series), even though its output equals `ctx.raw`.
        let raw = inputs::dataset(ctx.workload);
        times.generate = started.elapsed();
        if ctx.traced {
            let t = Instant::now();
            let store = twin_search::PreparedStore::prepare_with(
                &raw,
                ctx.workload.normalization,
                ctx.workload.store,
                engine_config(ctx.workload, Method::Sweepline, ctx.workload.normalization).cache,
            )?;
            times.prepare = t.elapsed();
            drop(store);
        }

        let main = ctx.workload.normalization;
        let mut regimes: Vec<Regime> = Vec::new();
        let mut lanes: Vec<Lane> = Vec::new();
        for method in Method::ALL {
            let kv_fallback = method == Method::KvIndex && main == Normalization::PerSubsequence;
            let (normalization, epsilon, salt) = if kv_fallback {
                (
                    Normalization::WholeSeries,
                    KV_FALLBACK_EPSILON,
                    SALT_KV_QUERIES,
                )
            } else {
                (main, ctx.workload.epsilon, SALT_QUERIES)
            };
            let engine = Engine::build(&raw, engine_config(ctx.workload, method, normalization))?;
            let regime = match regimes
                .iter()
                .position(|r| r.normalization == normalization)
            {
                Some(i) => i,
                None => {
                    // Queries are windows of the prepared series, read back
                    // from the engine's own store (so already normalised).
                    let store = engine.store();
                    let queries = stratified_positions(
                        raw.len(),
                        ctx.scaled(ctx.workload.queries),
                        mix(ctx.seed, salt),
                    )
                    .into_iter()
                    .map(|p| Ok(TwinQuery::new(store.read(p, WINDOW)?, epsilon)))
                    .collect::<Result<Vec<_>, BoxError>>()?;
                    regimes.push(Regime {
                        normalization,
                        epsilon,
                        queries,
                    });
                    regimes.len() - 1
                }
            };
            lanes.push(Lane {
                method,
                engine,
                regime,
            });
        }

        let unix = Daemon::start(ctx, &dir.join("unix"), true, ctx.traced)?;
        let tcp = Daemon::start(ctx, &dir.join("tcp"), false, ctx.traced)?;

        let ingest_dir = dir.join("ingest");
        let registry = TenantRegistry::open(&ingest_dir)?;
        let ts_tenant = registry.create(
            TS_TENANT,
            TenantSpec::new(Method::TsIndex, WINDOW),
            ctx.base(),
        )?;
        let isax_tenant = registry.create(
            ISAX_TENANT,
            TenantSpec::new(Method::Isax, WINDOW),
            ctx.base(),
        )?;

        times.total = started.elapsed();
        Ok(Rig {
            regimes,
            lanes,
            unix,
            tcp,
            registry: Some(registry),
            ts_tenant: Some(ts_tenant),
            isax_tenant: Some(isax_tenant),
            ingest_dir,
            dir,
            times,
        })
    }

    /// Drops the in-process registry and its tenants without `close()` or
    /// a final checkpoint: what a killed process leaves behind.
    pub fn kill_registry(&mut self) {
        self.ts_tenant = None;
        self.isax_tenant = None;
        self.registry = None;
    }

    /// Kills what still runs and removes the rig's directory.
    pub fn teardown(mut self) {
        self.unix.kill();
        self.tcp.kill();
        self.kill_registry();
        let dir = std::mem::take(&mut self.dir);
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}
