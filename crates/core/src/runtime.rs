//! Deployment runtime: assemble services, clients, and the simulated
//! network into a runnable [`System`].

use crate::api::Service;
use crate::host::ServiceExecutor;
use crate::passive::{PassiveHost, PassiveService};
use crate::router::{routing_key, split_keys, RendezvousRouter, RouteError, Router, RouterEpoch};
use crate::txn::{
    decode_entries, from_hex, to_hex, ReshardExport, ReshardImport, TxnService, TxnShim,
    OP_RESHARD_EXPORT, OP_RESHARD_IMPORT, WRONG_SHARD_FAULT,
};
use crate::wscost::WsCostModel;
use bytes::Bytes;
use pws_perpetual::{
    ClientCore, ClientEvent, CostModel, Executor, FaultMode, GroupId, PerpetualReplica,
    ReplicaConfig, Topology,
};
use pws_simnet::{
    escape_json, fmt_f64, AuditMode, Auditor, Context, LinkConfig, NetConfig, Node, NodeId,
    ProtoFamily, ProtoKey, RunOutcome, SimDuration, SimTime, Simulation, TraceLevel,
};
use pws_soap::engine::Engine;
use pws_soap::MessageContext;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The hidden client that drives live reshard migrations.
const RESHARD_CONTROLLER: &str = "reshard-controller";

/// One logical sharded service: its provisioned shard groups in shard
/// order (active shards first, then dormant spares), the epoch-versioned
/// router assigning keys to the *active* prefix, and whether cross-shard
/// keys coordinate a transaction instead of being rejected.
#[derive(Clone)]
struct ShardedEntry {
    shards: Vec<GroupId>,
    epoch: RouterEpoch,
    txn: bool,
}

/// Maps service URIs (`urn:svc:<name>`) to replica groups — directly for
/// ordinary services, through a deterministic key [`Router`] for sharded
/// ones (see [`crate::router`]).
#[derive(Default, Clone)]
pub struct UriMap {
    by_uri: HashMap<String, GroupId>,
    sharded: HashMap<String, ShardedEntry>,
}

impl std::fmt::Debug for UriMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UriMap")
            .field("services", &self.by_uri.len())
            .field("sharded", &self.sharded.len())
            .finish()
    }
}

impl UriMap {
    /// Registers service `name` as `urn:svc:<name>`.
    pub fn insert(&mut self, name: &str, group: GroupId) {
        self.by_uri.insert(format!("urn:svc:{name}"), group);
    }

    /// Registers logical service `name` as sharded across `shards` (in
    /// shard order), routed through `epoch`. Each shard is also registered
    /// directly under its shard-qualified name (`name#<k>`), so a caller
    /// that has already pinned a shard can address it like any service.
    /// The epoch's active count may be *smaller* than `shards.len()` — the
    /// suffix are dormant spares awaiting live resharding. When `txn` is
    /// set, cross-shard keys route to the first key's owner (the 2PC
    /// coordinator) instead of raising [`RouteError::CrossShard`].
    pub(crate) fn insert_sharded_elastic(
        &mut self,
        name: &str,
        shards: Vec<GroupId>,
        epoch: RouterEpoch,
        txn: bool,
    ) {
        for (k, gid) in shards.iter().enumerate() {
            self.insert(&format!("{name}#{k}"), *gid);
        }
        self.sharded.insert(
            format!("urn:svc:{name}"),
            ShardedEntry { shards, epoch, txn },
        );
    }

    /// Resolves a URI to its group. Returns `None` for unknown URIs *and*
    /// for sharded logical URIs, which need a key — use [`UriMap::route`].
    pub fn group(&self, uri: &str) -> Option<GroupId> {
        self.by_uri.get(uri).copied()
    }

    /// Number of *provisioned* shards behind a sharded logical URI —
    /// dormant spares included (`None` if `uri` is not sharded).
    pub(crate) fn shard_count(&self, uri: &str) -> Option<u32> {
        self.sharded.get(uri).map(|e| e.shards.len() as u32)
    }

    /// The epoch handle of a sharded logical URI (shared with every clone
    /// of this map), for observing or advancing the active shard count.
    pub(crate) fn epoch_handle(&self, uri: &str) -> Option<RouterEpoch> {
        self.sharded.get(uri).map(|e| e.epoch.clone())
    }

    /// The shard groups behind a sharded logical URI, in shard order.
    pub(crate) fn shard_groups(&self, uri: &str) -> Option<&[GroupId]> {
        self.sharded.get(uri).map(|e| e.shards.as_slice())
    }

    /// Routes a request key to its owning group: directly for ordinary
    /// services, through the service's [`Router`] for sharded ones.
    /// Returns `(shard index, group)`; the index is 0 for unsharded
    /// services.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownService`] if `uri` resolves to nothing, and
    /// [`RouteError::CrossShard`] if the key names entities owned by
    /// different shards of a non-transactional service. Transactional
    /// sharded services route cross-shard keys to the **first** key's
    /// owner, which coordinates a two-phase commit (see [`crate::txn`]).
    pub fn route(&self, uri: &str, key: &str) -> Result<(u32, GroupId), RouteError> {
        if let Some(gid) = self.by_uri.get(uri) {
            return Ok((0, *gid));
        }
        let Some(entry) = self.sharded.get(uri) else {
            return Err(RouteError::UnknownService {
                uri: uri.to_owned(),
            });
        };
        let shards = entry.epoch.epoch().min(entry.shards.len() as u32);
        let mut owner: Option<u32> = None;
        let mut spread: Vec<u32> = Vec::new();
        for k in split_keys(key) {
            let s = RendezvousRouter.shard(k, shards);
            if owner.is_none_or(|o| o == s) {
                owner = Some(s);
            } else if !spread.contains(&s) {
                spread.push(s);
            }
        }
        if let Some(extra) = owner.filter(|_| !spread.is_empty()) {
            if entry.txn {
                // Coordinator = the first key's owner (`extra` holds the
                // first owner seen; keys after it never overwrite it).
                return Ok((extra, entry.shards[extra as usize]));
            }
            spread.insert(0, extra);
            spread.sort_unstable();
            return Err(RouteError::CrossShard {
                uri: uri.to_owned(),
                shards: spread,
            });
        }
        let s = owner.unwrap_or(0);
        Ok((s, entry.shards[s as usize]))
    }
}

/// The canonical URI of a service.
pub(crate) fn service_uri(name: &str) -> String {
    format!("urn:svc:{name}")
}

/// The default network for Perpetual-WS deployments: the paper's Gigabit
/// LAN (78 µs ping RTT) *plus* the per-hop latency of the 2007-era
/// SOAP-over-SSL stack (JSSE record processing, servlet dispatch, kernel
/// crossings) that a raw ping does not see. This latency is pipelined away
/// by asynchronous messaging, which is what gives Fig. 9 its headroom.
pub(crate) fn default_ws_net() -> NetConfig {
    NetConfig::new(LinkConfig {
        base: SimDuration::from_micros(250),
        per_byte_us: 0.008,
        jitter: SimDuration::from_micros(25),
        drop_probability: 0.0,
    })
}

enum Factory {
    Service(Box<dyn FnMut(u32) -> Box<dyn Service>>),
    Passive(Box<dyn FnMut(u32) -> Box<dyn PassiveService>>),
    /// Sharded factories receive `(shard, replica)`.
    ShardedService(Box<dyn FnMut(u32, u32) -> Box<dyn Service>>),
    ShardedPassive(Box<dyn FnMut(u32, u32) -> Box<dyn PassiveService>>),
    /// Transactional sharded services are wrapped in a [`TxnShim`].
    Txn(Box<dyn FnMut(u32, u32) -> Box<dyn TxnService>>),
}

struct ServiceSpec {
    name: String,
    n: u32,
    /// Active shard count at build time; 1 for ordinary services.
    shards: u32,
    /// Dormant spare shards provisioned for live resharding
    /// ([`SystemBuilder::add_shard`]); transactional services only.
    spares: u32,
    /// Whether requests are routed across shards by the
    /// [`RendezvousRouter`] (false for ordinary services).
    sharded: bool,
    factory: Factory,
    /// Faults keyed by `(shard, replica)`; shard 0 for ordinary services.
    faults: HashMap<(u32, u32), FaultMode>,
}

struct ClientSpec {
    name: String,
    kind: ClientKind,
}

enum ClientKind {
    Scripted {
        target: String,
        total: u64,
        window: u64,
        op: String,
        payload: String,
        timeout: Option<SimDuration>,
    },
    /// Custom unreplicated endpoint (e.g. a TPC-W remote browser emulator):
    /// built from the wired-up `ClientCore` and the URI map.
    Custom(Box<dyn FnOnce(ClientCore, Arc<UriMap>) -> Box<dyn Node>>),
}

/// Builds a Perpetual-WS deployment.
///
/// See the [crate docs](crate) for a complete example.
pub struct SystemBuilder {
    seed: u64,
    cost: CostModel,
    max_batch_size: Option<usize>,
    checkpoint_interval: Option<u64>,
    page_size: Option<u32>,
    recovery_window: Option<SimDuration>,
    reply_retention: Option<usize>,
    trace: TraceLevel,
    flight_capacity: Option<usize>,
    audit: Option<AuditMode>,
    services: Vec<ServiceSpec>,
    clients: Vec<ClientSpec>,
}

/// Resolves the `PWS_AUDIT` environment opt-in used when
/// [`SystemBuilder::audit`] was not called: `1`/`record`/`on` audit and
/// keep running, `strict`/`panic` fail the run at the first violation.
fn audit_mode_from_env() -> Option<AuditMode> {
    match std::env::var("PWS_AUDIT")
        .ok()?
        .to_ascii_lowercase()
        .as_str()
    {
        "1" | "record" | "on" => Some(AuditMode::Record),
        "strict" | "panic" => Some(AuditMode::Strict),
        _ => None,
    }
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("seed", &self.seed)
            .field("services", &self.services.len())
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// A builder with the default (paper-calibrated) cost models and LAN.
    pub fn new(seed: u64) -> Self {
        SystemBuilder {
            seed,
            cost: CostModel::DEFAULT,
            max_batch_size: None,
            checkpoint_interval: None,
            page_size: None,
            recovery_window: None,
            reply_retention: None,
            trace: TraceLevel::Off,
            flight_capacity: None,
            audit: None,
            services: Vec::new(),
            clients: Vec::new(),
        }
    }

    /// Sets the observability trace level for the deployment.
    ///
    /// At [`TraceLevel::Phases`] every client-visible request gets a
    /// lifecycle span (queued → … → replied) with per-phase latency
    /// histograms; [`TraceLevel::Full`] additionally keeps every
    /// per-sighting event for chrome://tracing export
    /// ([`System::export_trace_json`]). Tracing is a pure side channel:
    /// enabling it at any level leaves the simulation's event schedule —
    /// and therefore its trace digest — byte-identical.
    pub fn tracing(&mut self, level: TraceLevel) -> &mut Self {
        self.trace = level;
        self
    }

    /// Enables the online protocol invariant auditor for the deployment.
    ///
    /// The auditor consumes replica-emitted protocol observations at
    /// runtime and cross-checks the safety invariants the paper's protocol
    /// promises (exactly-once delivery, no commit without a prepare
    /// certificate, no slot divergence across views, checkpoint stability
    /// quorums, 2PC decision agreement — see `pws_obs::Auditor`).
    /// Violations bump `obs.audit.violations`, capture a flight-recorder
    /// dump, and — in [`AuditMode::Strict`] — panic the run so test suites
    /// fail loudly. Like tracing, auditing is a pure side channel: the
    /// simulation's event schedule and trace digest stay byte-identical.
    ///
    /// When this is not called, the `PWS_AUDIT` environment variable
    /// (`1`/`record`/`on` → record, `strict`/`panic` → strict) enables it
    /// instead.
    pub fn audit(&mut self, mode: AuditMode) -> &mut Self {
        self.audit = Some(mode);
        self
    }

    /// Overrides the per-node flight-recorder ring capacity (default
    /// [`pws_simnet::FlightRing`]'s 256). The flight recorder is always
    /// on regardless of the trace level — its events are rare protocol
    /// milestones and the ring bounded.
    pub fn flight_capacity(&mut self, cap: usize) -> &mut Self {
        self.flight_capacity = Some(cap.max(1));
        self
    }

    /// Overrides the crypto/transport cost model.
    pub fn cost(&mut self, cost: CostModel) -> &mut Self {
        self.cost = cost;
        self
    }

    /// Overrides the CLBFT request-batching cap for every replica group:
    /// the most requests a voter primary seals into one agreement slot.
    /// `1` disables batching (one request per slot, the pre-batching
    /// behaviour).
    pub fn max_batch_size(&mut self, n: usize) -> &mut Self {
        self.max_batch_size = Some(n.max(1));
        self
    }

    /// Overrides the checkpoint interval for every replica group: a voter
    /// snapshots its application state and broadcasts a checkpoint
    /// certificate vote every `k` executions. Smaller intervals bound the
    /// state a recovering replica must re-fetch; larger ones amortize
    /// snapshot cost.
    pub fn checkpoint_interval(&mut self, k: u64) -> &mut Self {
        self.checkpoint_interval = Some(k.max(1));
        self
    }

    /// Overrides the snapshot page size (bytes) for every replica group's
    /// Merkle-partitioned checkpoints: checkpoint digests cover a page-tree
    /// root at this granularity, boundaries re-hash only dirty pages, and
    /// state transfer ships only pages whose digests differ. Smaller pages
    /// tighten the transfer delta but grow the per-boundary manifest.
    pub fn page_size(&mut self, bytes: u32) -> &mut Self {
        self.page_size = Some(bytes.max(1));
        self
    }

    /// Overrides how many produced replies (and reply routes) every
    /// replica retains per calling group for retransmits. Smaller values
    /// shrink checkpoint snapshots; a caller whose retry cadence is slower
    /// than the group completing this many newer requests risks wedging a
    /// stuck call (see the contract on the default in `pws-perpetual`).
    pub fn reply_retention(&mut self, n: usize) -> &mut Self {
        self.reply_retention = Some(n.max(1));
        self
    }

    /// Enables proactive recovery (paper §7 future work) for every
    /// replicated service: each window, exactly one replica per group
    /// (round-robin by index) tears its state down — voter log, driver
    /// bookkeeping, session keys — and rejoins through checkpoint state
    /// transfer. This time-bounds the `≤ f faulty replicas` assumption: a
    /// silently compromised replica is flushed within `n` windows.
    /// Singleton (`n = 1`) services are skipped — with no peers to fetch
    /// state from, a wipe would be an irrecoverable crash.
    pub fn proactive_recovery(&mut self, window: SimDuration) -> &mut Self {
        self.recovery_window = Some(window);
        self
    }

    /// Adds a replicated poll-driven service with `n` replicas. The factory
    /// is invoked once per replica (replica index passed in) and must
    /// produce deterministic, identical services.
    pub fn service<F>(&mut self, name: &str, n: u32, mut factory: F) -> &mut Self
    where
        F: FnMut(u32) -> Box<dyn Service> + 'static,
    {
        self.services.push(ServiceSpec {
            name: name.to_owned(),
            n,
            shards: 1,
            spares: 0,
            sharded: false,
            factory: Factory::Service(Box::new(move |i| factory(i))),
            faults: HashMap::new(),
        });
        self
    }

    /// Adds a replicated passive (request→reply) service with `n` replicas.
    pub fn passive_service<F>(&mut self, name: &str, n: u32, mut factory: F) -> &mut Self
    where
        F: FnMut(u32) -> Box<dyn PassiveService> + 'static,
    {
        self.services.push(ServiceSpec {
            name: name.to_owned(),
            n,
            shards: 1,
            spares: 0,
            sharded: false,
            factory: Factory::Passive(Box::new(move |i| factory(i))),
            faults: HashMap::new(),
        });
        self
    }

    /// Adds one *logical* service partitioned across `shards` independent
    /// voter groups of `n` replicas each, routed by the default
    /// [`RendezvousRouter`] on the request key. Every per-group subsystem
    /// — batching, pipelining, checkpointing, state transfer, proactive
    /// recovery — runs per shard, so agreement throughput scales out with
    /// the shard count instead of asymptoting at one group's rate.
    ///
    /// The factory is invoked once per replica with `(shard, replica)`
    /// and must produce deterministic services that are identical within
    /// a shard. Shard `k` is addressable directly as `name#k`
    /// (`urn:svc:name#k`); the logical URI `urn:svc:name` routes by key.
    /// Requests whose keys span shards are rejected with the typed
    /// [`RouteError::CrossShard`] (clients) or a deterministic abort
    /// fault (service outcalls) — single-shard operations only.
    pub fn sharded<F>(&mut self, name: &str, shards: u32, n: u32, mut factory: F) -> &mut Self
    where
        F: FnMut(u32, u32) -> Box<dyn Service> + 'static,
    {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        self.services.push(ServiceSpec {
            name: name.to_owned(),
            n,
            shards,
            spares: 0,
            sharded: true,
            factory: Factory::ShardedService(Box::new(move |s, i| factory(s, i))),
            faults: HashMap::new(),
        });
        self
    }

    /// Sharded variant of [`SystemBuilder::passive_service`]: one logical
    /// passive service across `shards` voter groups of `n` replicas,
    /// routed by the default [`RendezvousRouter`].
    pub fn sharded_passive<F>(
        &mut self,
        name: &str,
        shards: u32,
        n: u32,
        mut factory: F,
    ) -> &mut Self
    where
        F: FnMut(u32, u32) -> Box<dyn PassiveService> + 'static,
    {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        self.services.push(ServiceSpec {
            name: name.to_owned(),
            n,
            shards,
            spares: 0,
            sharded: true,
            factory: Factory::ShardedPassive(Box::new(move |s, i| factory(s, i))),
            faults: HashMap::new(),
        });
        self
    }

    /// Adds a *transactional* sharded service: one logical [`TxnService`]
    /// across `shards` voter groups of `n` replicas, routed by the default
    /// [`RendezvousRouter`]. Each replica's service is wrapped in a
    /// [`TxnShim`], so requests whose keys span shards become two-phase
    /// commits coordinated by the first key's owner instead of
    /// [`RouteError::CrossShard`] rejections, and the deployment supports
    /// live resharding (see [`SystemBuilder::add_shard`]).
    pub fn sharded_txn<F>(&mut self, name: &str, shards: u32, n: u32, mut factory: F) -> &mut Self
    where
        F: FnMut(u32, u32) -> Box<dyn TxnService> + 'static,
    {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        self.services.push(ServiceSpec {
            name: name.to_owned(),
            n,
            shards,
            spares: 0,
            sharded: true,
            factory: Factory::Txn(Box::new(move |s, i| factory(s, i))),
            faults: HashMap::new(),
        });
        self
    }

    /// Declares capacity for one *online* shard addition to transactional
    /// sharded service `name`: a fresh voter group is provisioned dormant
    /// (it holds all client traffic behind a gate) and stood up at runtime
    /// by [`System::add_shard`], which flips the routing epoch and migrates
    /// exactly the keys rendezvous routing reassigns. May be called
    /// repeatedly to provision several spares.
    ///
    /// # Panics
    ///
    /// Panics if `name` has not been added with
    /// [`SystemBuilder::sharded_txn`] — only transactional services carry
    /// the fence/import machinery resharding needs.
    pub fn add_shard(&mut self, name: &str) -> &mut Self {
        let spec = self
            .services
            .iter_mut()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown service '{name}'"));
        assert!(
            matches!(spec.factory, Factory::Txn(_)),
            "live resharding requires a transactional sharded service \
             (SystemBuilder::sharded_txn); '{name}' is not one"
        );
        spec.spares += 1;
        self
    }

    /// Injects a fault into replica `idx` of service `name`. For sharded
    /// services address one shard as `name#<shard>`.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been added yet, or if a shard suffix
    /// is malformed or out of range — a mistyped shard must fail loudly at
    /// build time, not leave the fault silently uninjected.
    pub fn fault(&mut self, name: &str, idx: u32, fault: FaultMode) -> &mut Self {
        let (base, shard) = match name.rsplit_once('#') {
            Some((base, s)) if self.services.iter().any(|sp| sp.name == base) => {
                let shard = s
                    .parse::<u32>()
                    .unwrap_or_else(|_| panic!("bad shard suffix in '{name}'"));
                (base, shard)
            }
            _ => (name, 0),
        };
        let spec = self
            .services
            .iter_mut()
            .find(|s| s.name == base)
            .unwrap_or_else(|| panic!("unknown service '{name}'"));
        assert!(
            shard < spec.shards,
            "service '{base}' has {} shard(s); '{name}' is out of range",
            spec.shards
        );
        spec.faults.insert((shard, idx), fault);
        self
    }

    /// Adds an unreplicated scripted client that fires `total` requests at
    /// service `target`, all at once (open window).
    pub fn scripted_client(&mut self, name: &str, target: &str, total: u64) -> &mut Self {
        self.scripted_client_windowed(name, target, total, total)
    }

    /// Adds a scripted client that keeps at most `window` requests
    /// outstanding until `total` complete — `window = 1` is the paper's
    /// synchronous client; larger windows are the parallel asynchronous
    /// clients of Fig. 9.
    pub fn scripted_client_windowed(
        &mut self,
        name: &str,
        target: &str,
        total: u64,
        window: u64,
    ) -> &mut Self {
        self.clients.push(ClientSpec {
            name: name.to_owned(),
            kind: ClientKind::Scripted {
                target: target.to_owned(),
                total,
                window: window.max(1),
                op: "increment".to_owned(),
                payload: String::new(),
                timeout: None,
            },
        });
        self
    }

    /// Sets a client-side give-up timeout on the most recently added
    /// scripted client.
    pub fn client_timeout(&mut self, d: SimDuration) -> &mut Self {
        if let Some(ClientSpec {
            kind: ClientKind::Scripted { timeout, .. },
            ..
        }) = self.clients.last_mut()
        {
            *timeout = Some(d);
        }
        self
    }

    /// Adds a custom unreplicated client node (e.g. a TPC-W browser
    /// emulator). The factory receives the client's wired-up [`ClientCore`]
    /// and the deployment's URI map.
    pub fn custom_client<F>(&mut self, name: &str, factory: F) -> &mut Self
    where
        F: FnOnce(ClientCore, Arc<UriMap>) -> Box<dyn Node> + 'static,
    {
        self.clients.push(ClientSpec {
            name: name.to_owned(),
            kind: ClientKind::Custom(Box::new(factory)),
        });
        self
    }

    /// Constructs the deployment.
    ///
    /// # Panics
    ///
    /// Panics if a client's target service does not exist or a group size is
    /// not `3f + 1`.
    pub fn build(self) -> System {
        let mut sim = Simulation::with_net(self.seed, default_ws_net());
        sim.set_trace_level(self.trace);
        if let Some(cap) = self.flight_capacity {
            sim.obs_mut().set_flight_capacity(cap);
        }
        let audit = self.audit.or_else(audit_mode_from_env);
        sim.set_auditor(audit);
        let mut topo = Topology::new();
        let mut uris = UriMap::default();
        let mut groups_by_name = HashMap::new();
        let mut next_node = 0u32;
        let mut next_group = 0u32;

        for spec in &self.services {
            // A sharded service occupies `shards + spares` consecutive
            // groups (active shards first, then dormant spares), each
            // registered under its `name#k` alias; an unsharded one is the
            // single-group degenerate case of the same loop.
            let provisioned = spec.shards + spec.spares;
            let mut shard_groups = Vec::with_capacity(provisioned as usize);
            for k in 0..provisioned {
                let gid = GroupId(next_group);
                next_group += 1;
                let nodes: Vec<NodeId> = (next_node..next_node + spec.n)
                    .map(NodeId::from_raw)
                    .collect();
                next_node += spec.n;
                topo.register(gid, nodes);
                if let Some(aud) = sim.auditor_mut() {
                    // The checkpoint-stability invariant needs the group's
                    // fault bound f (stability requires f+1 matching votes).
                    aud.register_group(gid.0, u64::from((spec.n - 1) / 3));
                }
                if spec.sharded {
                    groups_by_name.insert(format!("{}#{k}", spec.name), gid);
                } else {
                    uris.insert(&spec.name, gid);
                    groups_by_name.insert(spec.name.clone(), gid);
                }
                shard_groups.push(gid);
            }
            if spec.sharded {
                let epoch = RouterEpoch::new(spec.shards);
                let txn = matches!(spec.factory, Factory::Txn(_));
                uris.insert_sharded_elastic(&spec.name, shard_groups, epoch, txn);
            }
        }
        for client in &self.clients {
            let gid = GroupId(next_group);
            next_group += 1;
            topo.register(gid, vec![NodeId::from_raw(next_node)]);
            next_node += 1;
            groups_by_name.insert(client.name.clone(), gid);
        }
        // Transactional deployments get a hidden reshard-controller client
        // (registered last so every other node keeps its id) that drives
        // export → import migrations when `System::add_shard` fires.
        let controller_gid = if self
            .services
            .iter()
            .any(|s| matches!(s.factory, Factory::Txn(_)))
        {
            let gid = GroupId(next_group);
            next_group += 1;
            topo.register(gid, vec![NodeId::from_raw(next_node)]);
            next_node += 1;
            groups_by_name.insert(RESHARD_CONTROLLER.to_owned(), gid);
            Some(gid)
        } else {
            None
        };
        let _ = (next_node, next_group);

        let topo = Arc::new(topo);
        let uris = Arc::new(uris);

        let mut client_nodes = HashMap::new();
        for mut spec in self.services {
            for shard in 0..spec.shards + spec.spares {
                let (hosted_name, gid) = if spec.sharded {
                    let alias = format!("{}#{shard}", spec.name);
                    let gid = groups_by_name[&alias];
                    (alias, gid)
                } else {
                    (spec.name.clone(), groups_by_name[&spec.name])
                };
                for idx in 0..spec.n {
                    let mut cfg = ReplicaConfig::new(gid, idx, topo.clone(), self.seed);
                    cfg.cost = self.cost;
                    // Unset knobs keep `ReplicaConfig::new`'s defaults.
                    cfg.max_batch_size = self.max_batch_size.unwrap_or(cfg.max_batch_size);
                    cfg.checkpoint_interval =
                        self.checkpoint_interval.unwrap_or(cfg.checkpoint_interval);
                    cfg.page_size = self.page_size.unwrap_or(cfg.page_size);
                    cfg.reply_retention = self.reply_retention.unwrap_or(cfg.reply_retention);
                    cfg.recovery_interval = self.recovery_window;
                    cfg.obs_phases = self.trace.spans_enabled();
                    cfg.audit = audit.is_some();
                    cfg.fault = spec.faults.get(&(shard, idx)).copied().unwrap_or_default();
                    let service: Box<dyn Service> = match &mut spec.factory {
                        Factory::Service(f) => f(idx),
                        Factory::Passive(f) => Box::new(PassiveHost::new(f(idx))),
                        Factory::ShardedService(f) => f(shard, idx),
                        Factory::ShardedPassive(f) => Box::new(PassiveHost::new(f(shard, idx))),
                        Factory::Txn(f) => Box::new(TxnShim::new(
                            f(shard, idx),
                            spec.name.as_str(),
                            shard,
                            spec.shards,
                            shard >= spec.shards,
                        )),
                    };
                    let executor: Box<dyn Executor> = Box::new(ServiceExecutor::new(
                        service,
                        &hosted_name,
                        uris.clone(),
                        WsCostModel::DEFAULT,
                    ));
                    let node = sim.add_node(Box::new(PerpetualReplica::new(cfg, executor)));
                    debug_assert_eq!(node, topo.node(gid, idx));
                }
            }
        }
        for spec in self.clients {
            let gid = groups_by_name[&spec.name];
            let core = ClientCore::new(gid, topo.clone(), self.seed, self.cost);
            let node_box: Box<dyn Node> = match spec.kind {
                ClientKind::Scripted {
                    target,
                    total,
                    window,
                    op,
                    payload,
                    timeout,
                } => {
                    let target_uri = service_uri(&target);
                    // Service targets route through the URI map (sharded
                    // ones per request key); anything else — e.g. another
                    // client's degenerate group — stays pinned.
                    let fixed = if uris.group(&target_uri).is_some()
                        || uris.shard_count(&target_uri).is_some()
                    {
                        None
                    } else {
                        Some(
                            *groups_by_name
                                .get(&target)
                                .unwrap_or_else(|| panic!("client target '{target}' unknown")),
                        )
                    };
                    Box::new(ScriptedClient {
                        core,
                        uris: uris.clone(),
                        fixed,
                        shard_metric_keys: HashMap::new(),
                        target_uri,
                        engine: Engine::with_id_prefix(spec.name.clone()),
                        ws_cost: WsCostModel::DEFAULT,
                        total,
                        window,
                        op,
                        payload,
                        timeout,
                        sent: 0,
                        send_times: BTreeMap::new(),
                        in_flight: HashMap::new(),
                        replies: Vec::new(),
                        latencies: Vec::new(),
                        first_send: None,
                        last_complete: None,
                        retry_timer: None,
                    })
                }
                ClientKind::Custom(factory) => factory(core, uris.clone()),
            };
            let node = sim.add_node(node_box);
            client_nodes.insert(spec.name.clone(), node);
            debug_assert_eq!(node, topo.node(gid, 0));
        }
        let controller = controller_gid.map(|gid| {
            let core = ClientCore::new(gid, topo.clone(), self.seed, self.cost);
            let node = sim.add_node(Box::new(ReshardController {
                core,
                uris: uris.clone(),
                engine: Engine::with_id_prefix(RESHARD_CONTROLLER.to_owned()),
                ws_cost: WsCostModel::DEFAULT,
                jobs: BTreeMap::new(),
                calls: BTreeMap::new(),
                retry_timer: None,
            }));
            debug_assert_eq!(node, topo.node(gid, 0));
            node
        });

        System {
            sim,
            groups_by_name,
            client_nodes,
            uris,
            controller,
        }
    }
}

/// A built deployment ready to run.
pub struct System {
    sim: Simulation,
    groups_by_name: HashMap<String, GroupId>,
    client_nodes: HashMap<String, NodeId>,
    uris: Arc<UriMap>,
    /// The hidden reshard-controller node (transactional deployments only).
    controller: Option<NodeId>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("groups", &self.groups_by_name.len())
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Runs until quiescence or `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Runs for an additional span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        self.sim.run_for(d)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The group id of a service or client.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn group(&self, name: &str) -> GroupId {
        self.groups_by_name[name]
    }

    /// Direct access to the simulation (metrics, network faults, tracing).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Stands up the next provisioned spare shard of transactional service
    /// `name` **online**: flips the routing epoch (clients immediately route
    /// at the grown count; moved keys hit the new shard's admission gate or
    /// the old shards' fences and are redirected, never lost), then drives
    /// the migration — every source shard orders a `reshardExport` config
    /// record that fences and extracts exactly the keys rendezvous routing
    /// reassigns, and the new shard orders one `reshardImport` per source,
    /// opening its gate when all have arrived
    /// (`clbft.reshard.completed` increments). Returns the new active shard
    /// count. Run the system afterwards to let the migration complete.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not transactional or no spare shard remains
    /// (see [`SystemBuilder::add_shard`]).
    pub fn add_shard(&mut self, name: &str) -> u32 {
        let uri = service_uri(name);
        let provisioned = self
            .uris
            .shard_count(&uri)
            .unwrap_or_else(|| panic!("unknown sharded service '{name}'"));
        let epoch = self.uris.epoch_handle(&uri).expect("sharded entry");
        let old = epoch.epoch().min(provisioned);
        assert!(
            old < provisioned,
            "no spare shard left for '{name}': provision more with \
             SystemBuilder::add_shard before build"
        );
        let new = old + 1;
        epoch.advance(new);
        self.sim.metrics_mut().incr("clbft.reshard.epoch_flips");
        // Open the reshard protocol span at its `flipped` phase (the new
        // shard's group owns the span; later phases — fenced/exported from
        // the sources, imported on the new shard — land on the same key).
        if self.sim.trace_level().spans_enabled() {
            if let Some(groups) = self.uris.shard_groups(&uri) {
                let key = ProtoKey {
                    group: groups[(new - 1) as usize].0,
                    family: ProtoFamily::Reshard,
                    id: u64::from(new),
                };
                let at_us = self.sim.now().as_micros();
                let deltas = self.sim.obs_mut().proto(key, 0, at_us, u64::from(old));
                if let Some((mk, ms)) = deltas.metric {
                    self.sim.metrics_mut().record_hist(mk, ms);
                }
            }
        }
        let controller = self
            .controller
            .expect("transactional deployments have a reshard controller");
        // The controller is a simnet node; hand it the job as an injected
        // message (the sender id is outside the deployment and unused).
        let cmd = Bytes::from(format!("reshard|{name}|{old}|{new}"));
        self.sim.inject(NodeId::from_raw(u32::MAX), controller, cmd);
        new
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &pws_simnet::metrics::Metrics {
        self.sim.metrics()
    }

    /// Renders every node's flight-recorder ring as a readable timeline
    /// (view changes, checkpoint boundaries, state-transfer verdicts,
    /// rejections). Always available — the flight recorder runs regardless
    /// of the trace level.
    pub fn dump_flight_recorder(&self) -> String {
        self.sim.obs().dump_all_flight()
    }

    /// Exports the recorded request-lifecycle spans as
    /// chrome://tracing-compatible JSON (load it at `chrome://tracing` or
    /// <https://ui.perfetto.dev>). Meaningful content requires
    /// [`SystemBuilder::tracing`] at [`TraceLevel::Phases`] or above.
    pub fn export_trace_json(&self) -> String {
        self.sim.obs().export_trace_json()
    }

    /// Exports a metrics snapshot — every counter, every histogram's
    /// summary statistics (count/mean/p50/p95/p99/max), and the span
    /// open/close totals — as a JSON document.
    pub fn export_obs_json(&self) -> String {
        let m = self.sim.metrics();
        let obs = self.sim.obs();
        let mut out = String::from("{\n\"counters\": {");
        let mut first = true;
        for (name, v) in m.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n  \"{}\": {v}", escape_json(name)));
        }
        out.push_str("\n},\n\"histograms\": {");
        let mut first = true;
        for (name, h) in m.histograms() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n  \"{}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"min\": {}, \"max\": {}}}",
                escape_json(name),
                h.count(),
                fmt_f64(h.mean()),
                fmt_f64(h.p50()),
                fmt_f64(h.p95()),
                fmt_f64(h.p99()),
                fmt_f64(h.min()),
                fmt_f64(h.max()),
            ));
        }
        out.push_str(&format!(
            "\n}},\n\"spansOpened\": {},\n\"spansClosed\": {}\n}}\n",
            obs.spans_opened(),
            obs.spans_closed()
        ));
        out
    }

    /// Exports every time-series gauge ring — the deterministic
    /// `(t_us, value)` samples recorded via `Context::gauge` (queue depth,
    /// in-flight slots, batch occupancy, lock-table size under the `ts.*`
    /// convention) — as a JSON document: per gauge, summary statistics over
    /// the retained window plus the raw samples. Gauges record only when
    /// tracing is enabled ([`SystemBuilder::tracing`]), so this is `{}`
    /// on untraced runs.
    pub fn export_timeseries_json(&self) -> String {
        let m = self.sim.metrics();
        let mut out = String::from("{");
        let mut first = true;
        for (name, ring) in m.gauges() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n\"{}\": {{", escape_json(name)));
            if let Some(s) = ring.summary() {
                out.push_str(&format!(
                    "\"count\": {}, \"recorded\": {}, \"mean\": {}, \"p50\": {}, \
                     \"p95\": {}, \"min\": {}, \"max\": {}, ",
                    s.count,
                    ring.total_recorded(),
                    fmt_f64(s.mean),
                    fmt_f64(s.p50),
                    fmt_f64(s.p95),
                    fmt_f64(s.min),
                    fmt_f64(s.max),
                ));
            }
            out.push_str("\"samples\": [");
            for (i, (t_us, v)) in ring.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{t_us},{}]", fmt_f64(v)));
            }
            out.push_str("]}");
        }
        out.push_str("\n}\n");
        out
    }

    /// The online protocol auditor's structured report (`None` when
    /// auditing is off — see [`SystemBuilder::audit`]). An empty audit
    /// reads "audit clean".
    pub fn audit_report(&self) -> Option<String> {
        self.sim.auditor().map(Auditor::report)
    }

    /// Total protocol-invariant violations the auditor recorded (0 when
    /// auditing is off).
    pub fn audit_violations(&self) -> u64 {
        self.sim.auditor().map_or(0, Auditor::violation_count)
    }

    /// Writes the chrome-trace and metrics-snapshot exports to
    /// `target/figures/TRACE_<name>.json` and
    /// `target/figures/OBS_<name>.json` (plus the gauge time series to
    /// `TS_<name>.json` when any gauge recorded), returning the trace and
    /// snapshot paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or writing
    /// the files.
    pub fn write_obs_artifacts(
        &self,
        name: &str,
    ) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
        let dir = std::path::Path::new("target/figures");
        std::fs::create_dir_all(dir)?;
        let trace = dir.join(format!("TRACE_{name}.json"));
        std::fs::write(&trace, self.export_trace_json())?;
        let snap = dir.join(format!("OBS_{name}.json"));
        std::fs::write(&snap, self.export_obs_json())?;
        if self.sim.metrics().gauges().next().is_some() {
            let ts = dir.join(format!("TS_{name}.json"));
            std::fs::write(ts, self.export_timeseries_json())?;
        }
        Ok((trace, snap))
    }

    /// Replies recorded by a scripted client.
    ///
    /// # Panics
    ///
    /// Panics if the client name is unknown.
    pub fn client_replies(&mut self, name: &str) -> Vec<MessageContext> {
        let node = self.client_nodes[name];
        self.sim
            .node_mut::<ScriptedClient>(node)
            .expect("scripted client")
            .replies
            .clone()
    }

    /// Per-request completion latencies recorded by a scripted client.
    pub fn client_latencies(&mut self, name: &str) -> Vec<SimDuration> {
        let node = self.client_nodes[name];
        self.sim
            .node_mut::<ScriptedClient>(node)
            .expect("scripted client")
            .latencies
            .clone()
    }

    /// Client throughput: completed requests / (last completion − first
    /// send), in requests per second. `None` until two data points exist.
    pub fn client_throughput(&mut self, name: &str) -> Option<f64> {
        let node = self.client_nodes[name];
        let c = self
            .sim
            .node_mut::<ScriptedClient>(node)
            .expect("scripted client");
        let (first, last) = (c.first_send?, c.last_complete?);
        let span = (last - first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some(c.replies.len() as f64 / span)
    }

    /// The span of a scripted client's run: `(first send, last
    /// completion)`. `None` until both ends exist. Aggregating spans
    /// across clients gives deployment-wide throughput for sharded
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the client name is unknown.
    pub fn client_span(&mut self, name: &str) -> Option<(SimTime, SimTime)> {
        let node = self.client_nodes[name];
        let c = self
            .sim
            .node_mut::<ScriptedClient>(node)
            .expect("scripted client");
        Some((c.first_send?, c.last_complete?))
    }

    /// The simnet node hosting a client (for typed access to custom client
    /// nodes).
    ///
    /// # Panics
    ///
    /// Panics if the client name is unknown.
    pub fn client_node(&self, name: &str) -> NodeId {
        self.client_nodes[name]
    }

    /// Typed access to a service replica's hosted state (for assertions).
    pub fn replica_mut(&mut self, name: &str, idx: u32) -> Option<&mut PerpetualReplica> {
        let gid = self.groups_by_name.get(name)?;
        // Topology assigned node ids densely in registration order; look the
        // node up through the replica itself.
        let node = self.replica_node(*gid, idx)?;
        self.sim.node_mut::<PerpetualReplica>(node)
    }

    fn replica_node(&mut self, gid: GroupId, idx: u32) -> Option<NodeId> {
        // Node ids are assigned densely: scan is fine at deployment sizes.
        for raw in 0..self.sim.node_count() as u32 {
            let node = NodeId::from_raw(raw);
            if let Some(r) = self.sim.node_mut::<PerpetualReplica>(node) {
                if r.group() == gid && r.index() == idx {
                    return Some(node);
                }
            }
        }
        None
    }
}

/// One in-flight reshard migration the controller is driving.
#[derive(Debug)]
struct ReshardJob {
    old: u32,
    new: u32,
    imports_acked: u32,
}

/// One outstanding export/import record call, kept so a faulted call can be
/// re-sent verbatim.
struct PendingRecord {
    name: String,
    shard: u32,
    is_import: bool,
    target: GroupId,
    payload: Bytes,
}

/// The hidden client node that executes live reshard migrations: for each
/// `reshard|<name>|<old>|<new>` command (injected by [`System::add_shard`])
/// it sends an ordered `reshardExport` to every source shard, forwards each
/// export's extracted entries to the new shard as an ordered
/// `reshardImport`, and counts the migration complete
/// (`clbft.reshard.completed`) when every import is acknowledged. All state
/// is in sorted maps so same-seed runs trace identically.
struct ReshardController {
    core: ClientCore,
    uris: Arc<UriMap>,
    engine: Engine,
    ws_cost: WsCostModel,
    jobs: BTreeMap<String, ReshardJob>,
    calls: BTreeMap<u64, PendingRecord>,
    retry_timer: Option<pws_simnet::TimerId>,
}

impl std::fmt::Debug for ReshardController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReshardController")
            .field("jobs", &self.jobs)
            .field("outstanding", &self.calls.len())
            .finish_non_exhaustive()
    }
}

impl ReshardController {
    fn send_record(
        &mut self,
        ctx: &mut Context<'_>,
        name: &str,
        shard: u32,
        op: &str,
        record: &[u8],
        is_import: bool,
    ) {
        let uri = format!("urn:svc:{name}#{shard}");
        let Some(target) = self.uris.group(&uri) else {
            return;
        };
        let mut mc = MessageContext::request(&uri, op);
        mc.body_mut().name = op.to_owned();
        mc.body_mut().text = to_hex(record);
        mc.addressing_mut().reply_to = Some("urn:reshard".to_owned());
        if self.engine.prepare_out(&mut mc).is_err() {
            return;
        }
        let Ok(bytes) = mc.to_bytes() else { return };
        ctx.spend(self.ws_cost.marshal_cost(bytes.len()));
        let call = self.core.call_config(ctx, target, bytes.clone());
        self.calls.insert(
            call.0,
            PendingRecord {
                name: name.to_owned(),
                shard,
                is_import,
                target,
                payload: bytes,
            },
        );
        if self.retry_timer.is_none() {
            self.retry_timer = Some(ctx.set_timer(RETRY_SWEEP));
        }
    }

    fn start(&mut self, name: &str, old: u32, new: u32, ctx: &mut Context<'_>) {
        if self.jobs.contains_key(name) || new != old + 1 {
            return; // one grow-by-one job per service at a time
        }
        let rec = ReshardExport { new_count: new }.encode();
        for s in 0..old {
            self.send_record(ctx, name, s, OP_RESHARD_EXPORT, &rec, false);
        }
        self.jobs.insert(
            name.to_owned(),
            ReshardJob {
                old,
                new,
                imports_acked: 0,
            },
        );
    }

    fn on_reply(&mut self, raw: u64, payload: &[u8], ctx: &mut Context<'_>) {
        let Some(p) = self.calls.remove(&raw) else {
            return;
        };
        let Ok(mc) = MessageContext::from_bytes(payload) else {
            return;
        };
        if mc.envelope().as_fault().is_some() {
            // A shard that answered with a fault (e.g. mid-view-change
            // abort) has not ordered the record; re-send a fresh call so
            // the migration cannot stall.
            ctx.metrics().incr("clbft.reshard.record_retries");
            let call = self.core.call_config(ctx, p.target, p.payload.clone());
            self.calls.insert(call.0, p);
            return;
        }
        let Some(job) = self.jobs.get_mut(&p.name) else {
            return;
        };
        if p.is_import {
            job.imports_acked += 1;
            if job.imports_acked >= job.old {
                ctx.metrics().incr("clbft.reshard.completed");
                self.jobs.remove(&p.name);
            }
            return;
        }
        // An export reply carries the extracted entries (hex); forward them
        // to the new shard as this source's import.
        let entries = from_hex(&mc.body().text)
            .and_then(|b| decode_entries(&b).ok())
            .unwrap_or_default();
        let (old, new) = (job.old, job.new);
        let rec = ReshardImport {
            from_shard: p.shard,
            old_count: old,
            new_count: new,
            sources: old,
            entries,
        }
        .encode();
        let name = p.name.clone();
        self.send_record(ctx, &name, new - 1, OP_RESHARD_IMPORT, &rec, true);
    }
}

impl Node for ReshardController {
    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Ok(text) = std::str::from_utf8(&msg) {
            if let Some(rest) = text.strip_prefix("reshard|") {
                let mut it = rest.split('|');
                if let (Some(name), Some(old), Some(new)) = (it.next(), it.next(), it.next()) {
                    if let (Ok(old), Ok(new)) = (old.parse::<u32>(), new.parse::<u32>()) {
                        let name = name.to_owned();
                        self.start(&name, old, new, ctx);
                    }
                }
                return;
            }
        }
        if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
            ctx.spend(self.ws_cost.demarshal_cost(payload.len()));
            self.on_reply(call.0, &payload, ctx);
        }
    }

    fn on_timer(&mut self, timer: pws_simnet::TimerId, ctx: &mut Context<'_>) {
        if Some(timer) != self.retry_timer {
            return;
        }
        // Retry sweep: rotate responders on every outstanding record call.
        let outstanding: Vec<u64> = self.calls.keys().copied().collect();
        for raw in outstanding {
            self.core.retry(ctx, pws_perpetual::CallId(raw));
        }
        self.retry_timer = if self.calls.is_empty() {
            None
        } else {
            Some(ctx.set_timer(RETRY_SWEEP))
        };
    }
}

/// A simnet node that drives a replicated service with a fixed script of
/// requests, keeping a bounded window outstanding. The workhorse behind the
/// micro-benchmarks (Figs. 7–9).
pub(crate) struct ScriptedClient {
    core: ClientCore,
    uris: Arc<UriMap>,
    /// `Some` when the target is not a routed service (e.g. another
    /// client's group); `None` routes per request through the URI map.
    fixed: Option<GroupId>,
    /// Cached per-shard metric names (`clbft.shard.route.<g>`), so the
    /// hot path formats each key once.
    shard_metric_keys: HashMap<GroupId, String>,
    target_uri: String,
    engine: Engine,
    ws_cost: WsCostModel,
    total: u64,
    window: u64,
    op: String,
    payload: String,
    timeout: Option<SimDuration>,
    sent: u64,
    /// When each outstanding call was sent. Ordered, so the retry sweep
    /// and the give-up pick below visit calls in the same order every run.
    send_times: BTreeMap<u64, SimTime>,
    /// Outstanding calls' routing keys and how many `pws:WrongShard`
    /// redirects each has already followed (bounded at one).
    in_flight: HashMap<u64, (String, u8)>,
    /// Replies received, in completion order.
    pub(crate) replies: Vec<MessageContext>,
    /// Completion latencies, in completion order.
    pub(crate) latencies: Vec<SimDuration>,
    first_send: Option<SimTime>,
    last_complete: Option<SimTime>,
    retry_timer: Option<pws_simnet::TimerId>,
}

/// How often a scripted client re-transmits stale outstanding calls.
const RETRY_SWEEP: SimDuration = SimDuration::from_millis(900);

impl std::fmt::Debug for ScriptedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedClient")
            .field("sent", &self.sent)
            .field("completed", &self.replies.len())
            .finish_non_exhaustive()
    }
}

impl ScriptedClient {
    /// The scripted operation's request envelope with `text` as its body
    /// (which is also its routing key).
    fn envelope(&self, text: String) -> MessageContext {
        let mut mc = MessageContext::request(&self.target_uri, &self.op);
        mc.body_mut().name = self.op.clone();
        mc.body_mut().text = text;
        mc.addressing_mut().reply_to = Some("urn:client".to_owned());
        mc
    }

    fn fire(&mut self, ctx: &mut Context<'_>) {
        // An unroutable request (cross-shard key, unknown service) burns
        // its slot as a recorded error and the loop moves to the next one
        // — a client whose whole script is unroutable finishes with zero
        // replies and a telling `client.route_errors` count, instead of
        // wedging its window forever.
        while self.sent < self.total {
            let seq = self.sent;
            self.sent += 1;
            let mut mc = self.envelope(if self.payload.is_empty() {
                seq.to_string()
            } else {
                self.payload.clone()
            });
            let target = match self.fixed {
                Some(gid) => gid,
                None => match self.uris.route(&self.target_uri, routing_key(&mc)) {
                    Ok((_, gid)) => {
                        if self.uris.shard_count(&self.target_uri).is_some() {
                            ctx.metrics().incr("clbft.shard.routed");
                            let key = self
                                .shard_metric_keys
                                .entry(gid)
                                .or_insert_with(|| format!("clbft.shard.route.{gid}"));
                            ctx.metrics().incr(key);
                        }
                        gid
                    }
                    Err(e) => {
                        if matches!(e, RouteError::CrossShard { .. }) {
                            ctx.metrics().incr("clbft.shard.cross_rejected");
                        }
                        ctx.metrics().incr("client.route_errors");
                        continue;
                    }
                },
            };
            if self.engine.prepare_out(&mut mc).is_err() {
                continue;
            }
            let key = mc.body().text.clone();
            let Ok(bytes) = mc.to_bytes() else { continue };
            ctx.spend(self.ws_cost.marshal_cost(bytes.len()));
            let call = self.core.call(ctx, target, bytes);
            self.in_flight.insert(call.0, (key, 0));
            self.after_fire(call, ctx);
            return;
        }
    }

    fn after_fire(&mut self, call: pws_perpetual::CallId, ctx: &mut Context<'_>) {
        self.send_times.insert(call.0, ctx.now());
        if self.first_send.is_none() {
            self.first_send = Some(ctx.now());
        }
        if let Some(t) = self.timeout {
            ctx.set_timer(t);
        }
    }

    /// Follows a `pws:WrongShard` redirect: re-routes the same routing key
    /// at the *current* epoch and re-issues the call, carrying the original
    /// send time over so the recorded latency spans both legs. Returns
    /// `false` when the retry cannot be routed (the fault then surfaces as
    /// an ordinary reply).
    fn refire(&mut self, old_call: u64, key: String, ctx: &mut Context<'_>) -> bool {
        let mut mc = self.envelope(key.clone());
        let Ok((_, target)) = self.uris.route(&self.target_uri, routing_key(&mc)) else {
            return false;
        };
        if self.engine.prepare_out(&mut mc).is_err() {
            return false;
        }
        let Ok(bytes) = mc.to_bytes() else {
            return false;
        };
        ctx.spend(self.ws_cost.marshal_cost(bytes.len()));
        ctx.metrics().incr("client.route_retries");
        let call = self.core.call(ctx, target, bytes);
        let sent_at = self
            .send_times
            .remove(&old_call)
            .unwrap_or_else(|| ctx.now());
        self.send_times.insert(call.0, sent_at);
        self.in_flight.insert(call.0, (key, 1));
        true
    }
}

impl Node for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.window.min(self.total) {
            self.fire(ctx);
        }
        // Periodic retry sweep (responder rotation for faulty responders).
        self.retry_timer = Some(ctx.set_timer(RETRY_SWEEP));
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
            ctx.spend(self.ws_cost.demarshal_cost(payload.len()));
            if let Ok(mc) = MessageContext::from_bytes(&payload) {
                let tracked = self.in_flight.remove(&call.0);
                let wrong_shard = mc
                    .envelope()
                    .as_fault()
                    .is_some_and(|f| f.code == WRONG_SHARD_FAULT);
                if wrong_shard {
                    // Typed retry guidance from an epoch flip: re-route at
                    // the current epoch, once per request.
                    if let Some((key, 0)) = tracked {
                        if self.refire(call.0, key, ctx) {
                            return;
                        }
                    }
                }
                if let Some(sent_at) = self.send_times.remove(&call.0) {
                    let lat = ctx.now() - sent_at;
                    ctx.metrics()
                        .record_hist("client.latency_ms", lat.as_secs_f64() * 1e3);
                    self.latencies.push(lat);
                }
                self.replies.push(mc);
                self.last_complete = Some(ctx.now());
                ctx.metrics().incr("client.web_interactions");
                self.fire(ctx);
            }
        }
    }

    fn on_timer(&mut self, timer: pws_simnet::TimerId, ctx: &mut Context<'_>) {
        if Some(timer) == self.retry_timer {
            // Retry sweep: retransmit every call outstanding longer than a
            // sweep interval (responder rotation masks a faulty responder).
            let now = ctx.now();
            let stale: Vec<u64> = self
                .send_times
                .iter()
                .filter(|(_, t)| now - **t >= RETRY_SWEEP)
                .map(|(c, _)| *c)
                .collect();
            for call in stale {
                self.core.retry(ctx, pws_perpetual::CallId(call));
            }
            self.retry_timer = if self.send_times.is_empty() && self.sent >= self.total {
                None
            } else {
                Some(ctx.set_timer(RETRY_SWEEP))
            };
            return;
        }
        // A give-up timer fired; abandon the oldest outstanding call if it
        // has really been outstanding for the timeout, so closed-loop
        // clients cannot wedge on a compromised target.
        let Some(timeout) = self.timeout else { return };
        if let Some((&call, &sent_at)) = self.send_times.iter().min_by_key(|(_, t)| **t) {
            if ctx.now() - sent_at >= timeout {
                self.send_times.remove(&call);
                self.in_flight.remove(&call);
                self.core.abandon(pws_perpetual::CallId(call));
                ctx.metrics().incr("client.abandoned");
                self.fire(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_map_resolves() {
        let mut m = UriMap::default();
        m.insert("pge", GroupId(4));
        assert_eq!(m.group("urn:svc:pge"), Some(GroupId(4)));
        assert_eq!(m.group("urn:svc:bank"), None);
        assert_eq!(service_uri("pge"), "urn:svc:pge");
    }

    #[test]
    #[should_panic(expected = "unknown service")]
    fn fault_on_unknown_service_panics() {
        let mut b = SystemBuilder::new(1);
        b.fault("ghost", 0, FaultMode::Silent);
    }
}
