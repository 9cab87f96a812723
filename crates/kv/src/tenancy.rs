//! Multi-tenant ring packing, admission control, and per-tenant QoS.
//!
//! PR 7's `ir::analysis` footprints and [`DeploymentVerifier`] are the
//! *proof* half of multi-tenancy: given a set of co-resident programs,
//! they show no tenant's patch points, response slots, or CQ thresholds
//! alias another's. This module is the *packing* half — the machinery
//! that actually places many tenants' self-recycling offloads onto one
//! NIC's shared processing units and ports, and keeps a misbehaving
//! tenant's overload from becoming its neighbors' problem:
//!
//! * [`TenantSpec`] — a named tenant: its offload-family mix (the same
//!   [`ServiceSpec`] blocks a single-operator fleet uses), an optional
//!   rate cap in ops/s, and [`TenantQuotas`] (PUs, ring WQE slots,
//!   const-pool bytes);
//! * [`TenantPacker`] — deterministic first-fit bin packing of every
//!   tenant's clients over [`NicGeometry`]: each client takes a stride
//!   of PUs on the least-loaded port (2 for a self-recycling service,
//!   3 host-armed — the same strides the single-operator fleet uses).
//!   Admission is checked *before* placement: a tenant whose demand
//!   exceeds one of its own quotas is rejected with a typed
//!   [`PackError`] naming the tenant and the quota. Ranges only wrap
//!   (PUs time-shared between tenants) once every physical PU is taken;
//! * [`Packing`] — the admitted placement, convertible into a
//!   tenant-tagged [`FleetSpec`] whose deployment enforces the lowering
//!   quotas (const-pool budgets via `ConstPool::begin_budget`,
//!   ring-slot budgets via `PassReport::ring_slots`) and proves
//!   pairwise isolation with tenant-qualified program labels;
//! * [`CreditPacer`] — a token bucket over simulated time that the
//!   serving loops consult before posting a paced tenant's trigger
//!   batches on its cyclic trigger RQs: an overloaded tenant's posts
//!   are deferred (`shed` counts them), so it sheds its *own* load
//!   instead of its neighbors'.
//!
//! [`DeploymentVerifier`]: redn_core::ir::analysis::DeploymentVerifier

use std::fmt;

use rnic_sim::error::Error;
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::serving::{FleetSpec, ServiceSpec};

/// Per-tenant resource quotas (`None` = unlimited). All three are
/// *admission* knobs: a spec whose demand exceeds one is rejected
/// before anything deploys.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantQuotas {
    /// Processing units the tenant's clients may claim (each client
    /// takes a stride of 2 PUs self-recycling, 3 host-armed).
    pub pus: Option<usize>,
    /// Recycled-ring WQE slots across the tenant's offloads. Checked
    /// twice: at pack time against the lower bound (one armed instance
    /// needs at least one slot) and exactly at deploy time against the
    /// lowered `PassReport::ring_slots`.
    pub ring_slots: Option<u64>,
    /// Const-pool bytes the tenant's lowerings may grow the pool by
    /// (interner hits are free). Enforced at lowering via
    /// `ConstPool::begin_budget`.
    pub const_pool_bytes: Option<u64>,
}

/// One tenant: a name, its offload-family mix, an optional trigger-path
/// rate cap, and its quotas.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name — qualifies every program label, diagnostic, and
    /// per-tenant stat this tenant produces.
    pub name: String,
    /// The tenant's service blocks (same shape as a single-operator
    /// fleet's mix).
    pub services: Vec<ServiceSpec>,
    /// Completed-request rate cap, ops/s, enforced by credit pacing on
    /// the trigger path (`None` = unpaced).
    pub rate_cap_ops_per_sec: Option<f64>,
    /// Admission quotas.
    pub quotas: TenantQuotas,
}

impl TenantSpec {
    /// A quota-less, unpaced tenant with no services yet.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            services: Vec::new(),
            rate_cap_ops_per_sec: None,
            quotas: TenantQuotas::default(),
        }
    }

    /// Add a hash-get block (builder style).
    pub fn with_gets(
        mut self,
        clients: usize,
        pipeline_depth: u32,
        variant: redn_core::offloads::hash_lookup::HashGetVariant,
        self_recycling: bool,
    ) -> TenantSpec {
        self.services.push(ServiceSpec::gets(
            clients,
            pipeline_depth,
            variant,
            self_recycling,
        ));
        self
    }

    /// Add a list-walk block (builder style).
    pub fn with_walks(
        mut self,
        clients: usize,
        pipeline_depth: u32,
        max_nodes: usize,
        self_recycling: bool,
    ) -> TenantSpec {
        self.services.push(ServiceSpec::walks(
            clients,
            pipeline_depth,
            max_nodes,
            self_recycling,
        ));
        self
    }

    /// Set the trigger-path rate cap (ops/s).
    pub fn rate_cap(mut self, ops_per_sec: f64) -> TenantSpec {
        self.rate_cap_ops_per_sec = Some(ops_per_sec);
        self
    }

    /// Set the admission quotas.
    pub fn with_quotas(mut self, quotas: TenantQuotas) -> TenantSpec {
        self.quotas = quotas;
        self
    }

    /// Client sessions across every block.
    pub fn clients(&self) -> usize {
        self.services.iter().map(|s| s.clients).sum()
    }

    /// PUs this tenant's clients claim (sum of per-client strides).
    pub fn pu_demand(&self) -> usize {
        self.services.iter().map(|s| s.clients * pu_stride(s)).sum()
    }

    /// Lower bound on the tenant's recycled-ring WQE slots: each armed
    /// instance occupies at least one slot (the exact count — body ops,
    /// fix-ups, restores, tail — is known only after lowering, which
    /// re-checks against the same quota).
    pub fn ring_slot_floor(&self) -> u64 {
        self.services
            .iter()
            .filter(|s| s.self_recycling)
            .map(|s| s.clients as u64 * u64::from(s.pipeline_depth))
            .sum()
    }
}

/// PUs one client of `svc` occupies — the fleet's deploy strides: a
/// self-recycling service runs on 2 PUs (trigger + its ring), a
/// host-armed one on up to 3 (trigger/merge + chains).
pub fn pu_stride(svc: &ServiceSpec) -> usize {
    if svc.self_recycling {
        2
    } else {
        3
    }
}

/// The packable surface of one NIC.
#[derive(Clone, Copy, Debug)]
pub struct NicGeometry {
    /// Ports (each with its own WQE-fetch engine and PU pool).
    pub ports: usize,
    /// Processing units per port.
    pub pus_per_port: usize,
}

impl NicGeometry {
    /// Read the geometry of `node`'s NIC from the simulator.
    pub fn of(sim: &Simulator, node: NodeId) -> NicGeometry {
        let cfg = sim.nic_config(node);
        NicGeometry {
            ports: cfg.ports,
            pus_per_port: cfg.pus_per_port,
        }
    }

    /// Total PUs across every port.
    pub fn total_pus(&self) -> usize {
        self.ports * self.pus_per_port
    }
}

/// Where one client's service lands on the NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The port the service's queues bind to.
    pub port: usize,
    /// First PU of the client's stride.
    pub pu_base: usize,
}

/// Why a spec was refused admission. Every variant names the quota (and
/// the tenant, where one is at fault), so a rejected operator knows
/// exactly what to shrink.
#[derive(Clone, Debug, PartialEq)]
pub enum PackError {
    /// A tenant's demand exceeds one of its own quotas.
    QuotaExceeded {
        /// The over-subscribed tenant.
        tenant: String,
        /// Which quota ("pus", "ring_slots", "const_pool_bytes").
        quota: &'static str,
        /// The tenant's demand in the quota's unit.
        demand: u64,
        /// The quota's cap.
        cap: u64,
    },
    /// No tenants (or a tenant with no services) — nothing to pack.
    EmptySpec,
    /// Two tenants share a name — per-tenant stats and labels would
    /// be indistinguishable.
    DuplicateTenant(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::QuotaExceeded {
                tenant,
                quota,
                demand,
                cap,
            } => write!(
                f,
                "tenant '{tenant}' over-subscribes its '{quota}' quota: demand {demand} > cap {cap}"
            ),
            PackError::EmptySpec => write!(f, "nothing to pack: every tenant needs >= 1 service"),
            PackError::DuplicateTenant(name) => {
                write!(f, "duplicate tenant name '{name}'")
            }
        }
    }
}

impl From<PackError> for Error {
    fn from(e: PackError) -> Error {
        Error::Quota(e.to_string())
    }
}

/// Per-tenant knobs the serving layer enforces at deploy and run time
/// (what survives of a [`TenantSpec`] inside a packed [`FleetSpec`]).
#[derive(Clone, Debug)]
pub struct TenantRuntime {
    /// Tenant name (labels, stats).
    pub name: String,
    /// Trigger-path rate cap, ops/s.
    pub rate_cap_ops_per_sec: Option<f64>,
    /// Exact ring-slot budget re-checked after lowering.
    pub ring_slot_quota: Option<u64>,
    /// Const-pool byte budget enforced during lowering.
    pub const_pool_quota: Option<u64>,
}

/// An admitted multi-tenant placement: tenant-tagged services in deploy
/// order, one [`Placement`] per client, and the per-tenant runtime
/// knobs.
#[derive(Clone, Debug)]
pub struct Packing {
    /// Tenant-tagged service blocks, in deploy order.
    pub services: Vec<ServiceSpec>,
    /// One placement per client, in deploy order.
    pub placements: Vec<Placement>,
    /// Runtime knobs, indexed by the services' tenant tags.
    pub tenants: Vec<TenantRuntime>,
    /// PUs claimed per tenant (admission accounting).
    pub pus_claimed: Vec<usize>,
    /// Whether physical PUs ran out and ranges wrapped (tenants
    /// time-share PUs past this point — safe, but contended).
    pub pus_shared: bool,
}

impl Packing {
    /// The packed fleet spec [`ServingFleet::deploy`] consumes.
    ///
    /// [`ServingFleet::deploy`]: crate::serving::ServingFleet::deploy
    pub fn into_fleet_spec(self) -> FleetSpec {
        FleetSpec {
            services: self.services,
            tenants: self.tenants,
            placements: Some(self.placements),
        }
    }
}

/// Deterministic first-fit packer over one NIC's geometry (see the
/// module docs).
#[derive(Clone, Copy, Debug)]
pub struct TenantPacker {
    geometry: NicGeometry,
}

impl TenantPacker {
    /// A packer for one NIC.
    pub fn new(geometry: NicGeometry) -> TenantPacker {
        TenantPacker { geometry }
    }

    /// Admit and place `tenants`. Quota checks run per tenant *before*
    /// placement; placement walks tenants in order, giving each client
    /// the next free PU stride on the least-loaded port, and wraps to
    /// PU 0 (time-sharing) only once a port's PUs are exhausted.
    pub fn pack(&self, tenants: &[TenantSpec]) -> Result<Packing, PackError> {
        if tenants.is_empty() || tenants.iter().any(|t| t.services.is_empty()) {
            return Err(PackError::EmptySpec);
        }
        for (i, t) in tenants.iter().enumerate() {
            if tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(PackError::DuplicateTenant(t.name.clone()));
            }
        }
        // Admission: every tenant against its own quotas.
        for t in tenants {
            if let Some(cap) = t.quotas.pus {
                let demand = t.pu_demand();
                if demand > cap {
                    return Err(PackError::QuotaExceeded {
                        tenant: t.name.clone(),
                        quota: "pus",
                        demand: demand as u64,
                        cap: cap as u64,
                    });
                }
            }
            if let Some(cap) = t.quotas.ring_slots {
                let demand = t.ring_slot_floor();
                if demand > cap {
                    return Err(PackError::QuotaExceeded {
                        tenant: t.name.clone(),
                        quota: "ring_slots",
                        demand,
                        cap,
                    });
                }
            }
        }
        // Placement: first-fit strides on the least-loaded port.
        let ports = self.geometry.ports.max(1);
        let npus = self.geometry.pus_per_port.max(1);
        let mut pu_next = vec![0usize; ports];
        let mut services = Vec::new();
        let mut placements = Vec::new();
        let mut runtimes = Vec::new();
        let mut pus_claimed = vec![0usize; tenants.len()];
        let mut pus_shared = false;
        for (ti, t) in tenants.iter().enumerate() {
            for svc in &t.services {
                let stride = pu_stride(svc);
                let mut tagged = *svc;
                tagged.tenant = Some(ti);
                services.push(tagged);
                for _ in 0..svc.clients {
                    let port = (0..ports)
                        .min_by_key(|&p| (pu_next[p], p))
                        .expect("ports >= 1");
                    if pu_next[port] + stride > npus {
                        pus_shared = true;
                    }
                    placements.push(Placement {
                        port,
                        pu_base: pu_next[port] % npus,
                    });
                    pu_next[port] += stride;
                    pus_claimed[ti] += stride;
                }
            }
            runtimes.push(TenantRuntime {
                name: t.name.clone(),
                rate_cap_ops_per_sec: t.rate_cap_ops_per_sec,
                ring_slot_quota: t.quotas.ring_slots,
                const_pool_quota: t.quotas.const_pool_bytes,
            });
        }
        Ok(Packing {
            services,
            placements,
            tenants: runtimes,
            pus_claimed,
            pus_shared,
        })
    }
}

/// A token bucket over simulated time: the trigger-path rate limiter
/// behind [`TenantSpec::rate_cap_ops_per_sec`].
///
/// The serving loops call [`CreditPacer::grant`] before posting a paced
/// tenant's trigger batch; a grant smaller than the ask defers the
/// remainder (counted in [`CreditPacer::shed`]) until credits accrue —
/// the caller jumps the simulator to [`CreditPacer::next_credit_at`]
/// instead of busy-waiting.
#[derive(Clone, Debug)]
pub struct CreditPacer {
    rate_per_sec: f64,
    burst: f64,
    credits: f64,
    last: Time,
    shed: u64,
}

impl CreditPacer {
    /// A pacer granting `rate_per_sec` credits per simulated second,
    /// accruing at most `burst` (>= 1) unspent credits.
    pub fn new(rate_per_sec: f64, burst: f64, now: Time) -> CreditPacer {
        let burst = burst.max(1.0);
        CreditPacer {
            rate_per_sec: rate_per_sec.max(f64::MIN_POSITIVE),
            burst,
            credits: burst,
            last: now,
            shed: 0,
        }
    }

    /// Accrue the credit earned since the last accrual (none at the same
    /// `now`): the first thing every [`CreditPacer::grant`] does.
    pub(crate) fn accrue(&mut self, now: Time) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.credits = (self.credits + self.rate_per_sec * dt).min(self.burst);
        }
        self.last = self.last.max(now);
    }

    /// Grant up to `want` posts at `now`. The shortfall is recorded as
    /// shed (deferred) load.
    pub fn grant(&mut self, now: Time, want: u64) -> u64 {
        self.accrue(now);
        // `credits >= 0`, so the cast's truncation is `floor`.
        let granted = (self.credits as u64).min(want);
        self.credits -= granted as f64;
        self.shed += want - granted;
        granted
    }

    /// Whether a grant at the time of the last accrual has a whole credit
    /// to hand out.
    pub(crate) fn has_credit(&self) -> bool {
        self.credits >= 1.0
    }

    /// Count `want` posts as shed without asking: all a
    /// [`CreditPacer::grant`] at the time of the last accrual does while
    /// [`CreditPacer::has_credit`] is false.
    pub(crate) fn defer(&mut self, want: u64) {
        debug_assert!(!self.has_credit());
        self.shed += want;
    }

    /// When (at or after `now`) at least one credit will be available.
    pub fn next_credit_at(&self, now: Time) -> Time {
        let mut credits = self.credits;
        if now > self.last {
            credits =
                (credits + self.rate_per_sec * (now - self.last).as_secs_f64()).min(self.burst);
        }
        if credits >= 1.0 {
            return now;
        }
        let secs = (1.0 - credits) / self.rate_per_sec;
        now + Time::from_ps((secs * 1e12).ceil() as u64)
    }

    /// Posts deferred so far (each re-asked `want` counts again — this
    /// measures pacing pressure, not unique requests).
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redn_core::offloads::hash_lookup::HashGetVariant;

    fn two_pu_geometry() -> NicGeometry {
        NicGeometry {
            ports: 2,
            pus_per_port: 8,
        }
    }

    #[test]
    fn packer_places_strides_without_overlap() {
        let tenants = vec![
            TenantSpec::new("a").with_gets(2, 4, HashGetVariant::Sequential, true),
            TenantSpec::new("b").with_walks(2, 4, 4, true),
        ];
        let packing = TenantPacker::new(two_pu_geometry()).pack(&tenants).unwrap();
        assert_eq!(packing.placements.len(), 4);
        assert_eq!(packing.services.len(), 2);
        assert_eq!(packing.services[0].tenant, Some(0));
        assert_eq!(packing.services[1].tenant, Some(1));
        assert!(!packing.pus_shared, "8 PUs claimed, 16 available");
        // No two clients on one port share a PU.
        for (i, a) in packing.placements.iter().enumerate() {
            for b in &packing.placements[i + 1..] {
                if a.port == b.port {
                    assert!(
                        a.pu_base + 2 <= b.pu_base || b.pu_base + 2 <= a.pu_base,
                        "overlapping strides: {a:?} vs {b:?}"
                    );
                }
            }
        }
        assert_eq!(packing.pus_claimed, vec![4, 4]);
    }

    #[test]
    fn packer_rejects_over_subscribed_pu_quota_naming_tenant() {
        let tenants = vec![TenantSpec::new("greedy")
            .with_gets(3, 4, HashGetVariant::Sequential, true)
            .with_quotas(TenantQuotas {
                pus: Some(4),
                ..TenantQuotas::default()
            })];
        let err = TenantPacker::new(two_pu_geometry())
            .pack(&tenants)
            .unwrap_err();
        assert_eq!(
            err,
            PackError::QuotaExceeded {
                tenant: "greedy".to_string(),
                quota: "pus",
                demand: 6,
                cap: 4,
            }
        );
        let msg = format!("{}", Error::from(err));
        assert!(msg.contains("greedy") && msg.contains("pus"), "{msg}");
    }

    #[test]
    fn packer_rejects_ring_slot_floor_violations() {
        let tenants = vec![TenantSpec::new("deep")
            .with_gets(1, 16, HashGetVariant::Sequential, true)
            .with_quotas(TenantQuotas {
                ring_slots: Some(8),
                ..TenantQuotas::default()
            })];
        let err = TenantPacker::new(two_pu_geometry())
            .pack(&tenants)
            .unwrap_err();
        assert!(matches!(
            err,
            PackError::QuotaExceeded {
                quota: "ring_slots",
                demand: 16,
                cap: 8,
                ..
            }
        ));
    }

    #[test]
    fn packer_rejects_duplicates_and_empty_specs() {
        let g = two_pu_geometry();
        assert_eq!(
            TenantPacker::new(g).pack(&[]).unwrap_err(),
            PackError::EmptySpec
        );
        assert_eq!(
            TenantPacker::new(g)
                .pack(&[TenantSpec::new("empty")])
                .unwrap_err(),
            PackError::EmptySpec
        );
        let dup = vec![
            TenantSpec::new("x").with_gets(1, 2, HashGetVariant::Sequential, true),
            TenantSpec::new("x").with_gets(1, 2, HashGetVariant::Sequential, true),
        ];
        assert_eq!(
            TenantPacker::new(g).pack(&dup).unwrap_err(),
            PackError::DuplicateTenant("x".to_string())
        );
    }

    #[test]
    fn packer_wraps_only_past_physical_capacity() {
        let tenants: Vec<TenantSpec> = (0..5)
            .map(|i| {
                TenantSpec::new(format!("t{i}")).with_gets(2, 2, HashGetVariant::Sequential, true)
            })
            .collect();
        // 5 tenants x 2 clients x stride 2 = 20 PUs > 16 physical.
        let packing = TenantPacker::new(two_pu_geometry()).pack(&tenants).unwrap();
        assert!(packing.pus_shared);
        assert!(packing.placements.iter().all(|p| p.pu_base < 8));
    }

    #[test]
    fn credit_pacer_grants_at_rate_and_sheds_overload() {
        // 1M ops/s, burst 4.
        let mut p = CreditPacer::new(1e6, 4.0, Time::ZERO);
        assert_eq!(p.grant(Time::ZERO, 8), 4, "burst bounds the first grant");
        assert_eq!(p.shed(), 4);
        assert_eq!(p.grant(Time::ZERO, 4), 0, "no credits left at t=0");
        let wake = p.next_credit_at(Time::ZERO);
        assert_eq!(wake, Time::from_us(1), "1 credit per us at 1M/s");
        assert_eq!(p.grant(wake, 4), 1, "exactly one credit accrued");
        // A long idle gap accrues at most `burst`.
        assert_eq!(p.grant(Time::from_secs(1), 100), 4);
    }

    #[test]
    fn credit_pacer_next_credit_is_immediate_when_credits_remain() {
        let p = CreditPacer::new(1e6, 4.0, Time::ZERO);
        assert_eq!(p.next_credit_at(Time::from_us(3)), Time::from_us(3));
    }
}
