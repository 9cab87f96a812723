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
    pub(crate) services: Vec<ServiceSpec>,
    /// Completed-request rate cap, ops/s, enforced by credit pacing on
    /// the trigger path (`None` = unpaced).
    pub(crate) rate_cap_ops_per_sec: Option<f64>,
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

    /// Set the trigger-path rate cap (ops/s). [`TenantPacker::pack`]
    /// refuses a cap that is not finite and positive.
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
    /// A tenant's rate cap is not a finite, positive ops/s figure.
    InvalidRateCap {
        /// The tenant with the cap.
        tenant: String,
        /// The cap as given.
        cap: f64,
    },
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
            PackError::InvalidRateCap { tenant, cap } => write!(
                f,
                "tenant '{tenant}' has rate cap {cap} ops/s: a cap must be finite and positive"
            ),
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
    pub(crate) ring_slot_quota: Option<u64>,
    /// Const-pool byte budget enforced during lowering.
    pub(crate) const_pool_quota: Option<u64>,
}

/// An admitted multi-tenant placement: tenant-tagged services in deploy
/// order, one [`Placement`] per client, and the per-tenant runtime
/// knobs.
#[derive(Clone, Debug)]
pub struct Packing {
    /// Tenant-tagged service blocks, in deploy order.
    pub(crate) services: Vec<ServiceSpec>,
    /// One placement per client, in deploy order.
    pub placements: Vec<Placement>,
    /// Runtime knobs, indexed by the services' tenant tags.
    pub(crate) tenants: Vec<TenantRuntime>,
    /// PUs claimed per tenant (admission accounting).
    pub pus_claimed: Vec<usize>,
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
            if let Some(cap) = t.rate_cap_ops_per_sec {
                if !(cap.is_finite() && cap > 0.0) {
                    return Err(PackError::InvalidRateCap {
                        tenant: t.name.clone(),
                        cap,
                    });
                }
            }
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
        })
    }
}

/// A token bucket over simulated time: the trigger-path rate limiter
/// behind [`TenantSpec::rate_cap`].
///
/// The serving loops call [`CreditPacer::grant`] before posting a paced
/// tenant's trigger batch; a grant smaller than the ask defers the
/// remainder (counted in [`CreditPacer::shed`]) until credits accrue —
/// the caller jumps the simulator to [`CreditPacer::next_credit_at`]
/// instead of busy-waiting.
///
/// The credit is held as an *anchor*: `c₀` credits at time `t₀`, so at
/// any `t ≥ t₀` the pacer holds `min(c₀ + rate·(t − t₀), burst)`,
/// worked out in `f64` when asked. Only a grant of at least one post
/// moves the anchor (to the grant's time, less what it handed out). So
/// the state is a function of the last such grant alone: asking —
/// [`CreditPacer::grant`] for nothing, [`CreditPacer::next_credit_at`],
/// or how often a loop polls — changes no later answer, and a caller
/// may ask once per news instead of once per simulator event.
#[derive(Clone, Debug)]
pub struct CreditPacer {
    rate_per_sec: f64,
    burst: f64,
    /// `c₀`: the credit held at `anchor`.
    credits: f64,
    /// `t₀`: the time of the last grant of at least one post (or of
    /// construction).
    anchor: Time,
    shed: u64,
}

impl CreditPacer {
    /// A pacer granting `rate_per_sec` credits per simulated second,
    /// accruing at most `burst` (>= 1) unspent credits. A rate that is
    /// not positive (or NaN) grants nothing past the burst:
    /// [`CreditPacer::next_credit_at`] then answers [`Time::MAX`].
    pub fn new(rate_per_sec: f64, burst: f64, now: Time) -> CreditPacer {
        let burst = burst.max(1.0);
        CreditPacer {
            rate_per_sec: rate_per_sec.max(f64::MIN_POSITIVE),
            burst,
            credits: burst,
            anchor: now,
            shed: 0,
        }
    }

    /// The credit held at `now`.
    fn credits(&self, now: Time) -> f64 {
        if now > self.anchor {
            let dt = (now - self.anchor).as_secs_f64();
            (self.credits + self.rate_per_sec * dt).min(self.burst)
        } else {
            self.credits
        }
    }

    /// Grant up to `want` posts at `now`. The shortfall is recorded as
    /// shed (deferred) load.
    pub fn grant(&mut self, now: Time, want: u64) -> u64 {
        let credits = self.credits(now);
        // `credits >= 0`, so the cast's truncation is `floor`.
        let granted = (credits as u64).min(want);
        if granted > 0 {
            self.credits = credits - granted as f64;
            self.anchor = self.anchor.max(now);
        }
        self.shed += want - granted;
        granted
    }

    /// Whether a grant at `now` has a whole credit to hand out.
    pub(crate) fn has_credit(&self, now: Time) -> bool {
        self.credits(now) >= 1.0
    }

    /// Count `asks` posts as shed without asking: all `grant`s that find
    /// no whole credit do, added up.
    pub(crate) fn defer(&mut self, asks: u64) {
        self.shed += asks;
    }

    /// When (at or after `now`) at least one credit will be available;
    /// [`Time::MAX`] if not within the clock's range.
    pub fn next_credit_at(&self, now: Time) -> Time {
        let credits = self.credits(now);
        if credits >= 1.0 {
            return now;
        }
        let secs = (1.0 - credits) / self.rate_per_sec;
        // The cast saturates: a credit past `u64::MAX` ps is never.
        let at = now.saturating_add(Time::from_ps((secs * 1e12).ceil() as u64));
        // The quotient is rounded up to a whole picosecond, but the sum a
        // grant there makes can still fall a rounding short of one.
        if at < Time::MAX && !self.has_credit(at) {
            return at + Time::from_ps(1);
        }
        at
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
        assert_eq!(packing.pus_claimed, [4, 4], "8 PUs claimed, 16 available");
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
        assert_eq!(packing.pus_claimed.iter().sum::<usize>(), 20);
        assert!(
            packing.placements.iter().all(|p| p.pu_base < 8),
            "ranges wrapped"
        );
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

    #[test]
    fn credit_pacer_never_wakes_past_the_clock() {
        for rate in [0.0, -5.0, f64::NAN, 1e-9] {
            let mut p = CreditPacer::new(rate, 2.0, Time::from_secs(1));
            assert_eq!(p.grant(Time::from_secs(1), 3), 2, "{rate}: the burst");
            let t = Time::from_secs(2);
            assert_eq!(p.next_credit_at(t), Time::MAX, "{rate}");
            assert!(!p.has_credit(t));
        }
    }

    /// A seeded xorshift64 draw in `0..n`.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % n
    }

    /// The anchor makes the pacer a function of its grants: asking more
    /// often — for nothing, whether it has a credit, or when it will —
    /// changes no grant, no `shed` and no `next_credit_at`. And
    /// `next_credit_at(t)` is exact to a nanosecond from below, which is
    /// what lets a closed loop run to `next_credit_at − 1 ns` unturned.
    #[test]
    fn credit_pacer_answers_do_not_depend_on_how_often_it_is_asked() {
        let mut state = 0x5eed_u64;
        for (rate, burst) in [(35e3, 1.0), (150e3, 32.0), (1e6, 4.0), (3.3e6, 16.0)] {
            let mut schedule = Vec::new();
            let mut t = Time::from_us(draw(&mut state, 1000));
            for _ in 0..2000 {
                // Gaps from none to three credits' worth.
                let gap = (draw(&mut state, 3001) as f64 * 1e9 / rate) as u64;
                t += Time::from_ps(gap);
                schedule.push((t, draw(&mut state, 6)));
            }
            let start = Time::ZERO;
            let mut plain = CreditPacer::new(rate, burst, start);
            let mut asked = CreditPacer::new(rate, burst, start);
            let mut prev = start;
            for &(t, want) in &schedule {
                // Extra questions at random instants since the last ask.
                for _ in 0..draw(&mut state, 4) {
                    let x = prev + Time::from_ps(draw(&mut state, (t - prev).as_ps() + 1));
                    match draw(&mut state, 3) {
                        0 => assert_eq!(asked.grant(x, 0), 0),
                        1 => _ = asked.has_credit(x),
                        _ => _ = asked.next_credit_at(x),
                    }
                    check_wake_bound(&asked, x);
                }
                let got = (plain.grant(t, want), plain.shed(), plain.next_credit_at(t));
                let again = (asked.grant(t, want), asked.shed(), asked.next_credit_at(t));
                assert_eq!(got, again, "rate {rate}, burst {burst}, at {t:?}");
                check_wake_bound(&plain, t);
                prev = t;
            }
            assert!(plain.shed() > 0, "rate {rate}: the schedule overdrives it");
        }
    }

    /// Below one credit at `t`: the wake holds a credit and a nanosecond
    /// before it does not.
    fn check_wake_bound(p: &CreditPacer, t: Time) {
        if p.has_credit(t) {
            assert_eq!(p.next_credit_at(t), t);
            return;
        }
        let wake = p.next_credit_at(t);
        assert!(p.has_credit(wake), "no credit at the wake {wake:?}");
        assert!(
            !p.has_credit(wake.saturating_sub(Time::from_ns(1))),
            "a credit before {wake:?} - 1 ns"
        );
    }
}
