//! Host-side model: CPU cores, processes, and crash injection.
//!
//! The paper's baselines and use-cases need a CPU on the other side of the
//! PCIe bus: two-sided RPC handlers (polling or event-driven, §5.2),
//! contended servers (§5.5), and crashing/restarting Memcached instances
//! (§5.6). This module models just enough of a host for those experiments:
//!
//! * a pool of cores with FIFO queueing,
//! * context-switch and scheduler-quantum penalties once runnable threads
//!   exceed cores (the tail-latency mechanism behind Fig 15),
//! * processes that own RDMA resources; an offload registered to the
//!   always-alive process 0 is §5.6's "hull" (\[38\]) and survives the
//!   crash of the process that serves it.

use crate::config::HostConfig;
use crate::engine::PoolResource;
use crate::ids::ProcessId;
use crate::time::Time;

/// One simulated host (the CPU side of a node).
pub(crate) struct Host {
    /// Host configuration.
    pub(crate) config: HostConfig,
    /// CPU cores.
    pub(crate) cores: PoolResource,
    /// Whether each process, indexed by `ProcessId`, is running.
    pub(crate) alive: Vec<bool>,
    /// Number of logically-runnable host threads (polling loops, workers).
    /// Used to decide when scheduler pressure kicks in.
    pub(crate) runnable_threads: usize,
    /// Whether the OS is up. An OS panic stops all host-side execution but
    /// leaves memory (and therefore NIC offloads) intact — the §5.6
    /// observation that "RNICs can still access memory even in the
    /// presence of an OS failure".
    pub(crate) os_alive: bool,
    /// CPU time consumed (all cores).
    pub(crate) stat_cpu_time: Time,
}

impl Host {
    /// Create a host with one pre-spawned "init" process (pid 0), which
    /// plays the role of the always-alive resource hull.
    pub(crate) fn new(config: HostConfig) -> Host {
        let cores = PoolResource::new(config.cores);
        Host {
            config,
            cores,
            alive: vec![true],
            runnable_threads: 0,
            os_alive: true,
            stat_cpu_time: Time::ZERO,
        }
    }

    /// Spawn a process.
    pub(crate) fn spawn(&mut self) -> ProcessId {
        self.alive.push(true);
        ProcessId(self.alive.len() as u32 - 1)
    }

    /// Mark a process dead. Returns true if it was alive.
    pub(crate) fn kill(&mut self, pid: ProcessId) -> bool {
        match self.alive.get_mut(pid.index()) {
            Some(alive) if *alive => {
                *alive = false;
                true
            }
            _ => false,
        }
    }

    /// Restart a dead process (models the OS supervisor respawning it).
    pub(crate) fn restart(&mut self, pid: ProcessId) -> bool {
        match self.alive.get_mut(pid.index()) {
            Some(alive) if !*alive => {
                *alive = true;
                true
            }
            _ => false,
        }
    }

    /// Kernel panic: all host execution stops. NIC state is untouched.
    pub(crate) fn os_panic(&mut self) {
        self.os_alive = false;
    }

    /// Execute `demand` of CPU work starting at `now`, modeling scheduler
    /// pressure. Returns the completion time.
    ///
    /// When runnable threads fit in the cores, this is plain FIFO queueing.
    /// When they do not (Fig 15's writer storm), each slice first pays a
    /// context switch, and the *k*-th excess thread waits up to a quantum —
    /// the deterministic analogue of CFS time-slicing. `thread_seq` is a
    /// stable per-request sequence used to spread quantum delays
    /// deterministically instead of randomly.
    pub(crate) fn execute(&mut self, now: Time, demand: Time, thread_seq: u64) -> Time {
        debug_assert!(self.os_alive, "execute on a panicked host");
        let mut start_floor = now;
        let mut total = demand;
        let threads = self.runnable_threads.max(1);
        let cores = self.cores.len();
        if threads > cores {
            // Oversubscribed: pay a context switch per slice, and stagger
            // by a deterministic fraction of the scheduling quantum.
            total += self.config.t_context_switch;
            let excess = (threads - cores) as u64;
            let phase = thread_seq % (excess + 1);
            let quantum_wait =
                Time::from_ps(self.config.t_sched_quantum.as_ps() * phase / (excess + 1));
            start_floor += quantum_wait;
        }
        let (_, finish) = self.cores.acquire(start_floor, total);
        self.stat_cpu_time += total;
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;

    fn host(cores: usize) -> Host {
        let cfg = HostConfig {
            cores,
            ..HostConfig::default()
        };
        Host::new(cfg)
    }

    /// Whether `pid` exists and is alive, and the OS is up.
    fn is_alive(h: &Host, pid: ProcessId) -> bool {
        h.os_alive && h.alive.get(pid.index()) == Some(&true)
    }

    #[test]
    fn init_process_exists_and_lives() {
        let h = host(4);
        assert!(is_alive(&h, ProcessId(0)));
        assert!(!is_alive(&h, ProcessId(9)));
    }

    #[test]
    fn spawn_kill_restart_cycle() {
        let mut h = host(4);
        let pid = h.spawn();
        assert!(is_alive(&h, pid));
        assert!(h.kill(pid));
        assert!(!is_alive(&h, pid));
        assert!(!h.kill(pid)); // double-kill is a no-op
        assert!(h.restart(pid));
        assert!(is_alive(&h, pid));
        assert!(!h.restart(pid)); // restart of a live process is a no-op
    }

    #[test]
    fn os_panic_kills_everything_host_side() {
        let mut h = host(4);
        let pid = h.spawn();
        h.os_panic();
        assert!(!is_alive(&h, pid));
        assert!(!is_alive(&h, ProcessId(0)));
        assert!(!h.os_alive);
    }

    #[test]
    fn uncontended_execution_is_fifo() {
        let mut h = host(2);
        h.runnable_threads = 2;
        let d = Time::from_us(10);
        let t1 = h.execute(Time::ZERO, d, 0);
        let t2 = h.execute(Time::ZERO, d, 1);
        // Two cores: both finish at 10 us, no penalty.
        assert_eq!(t1, d);
        assert_eq!(t2, d);
        // Third job queues behind the earliest.
        let t3 = h.execute(Time::ZERO, d, 2);
        assert_eq!(t3, d * 2);
    }

    #[test]
    fn oversubscription_adds_context_switch_and_quantum_delay() {
        let mut h = host(1);
        h.runnable_threads = 4; // 3 excess threads
        let d = Time::from_us(10);
        let base = h.execute(Time::ZERO, d, 0); // phase 0: no quantum wait
        assert_eq!(base, d + h.config.t_context_switch);
        // A later-phase request waits a fraction of the quantum too.
        let mut h2 = host(1);
        h2.runnable_threads = 4;
        let delayed = h2.execute(Time::ZERO, d, 2);
        assert!(delayed > base);
    }

    #[test]
    fn cpu_time_accounting() {
        let mut h = host(2);
        h.runnable_threads = 1;
        h.execute(Time::ZERO, Time::from_us(5), 0);
        h.execute(Time::ZERO, Time::from_us(7), 1);
        assert_eq!(h.stat_cpu_time, Time::from_us(12));
    }
}
